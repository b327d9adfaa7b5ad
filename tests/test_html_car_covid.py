"""HtmlCollection (parity vs the reference's bundled CACM archive),
CarCollection (minimal CBOR decoder + trec-car paragraph schema), and the
four Covid collection variants."""

import json
import struct

import pytest
from conftest import requires_reference

CACM = "/root/reference/src/main/resources/cacm/cacm.tar.gz"


@requires_reference(CACM)
def test_html_collection_cacm_archive():
    from anserini_ray.sources.html_collection import parse_html_archive

    docs = parse_html_archive(CACM)
    assert len(docs) == 3204  # HtmlCollectionTest.java expectation
    ids = {d for d, _, _ in docs}
    assert "CACM-0001" in ids and "CACM-3204" in ids
    by_id = {d: c for d, c, _ in docs}
    assert "International Algebraic Language" in by_id["CACM-0001"]
    assert "<" not in by_id["CACM-0040"]


def test_html_collection_dataset(ray_session, tmp_path):
    from anserini_ray.sources import read_html_collection

    (tmp_path / "a.html").write_text("<html><title>T</title><body>Hello <b>world</b></body></html>")
    rows = read_html_collection(str(tmp_path)).take_all()
    assert len(rows) == 1
    assert rows[0]["conv_id"] == "a"
    assert "Hello" in rows[0]["text"] and "<" not in rows[0]["text"]


# ----------------------------------------------------------- CBOR helpers
def _tstr(s: str) -> bytes:
    b = s.encode()
    assert len(b) < 24
    return bytes([0x60 | len(b)]) + b


def _arr(n: int) -> bytes:
    assert n < 24
    return bytes([0x80 | n])


def test_cbor_decoder_basics():
    from anserini_ray.sources.car_collection import cbor_decode_item

    assert cbor_decode_item(bytes([0x17]))[0] == 23
    assert cbor_decode_item(bytes([0x18, 0x2A]))[0] == 42
    assert cbor_decode_item(struct.pack(">BH", 0x19, 1000))[0] == 1000
    assert cbor_decode_item(bytes([0x20]))[0] == -1
    v, _ = cbor_decode_item(_tstr("hi"))
    assert v == "hi"
    # indefinite-length text string: (_ "ab" "c")
    v, _ = cbor_decode_item(bytes([0x7F]) + _tstr("ab") + _tstr("c") + bytes([0xFF]))
    assert v == "abc"
    # array + map
    v, _ = cbor_decode_item(_arr(2) + bytes([0x01]) + _tstr("x"))
    assert v == [1, "x"]
    v, _ = cbor_decode_item(bytes([0xA1]) + _tstr("k") + bytes([0x05]))
    assert v == {"k": 5}


def test_car_paragraphs_roundtrip(ray_session, tmp_path):
    from anserini_ray.sources import parse_car_paragraphs, read_car_collection

    # Paragraph := [0, paraId, [ParaBody...]]; bodies: text + link-with-anchor
    para1 = (
        _arr(3) + bytes([0x00]) + _tstr("p1")
        + _arr(2)
        + (_arr(2) + bytes([0x00]) + _tstr("Hello "))
        + (_arr(3) + bytes([0x01]) + _tstr("Some Page") + _tstr("anchor"))
    )
    para2 = (
        _arr(3) + bytes([0x00]) + _tstr("p2")
        + _arr(1)
        + (_arr(2) + bytes([0x00]) + _tstr("Second paragraph."))
    )
    blob = para1 + para2
    docs = parse_car_paragraphs(blob)
    assert docs == [("p1", "Hello anchor"), ("p2", "Second paragraph.")]

    f = tmp_path / "paras.cbor"
    f.write_bytes(blob)
    rows = read_car_collection(str(tmp_path)).take_all()
    assert {r["conv_id"] for r in rows} == {"p1", "p2"}


# ------------------------------------------------------------------ covid
@pytest.fixture()
def covid_fixture(tmp_path):
    base = tmp_path
    (base / "ft" / "pdf_json").mkdir(parents=True)
    full = {
        "body_text": [
            {"text": "Para one about vaccines."},
            {"text": "Para two about trials."},
        ],
        "facets": ["rct"],
    }
    (base / "ft" / "pdf_json" / "abc123.json").write_text(json.dumps(full))
    csv_text = (
        "cord_uid,sha,title,abstract,has_pdf_parse,full_text_file\n"
        'u1,abc123,"Covid\nstudy","An abstract.",True,ft\n'
        "u2,,Other paper,,False,\n"
    )
    (base / "metadata.csv").write_text(csv_text)
    return str(base / "metadata.csv"), str(base), full


def test_covid_variants(covid_fixture):
    from anserini_ray.sources import covid_facets, parse_covid_metadata

    csv_path, base, full = covid_fixture
    docs = parse_covid_metadata(csv_path, base, "covid")
    by_id = {d: (c, r) for d, c, r in docs}
    assert set(by_id) == {"u1", "u2"}
    # newline in title -> space; abstract appended after \n
    assert by_id["u1"][0] == "Covid study\nAn abstract."
    assert json.loads(by_id["u1"][1]) == full     # raw = fulltext json
    assert by_id["u2"][0] == "Other paper"        # empty abstract: no \n
    assert json.loads(by_id["u2"][1])["cord_uid"] == "u2"  # raw = record json

    ft = {d: c for d, c, _ in parse_covid_metadata(csv_path, base, "covid_fulltext")}
    assert ft["u1"].startswith("Covid study\nAn abstract.\n ")
    assert "body_text" in ft["u1"]

    para = parse_covid_metadata(csv_path, base, "covid_paragraph")
    ids = [d for d, _, _ in para]
    assert ids == ["u1", "u1.00001", "u1.00002", "u2"]
    texts = {d: c for d, c, _ in para}
    assert texts["u1.00001"].endswith("Para one about vaccines.")

    assert covid_facets(csv_path, base) == {"u1": ["rct"]}


def test_covid_dataset(ray_session, covid_fixture):
    from anserini_ray.sources import read_covid_collection

    _, base, _ = covid_fixture
    rows = read_covid_collection(base, "covid_paragraph").take_all()
    assert {r["conv_id"] for r in rows} == {"u1", "u1.00001", "u1.00002", "u2"}
