"""Trecweb / CleanTrec / ClueWeb09 / ClueWeb12 parsers vs the reference's
collection unit-test expectations (T/collection/*CollectionTest)."""

from conftest import requires_reference

SAMPLES = "/root/reference/src/test/resources/sample_docs"


@requires_reference(f"{SAMPLES}/trecweb/collection1/segment1.txt")
def test_trecweb_matches_reference():
    from anserini_ray.sources.web_collections import parse_trecweb_file

    with open(f"{SAMPLES}/trecweb/collection1/segment1.txt") as f:
        docs = parse_trecweb_file(f)
    # WEB-0002 is malformed (no <DOCNO> start) and must be skipped
    assert [d for d, _, _ in docs] == ["WEB-0001", "WEB-0003"]
    expected_raw = "<html>Wh at ever here will be parsed\n<br> asdf <div>\n</html>"
    for _, contents, raw in docs:
        assert raw == expected_raw
        assert contents == "Wh at ever here will be parsed asdf"


@requires_reference(f"{SAMPLES}/clean_trec/collection1/segment1.txt")
def test_clean_trec_matches_reference():
    from anserini_ray.sources.web_collections import parse_clean_trec_file

    with open(f"{SAMPLES}/clean_trec/collection1/segment1.txt") as f:
        docs = {d: (c, r) for d, c, r in parse_clean_trec_file(f)}
    assert docs["doc1"][1] == (
        "<TEXT>\nhere is a bit of text, and the <p>tags should not be "
        "removed.</p>\n</TEXT>"
    )
    assert docs["doc2"][1] == "<TEXT>\nhere is some text.\n</TEXT>"
    # CleanTrec: contents == raw (no tag stripping)
    for d, (c, r) in docs.items():
        assert c == r


@requires_reference(f"{SAMPLES}/cw09/collection1/segment1.warc.gz")
def test_clueweb09_matches_reference():
    from anserini_ray.sources.web_collections import parse_clueweb_file

    docs = parse_clueweb_file(
        f"{SAMPLES}/cw09/collection1/segment1.warc.gz", version="WARC/0.18"
    )
    assert [d for d, _, _ in docs] == ["clueweb09-az0000-00-00000"]
    _, contents, raw = docs[0]
    assert raw == "\n<html>\nwhatever here will be included\n</html>"
    assert contents == "whatever here will be included"


@requires_reference(f"{SAMPLES}/cw12/collection1/segment1.warc.gz")
def test_clueweb12_matches_reference():
    from anserini_ray.sources.web_collections import parse_clueweb_file

    docs = parse_clueweb_file(
        f"{SAMPLES}/cw12/collection1/segment1.warc.gz", version="WARC/1.0"
    )
    assert [d for d, _, _ in docs] == ["clueweb09-az0000-00-00000"]
    _, contents, raw = docs[0]
    # cw12 cuts at the first '<' after the HTTP headers (no leading newline)
    assert raw == "<html>\nwhatever here will be included\n</html>"
    assert contents == "whatever here will be included"


@requires_reference(f"{SAMPLES}/trecweb/collection1")
def test_trecweb_end_to_end(ray_session, tmp_path_factory):
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.sources.web_collections import read_trecweb_collection

    tmp = tmp_path_factory.mktemp("tw")
    ds = read_trecweb_collection(f"{SAMPLES}/trecweb/collection1")
    idx = str(tmp / "idx")
    m = build_index(ds, idx, IndexConfig(seg_shift=4), input_files=[])
    assert m.doc_count == 2
    s = LocalSearcher(idx)
    d, _ = s.search("asdf", k=5)
    assert set(d) == {"WEB-0001:0", "WEB-0003:0"}


@requires_reference(f"{SAMPLES}/washingtonpost/collection1/articles.jl")
def test_wapo_matches_reference():
    from anserini_ray.sources.wapo_collection import parse_wapo

    with open(f"{SAMPLES}/washingtonpost/collection1/articles.jl") as f:
        docs = parse_wapo(f)
    by_id = {d: c for d, c, _ in docs}
    expected = (
        "Controlled exposure to light can ease jet lag’s effects before and after a trip\n"
        "National\n"
        "Using light to help reset your body clock\n"
        "When traveling east:\n"
        "A few days before you leave, start exposing yourself to bright light in the morning.\n"
        "When traveling west:\n"
        "When you arrive, expose yourself to light during the evening hours.\n"
    )
    assert by_id["5f992bbc-4b9f-11e2-a6a6-aabac85e8036"] == expected


@requires_reference(f"{SAMPLES}/nyt/collection1/segment1.xml")
def test_nyt_matches_reference():
    from anserini_ray.sources.nyt_collection import parse_nyt_xml

    with open(f"{SAMPLES}/nyt/collection1/segment1.xml") as f:
        doc_id, contents = parse_nyt_xml(f.read())
    assert doc_id == "12345678"
    assert contents == (
        "Article Title\nArticle abstract.\nFirst paragraph.\nSecond paragraph."
    )


@requires_reference(f"{SAMPLES}/wikipedia/collection1/articles.xml.bz2")
def test_wikipedia_matches_reference():
    import bz2

    from anserini_ray.sources.wikipedia_collection import parse_wikipedia

    data = bz2.open(
        f"{SAMPLES}/wikipedia/collection1/articles.xml.bz2", "rb"
    ).read()
    docs = parse_wikipedia(data)
    assert len(docs) == 1
    title, contents = docs[0]
    assert title == "Wiktionary:Welcome, newcomers"
    assert contents == (
        "Wiktionary:Welcome, newcomers.\nthis is the   real content"
    )
