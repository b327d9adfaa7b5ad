"""Qrels reader (parse parity vs reference Qrels.java on the reference's own
sample fixtures) and the qrels ⋈ topics -> labeled LTR training-data join."""

import os

import pytest
from conftest import requires_reference

REF_QRELS = "/root/reference/src/test/resources/sample_qrels"


@requires_reference(os.path.join(REF_QRELS, "Trec"))
def test_qrels_parse_reference_trec_fixture():
    from anserini_ray.sources.qrels import Qrels, read_qrels

    t = read_qrels(os.path.join(REF_QRELS, "Trec"))
    q = Qrels(t)
    assert q.is_doc_judged("1", "DOC222")
    assert q.relevance_grade("1", "DOC222") == 1
    assert q.relevance_grade("1", "TREC_DOC_1") == 0
    assert q.relevance_grade("1", "WSJ_1") == 1
    assert not q.is_doc_judged("1", "NOPE")
    assert not q.is_doc_judged("99", "DOC222")
    assert q.relevance_grade("99", "DOC222") == 0


@requires_reference(os.path.join(REF_QRELS, "Microblog"))
def test_qrels_parse_reference_microblog_fixture():
    from anserini_ray.sources.qrels import Qrels, read_qrels

    q = Qrels(read_qrels(os.path.join(REF_QRELS, "Microblog")))
    assert q.relevance_grade("1", "3") == 1
    assert q.relevance_grade("1", "1") == 0
    assert q.is_doc_judged("1", "5")


def test_qrels_negative_grade_clamped(tmp_path):
    from anserini_ray.sources.qrels import Qrels, parse_qrels_lines

    q = Qrels(parse_qrels_lines(["7 0 DOCX -2", "7 0 DOCY 3"]))
    assert q.is_doc_judged("7", "DOCX")
    assert q.relevance_grade("7", "DOCX") == 0  # Qrels.java:83 clamp
    assert q.relevance_grade("7", "DOCY") == 3


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.sources import generate_transcripts

    idx = str(tmp_path_factory.mktemp("ltr_idx") / "idx")
    t = generate_transcripts(2000, seed=3)
    build_index(
        ray.data.from_arrow(t),
        idx,
        IndexConfig(
            seg_shift=10, assume_sorted=True,
            store_docvecs=True, store_positions=True,
        ),
        input_files=[],
    )
    return idx


def test_ltr_training_data_labels_and_skip(small_index):
    from anserini_ray.pipelines.ltr import (
        FEATURE_NAMES,
        extract_features,
        ltr_training_data,
        to_ranklib_lines,
    )
    from anserini_ray.search import LocalSearcher
    from anserini_ray.sources.qrels import parse_qrels_lines

    s = LocalSearcher(small_index)
    docs, _ = s.search("merge sort pipeline", k=4, adjust_ties=False)
    lines = [f"10 0 {d} {i % 3 - 1}" for i, d in enumerate(docs)]
    lines.append("10 0 missing-doc:0 2")        # absent from index -> skipped
    lines.append("99 0 conv-000000:0 1")        # qid without topic -> dropped
    qrels = parse_qrels_lines(lines)
    out = ltr_training_data(
        small_index, {"10": "merge sort pipeline"}, qrels
    ).take_all()
    assert len(out) == len(docs)
    by_doc = {r["doc_id"]: r for r in out}
    for i, d in enumerate(docs):
        assert by_doc[d]["label"] == max(i % 3 - 1, 0)  # negative clamped
        assert by_doc[d]["qid"] == "10"
    # features agree with the unlabeled extractor
    import pyarrow as pa

    pairs = pa.table(
        {
            "qid": ["10"] * len(docs),
            "query": ["merge sort pipeline"] * len(docs),
            "doc_id": docs,
        }
    )
    plain = {
        r["doc_id"]: r for r in extract_features(small_index, pairs).take_all()
    }
    for d in docs:
        for f in FEATURE_NAMES:
            assert by_doc[d][f] == plain[d][f]
    # ranklib formatting
    import pyarrow as pa2

    tbl = pa2.Table.from_pylist(out)
    rl = to_ranklib_lines(tbl)
    assert len(rl) == len(docs)
    assert rl[0].split()[1].startswith("qid:10")
    assert rl[0].split("#")[1].strip() in set(docs)
