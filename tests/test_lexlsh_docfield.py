"""Lexical-LSH encoder (reference J/ann/lexlsh chain; self-retrieval test
mirroring LexicalLshAnalyzerTest.java with its exact vector texts),
documentByField lookup, and the tweet-id score-tie break."""

import numpy as np
import pyarrow as pa
import pytest

# the exact texts from LexicalLshAnalyzerTest.java:34-37
REF_TEXTS = [
    "0.1,0.3,0.5,0.7,0.11,0.13,0.17,0.19,0.23,0.29",
    "0.111 0.3333 0.4445 0.5755 0.1551131 0.12131233 0.155557 0.1123219 0.6623 0.429",
]


def test_lexlsh_token_chain():
    from anserini_ray.stages.lexlsh import LexicalLshEncoder

    enc = LexicalLshEncoder(decimals=1)
    toks = enc.tokens(REF_TEXTS[0])
    assert toks and len(toks) == len(set(toks))  # RemoveDuplicates
    # deterministic
    assert toks == enc.tokens(REF_TEXTS[0])
    # truncation: '0.111' and '0.13' agree at 1 decimal with '0.1'
    enc2 = LexicalLshEncoder(decimals=2)
    assert enc.tokens("0.111 0.222") == enc.tokens("0.15 0.29")  # same at 1dp
    assert enc2.tokens("0.111 0.222") != enc2.tokens("0.15 0.29")
    with pytest.raises(ValueError):
        LexicalLshEncoder(decimals=0)


def test_lexlsh_self_retrieval(ray_session, tmp_path):
    """LexicalLshAnalyzerTest.assertSimQuery analog: indexing a vector and
    querying with the same text retrieves that document first."""
    import ray.data

    from anserini_ray.stages.lexlsh import build_lexlsh_index, lexlsh_topk

    rng = np.random.default_rng(3)
    vecs = rng.random((20, 10))
    # include the reference test's first vector verbatim
    vecs[0] = [0.1, 0.3, 0.5, 0.7, 0.11, 0.13, 0.17, 0.19, 0.23, 0.29]
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))
    ]
    idx = str(tmp_path / "lexlsh")
    build_lexlsh_index(ray.data.from_items(rows), idx)
    res = lexlsh_topk(idx, vecs[:3], k=5)
    by_q = {}
    for r in res.to_pylist():
        by_q.setdefault(r["query_idx"], []).append(r["doc_id"])
    for qi in range(3):
        assert by_q[qi][0] == f"vec-{qi:010d}:0"  # self-retrieval at rank 1


def test_document_by_field(ray_session, tmp_path):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.sources import generate_transcripts

    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(generate_transcripts(300, seed=4)),
        idx,
        IndexConfig(seg_shift=7, assume_sorted=True),
        input_files=[],
    )
    s = LocalSearcher(idx)
    doc = s.document_by_field("conv_id", "conv-000003")
    assert doc is not None and doc["conv_id"] == "conv-000003"
    assert doc["doc_id"].startswith("conv-000003:")
    assert s.document_by_field("conv_id", "no-such-conv") is None
    d2 = s.document_by_field("turn_idx", 5)
    assert d2 is not None and d2["turn_idx"] == 5


def _tweet_index(tmp_path) -> str:
    """Three tweets with identical texts -> exact score ties; ids chosen so
    string order and numeric order DISAGREE ("10" < "2" < "9" as strings;
    10 > 9 > 2). Positions, docvecs and ts are stored so that every query
    mode can run."""
    import ray.data

    from anserini_ray.index import IndexConfig, build_index

    rows = pa.table(
        {
            "conv_id": ["10", "9", "2"],
            "turn_idx": pa.array([0, 0, 0], type=pa.int32()),
            "text": ["same tweet text"] * 3,
            "ts": pa.array([100, 100, 100], type=pa.int64()),
        }
    )
    idx = str(tmp_path / "tw")
    build_index(
        ray.data.from_arrow(rows).sort(["conv_id", "turn_idx"]),
        idx,
        IndexConfig(seg_shift=4, store_positions=True, store_docvecs=True),
        input_files=[],
    )
    return idx


def test_tweetid_tie_break(ray_session, tmp_path):
    from anserini_ray.search import LocalSearcher

    idx = _tweet_index(tmp_path)
    s_doc = LocalSearcher(idx)
    ids_doc, _ = s_doc.search("tweet text", k=3, adjust_ties=False)
    assert ids_doc == ["10:0", "2:0", "9:0"]  # docid-string ASC
    s_tw = LocalSearcher(idx, tie_break="tweetid")
    ids_tw, _ = s_tw.search("tweet text", k=3, adjust_ties=False)
    assert ids_tw == ["10:0", "9:0", "2:0"]  # numeric tweet id DESC
    # every query mode ranks through the same tie-break
    for mode, (ids, _) in {
        "weighted": s_tw.search_weighted([("tweet", 1.0), ("text", 0.5)], k=3),
        "rm3": s_tw.search_rm3("tweet text", k=3),
        "axiom": s_tw.search_axiom("tweet text", k=3),
        "phrase": s_tw.phrase_search("tweet text", k=3),
        "sdm": s_tw.search_sdm("same tweet text", k=3),
        "bm25prf": s_tw.search_bm25prf("tweet text", k=3),
    }.items():
        assert ids == ["10:0", "9:0", "2:0"], mode
    with pytest.raises(ValueError):
        LocalSearcher(idx, tie_break="nope")


def test_cli_searchtweets_breaks_ties_by_tweet_id(ray_session, tmp_path):
    """-searchtweets sorts score ties by tweet id DESC, as the reference's
    searchTweets does (BREAK_SCORE_TIES_BY_TWEETID)."""
    from anserini_ray import cli

    idx = _tweet_index(tmp_path)
    topics = tmp_path / "topics.txt"
    topics.write_text(
        "<top>\n<num> Number: MB01 </num>\n<query> tweet text </query>\n"
        "<querytweettime> 1000 </querytweettime>\n</top>\n"
    )
    out = tmp_path / "run.txt"
    argv = ["-index", idx, "-topics", str(topics), "-topicreader",
            "microblog", "-output", str(out), "-hits", "3"]
    assert cli.cmd_search(argv + ["-searchtweets"]) == 0
    ranked = [line.split()[2] for line in out.read_text().splitlines()]
    assert ranked == ["10:0", "9:0", "2:0"]
    out.unlink()
    assert cli.cmd_search(argv) == 0
    ranked = [line.split()[2] for line in out.read_text().splitlines()]
    assert ranked == ["10:0", "2:0", "9:0"]


def test_distributed_searcher_has_no_tie_break():
    """The tweet-id tie break is a LocalSearcher option only: the actor-pool
    Searcher rejects it instead of silently returning docid order."""
    from anserini_ray.search.searcher import Searcher

    with pytest.raises(TypeError):
        Searcher("unused-index-dir", tie_break="tweetid")
