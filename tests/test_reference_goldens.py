"""Replay of the REFERENCE'S OWN end-to-end golden fixtures
(`T/integration/TrecEndToEndTest.java`): parse its sample TREC collection,
build our index, run its topic, and compare our TREC run lines — including
the 6-decimal scores — against the hard-coded golden outputs the reference
asserts for Lucene. This is direct cross-engine parity evidence, not
self-oracle agreement."""

import pytest
from conftest import requires_reference

from anserini_ray.sources.trec_collection import parse_trec_file

REF_COLLECTION = "/root/reference/src/test/resources/sample_docs/trec/collection2"
REF_TOPIC = "/root/reference/src/test/resources/sample_topics/Trec"

GOLDEN_CONTENTS = {
    "TREC_DOC_1": "This is head very simple text",
    "WSJ_1": "head text 01/30/03 content",
    "DOC222": "HEAD simple enough text text text",
}

# TrecEndToEndTest.setSearchGroundTruth — Lucene's actual output
GOLDEN_RUNS = {
    "bm25": [
        "1 Q0 DOC222 1 0.343200 Anserini",
        "1 Q0 TREC_DOC_1 2 0.333400 Anserini",
        "1 Q0 WSJ_1 3 0.068700 Anserini",
    ],
    "qld": [
        "1 Q0 DOC222 1 0.002500 Anserini",
        "1 Q0 TREC_DOC_1 2 0.001700 Anserini",
        "1 Q0 WSJ_1 3 0.000000 Anserini",
    ],
    "qljm": [
        "1 Q0 DOC222 1 4.872300 Anserini",
        "1 Q0 TREC_DOC_1 2 4.619100 Anserini",
        "1 Q0 WSJ_1 3 1.658200 Anserini",
    ],
    "inl2": [
        "1 Q0 TREC_DOC_1 1 0.133200 Anserini",
        "1 Q0 DOC222 2 0.126100 Anserini",
        "1 Q0 WSJ_1 3 0.021100 Anserini",
    ],
    "spl": [
        "1 Q0 DOC222 1 0.446100 Anserini",
        "1 Q0 TREC_DOC_1 2 0.355000 Anserini",
        "1 Q0 WSJ_1 3 0.115900 Anserini",
    ],
    "f2exp": [
        "1 Q0 DOC222 1 1.434700 Anserini",
        "1 Q0 TREC_DOC_1 2 1.269600 Anserini",
        "1 Q0 WSJ_1 3 0.536200 Anserini",
    ],
    "f2log": [
        "1 Q0 DOC222 1 0.548500 Anserini",
        "1 Q0 TREC_DOC_1 2 0.523100 Anserini",
        "1 Q0 WSJ_1 3 0.139500 Anserini",
    ],
}


@requires_reference(f"{REF_COLLECTION}/trec1", f"{REF_COLLECTION}/trec2")
def test_trec_parser_matches_reference_contents():
    got = {}
    for name in ("trec1", "trec2"):
        with open(f"{REF_COLLECTION}/{name}") as f:
            got.update({d: c for d, c, _ in parse_trec_file(f)})
    assert got == GOLDEN_CONTENTS


@pytest.fixture(scope="module")
def golden_index(ray_session, tmp_path_factory):
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.sources.trec_collection import read_trec_collection

    tmp = tmp_path_factory.mktemp("golden")
    ds = read_trec_collection(REF_COLLECTION)
    index_dir = str(tmp / "idx")
    m = build_index(ds, index_dir, IndexConfig(seg_shift=4), input_files=[])
    assert m.doc_count == 3  # TrecEndToEndTest.setCheckIndexGroundTruth
    return index_dir


def _topic_title():
    from anserini_ray.sources.topics import read_trec_topics

    topics = read_trec_topics(REF_TOPIC)
    return topics[1]["title"]


@requires_reference(REF_COLLECTION, REF_TOPIC)
@pytest.mark.parametrize("model", list(GOLDEN_RUNS))
def test_reference_golden_run(golden_index, model):
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run

    title = _topic_title()
    assert title == "simple text"
    if model == "bm25":
        s = LocalSearcher(golden_index)
    else:
        s = LocalSearcher(golden_index, similarity=model)
    docids, scores = s.search(title, k=1000)
    # our docids carry the ':0' turn suffix for single-doc collections
    docids = [d.removesuffix(":0") for d in docids]
    lines = format_trec_run("1", docids, scores, runtag="Anserini")
    assert lines == GOLDEN_RUNS[model], f"{model}: {lines}"


@requires_reference(f"{REF_COLLECTION}/whitelist.txt", REF_TOPIC)
def test_reference_whitelist_golden(ray_session, tmp_path_factory):
    """TrecEndToEndWhitelistTest: whitelist restricts indexing to DOC222;
    golden bm25 run '1 Q0 DOC222 1 0.372700 Anserini'."""
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run
    from anserini_ray.sources.trec_collection import read_trec_collection

    tmp = tmp_path_factory.mktemp("golden_wl")
    with open(f"{REF_COLLECTION}/whitelist.txt") as f:
        wl = {f"{line.strip()}:0" for line in f if line.strip()}
    ds = read_trec_collection(REF_COLLECTION)
    index_dir = str(tmp / "idx")
    m = build_index(
        ds, index_dir, IndexConfig(seg_shift=4), input_files=[], whitelist=wl
    )
    assert m.doc_count == 1
    s = LocalSearcher(index_dir)
    docids, scores = s.search(_topic_title(), k=1000)
    docids = [d.removesuffix(":0") for d in docids]
    lines = format_trec_run("1", docids, scores, runtag="Anserini")
    assert lines == ["1 Q0 DOC222 1 0.372700 Anserini"], lines


BIB_COLLECTION = "/root/reference/src/test/resources/sample_docs/bib/acl"
BIB_TOPICS = "/root/reference/src/test/resources/sample_topics/bibtex_topics.tsv"
BIB_GOLDEN_CONTENTS = {
    "article-id": "this is the title. ",
    "inproceedings-id": "this is the title. this is the abstract",
    "proceedings-id": "this is the title. ",
}
# BibtexEndToEndTest.setSearchGroundTruth — note the genuine score tie
# (0.073800 vs 0.073799): ties-adjust + docid tie-break exercised for real
BIB_GOLDEN_RUNS = {
    1: [
        "1 Q0 article-id 1 0.073800 Anserini",
        "1 Q0 proceedings-id 2 0.073799 Anserini",
        "1 Q0 inproceedings-id 3 0.064200 Anserini",
    ],
    2: ["2 Q0 inproceedings-id 1 0.471600 Anserini"],
}


@requires_reference(f"{BIB_COLLECTION}/segment1.bib")
def test_bibtex_parser_matches_reference_contents():
    from anserini_ray.sources.bibtex_collection import parse_bibtex

    with open(f"{BIB_COLLECTION}/segment1.bib") as f:
        got = dict(parse_bibtex(f.read()))
    assert got == BIB_GOLDEN_CONTENTS


@requires_reference(BIB_COLLECTION, BIB_TOPICS)
def test_bibtex_reference_golden_runs(ray_session, tmp_path_factory):
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run
    from anserini_ray.sources.bibtex_collection import read_bibtex_collection
    from anserini_ray.sources.topics import read_tsv_topics

    tmp = tmp_path_factory.mktemp("golden_bib")
    ds = read_bibtex_collection(BIB_COLLECTION)
    index_dir = str(tmp / "idx")
    m = build_index(ds, index_dir, IndexConfig(seg_shift=4), input_files=[])
    assert m.doc_count == 3
    s = LocalSearcher(index_dir)
    topics = read_tsv_topics(BIB_TOPICS)
    for qid, text in topics:
        docids, scores = s.search(text, k=1000)
        docids = [d.removesuffix(":0") for d in docids]
        lines = format_trec_run(str(qid), docids, scores, runtag="Anserini")
        assert lines == BIB_GOLDEN_RUNS[qid], f"q{qid}: {lines}"


CORE_COLLECTION = "/root/reference/src/test/resources/sample_docs/core"
CORE_TOPICS = "/root/reference/src/test/resources/sample_topics/core_topics.tsv"
CORE_GOLDEN_RUNS = {
    1: [
        "1 Q0 coreDoc1 1 0.243200 Anserini",
        "1 Q0 doi2 2 0.243199 Anserini",
    ],
    2: [
        "2 Q0 coreDoc1 1 0.243200 Anserini",
        "2 Q0 doi2 2 0.243199 Anserini",
    ],
    3: ["3 Q0 fullCoreDoc 1 0.534600 Anserini"],
}


@requires_reference(CORE_COLLECTION, CORE_TOPICS)
def test_core_reference_golden_runs(ray_session, tmp_path_factory):
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run
    from anserini_ray.sources.core_collection import read_core_collection
    from anserini_ray.sources.topics import read_tsv_topics

    tmp = tmp_path_factory.mktemp("golden_core")
    ds = read_core_collection(CORE_COLLECTION)
    index_dir = str(tmp / "idx")
    m = build_index(ds, index_dir, IndexConfig(seg_shift=4), input_files=[])
    assert m.doc_count == 3  # CoreEndToEndTest ground truth
    s = LocalSearcher(index_dir)
    topics = read_tsv_topics(CORE_TOPICS)
    for qid, text in topics:
        docids, scores = s.search(text, k=1000)
        docids = [d.removesuffix(":0") for d in docids]
        lines = format_trec_run(str(qid), docids, scores, runtag="Anserini")
        assert lines == CORE_GOLDEN_RUNS[qid], f"q{qid}: {lines}"


ACL_COLLECTION = "/root/reference/src/test/resources/sample_docs/acl"
ACL_TOPICS = "/root/reference/src/test/resources/sample_topics/acl_topics.tsv"
ACL_GOLDEN_RUNS = {
    1: [
        "1 Q0 C00-1007 1 0.294000 Anserini",
        "1 Q0 E17-1003 2 0.186100 Anserini",
    ],
    2: ["2 Q0 C00-1003 1 0.622700 Anserini"],
}


@requires_reference(ACL_COLLECTION, ACL_TOPICS)
def test_acl_reference_golden_runs(ray_session, tmp_path_factory):
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run
    from anserini_ray.sources.acl_anthology import read_acl_anthology
    from anserini_ray.sources.topics import read_tsv_topics

    tmp = tmp_path_factory.mktemp("golden_acl")
    ds = read_acl_anthology(ACL_COLLECTION)
    index_dir = str(tmp / "idx")
    m = build_index(ds, index_dir, IndexConfig(seg_shift=4), input_files=[])
    assert m.doc_count == 3
    s = LocalSearcher(index_dir)
    topics = read_tsv_topics(ACL_TOPICS)
    for qid, text in topics:
        docids, scores = s.search(text, k=1000)
        docids = [d.removesuffix(":0") for d in docids]
        lines = format_trec_run(str(qid), docids, scores, runtag="Anserini")
        assert lines == ACL_GOLDEN_RUNS[qid], f"q{qid}: {lines}"


TWEET_COLLECTION = "/root/reference/src/test/resources/sample_docs/tweets/collection1"
TWEET_TOPICS = "/root/reference/src/test/resources/sample_topics/Microblog"
TWEET_GOLDEN_CONTENTS = {
    "3": "This tweet will be indexed thanks",
    "5": "Can you think of more interesting contents",
    "6": "We have some real contents here thanks",
    "8": "test adding more tweet",
}
TWEET_GOLDEN_RUN = [
    "1 Q0 5 1 0.614300 Anserini",
    "1 Q0 3 2 0.364800 Anserini",
]


@requires_reference(f"{TWEET_COLLECTION}/tweets1.jsonl",
                    f"{TWEET_COLLECTION}/tweets2.jsonl")
def test_tweet_parser_matches_reference_contents():
    from anserini_ray.sources.tweet_collection import parse_tweets

    got = {}
    for name in ("tweets1.jsonl", "tweets2.jsonl"):
        with open(f"{TWEET_COLLECTION}/{name}") as f:
            got.update({i: c for i, _, c in parse_tweets(f, max_id=9)})
    assert got == TWEET_GOLDEN_CONTENTS


@requires_reference(TWEET_COLLECTION, TWEET_TOPICS)
def test_tweet_reference_golden_run(ray_session, tmp_path_factory):
    """TweetEndToEndTest: TweetAnalyzer (whitespace + entity-preserving +
    Porter, NO stop filter), querytweettime filter via ts_range."""
    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.search.ties import format_trec_run
    from anserini_ray.sources.topics import read_microblog_topics
    from anserini_ray.sources.tweet_collection import read_tweet_collection

    tmp = tmp_path_factory.mktemp("golden_tweet")
    ds = read_tweet_collection(TWEET_COLLECTION, max_id=9)
    index_dir = str(tmp / "idx")
    m = build_index(
        ds,
        index_dir,
        IndexConfig(seg_shift=4, analyzer={"type": "tweet"}),
        input_files=[],
    )
    assert m.doc_count == 4  # 9 objects - 3 deletes - 1 retweet - 1 maxId
    s = LocalSearcher(index_dir, analyzer_config={"type": "tweet"})
    topics = read_microblog_topics(TWEET_TOPICS)
    qid, query, tweettime = topics[0]
    assert (qid, query, tweettime) == (1, "think tweet", 7)
    docids, scores = s.search(query, k=1000, ts_range=(0, tweettime))
    docids = [d.removesuffix(":0") for d in docids]
    lines = format_trec_run(str(qid), docids, scores, runtag="Anserini")
    assert lines == TWEET_GOLDEN_RUN, lines
