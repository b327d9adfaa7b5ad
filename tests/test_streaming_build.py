"""Streaming (materialize-free) build path: metadata-derived ordinals with
holes, parity with the legacy sort path, unit-granular resume, and the
automatic fallback on unsorted input. See anserini_ray/index/streaming.py."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anserini_ray.index import IndexConfig, build_index
from anserini_ray.search.searcher import LocalSearcher
from anserini_ray.sources import write_synthetic_corpus

QUERIES = [
    "merge sort pipeline",
    "city bus running",
    "zq0003 schedule",
    "the index hash join",
]


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("stream_corpus"))
    write_synthetic_corpus(d, 20000, seed=11, rows_per_file=5000)
    return sorted(os.path.join(d, f) for f in os.listdir(d))


@pytest.fixture(scope="module")
def both_indexes(corpus, tmp_path_factory):
    import ray.data

    root = tmp_path_factory.mktemp("stream_idx")
    d_stream = str(root / "stream")
    d_legacy = str(root / "legacy")
    m1 = build_index(
        index_dir=d_stream,
        config=IndexConfig(seg_shift=12, assume_sorted=True, store_docvecs=True),
        input_paths=corpus,
    )
    ds = ray.data.read_parquet(corpus, columns=["conv_id", "turn_idx", "text", "ts"])
    m2 = build_index(
        ds,
        d_legacy,
        IndexConfig(seg_shift=12, assume_sorted=False, store_docvecs=True),
        input_files=corpus,
    )
    return d_stream, d_legacy, m1, m2


def test_counters_match_legacy(both_indexes):
    _, _, m1, m2 = both_indexes
    assert m1.doc_count == m2.doc_count
    assert m1.sum_total_tf == m2.sum_total_tf
    assert m1.counters["total_input"] == m2.counters["total_input"] == 20000
    assert m1.counters["empty"] == m2.counters["empty"] > 0  # holes exist
    assert m1.counters["total_units"] == len(
        glob.glob(os.path.join(both_indexes[0], "units", "u*.json"))
    )


def test_search_parity_with_legacy(both_indexes):
    d_stream, d_legacy, _, _ = both_indexes
    s1 = LocalSearcher(d_stream)
    s2 = LocalSearcher(d_legacy)
    s1p = LocalSearcher(d_stream, prune=True)
    for q in QUERIES:
        ids1, sc1 = s1.search(q, k=30)
        ids2, sc2 = s2.search(q, k=30)
        assert ids1 == ids2
        assert [round(float(x), 6) for x in sc1] == [
            round(float(x), 6) for x in sc2
        ]
        ids3, sc3 = s1p.search(q, k=30)
        assert ids1 == ids3 and list(map(float, sc1)) == list(map(float, sc3))


def test_docvec_paths_parity(both_indexes):
    d_stream, d_legacy, _, _ = both_indexes
    s1 = LocalSearcher(d_stream)
    s2 = LocalSearcher(d_legacy)
    r1 = s1.search_rm3(QUERIES[0], k=15)
    r2 = s2.search_rm3(QUERIES[0], k=15)
    assert r1[0] == r2[0]
    a1 = s1.search_axiom(QUERIES[1], k=15)
    a2 = s2.search_axiom(QUERIES[1], k=15)
    assert a1[0] == a2[0]


def test_unit_resume_skips_finished(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    m1 = build_index(index_dir=idx, config=cfg, input_paths=corpus)
    s_before = LocalSearcher(idx)
    base = {q: s_before.search(q, k=10) for q in QUERIES}

    # simulate a crashed build: drop two units' outputs + markers
    markers = sorted(glob.glob(os.path.join(idx, "units", "u*.json")))
    assert len(markers) >= 3
    killed = []
    for p in markers[:2]:
        uid = int(json.load(open(p))["unit_id"])
        killed.append(uid)
        os.unlink(p)
        for f in glob.glob(os.path.join(idx, "*", "segment_id=*",
                                        f"u{uid:08d}.parquet")):
            os.unlink(f)

    cfg2 = IndexConfig(seg_shift=12, assume_sorted=True, resume=True)
    m2 = build_index(index_dir=idx, config=cfg2, input_paths=corpus)
    assert m2.counters["resumed_units"] == m1.counters["total_units"] - 2
    assert m2.doc_count == m1.doc_count
    s_after = LocalSearcher(idx)
    for q in QUERIES:
        ids, sc = s_after.search(q, k=10)
        assert (ids, list(map(float, sc))) == (
            base[q][0],
            list(map(float, base[q][1])),
        )


def test_intra_unit_disorder_sorted_in_stream(tmp_path):
    # shuffled rows WITHIN one unit: the streaming path sorts the unit in
    # place (unit-level fallback) — no full sort-path rebuild, and the
    # result equals what a globally sorted input produces
    src = str(tmp_path / "shuffled.parquet")
    t = pa.table(
        {
            "conv_id": ["c2", "c1", "c3", "c1", "c2", "c3"],
            "turn_idx": pa.array([1, 0, 0, 1, 0, 1], type=pa.int32()),
            "text": [
                "bus city", "merge sort", "hash join",
                "sort pipeline", "city running", "join scan",
            ],
        }
    )
    pq.write_table(t, src)
    idx = str(tmp_path / "idx")
    m = build_index(
        index_dir=idx,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=[src],
    )
    assert m.doc_count == 6
    s = LocalSearcher(idx)
    ids, _ = s.search("city", k=10)
    assert set(ids) == {"c2:1", "c2:0"}
    # handled by the STREAMING path: unit markers exist
    assert glob.glob(os.path.join(idx, "units", "u*.json"))
    # and the index equals a build over the pre-sorted input
    srt = str(tmp_path / "sorted.parquet")
    pq.write_table(
        t.take(pa.compute.sort_indices(
            t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )),
        srt,
    )
    idx2 = str(tmp_path / "idx2")
    m2 = build_index(
        index_dir=idx2,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=[srt],
    )
    s2 = LocalSearcher(idx2)
    for q in ["city", "merge sort", "join"]:
        d1, sc1 = s.search(q, k=10)
        d2, sc2 = s2.search(q, k=10)
        assert d1 == d2
        assert list(map(float, sc1)) == list(map(float, sc2))


def test_cross_unit_overlap_falls_back_to_sort_path(tmp_path):
    # keys OVERLAP ACROSS UNITS (sorted within each row group, but unit 2's
    # range interleaves unit 1's): per-unit sorting cannot fix this, so the
    # driver boundary check must trigger the full sort-path rebuild
    n = 600
    files = []
    for name, start in (("part-a.parquet", 0), ("part-b.parquet", 1)):
        conv = [f"a{i:04d}" for i in range(start, n, 2)]
        t = pa.table(
            {
                "conv_id": conv,
                "turn_idx": pa.array([0] * len(conv), type=pa.int32()),
                "text": ["merge sort city"] * len(conv),
            }
        )
        path = str(tmp_path / name)
        pq.write_table(t, path)
        files.append(path)
    idx = str(tmp_path / "idx")
    m = build_index(
        index_dir=idx,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=files,
    )
    assert m.doc_count == n
    # rebuilt from a sorted staging copy: unit markers, staging removed
    assert glob.glob(os.path.join(idx, "units", "u*.json"))
    assert not os.path.exists(os.path.join(idx, "staging"))


def test_equal_keys_at_unit_boundary_build_directly(ray_session, tmp_path):
    # a duplicate docid (no dedup_docids) straddles the file boundary: the
    # files are still sorted, so the streaming build takes them as they are
    files = []
    for name, convs in (("part-a.parquet", ["a0", "a1", "a2"]),
                        ("part-b.parquet", ["a2", "a3"])):
        t = pa.table(
            {
                "conv_id": convs,
                "turn_idx": pa.array([0] * len(convs), type=pa.int32()),
                "text": ["merge sort city"] * len(convs),
            }
        )
        path = str(tmp_path / name)
        pq.write_table(t, path)
        files.append(path)
    idx = str(tmp_path / "idx")
    m = build_index(
        index_dir=idx,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=files,
    )
    assert m.doc_count == 5
    # one unit per input file: no staging copy was made
    assert m.counters["total_units"] == 2
    assert len(glob.glob(os.path.join(idx, "units", "u*.json"))) == 2
    assert not os.path.exists(os.path.join(idx, "staging"))


def test_streaming_equals_legacy_property(ray_session, tmp_path):
    """Property-style check over randomized corpora (varied sizes, empty-doc
    rates, seeds): the streaming build and the legacy sort build always
    produce identical counters and bit-identical search scores."""
    import random

    import pyarrow.parquet as pq_
    import ray.data

    from anserini_ray.sources import generate_transcripts

    rng = random.Random(123)
    for trial in range(3):
        n = rng.choice([700, 2500, 6000])
        seed = rng.randrange(10_000)
        empty = rng.choice([0.0, 0.05, 0.2])
        t = generate_transcripts(n, seed=seed, empty_frac=empty)
        src = str(tmp_path / f"c{trial}")
        os.makedirs(src, exist_ok=True)
        # two files, small row groups: several units + file boundaries
        half = n // 2
        pq_.write_table(t.slice(0, half), f"{src}/a.parquet", row_group_size=512)
        pq_.write_table(t.slice(half), f"{src}/b.parquet", row_group_size=512)
        files = sorted(os.path.join(src, f) for f in os.listdir(src))

        d1, d2 = str(tmp_path / f"s{trial}"), str(tmp_path / f"l{trial}")
        m1 = build_index(
            index_dir=d1,
            config=IndexConfig(seg_shift=10, assume_sorted=True),
            input_paths=files,
        )
        m2 = build_index(
            ray.data.read_parquet(files, columns=["conv_id", "turn_idx", "text"]),
            d2,
            IndexConfig(seg_shift=10, assume_sorted=False),
            input_files=files,
        )
        assert m1.doc_count == m2.doc_count
        assert m1.sum_total_tf == m2.sum_total_tf
        assert m1.counters["empty"] == m2.counters["empty"]
        s1, s2 = LocalSearcher(d1), LocalSearcher(d2)
        for q in ("merge sort", "pipeline", "zq0001 window"):
            r1, sc1 = s1.search(q, k=25)
            r2, sc2 = s2.search(q, k=25)
            assert r1 == r2, (trial, q)
            assert list(map(float, sc1)) == list(map(float, sc2))


def test_streaming_with_positions_phrase_parity(corpus, tmp_path):
    """store_positions through the streaming path: phrase search results
    identical to a legacy positional build."""
    import ray.data

    d1, d2 = str(tmp_path / "sp"), str(tmp_path / "lp")
    build_index(
        index_dir=d1,
        config=IndexConfig(seg_shift=12, assume_sorted=True,
                           store_positions=True),
        input_paths=corpus,
    )
    build_index(
        ray.data.read_parquet(corpus, columns=["conv_id", "turn_idx", "text"]),
        d2,
        IndexConfig(seg_shift=12, store_positions=True),
        input_files=corpus,
    )
    s1, s2 = LocalSearcher(d1), LocalSearcher(d2)
    for q in ("merge sort", "city bus"):
        r1, sc1 = s1.phrase_search(q, k=20)
        r2, sc2 = s2.phrase_search(q, k=20)
        assert r1 == r2
        assert list(map(float, sc1)) == list(map(float, sc2))
        d_1, ssc1 = s1.search_sdm(q, k=20)
        d_2, ssc2 = s2.search_sdm(q, k=20)
        assert d_1 == d_2
        assert list(map(float, ssc1)) == list(map(float, ssc2))


def test_staged_single_block_orders_many_files(ray_session, tmp_path,
                                               monkeypatch):
    """A one-block Dataset stages into many row groups (one file per sorted
    block): the staged units stay in key order, and the index equals a
    direct build of the same rows sorted."""
    import random

    import ray.data

    from anserini_ray.index import streaming

    monkeypatch.setattr(streaming, "UNIT_TARGET_ROWS", 64)
    n = 64 * 12 + 7
    words = ["merge", "sort", "city", "bus", "pipeline", "window"]
    rows = [(f"c{i:04d}", i % 3, " ".join(words[j % 6] for j in range(i % 5 + 1)))
            for i in range(n)]
    src = str(tmp_path / "sorted.parquet")
    pq.write_table(pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "text": [r[2] for r in rows],
    }), src)
    random.Random(5).shuffle(rows)
    ds = ray.data.from_arrow(pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
        "text": [r[2] for r in rows],
    }))
    staged, direct = str(tmp_path / "staged"), str(tmp_path / "direct")
    m1 = build_index(ds, staged, IndexConfig(seg_shift=12))
    m2 = build_index(index_dir=direct, input_paths=[src],
                     config=IndexConfig(seg_shift=12, assume_sorted=True))
    assert m1.doc_count == m2.doc_count == n
    assert m1.counters["total_units"] == 13
    assert not os.path.exists(os.path.join(staged, "staging"))
    s1, s2 = LocalSearcher(staged), LocalSearcher(direct)
    for q in ("merge sort", "city bus pipeline", "window"):
        r1, sc1 = s1.search(q, k=50)
        r2, sc2 = s2.search(q, k=50)
        assert r1 == r2, q
        assert list(map(float, sc1)) == list(map(float, sc2))


def test_staged_resume_fingerprints_whitelist(ray_session, tmp_path):
    """Two whitelists of the same size over one input: a resumed staged
    build with the second one rebuilds instead of keeping the first's
    units."""
    import ray.data

    n = 40
    src = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "conv_id": [f"c{i:03d}" for i in range(n)],
        "turn_idx": pa.array([0] * n, type=pa.int32()),
        "text": ["alpha"] * (n // 2) + ["omega"] * (n // 2),
    }), src)
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(seg_shift=4, resume=True)
    for half, word in ((range(n // 2), "alpha"), (range(n // 2, n), "omega")):
        build_index(ray.data.read_parquet(src), idx, cfg, input_files=[src],
                    whitelist={f"c{i:03d}:0" for i in half})
        docs, _ = LocalSearcher(idx).search(word, k=n)
        assert len(docs) == n // 2, word


@pytest.mark.parametrize("source", ["zero_row_parquet", "empty_whitelist"])
def test_empty_input_builds_zero_doc_index(ray_session, tmp_path, source):
    """An input with no rows to index builds an index with zero docs and an
    empty global termstats table, which a searcher opens and answers with
    no hits."""
    import ray.data

    from anserini_ray.search.segment_reader import read_termstats
    from anserini_ray.sources import generate_transcripts

    t = generate_transcripts(40, seed=5)
    src = str(tmp_path / "c.parquet")
    idx = str(tmp_path / "idx")
    if source == "zero_row_parquet":
        pq.write_table(t.slice(0, 0), src)
        m = build_index(index_dir=idx, config=IndexConfig(assume_sorted=True),
                        input_paths=[src])
    else:
        pq.write_table(t, src)
        m = build_index(ray.data.read_parquet(src), idx, IndexConfig(),
                        input_files=[src], whitelist=[])
    assert m.doc_count == 0 and m.segments == []
    assert read_termstats(idx, m).num_rows == 0
    s = LocalSearcher(idx)
    assert s.readers == []
    docs, scores = s.search("merge sort pipeline", k=10)
    assert docs == [] and len(scores) == 0
