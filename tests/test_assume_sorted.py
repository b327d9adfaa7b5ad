"""assume_sorted fast path: identical index to the sorting path on ordered
input; verified fallback to sort on shuffled input."""

import numpy as np
import pyarrow.parquet as pq

from anserini_ray.sources import generate_transcripts


def _build(tmp, table, name, **cfg_kwargs):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index

    path = str(tmp / f"{name}.parquet")
    pq.write_table(table, path)
    ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"])
    index_dir = str(tmp / f"idx_{name}")
    m = build_index(
        ds, index_dir, IndexConfig(seg_shift=8, **cfg_kwargs), input_files=[path]
    )
    return index_dir, m


def _run_queries(index_dir):
    from anserini_ray.search import LocalSearcher

    s = LocalSearcher(index_dir)
    out = {}
    for q in ["merge sort", "pipeline", "zq0007"]:
        out[q] = s.search(q, k=30, adjust_ties=False)
    return out


def test_fast_path_matches_sort_path(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fastpath")
    table = generate_transcripts(1200, seed=11)

    idx_sorted, m_fast = _build(tmp, table, "fast", assume_sorted=True)
    idx_ref, m_ref = _build(tmp, table, "ref", assume_sorted=False)

    assert m_fast.doc_count == m_ref.doc_count
    assert m_fast.sum_total_tf == m_ref.sum_total_tf
    r_fast, r_ref = _run_queries(idx_sorted), _run_queries(idx_ref)
    for q in r_fast:
        assert r_fast[q][0] == r_ref[q][0], q
        assert np.array_equal(np.asarray(r_fast[q][1]), np.asarray(r_ref[q][1]))


def test_fallback_on_unsorted_input(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fallback")
    table = generate_transcripts(1200, seed=11)
    rng = np.random.default_rng(3)
    perm = rng.permutation(table.num_rows)
    shuffled = table.take(perm)

    idx_shuf, m_shuf = _build(tmp, shuffled, "shuf", assume_sorted=True)
    idx_ref, m_ref = _build(tmp, table, "ref2", assume_sorted=False)

    assert m_shuf.doc_count == m_ref.doc_count
    r_shuf, r_ref = _run_queries(idx_shuf), _run_queries(idx_ref)
    for q in r_shuf:
        assert r_shuf[q][0] == r_ref[q][0], q
        assert np.array_equal(np.asarray(r_shuf[q][1]), np.asarray(r_ref[q][1]))


def test_build_determinism(ray_session, tmp_path_factory):
    """Two independent builds of the same corpus produce identical search
    results AND identical ordinal assignment (data-derived, never
    arrival-order)."""
    import numpy as np

    tmp = tmp_path_factory.mktemp("determ")
    table = generate_transcripts(900, seed=19)
    i1, m1 = _build(tmp, table, "d1", assume_sorted=True)
    i2, m2 = _build(tmp, table, "d2", assume_sorted=True)
    assert m1.doc_count == m2.doc_count
    assert m1.counters["indexed"] == m2.counters["indexed"]
    r1, r2 = _run_queries(i1), _run_queries(i2)
    for q in r1:
        assert r1[q][0] == r2[q][0]
        assert np.array_equal(np.asarray(r1[q][1]), np.asarray(r2[q][1]))
    from anserini_ray.search import LocalSearcher

    s1, s2 = LocalSearcher(i1), LocalSearcher(i2)
    for a, b in zip(s1.readers, s2.readers):
        # raw ordinals have holes where docs were dropped
        assert np.array_equal(a._raw_local, b._raw_local)
        assert a.doc_id_strings(a._raw_local) == b.doc_id_strings(
            b._raw_local
        )
        assert np.array_equal(a.dl_raw, b.dl_raw)
