"""optimize_index (force-merge analog): compacts multi-run posting lists to
single runs with identical search results."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from anserini_ray.sources import generate_transcripts


def test_optimize_preserves_results(ray_session, tmp_path_factory):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.index.optimize import optimize_index
    from anserini_ray.search import LocalSearcher

    tmp = tmp_path_factory.mktemp("opt")
    p = str(tmp / "c.parquet")
    pq.write_table(generate_transcripts(1200, seed=91), p)
    idx = str(tmp / "idx")
    build_index(
        ray.data.read_parquet(p),
        idx,
        # tiny encode batches force many runs per (segment, term)
        IndexConfig(seg_shift=9, encode_batch_size=64, store_positions=True),
        input_files=[p],
    )
    s0 = LocalSearcher(idx)
    multi_run_terms = sum(
        1
        for r in s0.readers
        for _, (lo, hi) in r._term_range.items()
        if hi - lo > 1
    )
    assert multi_run_terms > 0  # precondition: something to compact
    queries = ["merge sort", "pipeline", "zq0007", "window stream batch"]
    before = {q: s0.search(q, k=30, adjust_ties=False) for q in queries}
    phrase_before = s0.phrase_search("merge sort", k=10, adjust_ties=False)

    optimize_index(idx)

    s1 = LocalSearcher(idx)
    for r in s1.readers:
        assert all(hi - lo == 1 for (lo, hi) in r._term_range.values())
    for q in queries:
        d0, sc0 = before[q]
        d1, sc1 = s1.search(q, k=30, adjust_ties=False)
        assert d0 == d1, q
        assert np.array_equal(np.asarray(sc0), np.asarray(sc1)), q
    p1 = s1.phrase_search("merge sort", k=10, adjust_ties=False)
    assert phrase_before[0] == p1[0]
    # pruned mode still exact on the compacted index
    s2 = LocalSearcher(idx, prune=True)
    d2, _ = s2.search("merge sort", k=30, adjust_ties=False)
    assert d2 == before["merge sort"][0]


def test_optimize_leaves_termstats_untouched(ray_session, tmp_path_factory):
    """Termstats are one global table, not per-segment sidecars: compacting
    every partition leaves termstats/ byte-identical."""
    import os

    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.index.optimize import optimize_index

    tmp = tmp_path_factory.mktemp("opt_ts")
    p = str(tmp / "c.parquet")
    pq.write_table(generate_transcripts(400, seed=17), p)
    idx = str(tmp / "idx")
    build_index(
        ray.data.read_parquet(p),
        idx,
        IndexConfig(seg_shift=8, encode_batch_size=64),
        input_files=[p],
    )

    def snapshot(root):
        out = {}
        for d, _, files in os.walk(root):
            for f in files:
                with open(os.path.join(d, f), "rb") as fh:
                    out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
        return out

    post = os.path.join(idx, "postings")
    ts = os.path.join(idx, "termstats")
    before_post, before_ts = snapshot(post), snapshot(ts)
    assert len(before_post) >= 2 and before_ts
    optimize_index(idx)
    assert snapshot(post) != before_post  # precondition: it compacted
    assert snapshot(ts) == before_ts


def test_concat_group_decodes_identical_to_reencode(ray_session):
    """The byte-concat compaction (round 5) must yield the same logical
    posting list as the decode+re-encode reference for arbitrary run
    fragmentations: same ords/tfs under full decode AND under per-block
    decode, valid block metadata offsets, positions concatenated."""
    import pyarrow as pa

    from anserini_ray.index.build import _encode_term_run
    from anserini_ray.index.optimize import _concat_group, _reencode_group
    from anserini_ray.index.varint import varint_decode, varint_encode

    rng = np.random.default_rng(31)

    def run_row(ords, tfs, with_pos=True):
        ords = np.asarray(ords, dtype=np.uint64)
        tfs = np.asarray(tfs, dtype=np.uint64)
        dls = rng.integers(1, 50, size=ords.size).astype(np.int32)
        (db, tb, bf, bn, bmt, bmd, bdo, bto) = _encode_term_run(
            ords, tfs, dls, 128
        )
        pos = (
            varint_encode(rng.integers(0, 30, size=int(tfs.sum())).astype(np.uint64))
            if with_pos
            else b""
        )
        return {
            "segment_id": 0, "term": "t", "first_local": int(ords[0]),
            "df": int(ords.size), "cf": int(tfs.sum()),
            "max_tf": int(tfs.max()), "doc_blob": db, "tf_blob": tb,
            "blk_first": bf.tolist(), "blk_n": bn.tolist(),
            "blk_max_tf": bmt.tolist(), "blk_min_dl": bmd.tolist(),
            "blk_doc_off": bdo.tolist(), "blk_tf_off": bto.tolist(),
            "pos_blob": pos,
        }

    def decode_full(row):
        df = row["df"][0].as_py()
        gaps = varint_decode(row["doc_blob"][0].as_py(), df)
        ords = np.cumsum(gaps, dtype=np.uint64)
        tfs = varint_decode(row["tf_blob"][0].as_py(), df)
        return ords, tfs

    def decode_blocks(row):
        """Block-granular decode exactly as SegmentReader.decode_blocks."""
        bf = np.array(row["blk_first"][0].as_py())
        bn = np.array(row["blk_n"][0].as_py())
        bdo = np.array(row["blk_doc_off"][0].as_py())
        bto = np.array(row["blk_tf_off"][0].as_py())
        doc_blob = row["doc_blob"][0].as_py()
        tf_blob = row["tf_blob"][0].as_py()
        o_parts, t_parts = [], []
        for k in range(bf.size):
            d_hi = int(bdo[k + 1]) if k + 1 < bdo.size else len(doc_blob)
            t_hi = int(bto[k + 1]) if k + 1 < bto.size else len(tf_blob)
            gaps = varint_decode(doc_blob[int(bdo[k]):d_hi], int(bn[k]))
            vals = np.cumsum(gaps, dtype=np.uint64) - gaps[0] + np.uint64(bf[k])
            o_parts.append(vals)
            t_parts.append(varint_decode(tf_blob[int(bto[k]):t_hi], int(bn[k])))
        return np.concatenate(o_parts), np.concatenate(t_parts)

    for trial in range(20):
        n_runs = int(rng.integers(2, 7))
        total = int(rng.integers(5, 700))
        all_ords = np.sort(
            rng.choice(np.arange(0, 5000), size=total, replace=False)
        ).astype(np.uint64)
        all_tfs = rng.integers(1, 9, size=total).astype(np.uint64)
        cuts = np.sort(rng.choice(np.arange(1, total), size=n_runs - 1,
                                  replace=False)) if total > n_runs else []
        bounds = [0, *[int(c) for c in cuts], total]
        rows = [
            run_row(all_ords[lo:hi], all_tfs[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        group = pa.Table.from_pylist(rows)
        got = _concat_group(group)
        ref = _reencode_group(group)
        for label, row in (("concat", got), ("reencode", ref)):
            o, t = decode_full(row)
            assert np.array_equal(o, all_ords), (trial, label)
            assert np.array_equal(t, all_tfs), (trial, label)
        ob, tb_ = decode_blocks(got)
        assert np.array_equal(ob, all_ords), trial
        assert np.array_equal(tb_, all_tfs), trial
        for col in ("df", "cf", "max_tf", "first_local"):
            assert got[col][0].as_py() == ref[col][0].as_py(), (trial, col)
        assert len(got["pos_blob"][0].as_py()) == sum(
            len(r["pos_blob"]) for r in rows
        )


def _run_row(first_locals, segment_id=0, term="t"):
    from anserini_ray.index.build import _encode_term_run

    ords = np.asarray(first_locals, dtype=np.uint64)
    tfs = np.ones(ords.size, dtype=np.uint64)
    dls = np.full(ords.size, 5, dtype=np.int32)
    (db, tb, bf, bn, bmt, bmd, bdo, bto) = _encode_term_run(ords, tfs, dls, 128)
    return {
        "segment_id": segment_id, "term": term, "first_local": int(ords[0]),
        "df": int(ords.size), "cf": int(ords.size), "max_tf": 1,
        "doc_blob": db, "tf_blob": tb,
        "blk_first": bf.tolist(), "blk_n": bn.tolist(),
        "blk_max_tf": bmt.tolist(), "blk_min_dl": bmd.tolist(),
        "blk_doc_off": bdo.tolist(), "blk_tf_off": bto.tolist(),
        "pos_blob": b"",
    }


@pytest.mark.parametrize("second", [[3, 7], [9, 12]],
                         ids=["interleaved", "shared_doc"])
def test_concat_group_rejects_overlapping_runs(second):
    """Runs [1,5,9] + [3,7] would concatenate to an unsorted list, and
    [1,5,9] + [9,12] to a duplicated posting: both must raise, naming the
    segment and the term."""
    import pyarrow as pa

    from anserini_ray.index.optimize import _concat_group

    group = pa.Table.from_pylist([
        _run_row([1, 5, 9], segment_id=3, term="zq"),
        _run_row(second, segment_id=3, term="zq"),
    ])
    with pytest.raises(ValueError, match=r"segment 3, term 'zq'"):
        _concat_group(group)


def test_optimize_overlapping_run_fails_without_swapping(ray_session,
                                                         tmp_path_factory):
    """An overlapping run planted in one partition of a two-segment index
    makes optimize_index raise; both partitions keep answering as before,
    and the next successful run leaves no postings.optimizing behind."""
    import os
    import re

    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.index.optimize import optimize_index
    from anserini_ray.search import LocalSearcher

    tmp = tmp_path_factory.mktemp("opt_overlap")
    p = str(tmp / "c.parquet")
    pq.write_table(generate_transcripts(800, seed=93), p)
    idx = str(tmp / "idx")
    build_index(
        ray.data.read_parquet(p),
        idx,
        IndexConfig(seg_shift=9, encode_batch_size=64),
        input_files=[p],
    )
    post = os.path.join(idx, "postings")
    assert sorted(os.listdir(post)) == ["segment_id=0", "segment_id=1"]
    queries = ["merge sort", "pipeline", "window stream batch"]

    def results():
        s = LocalSearcher(idx)
        return {q: s.search(q, k=30, adjust_ties=False) for q in queries}

    def same(a, b):
        return all(
            a[q][0] == b[q][0]
            and np.array_equal(np.asarray(a[q][1]), np.asarray(b[q][1]))
            for q in queries
        )

    clean = results()
    seg1 = os.path.join(post, "segment_id=1")
    src = sorted(f for f in os.listdir(seg1) if f.endswith(".parquet"))[0]
    row = pq.read_table(os.path.join(seg1, src)).slice(0, 1)
    planted = os.path.join(seg1, "planted.parquet")
    pq.write_table(row, planted)  # a second copy of one run: overlapping
    term = row["term"][0].as_py()
    planted_results = results()

    with pytest.raises(ValueError, match=f"segment 1, term '{re.escape(term)}'"):
        optimize_index(idx)
    assert same(results(), planted_results)

    os.unlink(planted)
    assert same(results(), clean)
    optimize_index(idx)
    assert not os.path.exists(os.path.join(idx, "postings.optimizing"))
    assert not os.path.exists(os.path.join(idx, "postings.old"))
    assert same(results(), clean)
