"""Incremental ingest: appending corpus B to an index of corpus A must
produce the SAME index a one-shot build of A+B produces — identical
ordinals, counters, and bit-identical search scores."""

import os
import shutil

import pytest

from anserini_ray.index import (
    IndexConfig,
    append_index_streaming,
    build_index,
)
from anserini_ray.search.searcher import LocalSearcher
from anserini_ray.sources import write_synthetic_corpus

QUERIES = ["merge sort pipeline", "city bus running", "zq0007 schedule",
           "actor task block"]


@pytest.fixture(scope="module")
def corpora(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("append_corpus"))
    write_synthetic_corpus(d, 24000, seed=21, rows_per_file=6000)
    files = sorted(os.path.join(d, f) for f in os.listdir(d))
    return files[:2], files[2:]  # A = first half, B = second half


def test_append_equals_oneshot(corpora, tmp_path_factory):
    a_files, b_files = corpora
    root = tmp_path_factory.mktemp("append_idx")
    inc = str(root / "incremental")
    ref = str(root / "oneshot")

    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    m1 = build_index(index_dir=inc, config=cfg, input_paths=a_files)
    docs_a = m1.doc_count
    m2 = append_index_streaming(b_files, inc, cfg)
    m3 = build_index(
        index_dir=ref,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=a_files + b_files,
    )
    assert m2.doc_count == m3.doc_count > docs_a
    assert m2.sum_total_tf == m3.sum_total_tf
    assert m2.counters["total_input"] == m3.counters["total_input"] == 24000
    assert m2.counters["empty"] == m3.counters["empty"]
    assert m2.segments == m3.segments

    s_inc = LocalSearcher(inc)
    s_ref = LocalSearcher(ref)
    for q in QUERIES:
        di, si = s_inc.search(q, k=40)
        dr, sr = s_ref.search(q, k=40)
        assert di == dr
        assert list(map(float, si)) == list(map(float, sr))  # bit-identical


def test_append_config_mismatch_rejected(corpora, tmp_path):
    a_files, b_files = corpora
    idx = str(tmp_path / "idx")
    build_index(
        index_dir=idx,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=a_files,
    )
    with pytest.raises(ValueError):
        append_index_streaming(
            b_files, idx, IndexConfig(seg_shift=13, assume_sorted=True)
        )
    with pytest.raises(ValueError):
        append_index_streaming(
            b_files, idx,
            IndexConfig(seg_shift=12, analyzer={"stemmer": "none"}),
        )


def test_append_requires_streaming_index(corpora, tmp_path):
    import ray.data

    a_files, b_files = corpora
    idx = str(tmp_path / "legacy")
    ds = ray.data.read_parquet(a_files, columns=["conv_id", "turn_idx", "text"])
    build_index(ds, idx, IndexConfig(seg_shift=12), input_files=a_files)
    # an index without unit markers (as older builders left) is refused
    shutil.rmtree(os.path.join(idx, "units"))
    with pytest.raises(ValueError):
        append_index_streaming(b_files, idx, IndexConfig(seg_shift=12))


def test_append_onto_dataset_built_index_equals_oneshot(
    corpora, tmp_path_factory
):
    """A Dataset input is built from a sorted staging copy with unit
    markers, so it accepts appends like a file-built index."""
    import ray.data

    a_files, b_files = corpora
    root = tmp_path_factory.mktemp("append_ds")
    inc = str(root / "incremental")
    ref = str(root / "oneshot")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    ds = ray.data.read_parquet(a_files, columns=["conv_id", "turn_idx", "text"])
    build_index(ds, inc, IndexConfig(seg_shift=12), input_files=a_files)
    m2 = append_index_streaming(b_files, inc, cfg)
    m3 = build_index(index_dir=ref, config=cfg, input_paths=a_files + b_files)
    assert m2.doc_count == m3.doc_count
    assert m2.sum_total_tf == m3.sum_total_tf
    assert m2.counters["total_input"] == m3.counters["total_input"] == 24000

    s_inc = LocalSearcher(inc)
    s_ref = LocalSearcher(ref)
    for q in QUERIES:
        di, si = s_inc.search(q, k=40)
        dr, sr = s_ref.search(q, k=40)
        assert di == dr
        assert list(map(float, si)) == list(map(float, sr))


def test_append_retry_after_crash_is_idempotent(corpora, tmp_path_factory):
    """A crashed append (some units finished, one unit's marker missing —
    i.e. orphan partition files — and the rest never run) must, on retry
    with the same input, resume the finished units, clean the orphans, run
    the missing units, and converge to the one-shot A+B index with no
    duplicate ordinals."""
    import glob
    import json

    a_files, b_files = corpora
    root = tmp_path_factory.mktemp("append_crash")
    inc = str(root / "incremental")
    ref = str(root / "oneshot")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    build_index(index_dir=inc, config=cfg, input_paths=a_files)

    # full append, then simulate the crash state: drop the LAST appended
    # unit's marker (leaving its parquet orphaned) and the manifests
    append_index_streaming(b_files, inc, cfg)
    markers = sorted(glob.glob(os.path.join(inc, "units", "u*.json")))
    with open(markers[-1]) as f:
        crashed_uid = int(json.load(f)["unit_id"])
    os.unlink(markers[-1])
    orphans = [
        p
        for p in glob.glob(
            os.path.join(inc, "*", "segment_id=*", f"u{crashed_uid:08d}.parquet")
        )
    ]
    assert orphans, "expected orphan partition files for the crashed unit"

    m2 = append_index_streaming(b_files, inc, cfg)  # the retry
    m3 = build_index(
        index_dir=ref,
        config=IndexConfig(seg_shift=12, assume_sorted=True),
        input_paths=a_files + b_files,
    )
    assert m2.doc_count == m3.doc_count
    assert m2.sum_total_tf == m3.sum_total_tf
    assert m2.segments == m3.segments
    s_inc = LocalSearcher(inc)
    s_ref = LocalSearcher(ref)
    for q in QUERIES:
        di, si = s_inc.search(q, k=40)
        dr, sr = s_ref.search(q, k=40)
        assert di == dr
        assert list(map(float, si)) == list(map(float, sr))

    # and a full re-append of identical input is a no-op, not a duplication
    m4 = append_index_streaming(b_files, inc, cfg)
    assert m4.doc_count == m3.doc_count
    assert m4.sum_total_tf == m3.sum_total_tf


def _termstats_table(index_dir):
    from anserini_ray.search.segment_reader import read_termstats
    from anserini_ray.state import IndexManifest

    return read_termstats(index_dir, IndexManifest.read(index_dir))


def _counters(m):
    return {k: m.counters[k] for k in ("total_input", "indexed", "empty")}


def test_chained_appends_extend_termstats_incrementally(
    corpora, tmp_path_factory, monkeypatch
):
    """Each append adds its own units' (term, df, cf) rows to the committed
    termstats table without reading old postings back; after three chained
    appends the table equals a one-shot build's."""
    import ray.data

    files = corpora[0] + corpora[1]
    root = tmp_path_factory.mktemp("append_chain")
    inc, ref = str(root / "incremental"), str(root / "oneshot")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    build_index(index_dir=inc, config=cfg, input_paths=files[:1])

    def no_readback(*args, **kwargs):
        raise AssertionError("append read postings back")

    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "read_parquet", no_readback)
        for f in files[1:]:
            m = append_index_streaming([f], inc, cfg)
    assert m.termstats_gen == 3
    assert os.listdir(os.path.join(inc, "termstats")) == ["g3"]
    m_ref = build_index(index_dir=ref, config=cfg, input_paths=files)
    assert _termstats_table(inc).equals(_termstats_table(ref))
    assert _counters(m) == _counters(m_ref)


def test_crash_before_manifest_keeps_committed_termstats(
    corpora, tmp_path_factory, monkeypatch
):
    """An append that dies after writing termstats generation N+1 but before
    its manifest leaves generation N in use; the retry converges to the
    one-shot build."""
    from anserini_ray.index import streaming

    files = corpora[0] + corpora[1]
    root = tmp_path_factory.mktemp("append_gen_crash")
    inc, ref = str(root / "incremental"), str(root / "oneshot")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    build_index(index_dir=inc, config=cfg, input_paths=files[:1])
    append_index_streaming(files[1:2], inc, cfg)
    committed = _termstats_table(inc)

    def crash(*args, **kwargs):
        raise RuntimeError("crash before the manifest")

    with monkeypatch.context() as mp:
        mp.setattr(streaming, "_auto_compact", crash)
        with pytest.raises(RuntimeError):
            append_index_streaming(files[2:3], inc, cfg)
    assert sorted(os.listdir(os.path.join(inc, "termstats"))) == ["g1", "g2"]
    s = LocalSearcher(inc)
    assert dict(s.global_df.items()) == dict(
        zip(committed["term"].to_pylist(), committed["gdf"].to_pylist()))
    assert dict(s.global_cf.items()) == dict(
        zip(committed["term"].to_pylist(), committed["gcf"].to_pylist()))

    m = append_index_streaming(files[2:3], inc, cfg)  # the retry
    m_ref = build_index(index_dir=ref, config=cfg, input_paths=files[:3])
    assert os.listdir(os.path.join(inc, "termstats")) == ["g2"]
    assert _termstats_table(inc).equals(_termstats_table(ref))
    assert _counters(m) == _counters(m_ref)
    assert m.segments == m_ref.segments
    s_inc, s_ref = LocalSearcher(inc), LocalSearcher(ref)
    for q in QUERIES:
        di, si = s_inc.search(q, k=40)
        dr, sr = s_ref.search(q, k=40)
        assert di == dr
        assert list(map(float, si)) == list(map(float, sr))


def test_append_retry_counts_input_once(corpora, tmp_path_factory):
    """A retry of an append the manifest already counts, and a no-op
    re-append, leave the input counters equal to the one-shot build's."""
    import glob

    a_files, b_files = corpora
    root = tmp_path_factory.mktemp("append_count")
    inc, ref = str(root / "incremental"), str(root / "oneshot")
    cfg = IndexConfig(seg_shift=12, assume_sorted=True)
    build_index(index_dir=inc, config=cfg, input_paths=a_files)
    append_index_streaming(b_files, inc, cfg)
    os.unlink(sorted(glob.glob(os.path.join(inc, "units", "u*.json")))[-1])
    m_retry = append_index_streaming(b_files, inc, cfg)
    m_again = append_index_streaming(b_files, inc, cfg)
    m_ref = build_index(index_dir=ref, config=cfg,
                        input_paths=a_files + b_files)
    assert _counters(m_retry) == _counters(m_ref)
    assert _counters(m_again) == _counters(m_ref)
    assert _termstats_table(inc).equals(_termstats_table(ref))


def test_append_auto_compaction(ray_session, tmp_path_factory):
    """Fragmented segments get force-merged in place after an append
    (threshold in unit-writes since last compaction); results stay
    bit-identical and re-appends don't re-compact."""
    import glob

    from anserini_ray.index.optimize import recover_interrupted_optimize

    root = tmp_path_factory.mktemp("autocompact")
    d = str(root / "corpus")
    write_synthetic_corpus(d, 9000, seed=31, rows_per_file=1500)
    files = sorted(os.path.join(d, f) for f in os.listdir(d))
    a_files, b_files = files[:4], files[4:]

    # one big segment -> every unit touches it
    cfg = IndexConfig(seg_shift=15, assume_sorted=True,
                      auto_compact_unit_runs=3)
    inc = str(root / "inc")
    ref = str(root / "ref")
    build_index(index_dir=inc, config=cfg, input_paths=a_files)
    m = append_index_streaming(b_files, inc, cfg)
    assert m.counters["auto_compacted_segments"] == [0]
    # all unit posting files of segment 0 merged into combined files
    seg0 = os.path.join(inc, "postings", "segment_id=0")
    assert not glob.glob(os.path.join(seg0, "u*.parquet"))
    assert os.path.exists(os.path.join(inc, "compaction.json"))

    build_index(index_dir=ref,
                config=IndexConfig(seg_shift=15, assume_sorted=True),
                input_paths=files)
    s_inc, s_ref = LocalSearcher(inc), LocalSearcher(ref)
    for q in QUERIES:
        di, si = s_inc.search(q, k=40)
        dr, sr = s_ref.search(q, k=40)
        assert di == dr
        assert list(map(float, si)) == list(map(float, sr))

    # identical re-append: resumes everything, does NOT re-compact
    m2 = append_index_streaming(b_files, inc, cfg)
    assert m2.counters["auto_compacted_segments"] == []
    assert m2.doc_count == m.doc_count

    # crash window of the per-segment swap: live partition missing, copy in
    # postings.old -> reader-side recovery restores it
    old_dir = os.path.join(inc, "postings.old")
    os.makedirs(old_dir, exist_ok=True)
    os.replace(seg0, os.path.join(old_dir, "segment_id=0"))
    assert recover_interrupted_optimize(inc)
    di, si = LocalSearcher(inc).search(QUERIES[0], k=40)
    dr, sr = s_ref.search(QUERIES[0], k=40)
    assert di == dr and list(map(float, si)) == list(map(float, sr))


def test_selective_optimize_matches_full(ray_session, tmp_path_factory):
    """optimize_index(segments=[...]) compacts only those partitions and
    preserves results; other partitions' files are untouched."""
    import glob

    from anserini_ray.index.optimize import optimize_index

    root = tmp_path_factory.mktemp("selopt")
    d = str(root / "corpus")
    write_synthetic_corpus(d, 9000, seed=32, rows_per_file=1500)
    files = sorted(os.path.join(d, f) for f in os.listdir(d))
    idx = str(root / "idx")
    # 2 segments (4096 docs each + remainder), several units each
    build_index(index_dir=idx,
                config=IndexConfig(seg_shift=12, assume_sorted=True,
                                   auto_compact_unit_runs=None),
                input_paths=files)
    s = LocalSearcher(idx)
    before = {q: s.search(q, k=40) for q in QUERIES}
    seg1 = os.path.join(idx, "postings", "segment_id=1")
    files_before = sorted(glob.glob(os.path.join(seg1, "*.parquet")))
    optimize_index(idx, segments=[0])
    assert sorted(glob.glob(os.path.join(seg1, "*.parquet"))) == files_before
    assert not glob.glob(
        os.path.join(idx, "postings", "segment_id=0", "u*.parquet"))
    s2 = LocalSearcher(idx)
    for q in QUERIES:
        di, si = s2.search(q, k=40)
        assert (di, list(map(float, si))) == (
            before[q][0], list(map(float, before[q][1])))
