"""Bulk-build auto-compaction (streaming.py): a fresh build whose
units-per-segment crosses auto_compact_unit_runs force-merges in place with
bit-identical search results; re-running a completed build is a no-op that
must NOT disturb the compacted layout."""

import os

import pytest

from anserini_ray.index import IndexConfig, build_index
from anserini_ray.search.searcher import LocalSearcher
from anserini_ray.sources import write_synthetic_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("autocompact_corpus"))
    # 16 files x 1250 rows = 16 units, all into ONE 2^16-doc segment
    write_synthetic_corpus(d, 20000, seed=23, rows_per_file=1250)
    return sorted(os.path.join(d, f) for f in os.listdir(d))


def _queries():
    return ["alpha beta", "gamma", "delta epsilon zeta", "omega alpha"]


def _run_all(index_dir, k=50):
    s = LocalSearcher(index_dir)
    return [
        (d, list(map(float, sc)))
        for q in _queries()
        for d, sc in [s.search(q, k=k)]
    ]


def _posting_files(index_dir):
    out = {}
    root = os.path.join(index_dir, "postings")
    for part in sorted(os.listdir(root)):
        out[part] = sorted(os.listdir(os.path.join(root, part)))
    return out


def test_bulk_build_autocompacts_and_is_identical(ray_session, corpus, tmp_path):
    plain_dir = str(tmp_path / "plain")
    compact_dir = str(tmp_path / "compacted")
    cfg = dict(seg_shift=16, assume_sorted=True)
    build_index(
        index_dir=plain_dir,
        config=IndexConfig(**cfg, auto_compact_unit_runs=None),
        input_paths=corpus,
    )
    m = build_index(
        index_dir=compact_dir,
        config=IndexConfig(**cfg, auto_compact_unit_runs=8),
        input_paths=corpus,
    )
    # 16 units >= threshold 8 -> compacted: per-unit u-files replaced
    plain_files = _posting_files(plain_dir)
    compact_files = _posting_files(compact_dir)
    assert any("u0000" in f for fs in plain_files.values() for f in fs)
    assert not any(
        "u0000" in f for fs in compact_files.values() for f in fs
    ), "compaction should have replaced the per-unit files"
    assert "auto_compact" in m.counters["stage_secs"]
    # search results bit-identical
    assert _run_all(plain_dir) == _run_all(compact_dir)


def test_resume_of_completed_compacted_build_is_noop(ray_session, corpus, tmp_path):
    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(
        seg_shift=16, assume_sorted=True, auto_compact_unit_runs=8, resume=True
    )
    m1 = build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    before_files = _posting_files(index_dir)
    before_results = _run_all(index_dir)
    # a rerun must early-return (all units resumable + manifest matches) and
    # must NOT delete the compacted combined files (_clean_streaming would)
    m2 = build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    assert _posting_files(index_dir) == before_files
    assert _run_all(index_dir) == before_results
    assert m2.doc_count == m1.doc_count and m2.fingerprint == m1.fingerprint


def test_resume_past_fingerprint_guard_rebuilds_compacted_units(
    ray_session, corpus, tmp_path
):
    """ADVICE r4 (medium): if a resumed re-run slips past the completed-build
    idempotency guard (here: the manifest fingerprint was rewritten, as a
    later append would), unit markers whose u-files were auto-compacted away
    must NOT count as resumable — _clean_streaming would delete the combined
    posting files while the markers still claimed the units complete,
    silently corrupting the index. With the file-existence check the units
    rebuild and results stay identical."""
    import json

    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(
        seg_shift=16, assume_sorted=True, auto_compact_unit_runs=8,
        resume=True,
    )
    m1 = build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    before_results = _run_all(index_dir)
    assert not any(
        "u0000" in f for fs in _posting_files(index_dir).values() for f in fs
    )  # precondition: compacted (no per-unit files)

    # defeat the idempotency guard the way an append would: manifest now
    # carries a different fingerprint while unit markers keep the old one
    mpath = os.path.join(index_dir, "manifest.json")
    with open(mpath) as f:
        man = json.load(f)
    man["fingerprint"] = "not-the-build-fingerprint"
    with open(mpath, "w") as f:
        json.dump(man, f)

    m2 = build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    assert m2.doc_count == m1.doc_count
    assert m2.counters["indexed"] == m1.counters["indexed"]
    # no unit may have been "resumed" from compacted-away files
    assert m2.counters["resumed_units"] == 0
    assert _run_all(index_dir) == before_results


def test_unreadable_manifest_on_resumable_build_aborts(
    ray_session, corpus, tmp_path
):
    """A corrupt (not merely missing) manifest on a fully-marker-matched
    build must raise, not silently clean and rebuild."""
    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig(
        seg_shift=16, assume_sorted=True, auto_compact_unit_runs=8,
        resume=True,
    )
    build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    with open(os.path.join(index_dir, "manifest.json"), "w") as f:
        f.write("{ this is not json")
    with pytest.raises(Exception) as ei:
        build_index(index_dir=index_dir, config=cfg, input_paths=corpus)
    assert not isinstance(ei.value, AssertionError)
