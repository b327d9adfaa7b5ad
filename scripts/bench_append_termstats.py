"""Time the termstats stage of one append against the size of the base index.

`build` writes a base index of `--base` turns from the benchmark generator's
corpus (`perfbench/gen.py`, the `ingest_fresh` turn shape) in one segment.

`append` copies that index, opens a fresh one-CPU Ray session, appends one
batch of `--append` turns (auto-compaction off) and prints one JSON line:
the append's `stage_secs` from its manifest (`termstats` is the global
termstats write), its wall time, the host's CPU steal share over it, and the
posting-run rows and distinct terms of the index after it.

`--code DIR` imports `anserini_ray` from another checkout (say, a
`git archive` of the parent commit). Each version builds its own base, since
index formats differ between versions; appends of two versions can then run
alternately in one window.

Run:
  python scripts/bench_append_termstats.py build --index /tmp/ts8k --base 8192 [--code DIR]
  python scripts/bench_append_termstats.py append --index /tmp/ts8k [--code DIR]
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SHAPE = {"median_len": 21, "sigma": 0.9, "cap": 2000}


def _use_code(path: str) -> None:
    """Import anserini_ray from `path`, in this process and in the Ray
    workers it starts; perfbench always comes from this checkout."""
    sys.path.insert(0, REPO)
    sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [path] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def _ray_init():
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)


def _config(seg_shift: int):
    from anserini_ray.index import IndexConfig

    return IndexConfig(seg_shift=seg_shift, assume_sorted=True,
                       auto_compact_unit_runs=None)


def _inputs(n_turns: int, stream: int, prefix: str):
    from perfbench import gen

    cache = os.path.join(tempfile.gettempdir(), "bench_append_ts_inputs")
    return gen.cached(cache, SEED, stream, n_turns=n_turns, prefix=prefix,
                      **SHAPE)


def _steal() -> tuple[int, int]:
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def build(a) -> dict:
    _use_code(a.code or REPO)
    from anserini_ray.index import build_index

    base = _inputs(a.base, 0, "c")
    shutil.rmtree(a.index, ignore_errors=True)
    _ray_init()
    m = build_index(input_paths=base.paths, index_dir=a.index,
                    config=_config(a.seg_shift))
    return {"code": a.code or REPO, "docs": m.doc_count,
            "segments": len(m.segments)}


def append(a) -> dict:
    _use_code(a.code or REPO)
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from anserini_ray.index import append_index_streaming

    batch = _inputs(a.append, 100, "a-")
    work = tempfile.mkdtemp(prefix="bench_append_ts_")
    idx = os.path.join(work, "idx")
    shutil.copytree(a.index, idx)
    try:
        _ray_init()
        s0, t0 = _steal()
        start = time.perf_counter()
        m = append_index_streaming(batch.paths, idx, _config(a.seg_shift))
        secs = time.perf_counter() - start
        s1, t1 = _steal()
        post = os.path.join(idx, "postings")
        ts = os.path.join(idx, "termstats")
        return {
            "code": a.code or REPO,
            "docs": m.doc_count,
            "termstats_s": m.counters["stage_secs"]["termstats"],
            "append_s": round(secs, 3),
            "stage_secs": m.counters["stage_secs"],
            "steal_share": round((s1 - s0) / max(1, t1 - t0), 4),
            "run_rows": pq.read_table(post, columns=["term"]).num_rows,
            "vocab": pc.count_distinct(
                pq.read_table(ts, columns=["term"])["term"]).as_py(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=["build", "append"])
    p.add_argument("--index", required=True)
    p.add_argument("--base", type=int, default=8192)
    p.add_argument("--append", type=int, default=2048)
    p.add_argument("--seg-shift", type=int, default=17)
    p.add_argument("--code", default=None,
                   help="checkout to import anserini_ray from")
    a = p.parse_args()
    out = build(a) if a.phase == "build" else append(a)
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
