"""Time the compaction of one fragmented segment and check that search
results do not change.

`build` writes the input: a base index from the benchmark generator's
corpus (`perfbench/gen.py`, the `ingest_fresh` turn shape), then three
appends onto it with auto-compaction off, all in one segment, so that
segment 0 holds base + 3 x append docs in several unit runs per term. It
stores the k=50 results of four queries next to the index.

`compact` copies that index, opens a fresh one-CPU Ray session, times
`optimize_index(copy, segments=[0])` and prints one JSON line: the time,
the host's CPU steal share over it, the peak RSS (VmHWM) of the driver and
of every Ray worker process of the session, the compacted partition's size,
and whether the k=50 results match the stored ones. `--code DIR` imports
`anserini_ray` from another checkout (say, a `git archive` of the parent
commit), so that two versions can compact the same input alternately in
one window.

Run:
  python scripts/bench_compact.py build --index /tmp/frag --base 8192 --append 2048
  python scripts/bench_compact.py compact --index /tmp/frag [--code DIR]
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
APPENDS = 3
SHAPE = {"median_len": 21, "sigma": 0.9, "cap": 2000}
K = 50


def _use_code(path: str) -> None:
    """Import anserini_ray from `path`, in this process and in the Ray
    workers it starts."""
    sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [path] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def _ray_init():
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)


def _results(index_dir: str, queries: list[str]) -> list:
    from anserini_ray.search import LocalSearcher

    s = LocalSearcher(index_dir)
    return [[list(d), [float(x) for x in sc]]
            for d, sc in (s.search(q, k=K) for q in queries)]


def build(a) -> dict:
    _use_code(REPO)
    from anserini_ray.index import (IndexConfig, append_index_streaming,
                                    build_index)
    from perfbench import gen, workloads

    cache = os.path.join(tempfile.gettempdir(), "bench_compact_inputs")
    base = gen.cached(cache, SEED, 0, n_turns=a.base, **SHAPE)
    batches = [gen.cached(cache, SEED, 100 + i, n_turns=a.append,
                          prefix=f"a{i}-", **SHAPE) for i in range(APPENDS)]
    vocab = gen.vocabulary()
    stream = workloads.query_stream(SEED, 1)
    queries = [workloads.query_text(next(stream), vocab) for _ in range(4)]
    cfg = IndexConfig(seg_shift=a.seg_shift, assume_sorted=True,
                      auto_compact_unit_runs=None)
    shutil.rmtree(a.index, ignore_errors=True)
    _ray_init()
    build_index(input_paths=base.paths, index_dir=a.index, config=cfg)
    for b in batches:
        m = append_index_streaming(b.paths, a.index, cfg)
    out = {"docs": m.doc_count, "segments": len(m.segments),
           "queries": queries, "results": _results(a.index, queries)}
    with open(a.index + ".results.json", "w") as f:
        json.dump(out, f)
    return {k: out[k] for k in ("docs", "segments", "queries")}


def _steal() -> tuple[int, int]:
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024.0, 1)
    return 0.0


def _ray_workers() -> list[int]:
    """Pids of the Ray worker processes this process started."""
    parent, cmd = {}, {}
    for d in os.listdir("/proc"):
        try:
            with open(f"/proc/{d}/stat") as f:
                parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd[int(d)] = f.read()
        except (ValueError, OSError):
            continue
    mine, grew = {os.getpid()}, True
    while grew:
        new = {p for p, pp in parent.items() if pp in mine} - mine
        mine |= new
        grew = bool(new)
    # a worker's title is ray::<task> or ray::IDLE
    return sorted(p for p in mine if cmd.get(p, b"").startswith(b"ray::"))


def compact(a) -> dict:
    _use_code(a.code or REPO)
    from anserini_ray.index.optimize import optimize_index

    with open(a.index + ".results.json") as f:
        before = json.load(f)
    work = tempfile.mkdtemp(prefix="bench_compact_")
    idx = os.path.join(work, "idx")
    shutil.copytree(a.index, idx)
    try:
        _ray_init()
        s0, t0 = _steal()
        start = time.perf_counter()
        optimize_index(idx, segments=[0])
        secs = time.perf_counter() - start
        s1, t1 = _steal()
        workers = [_hwm_mb(pid) for pid in _ray_workers()]
        seg0 = os.path.join(idx, "postings", "segment_id=0")
        return {
            "code": a.code or REPO,
            "compact_s": round(secs, 2),
            "steal_share": round((s1 - s0) / max(1, t1 - t0), 4),
            "driver_peak_rss_mb": _hwm_mb(os.getpid()),
            "worker_peak_rss_mb": sorted(workers, reverse=True),
            "partition_bytes": sum(os.path.getsize(os.path.join(seg0, f))
                                   for f in os.listdir(seg0)),
            "partition_files": len(os.listdir(seg0)),
            "same_results": _results(idx, before["queries"])
            == before["results"],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=["build", "compact"])
    p.add_argument("--index", required=True)
    p.add_argument("--base", type=int, default=8192)
    p.add_argument("--append", type=int, default=2048)
    p.add_argument("--seg-shift", type=int, default=17)
    p.add_argument("--code", default=None,
                   help="checkout to import anserini_ray from (compact)")
    a = p.parse_args()
    out = build(a) if a.phase == "build" else compact(a)
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
