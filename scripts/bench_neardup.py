"""Time the near-dup registry entries and the driver memory of duplicate-span
dedup, one run per process, in a fresh one-CPU Ray session.

`registry` runs the six near-dup entries of `__ray_entry__.queries()`
(`minhash_dedup`, `simhash_pairs`, `simhash_groups`, `ngram_jaccard_pairs`,
`duplicate_spans`, `embedding_near_dup`) once each on the testdata
scale-factor directory `--sf`, after one untimed warm-up entry, and prints
one JSON line: seconds (up to the result collected as a DataFrame, as the
parity suite reads it) and result rows per entry, and the host's CPU steal
share over the run.

`spans` runs `duplicate_ngram_spans(n=8)` over a planted corpus of `--docs`
documents of 30 tokens, the second half exact copies of the first half (so
half of all 8-grams are duplicated), and prints the span count, the seconds,
and the driver's peak RSS before and after. The first run writes the corpus
under /tmp in the driver, which raises its peak: discard that run.

`--code DIR` imports `anserini_ray` and `__ray_entry__` from another
checkout (say, a `git archive` of the parent commit), so two versions can
run alternately in one window.

Run:
  python scripts/bench_neardup.py registry --sf SF_DIR [--code DIR]
  python scripts/bench_neardup.py spans [--docs 100000] [--code DIR]
"""

import argparse
import json
import os
import resource
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRIES = [
    "minhash_dedup", "simhash_pairs", "simhash_groups",
    "ngram_jaccard_pairs", "duplicate_spans", "embedding_near_dup",
]


def _use_code(path: str) -> None:
    """Import from `path`, in this process and in the Ray workers."""
    sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [path] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def _cpu_times():
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return sum(v), v[7] if len(v) > 7 else 0


def _steal_share(t0, t1) -> float:
    total, steal = t1[0] - t0[0], t1[1] - t0[1]
    return round(steal / total, 4) if total else 0.0


def _rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def registry(sf: str) -> dict:
    import __ray_entry__ as e

    qs = e.queries()
    qs["exact_dedup"](sf)  # warm-up: worker start and imports
    out = {"sf": sf}
    c0 = _cpu_times()
    for name in ENTRIES:
        t0 = time.perf_counter()
        res = qs[name](sf)
        if hasattr(res, "to_pandas"):  # a lazy Dataset runs here
            res = res.to_pandas()
        out[f"{name}_s"] = round(time.perf_counter() - t0, 3)
        out[f"{name}_rows"] = len(res)
    out["steal"] = _steal_share(c0, _cpu_times())
    return out


def _planted_corpus(path: str, docs: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(13)
    words = np.array([f"w{i:04d}" for i in range(5000)])
    half = docs // 2
    uniq = [" ".join(rng.choice(words, size=30)) for _ in range(docs - half)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(docs), type=pa.int64()),
        "text": pa.array(uniq + uniq[:half]),
    }), path, row_group_size=10_000)


def spans(docs: int) -> dict:
    import ray.data

    from anserini_ray.stages.dedup import duplicate_ngram_spans

    path = f"/tmp/neardup_spans_{docs}.parquet"
    if not os.path.exists(path):
        _planted_corpus(path, docs)
    out = {"docs": docs, "rss_mb_start": _rss_mb()}
    c0 = _cpu_times()
    t0 = time.perf_counter()
    out["spans"] = duplicate_ngram_spans(ray.data.read_parquet(path), n=8).count()
    out["spans_s"] = round(time.perf_counter() - t0, 3)
    out["rss_mb_peak"] = _rss_mb()
    out["steal"] = _steal_share(c0, _cpu_times())
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("mode", choices=("registry", "spans"))
    p.add_argument("--sf", help="testdata scale-factor directory")
    p.add_argument("--docs", type=int, default=100_000)
    p.add_argument("--code", default=REPO)
    a = p.parse_args()
    if a.mode == "registry" and not a.sf:
        p.error("registry needs --sf")
    _use_code(os.path.abspath(a.code))
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    try:
        out = registry(a.sf) if a.mode == "registry" else spans(a.docs)
    finally:
        ray.shutdown()
    out["code"] = a.code
    print(json.dumps(out))


if __name__ == "__main__":
    main()
