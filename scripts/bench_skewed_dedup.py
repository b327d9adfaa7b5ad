"""Driver-RSS evidence for skewed near-dup inputs (round-2 task 3 "done"
criterion): a 10^6-row corpus with a PLANTED HOT BUCKET (100K identical
docs — every band hashes them into one bucket) must not blow up the driver:
star truncation bounds pair emission, payloads are attached inside the
exchange partitions, and only object refs and the pair count reach the
driver.

Reports peak driver RSS before/after minhash_lsh_dedup(verify=True) and
simhash_dedup(verify=True) plus result counts. Recorded in BASELINE.md.

Run: python scripts/bench_skewed_dedup.py [num_cpus]
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("SKEW_ROWS", "1000000"))
HOT = int(os.environ.get("SKEW_HOT", "100000"))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_corpus(path: str) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    words = np.array([f"w{i:04d}" for i in range(5000)])
    os.makedirs(path, exist_ok=True)
    per_file = 125_000
    doc_id = 0
    for fi in range((ROWS + per_file - 1) // per_file):
        n = min(per_file, ROWS - fi * per_file)
        texts = []
        for _ in range(n):
            if doc_id < HOT:  # the planted hot cluster: identical text
                texts.append("hot cluster text repeated exactly the same way")
            else:
                texts.append(" ".join(rng.choice(words, size=8)))
            doc_id += 1
        t = pa.table({
            "doc_id": pa.array(
                range(fi * per_file, fi * per_file + n), type=pa.int64()),
            "text": pa.array(texts),
        })
        pq.write_table(t, os.path.join(path, f"part-{fi:04d}.parquet"))


def main():
    import ray

    num_cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    import ray.data

    from anserini_ray.stages.dedup import minhash_lsh_dedup, simhash_dedup

    corpus = f"/tmp/skew_dedup_{ROWS}_{HOT}"
    if not os.path.isdir(corpus) or not os.listdir(corpus):
        make_corpus(corpus)

    out = {"rows": ROWS, "hot_cluster": HOT, "num_cpus": num_cpus,
           "rss_mb_start": round(rss_mb(), 1)}

    ds = ray.data.read_parquet(corpus)
    t0 = time.perf_counter()
    pairs = minhash_lsh_dedup(ds, verify=True).count()
    out["minhash_pairs"] = pairs
    out["minhash_sec"] = round(time.perf_counter() - t0, 1)
    out["rss_mb_after_minhash"] = round(rss_mb(), 1)

    ds = ray.data.read_parquet(corpus)
    t0 = time.perf_counter()
    spairs = simhash_dedup(ds, verify=True).count()
    out["simhash_pairs"] = spairs
    out["simhash_sec"] = round(time.perf_counter() - t0, 1)
    out["rss_mb_after_simhash"] = round(rss_mb(), 1)

    # the hot cluster must be star-connected (bounded), not quadratic:
    # 100K identical docs -> ~HOT-1 representative pairs, NOT ~HOT^2/2
    assert out["minhash_pairs"] < 5 * HOT, out
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
