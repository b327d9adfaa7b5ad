"""One workload run, in its own process: `python -m perfbench.workloads`.

`run.py` starts this module in a new process session and reads the record
it writes to `--out`. The run: generate (or reuse) the seeded inputs, start
Ray, set up, then repeat whole rounds of one write phase and one read phase,
at least the workload's `min_rounds` and until `--seconds` have passed (or
exactly `--rounds` rounds, when given). Every round does the same work and
checks its outputs against `oracle.py`.

The client is one thread in this process; the read phase is a closed loop
(the next query is sent when the previous one has returned).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from perfbench import gen, oracle

# search_p99_ms needs ten queries beyond it.
MIN_TIMED_QUERIES = 1000
# Each read phase alternates this many chunks of k=10 queries with k=1000
# batches, so that both samples span the whole phase.
READ_CHUNKS = 4
# The Ray session's CPUs: the host this benchmark was made on reports one
# (`nproc`), and one client thread drives all load.
RAY_CPUS = 1
# Searcher opens in set-up; setup_s takes their median. One in one-round
# (`--trace 1`) runs, which do not report setup_s.
SETUP_REPEATS = 2
WARMUP_TURNS = 256
# The compaction phase of traced `ingest_fresh` runs: two appends of this
# many turns onto the warm-up index, with auto-compaction at three unit runs.
COMPACT_TURNS = 64
COMPACT_UNIT_RUNS = 3
COMPACT_PLANTED = 1000

# The query mix of `bench.py --zipf`: Zipf-rank ranges of head, torso and
# tail terms, and three query shapes taken in turn.
HEAD = (0, 100)
TORSO = (1_000, 10_000)
TAIL = (100_000, gen.VOCAB_SIZE)
SHAPES = ((HEAD, TORSO), (HEAD, TORSO, TAIL), (TORSO, TAIL))
# k=1000 queries: the two shapes with a head term, taken from the ten most
# frequent terms so that every query fills the run depth on these corpora.
RUN_HEAD = (0, 10)
RUN_SHAPES = ((RUN_HEAD, TORSO), (RUN_HEAD, TORSO, TAIL))

WORKLOADS = {
    # A fresh two-segment build of long turns each round, then distinct
    # queries over cold readers.
    "bulk_build": {
        "corpus": {"n_turns": 12_288, "median_len": 48, "sigma": 1.0,
                   "cap": 4000},
        "seg_shift": 13,
        "min_rounds": 2,
        "k10_per_round": 500,
        "k1000_per_round": 32,
    },
    # A base index (set-up), then rounds of one small append onto a fresh
    # copy of it, with a planted term, a fresh Searcher and distinct queries
    # against its cold caches.
    "ingest_fresh": {
        "corpus": {"n_turns": 8_192, "median_len": 21, "sigma": 0.9,
                   "cap": 2000},
        "append": {"n_turns": 2048, "median_len": 21, "sigma": 0.9,
                   "cap": 2000},
        "seg_shift": 17,
        "min_rounds": 3,
        "k10_per_round": 600,
        "k1000_per_round": 60,
    },
}

assert all(w["min_rounds"] * w["k10_per_round"] >= MIN_TIMED_QUERIES
           for w in WORKLOADS.values())


# --- queries ---------------------------------------------------------------

def _distinct_ranks(rng, shapes=SHAPES):
    """Endless distinct queries as tuples of Zipf ranks, the shapes taken in
    turn."""
    seen = set()
    i = 0
    while True:
        q = tuple(int(rng.integers(lo, hi)) for lo, hi in shapes[i % len(shapes)])
        i += 1
        if q not in seen:
            seen.add(q)
            yield q


def query_stream(seed: int, stream: int):
    """Endless distinct seeded queries as lists of term ids."""
    r2w = gen.rank_to_word(seed)
    for ranks in _distinct_ranks(np.random.default_rng([seed, 1000 + stream])):
        yield [int(r2w[r]) for r in ranks]


def run_queries(seed: int, n: int) -> list[list[int]]:
    """`n` queries for the k=1000 batches (RUN_SHAPES)."""
    r2w = gen.rank_to_word(seed)
    ranks = _distinct_ranks(np.random.default_rng([seed, 2000]), RUN_SHAPES)
    return [[int(r2w[r]) for r in next(ranks)] for _ in range(n)]


def query_text(term_ids: list[int], vocab) -> str:
    return " ".join(vocab[t] for t in term_ids)


# --- process facts ---------------------------------------------------------

def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _actor_pid(actor_self):
    return os.getpid()


def cpu_steal() -> tuple[int, int]:
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return (v[7] if len(v) > 7 else 0), sum(v)


def nproc() -> int:
    """What coreutils `nproc` prints: the affinity set, capped by
    OMP_NUM_THREADS when set."""
    n = len(os.sched_getaffinity(0))
    try:
        return min(n, int(os.environ.get("OMP_NUM_THREADS", n)))
    except ValueError:
        return n


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_revision(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


# --- the run ---------------------------------------------------------------

class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.root = os.getcwd()
        self.work = args.work
        self.vocab = gen.vocabulary()
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.failures: list[str] = []
        self.windows = {"write": [], "read": [], "compact": []}
        self.ingest = []       # turns/s per write
        self.k10_ms = []       # per-query latency
        self.k1000 = []        # (queries, seconds) per batch
        self.bytes_ratio = []  # index bytes / text bytes per write
        self.rss = []          # serving actor RSS per read phase
        self.unit_stage_s = 0.0
        self.vocab_size = 0
        self.useful = []       # (rows from this write's units, rows aggregated)
        self.seq = 0

    # bookkeeping
    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> None:
        """A failed check is a failed operation and makes the run's
        outputs incorrect."""
        if not self.op(ok, what):
            self.check_failures += 1

    def request(self, req: str) -> None:
        """Name this process's next request in the trace."""
        if self.args.trace:
            from perfbench import trace

            trace.RECORDER.req = req

    def fresh_dir(self, name: str) -> str:
        self.seq += 1
        d = os.path.join(self.work, f"{name}-{self.seq}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def config(self):
        from anserini_ray.index import IndexConfig

        return IndexConfig(seg_shift=self.spec["seg_shift"], assume_sorted=True)

    # inputs
    def inputs(self):
        cache = os.path.join(self.root, ".perfbench_cache")
        seed = self.args.seed
        self.corpus = gen.cached(cache, seed, 0, **self.spec["corpus"])
        self.warmup = gen.cached(cache, seed, 1, n_turns=WARMUP_TURNS,
                                 median_len=20, sigma=0.8, cap=500,
                                 prefix="w")
        self.coll = oracle.Collection()
        self.coll.add(self.corpus)
        self.base_coll = self.coll
        if "append" in self.spec:
            # every round appends this batch; its planted term is number 0
            self.batch = gen.cached(cache, seed, 100, planted=0,
                                    prefix="a0000-", **self.spec["append"])
        if self.args.trace and "append" in self.spec:
            self.compact_batches = [
                gen.cached(cache, seed, 200 + i, n_turns=COMPACT_TURNS,
                           median_len=20, sigma=0.8, cap=500,
                           planted=COMPACT_PLANTED + i, prefix=f"k{i}-")
                for i in range(2)]
        self.query_stream = query_stream(seed, 1)
        self.batch_queries = run_queries(seed, 1000)
        self.batch_pos = 0

    def next_batch(self, n: int) -> list[list[int]]:
        qs = self.batch_queries
        out = [qs[(self.batch_pos + j) % len(qs)] for j in range(n)]
        self.batch_pos += n
        return out

    # Ray
    def start_ray(self) -> float:
        import ray

        t0 = time.perf_counter()
        kwargs = {}
        if self.args.trace:
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.setup_worker"}
        # Ray's metrics collection and the streaming of worker logs to the
        # driver each wake up about once a second; on one CPU that work was
        # most of the k=10 latency tail (p99 14 ms against 8-9 ms without
        # it, in a 25 s probe on the host in README.md).
        ray.init(num_cpus=RAY_CPUS,
                 include_dashboard=False, _temp_dir=self.args.ray_tmp,
                 object_store_memory=512 << 20, log_to_driver=False,
                 _system_config={"enable_metrics_collection": False}, **kwargs)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        return time.perf_counter() - t0

    def searcher(self, index_dir: str):
        from anserini_ray.search import Searcher

        return Searcher(index_dir)

    def close(self, s) -> None:
        import ray

        if self.args.trace:
            from perfbench import trace

            trace.drain_actors(s)
        for a in s.actors:
            ray.kill(a)

    def actor_rss(self, s) -> float:
        import ray

        pids = ray.get([a.__ray_call__.remote(_actor_pid) for a in s.actors])
        return sum(rss_mb(p) for p in pids)

    def first_k(self) -> int:
        """The first query after a write: an append's planted term must
        return every turn of its batch; a build's probe is a k=10 query."""
        if "append" in self.spec:
            return self.spec["append"]["n_turns"] + 10
        return 10

    # phases
    def timed_write(self, write, turns: int, first_query, text_bytes: int,
                    index_dir: str):
        """Write, open a Searcher, answer its first query; returns the
        Searcher and the first query's result."""
        self.request(f"write-{len(self.ingest)}")
        t0 = time.perf_counter()
        manifest = write()
        s = self.searcher(index_dir)
        first = s.search(first_query, k=self.first_k())
        t1 = time.perf_counter()
        self.windows["write"].append((t0, t1))
        self.ingest.append(turns / (t1 - t0))
        self.bytes_ratio.append(dir_bytes(index_dir) / text_bytes)
        self.unit_stage_s += manifest.counters["stage_secs"].get(
            "tokenize_encode_write", 0.0)
        return s, manifest, first

    def read_phase(self, s, checks: list):
        """READ_CHUNKS chunks, each of k=10 queries then one k=1000 batch."""
        t0 = time.perf_counter()
        n_k10 = self.spec["k10_per_round"] // READ_CHUNKS
        n_k1000 = self.spec["k1000_per_round"] // READ_CHUNKS
        for _ in range(READ_CHUNKS):
            self.k10_chunk(s, n_k10, checks)
            self.batch_phase(s, n_k1000, checks)
        self.windows["read"].append((t0, time.perf_counter()))
        self.rss.append(self.actor_rss(s))

    def k10_chunk(self, s, n_k10: int, checks: list) -> None:
        sample_every = max(1, n_k10 // 2)
        for i in range(n_k10):
            q = next(self.query_stream)
            text = query_text(q, self.vocab)
            self.request(f"k10-{len(self.k10_ms)}")
            ta = time.perf_counter()
            try:
                res = s.search(text, k=10)
            except Exception as e:  # a failed query is counted, not fatal
                self.op(False, f"k10 query raised {e!r}")
                continue
            self.k10_ms.append((time.perf_counter() - ta) * 1e3)
            self.op(True)
            if i % sample_every == 0:
                checks.append((q, 10, res))

    def batch_phase(self, s, n_k1000: int, checks: list) -> None:
        batch = self.next_batch(n_k1000)
        qs = [(f"b{j}", query_text(q, self.vocab)) for j, q in enumerate(batch)]
        self.request(f"k1000-{len(self.k1000)}")
        ta = time.perf_counter()
        try:
            out = s.batch_search(qs, k=1000)
            self.k1000.append((len(qs), time.perf_counter() - ta))
            self.op(True)
            checks.append((batch[0], 1000, out["b0"]))
        except Exception as e:
            self.op(False, f"k1000 batch raised {e!r}")

    def check_results(self, s, checks: list) -> None:
        """Each sampled result: unadjusted scores against the oracle, the
        served (adjusted) scores against the oracle's own tie adjustment of
        the unadjusted ones."""
        for q, k, (docids, scores) in checks:
            text = query_text(q, self.vocab)
            raw_ids, raw = s.search(text, k=k, adjust_ties=False)
            why = oracle.check_ranking(self.coll, q, raw_ids, raw, k)
            if why is None and (list(docids) != list(raw_ids) or not np.array_equal(
                    np.asarray(scores, np.float32), oracle.adjust_ties(raw))):
                why = "served scores differ from the tie-adjusted raw scores"
            self.check(why is None, f"ranking of {text!r} k={k}: {why}")

    def check_stats(self, manifest, index_dir: str, s) -> None:
        """Collection statistics and sampled df/cf against the generated
        tokens, and LocalSearcher against Searcher on sampled queries."""
        from anserini_ray.search import LocalSearcher

        self.check(manifest.doc_count == self.coll.n_docs,
                f"doc_count {manifest.doc_count} != {self.coll.n_docs}")
        self.check(manifest.sum_total_tf == self.coll.sum_total_tf,
                f"sum_total_tf {manifest.sum_total_tf} != {self.coll.sum_total_tf}")
        local = LocalSearcher(index_dir)
        r2w = gen.rank_to_word(self.args.seed)
        for rank in (0, 7, 120, 900, 4000):
            t = int(r2w[rank])
            word = self.vocab[t]
            df, cf = self.coll.df_cf(t)
            seg_df = sum(r.df(word) for r in local.readers)
            seg_cf = sum(r.cf(word) for r in local.readers)
            gdf = max(r.global_df.get(word, 0) for r in local.readers)
            gcf = max(r.global_cf.get(word, 0) for r in local.readers)
            self.check((seg_df, seg_cf, gdf, gcf) == (df, cf, df, cf),
                    f"df/cf of {word}: {(seg_df, seg_cf, gdf, gcf)} != {(df, cf)}")
        for q, k in [(self.batch_queries[-1], 10), (self.batch_queries[-2], 1000)]:
            text = query_text(q, self.vocab)
            a = s.search(text, k=k)
            b = local.search(text, k=k)
            self.check(list(a[0]) == list(b[0]) and np.array_equal(a[1], b[1]),
                    f"Searcher and LocalSearcher differ on {text!r} k={k}")

    # workloads
    def setup(self) -> float:
        """Ray start, one warm-up build (the base index in ingest_fresh),
        then the median of SETUP_REPEATS searcher opens with a first
        query."""
        from anserini_ray.index import build_index

        ray_s = self.start_ray()
        corpus = self.corpus if "append" in self.spec else self.warmup
        d = self.fresh_dir("setup")
        t0 = time.perf_counter()
        build_index(input_paths=corpus.paths, index_dir=d, config=self.config())
        build_s = time.perf_counter() - t0
        probe = self.vocab[int(gen.rank_to_word(self.args.seed)[0])]
        opens = []
        for _ in range(1 if self.args.rounds else SETUP_REPEATS):
            t0 = time.perf_counter()
            s = self.searcher(d)
            s.search(probe, k=10)
            opens.append(time.perf_counter() - t0)
            self.close(s)
        self.base_dir = d
        log(f"setup: ray {ray_s:.2f}s build {build_s:.2f}s opens "
            + " ".join(f"{x:.2f}" for x in opens))
        return ray_s + build_s + statistics.median(opens)

    def round_build(self, r: int) -> None:
        from anserini_ray.index import build_index

        d = self.fresh_dir("build")
        probe = [int(gen.rank_to_word(self.args.seed)[r % 5])]
        s, manifest, first = self.timed_write(
            lambda: build_index(input_paths=self.corpus.paths, index_dir=d,
                                config=self.config()),
            self.corpus.n_docs, query_text(probe, self.vocab),
            self.corpus.text_bytes, d)
        self.op(True)
        checks = [(probe, 10, first)]
        self.read_phase(s, checks)
        self.check_results(s, checks)
        self.check_stats(manifest, d, s)
        self.useful.append((1, 1))
        self.close(s)
        self.note_vocab(d)
        shutil.rmtree(d, ignore_errors=True)

    def round_ingest(self, r: int) -> None:
        """The same append every round, onto a fresh copy of the base index
        made outside the timed windows, so that every round, and every run
        however long, measures the same work."""
        from anserini_ray.index import append_index_streaming

        d = self.fresh_dir("ingest")
        shutil.copytree(self.base_dir, d)
        self.coll = self.base_coll.copy()
        batch = self.batch
        before = set(os.listdir(os.path.join(d, "units")))
        self.coll.add(batch)
        planted = gen.planted_term(0)
        s, manifest, first = self.timed_write(
            lambda: append_index_streaming(batch.paths, d, self.config()),
            batch.n_docs, planted, self.corpus.text_bytes + batch.text_bytes, d)
        self.op(True)
        self.check(sorted(first[0]) == sorted(batch.docids),
                   f"planted term {planted} returned {len(first[0])} turns, "
                   f"expected exactly the {batch.n_docs} of its batch")
        self.useful.append(self.useful_rows(d, before))
        checks = []
        self.read_phase(s, checks)
        self.check_results(s, checks)
        self.check_stats(manifest, d, s)
        self.close(s)
        self.note_vocab(d)
        shutil.rmtree(d, ignore_errors=True)

    def compaction(self) -> None:
        """Traced `ingest_fresh` runs only, after the timed rounds: the
        warm-up index and two small planted appends with auto-compaction at
        COMPACT_UNIT_RUNS, so that the second append compacts segment 0
        through `optimize_index`. The runs' own appends never reach the
        library's threshold, and compacting a segment of their size takes
        longer than a whole run (see README)."""
        from anserini_ray.index import (IndexConfig, append_index_streaming,
                                        build_index)
        from anserini_ray.search import LocalSearcher

        cfg = IndexConfig(seg_shift=self.spec["seg_shift"], assume_sorted=True,
                          auto_compact_unit_runs=COMPACT_UNIT_RUNS)
        d = self.fresh_dir("compact")
        self.request("compact")
        t0 = time.perf_counter()
        build_index(input_paths=self.warmup.paths, index_dir=d, config=cfg)
        for b in self.compact_batches:
            manifest = append_index_streaming(b.paths, d, cfg)
        self.windows["compact"].append((t0, time.perf_counter()))
        done = manifest.counters.get("auto_compacted_segments")
        self.check(done == [0], f"auto-compaction compacted {done}, expected [0]")
        local = LocalSearcher(d)
        for i, b in enumerate(self.compact_batches):
            got = local.search(gen.planted_term(COMPACT_PLANTED + i),
                               k=COMPACT_TURNS + 10)[0]
            self.check(sorted(got) == sorted(b.docids),
                       f"compacted index returned {len(got)} turns for "
                       f"planted batch {i}")
        n = WARMUP_TURNS + COMPACT_TURNS * len(self.compact_batches)
        self.check(manifest.doc_count == n,
                   f"compacted doc_count {manifest.doc_count} != {n}")
        shutil.rmtree(d, ignore_errors=True)

    def note_vocab(self, index_dir: str) -> None:
        """Distinct terms in the written termstats (traced runs only)."""
        if self.args.trace:
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            terms = pq.read_table(os.path.join(index_dir, "termstats"),
                                  columns=["term"])["term"]
            self.vocab_size = pc.count_distinct(terms).as_py()

    def useful_rows(self, index_dir: str, before: set) -> tuple[int, int]:
        """Posting-run rows written by this append's units, and by all units
        (the rows the termstats recompute aggregates)."""
        new = total = 0
        udir = os.path.join(index_dir, "units")
        for fn in os.listdir(udir):
            if not fn.endswith(".json"):
                continue
            with open(os.path.join(udir, fn)) as f:
                m = json.load(f)
            rows = sum(int(v[2]) for v in m["segments"].values() if len(v) > 2)
            total += rows
            if fn not in before:
                new += rows
        return new, total

    def more_rounds(self, rounds: int, start: float) -> bool:
        if self.args.rounds:
            return rounds < self.args.rounds
        return (rounds < self.spec["min_rounds"]
                or time.perf_counter() - start < self.args.seconds)

    def run(self) -> dict:
        self.inputs()
        steal0, total0 = cpu_steal()
        setup_s = self.setup()
        start = time.perf_counter()
        rounds = 0
        while self.more_rounds(rounds, start):
            t0 = time.perf_counter()
            if "append" in self.spec:
                self.round_ingest(rounds)
            else:
                self.round_build(rounds)
            log(f"round {rounds}: {time.perf_counter() - t0:.2f}s, writes "
                + " ".join(f"{w[1] - w[0]:.2f}" for w in self.windows["write"][-3:]))
            rounds += 1
        if self.args.trace and "append" in self.spec:
            self.compaction()
        steal1, total1 = cpu_steal()
        lat = sorted(self.k10_ms)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        nq = sum(n for n, _ in self.k1000)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ingest_turns_per_s": (statistics.median(self.ingest), "turns/s"),
            "search_p50_ms": (statistics.median(lat), "ms"),
            "run_qps": (nq / sum(t for _, t in self.k1000), "queries/s"),
            "index_bytes_per_text_byte": (statistics.median(self.bytes_ratio),
                                          "ratio"),
            "serve_rss_mb": (statistics.median(self.rss), "MB"),
        }
        if len(lat) >= MIN_TIMED_QUERIES:  # fewer only in one-round runs
            metrics["search_p99_ms"] = (q[98], "ms")
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "rounds": rounds,
            "attempted": self.attempted,
            "failed": self.failed,
            "check_failures": self.check_failures,
            "failures": self.failures,
            "timed_k10_queries": len(lat),
            "nproc": nproc(),
            "cpus_in_affinity": len(os.sched_getaffinity(0)),
            "cpus_online": os.cpu_count(),
            "ray_cpus": RAY_CPUS,
            "git_revision": git_revision(self.root),
            "cpu_steal_share": ((steal1 - steal0) / (total1 - total0)
                                if total1 > total0 else 0.0),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "windows": self.windows,
            "unit_stage_s": self.unit_stage_s,
            "useful": self.useful,
        }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds (0: run for --seconds)")
    p.add_argument("--work", required=True)
    p.add_argument("--ray-tmp", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import ray

    run = Run(args)
    if args.trace:
        from perfbench import trace

        trace.install(main=True)
    try:
        record = run.run()
        if args.trace:
            record["layers"] = trace_layers(run)
    finally:
        ray.shutdown()
    with open(args.out, "w") as f:
        json.dump(record, f)
    return 0


def trace_layers(run: Run) -> dict:
    from perfbench import trace

    spans = trace.load_spans(os.environ[trace.TRACE_DIR_ENV])
    useful = [n / t for n, t in run.useful if t]
    return trace.summarize(spans, run.windows, {
        "unit_stage_s": run.unit_stage_s,
        "vocab": run.vocab_size,
        "useful_ratio": statistics.median(useful) if useful else 0.0,
    })


if __name__ == "__main__":
    sys.exit(main())
