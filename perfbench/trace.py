"""Span tracing for the per-layer run.

`install()` wraps the public boundaries of each layer, in the main process and,
through Ray's worker-process setup hook (`setup_worker`), in every task worker
and actor. Each call records a span (id, parent id, name, start, end, request
id, counts) in the process's memory. Task workers write their spans to
`<trace dir>/spans-<pid>.jsonl` when their outermost span ends; actors keep
them until the main process drains them (`drain_actors`), which writes its own
at the end. `summarize` turns the spans of a window into per-layer metrics.

All clocks are `time.perf_counter()`, which on Linux is CLOCK_MONOTONIC and
so comparable across the processes of one host.
"""

from __future__ import annotations

import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """The spans of one process. There is one per process (`RECORDER`),
    because wrappers installed by the worker setup hook have no caller that
    could hand them an object."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.req = None
        self.decodes = 0
        self.keep_until_drained = False

    def flush(self) -> None:
        out_dir = os.environ.get(TRACE_DIR_ENV)
        if not out_dir or not self.spans:
            return
        pid = os.getpid()
        with open(os.path.join(out_dir, f"spans-{pid}.jsonl"), "a") as f:
            for s in self.spans:
                f.write(json.dumps((pid,) + s) + "\n")
        self.spans = []


RECORDER = Recorder()


class Traced:
    """A traced callable: records one span per call. A class, not a
    closure, so that it pickles by reference into Ray workers and records
    into the worker's own RECORDER."""

    def __init__(self, name: str, fn, counts=None, req=None):
        self.name = name
        self.fn = fn
        self.counts = counts
        self.req = req

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return _Bound(self, obj)

    def __call__(self, *args, **kwargs):
        rec = RECORDER
        sid = rec.next_id
        rec.next_id += 1
        parent = rec.stack[-1][0] if rec.stack else None
        rec.stack.append((sid, self.name))
        if self.req is not None:
            rec.req = self.req(args)
        before = rec.decodes
        t0 = time.perf_counter()
        out = None
        ok = False
        try:
            out = self.fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = time.perf_counter()
            rec.stack.pop()
            attrs = None
            if self.counts is not None and ok:
                attrs = self.counts(args, kwargs, out, rec.decodes - before)
            rec.spans.append((sid, parent, self.name, t0, t1, rec.req, attrs))
            if not rec.stack and not rec.keep_until_drained:
                rec.flush()


class _Bound:
    def __init__(self, traced: Traced, obj):
        self.traced = traced
        self.obj = obj

    def __call__(self, *args, **kwargs):
        return self.traced(self.obj, *args, **kwargs)


# --- counts taken at the boundaries (module-level so they pickle) --------

def _c_read(args, kwargs, out, _d):
    return {"bytes": int(out.nbytes)}


def _c_tokenize(args, kwargs, out, _d):
    return {"docs": int(args[0].num_rows),
            "tokens": int(sum(out[0]["dl"].to_numpy()))}


def _c_encode(args, kwargs, out, _d):
    return {"runs": int(out.num_rows),
            "bytes": int(out["doc_blob"].nbytes + out["tf_blob"].nbytes)}


def _c_write_part(args, kwargs, out, _d):
    return {"files": 1, "bytes": os.path.getsize(args[1])}


def _c_termstats(args, kwargs, out, _d):
    return {"rows_in": int(args[0].count())}


def _c_optimize(args, kwargs, out, _d):
    index_dir = args[0]
    segs = kwargs.get("segments") or (args[2] if len(args) > 2 else None) or []
    size = 0
    for s in segs:
        d = os.path.join(index_dir, "postings", f"segment_id={s}")
        for fn in os.listdir(d) if os.path.isdir(d) else []:
            size += os.path.getsize(os.path.join(d, fn))
    return {"segments": len(segs), "bytes_rewritten": size}


def _c_postings(args, kwargs, out, decodes):
    return {"decoded": int(out[0].size) if decodes and out is not None else 0}


def _c_varint(args, kwargs, out, _d):
    RECORDER.decodes += 1
    return {"bytes": len(args[0])}


# --- proxies for module attributes the streaming builder reaches through --

class _ParquetFileProxy:
    def __init__(self, pf):
        self._pf = pf
        self.read_row_groups = Traced("streaming.read", pf.read_row_groups,
                                      _c_read)

    def __getattr__(self, name):
        return getattr(self._pf, name)


class _PqProxy:
    """`pyarrow.parquet` as `index.streaming` sees it: ParquetFile reads and
    write_table calls are traced, everything else passes through."""

    def __init__(self, pq):
        self._pq = pq

    def ParquetFile(self, *args, **kwargs):
        return _ParquetFileProxy(self._pq.ParquetFile(*args, **kwargs))

    def write_table(self, *args, **kwargs):
        return Traced("streaming.write_part", self._pq.write_table,
                      _c_write_part)(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pq, name)


class _TimedMaterialize:
    """Extends a layer's span over the `materialize()` of the lazy Dataset
    it returned, where its work actually runs."""

    def __init__(self, name: str, ds):
        self.name = name
        self.ds = ds

    def __call__(self, *args, **kwargs):
        return Traced(self.name, type(self.ds).materialize)(
            self.ds, *args, **kwargs)


def _lazy(name: str, fn):
    def call(*args, **kwargs):
        ds = Traced(name, fn)(*args, **kwargs)
        if hasattr(ds, "materialize"):
            ds.materialize = _TimedMaterialize(name, ds)
        return ds
    return call


class _RayDataProxy:
    def __init__(self, data):
        self._data = data
        self.read_parquet = _lazy("streaming.skinny_readback",
                                  data.read_parquet)

    def __getattr__(self, name):
        return getattr(self._data, name)


class _RayProxy:
    def __init__(self, ray_mod):
        self._ray = ray_mod
        self.data = _RayDataProxy(ray_mod.data)

    def __getattr__(self, name):
        return getattr(self._ray, name)


def _wrap_encoder_factory(factory):
    def make(*args, **kwargs):
        return Traced("build.encode", factory(*args, **kwargs), _c_encode)
    return make


def _wrap_analyzer_factory(factory):
    def make(*args, **kwargs):
        an = factory(*args, **kwargs)
        an.analyze = Traced("analyzer.analyze", an.analyze)
        return an
    return make


def _traced_actor_factory(make_actor):
    """`searcher._make_segment_actor` with the actor's `search_many` traced
    and a `perfbench_drain` method added, applied to the class before Ray
    exports it. Ray exposes only plain functions as actor methods, so the
    replacements are module-level functions."""
    import ray

    def make():
        real_remote = ray.remote

        def remote(cls):
            cls.perfbench_search_many = cls.search_many
            cls.search_many = _actor_search_many
            cls.perfbench_drain = _actor_drain
            return real_remote(cls)

        ray.remote = remote
        try:
            return make_actor()
        finally:
            ray.remote = real_remote
    return make


def _actor_search_many(self, queries, k):
    RECORDER.keep_until_drained = True
    return Traced("searcher.search_many", type(self).perfbench_search_many,
                  req=_req_queries)(self, queries, k)


def _actor_drain(self):
    RECORDER.flush()
    return os.getpid()


def _req_queries(args):
    queries = args[1]
    return queries[0][0] if queries else None


def _req_unit(args):
    return f"unit{args[1]['unit_id'][0].as_py()}" if args[1].num_rows else None


_INSTALLED = False


def install(main: bool) -> None:
    """Wrap every traced boundary in this process (idempotent)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    import ray
    from anserini_ray.index import optimize, streaming
    from anserini_ray.search import searcher, segment_reader
    from anserini_ray.stages import hashagg

    streaming.plan_units = Traced("streaming.plan_units", streaming.plan_units)
    streaming.UnitWorker.__call__ = Traced("streaming.unit",
                                           streaming.UnitWorker.__call__,
                                           req=_req_unit)
    streaming.pq = _PqProxy(streaming.pq)
    streaming.ray = _RayProxy(ray)
    streaming.tokenize_table = Traced("build.tokenize_table",
                                      streaming.tokenize_table, _c_tokenize)
    streaming.make_subblock_encoder = _wrap_encoder_factory(
        streaming.make_subblock_encoder)
    streaming.write_termstats = Traced("build.write_termstats",
                                       streaming.write_termstats,
                                       _c_termstats)
    hashagg.hash_aggregate = _lazy("hashagg.hash_aggregate",
                                   hashagg.hash_aggregate)
    optimize.optimize_index = Traced("optimize.optimize_index",
                                     optimize.optimize_index, _c_optimize)
    SR = segment_reader.SegmentReader
    SR.__init__ = Traced("segment_reader.open", SR.__init__)
    SR.postings = Traced("segment_reader.postings", SR.postings, _c_postings)
    SR.doc_id_strings = Traced("segment_reader.doc_id_strings",
                               SR.doc_id_strings)
    segment_reader.varint_decode = Traced("varint.decode",
                                          segment_reader.varint_decode,
                                          _c_varint)
    searcher.make_analyzer = _wrap_analyzer_factory(searcher.make_analyzer)
    if main:
        RECORDER.keep_until_drained = True  # written out by load_spans
        searcher._make_segment_actor = _traced_actor_factory(
            searcher._make_segment_actor)
        searcher.Searcher.__init__ = Traced("searcher.open",
                                            searcher.Searcher.__init__)
        searcher.Searcher.batch_search = Traced(
            "searcher.batch_search", searcher.Searcher.batch_search)
        searcher.adjust_score_ties = Traced("ties.adjust_score_ties",
                                            searcher.adjust_score_ties)
        real_get = ray.get

        def get(*args, **kwargs):
            stack = RECORDER.stack
            if stack and stack[-1][1] == "searcher.batch_search":
                return Traced("searcher.rpc", real_get)(*args, **kwargs)
            return real_get(*args, **kwargs)
        ray.get = get


def setup_worker() -> None:
    """Ray `worker_process_setup_hook`: trace this worker process too."""
    install(main=False)
    import atexit
    atexit.register(RECORDER.flush)


def drain_actors(searcher) -> None:
    """Have every actor of a traced `Searcher` write out its spans."""
    import ray

    ray.get([a.perfbench_drain.remote() for a in searcher.actors])


def load_spans(trace_dir: str) -> list[tuple]:
    RECORDER.flush()
    spans = []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(tuple(json.loads(line)) for line in f)
    return spans


PER_LAYER = [
    # (metric, unit)
    ("streaming.plan_units.s", "s"),
    ("streaming.unit.busy_s", "s"),
    ("streaming.unit.count", "count"),
    ("streaming.unit.wait_s", "s"),
    ("streaming.read.s", "s"),
    ("streaming.read.bytes", "bytes"),
    ("build.tokenize_table.s", "s"),
    ("build.tokenize_table.docs", "count"),
    ("build.tokenize_table.tokens", "count"),
    ("build.encode.s", "s"),
    ("build.encode.runs", "count"),
    ("build.encode.bytes", "bytes"),
    ("streaming.write_part.s", "s"),
    ("streaming.write_part.files", "count"),
    ("streaming.write_part.bytes", "bytes"),
    ("build.write_termstats.s", "s"),
    ("build.write_termstats.rows_in", "count"),
    ("build.write_termstats.vocab", "count"),
    ("build.write_termstats.useful_ratio", "ratio"),
    ("hashagg.hash_aggregate.s", "s"),
    ("streaming.skinny_readback.s", "s"),
    ("optimize.optimize_index.s", "s"),
    ("optimize.optimize_index.segments", "count"),
    ("optimize.optimize_index.bytes_rewritten", "bytes"),
    ("searcher.open.s", "s"),
    ("segment_reader.open.s", "s"),
    ("segment_reader.open.count", "count"),
    ("analyzer.analyze.s", "s"),
    ("analyzer.analyze.calls", "count"),
    ("segment_reader.postings.s", "s"),
    ("segment_reader.postings.calls", "count"),
    ("segment_reader.postings.decoded", "count"),
    ("segment_reader.postings.memo_hit_ratio", "ratio"),
    ("varint.decode.s", "s"),
    ("varint.decode.bytes", "bytes"),
    ("segment_reader.doc_id_strings.s", "s"),
    ("searcher.search_many.busy_s", "s"),
    ("searcher.search_many.self_s", "s"),
    ("searcher.rpc_wait_s", "s"),
    ("searcher.merge.s", "s"),
    ("ties.adjust_score_ties.s", "s"),
    ("trace.write.accounted_share", "ratio"),
    ("trace.read.accounted_share", "ratio"),
    ("trace.overhead.search_p50_ms", "ratio"),
    ("trace.overhead.ingest_turns_per_s", "ratio"),
]


class _Totals:
    """Per-name sums over a set of spans: inclusive time, self time (minus
    child spans of the same process), calls, counts."""

    def __init__(self, spans: list[tuple]):
        child: dict[tuple, float] = {}
        for pid, sid, parent, name, t0, t1, req, attrs in spans:
            if parent is not None:
                child[(pid, parent)] = child.get((pid, parent), 0.0) + t1 - t0
        self.tot: dict[str, float] = {}
        self.slf: dict[str, float] = {}
        self.cnt: dict[str, int] = {}
        self.attr: dict[str, float] = {}
        self.no_decode = 0
        for pid, sid, parent, name, t0, t1, req, attrs in spans:
            self.tot[name] = self.tot.get(name, 0.0) + t1 - t0
            self.slf[name] = (self.slf.get(name, 0.0) + t1 - t0
                              - child.get((pid, sid), 0.0))
            self.cnt[name] = self.cnt.get(name, 0) + 1
            for k, v in (attrs or {}).items():
                key = f"{name}.{k}"
                self.attr[key] = self.attr.get(key, 0) + v
            if name == "segment_reader.postings" and not (attrs or {}).get(
                    "decoded"):
                self.no_decode += 1
        # the main process's time after each RPC returned: the merge
        by_key = {(s[0], s[1]): s for s in spans}
        self.after_rpc = sum(
            by_key[(s[0], s[2])][5] - s[5] for s in spans
            if s[3] == "searcher.rpc" and (s[0], s[2]) in by_key)

    def s(self, name: str) -> float:
        return self.tot.get(name, 0.0)

    def rpc_wait(self) -> float:
        """Client wait on the actors beyond their busy time."""
        return max(0.0, self.s("searcher.rpc") - self.s("searcher.search_many"))


def summarize(spans: list[tuple], windows: dict[str, list[tuple]],
              extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans that start inside the timed windows.

    `windows` maps "write"/"read" to the main process's (start, end) intervals
    of each timed phase, and "compact" to the untimed compaction phase of
    traced `ingest_fresh` runs, whose spans count only towards the `optimize`
    metrics. A `.s` metric is the inclusive time of the boundary
    call; `self_s` subtracts the part its child spans (same process) cover.
    `extra` carries figures known without spans: the unit
    stage's wall time, the vocabulary size and the useful-row ratio."""

    def within(phase):
        ws = windows.get(phase, [])
        return [s for s in spans if any(lo <= s[4] <= hi for lo, hi in ws)]

    write, read = within("write"), within("read")
    t = _Totals(write + read)
    opt = _Totals(write + read + within("compact"))
    calls = t.cnt.get("segment_reader.postings", 0)
    busy_unit = t.s("streaming.unit")
    a = t.attr.get
    m = {
        "streaming.plan_units.s": t.s("streaming.plan_units"),
        "streaming.unit.busy_s": busy_unit,
        "streaming.unit.count": t.cnt.get("streaming.unit", 0),
        "streaming.unit.wait_s": max(0.0, extra["unit_stage_s"] - busy_unit),
        "streaming.read.s": t.s("streaming.read"),
        "streaming.read.bytes": a("streaming.read.bytes", 0),
        "build.tokenize_table.s": t.s("build.tokenize_table"),
        "build.tokenize_table.docs": a("build.tokenize_table.docs", 0),
        "build.tokenize_table.tokens": a("build.tokenize_table.tokens", 0),
        "build.encode.s": t.s("build.encode"),
        "build.encode.runs": a("build.encode.runs", 0),
        "build.encode.bytes": a("build.encode.bytes", 0),
        "streaming.write_part.s": t.s("streaming.write_part"),
        "streaming.write_part.files": a("streaming.write_part.files", 0),
        "streaming.write_part.bytes": a("streaming.write_part.bytes", 0),
        "build.write_termstats.s": t.s("build.write_termstats"),
        "build.write_termstats.rows_in": a("build.write_termstats.rows_in", 0),
        "build.write_termstats.vocab": extra["vocab"],
        "build.write_termstats.useful_ratio": extra["useful_ratio"],
        "hashagg.hash_aggregate.s": t.s("hashagg.hash_aggregate"),
        "streaming.skinny_readback.s": t.s("streaming.skinny_readback"),
        "optimize.optimize_index.s": opt.s("optimize.optimize_index"),
        "optimize.optimize_index.segments": opt.attr.get(
            "optimize.optimize_index.segments", 0),
        "optimize.optimize_index.bytes_rewritten": opt.attr.get(
            "optimize.optimize_index.bytes_rewritten", 0),
        "searcher.open.s": t.s("searcher.open"),
        "segment_reader.open.s": t.s("segment_reader.open"),
        "segment_reader.open.count": t.cnt.get("segment_reader.open", 0),
        "analyzer.analyze.s": t.s("analyzer.analyze"),
        "analyzer.analyze.calls": t.cnt.get("analyzer.analyze", 0),
        "segment_reader.postings.s": t.s("segment_reader.postings"),
        "segment_reader.postings.calls": calls,
        "segment_reader.postings.decoded": a("segment_reader.postings.decoded", 0),
        "segment_reader.postings.memo_hit_ratio": (
            t.no_decode / calls if calls else 0.0),
        "varint.decode.s": t.s("varint.decode"),
        "varint.decode.bytes": a("varint.decode.bytes", 0),
        "segment_reader.doc_id_strings.s": t.s("segment_reader.doc_id_strings"),
        "searcher.search_many.busy_s": t.s("searcher.search_many"),
        "searcher.search_many.self_s": t.slf.get("searcher.search_many", 0.0),
        "searcher.rpc_wait_s": t.rpc_wait(),
        "searcher.merge.s": t.after_rpc,
        "ties.adjust_score_ties.s": t.s("ties.adjust_score_ties"),
    }
    # Reconciliation: disjoint parts of each phase's wall time. The write
    # phase is the write call (plan, unit stage, termstats with its
    # read-back, compaction) plus the searcher open and its first query; the
    # read phase is the main process's search calls: actor busy time, the RPC wait
    # beyond it, and its own submit and merge time.
    def wall(phase):
        return sum(hi - lo for lo, hi in windows.get(phase, []))

    w, r = _Totals(write), _Totals(read)
    write_parts = (w.s("streaming.plan_units") + extra["unit_stage_s"]
                   + w.s("build.write_termstats")
                   + w.s("streaming.skinny_readback")
                   + w.s("optimize.optimize_index")
                   + w.s("searcher.open") + w.s("searcher.batch_search"))
    read_parts = (r.s("searcher.search_many") + r.rpc_wait()
                  + r.slf.get("searcher.batch_search", 0.0))
    m["trace.write.accounted_share"] = (write_parts / wall("write")
                                        if wall("write") else 0.0)
    m["trace.read.accounted_share"] = (read_parts / wall("read")
                                       if wall("read") else 0.0)
    return m
