"""Inverted-index build — the Ray-Data-native replacement for the
reference's Lucene `IndexWriter` path (`J/index/IndexCollection.java:729-893`).

`build_index` is the one entry point and `streaming.py` the one builder (see
its docstring for the unit DAG); inputs that are not sorted Parquet files are
staged as a sorted Parquet copy first. This module holds the kernels the
builder runs:

  tokenize_table        per-doc (conv_id, turn_idx, dl, terms, tfs
                        [, positions]); whitespace-empty docs dropped and
                        counted (reference analog: EmptyDocumentException,
                        DefaultLuceneDocumentGenerator.java:64-66), per-doc
                        analyzer errors dropped and counted
  make_subblock_encoder explode to postings and IMMEDIATELY delta-gap +
                        varint encode per (segment, term) run *within the
                        batch*. Runs store their absolute first ordinal and
                        ARE the on-disk posting format (readers concatenate a
                        term's runs; see optimize.py for the force-merge
                        compaction), with per-block (<=128 docs) max-tf /
                        min-dl impact metadata for block-max pruning
  write_termstats       one global (term, gdf, gcf) table per generation,
                        term-hash partitioned: a fresh build sums the units'
                        rows, an append adds its units' rows to the
                        committed table

Tie-break parity: results are sorted by docid string
(SearchCollection.java:115-116), so doc order only fixes ordinals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..analysis.analyzer import make_analyzer
from ..state.manifest import IndexManifest, input_fingerprint, termstats_dir
from .varint import varint_encode, varint_sizes

# v2: pos_blob run column + optional ts in docmap; v3: one global termstats
# table per generation instead of per-segment sidecars
INDEX_FORMAT_VERSION = 3
BLOCK_SIZE = 128  # docs per impact block (block-max metadata granularity)


@dataclass
class IndexConfig:
    seg_shift: int = 17          # docs per segment = 1 << seg_shift
    block_size: int = BLOCK_SIZE
    analyzer: dict = field(default_factory=dict)
    norm_mode: str = "lucene"    # "lucene" (byte4-quantized dl) | "accurate"
    resume: bool = False
    # build_index input_paths already globally ordered by (conv_id,
    # turn_idx)? Then the staging sort is skipped; the streaming build
    # VERIFIES the order (units internally, unit boundaries on the driver)
    # and build_index falls back to sorting if violated. Transcript corpora
    # are typically stored in conversation order, making this the common
    # fast path — it removes the only corpus-sized shuffle. A Dataset input
    # is always staged, so the flag has no effect on it.
    assume_sorted: bool = False
    # rows per encode task (per-term runs get longer with bigger batches but
    # tasks get fewer; ~16K balances parallelism vs. sub-row count)
    encode_batch_size: int = 16384
    # also write a forward index (doc -> terms/tfs) per segment; required by
    # pseudo-relevance-feedback rerankers (RM3's reader.getTermVector analog,
    # Rm3Reranker.java:134-136)
    store_docvecs: bool = False
    # store token positions in the postings (Lucene -storePositions analog;
    # enables phrase/proximity queries; ~2x tokenized payload)
    store_positions: bool = False
    # sha1 shard filter (reference -shard.count/-shard.current,
    # IndexCollection.java:185-191): index only docids whose Guava-sha1-int
    # Java-mod shard_count equals shard_current. -1 = disabled.
    shard_count: int = -1
    shard_current: int = -1
    # Append auto-compaction threshold: after append_index_streaming, any
    # segment whose posting lists are fragmented across >= this many unit
    # writes SINCE its last compaction is force-merged in place
    # (optimize_index(segments=[...])). Head-term decode cost scales with
    # runs-per-posting-list ~= units touching the segment, so the unit
    # count is the right zero-cost fragmentation proxy (measured: see
    # BASELINE.md segment-fragmentation row). None disables the hook.
    auto_compact_unit_runs: int | None = 32

    @property
    def shard(self) -> tuple[int, int] | None:
        return (
            (self.shard_count, self.shard_current)
            if self.shard_count > 1
            else None
        )

    def repr_for_fingerprint(self) -> str:
        shard = (
            f"|shard{self.shard_count}.{self.shard_current}"
            if self.shard_count > 1
            else ""
        )
        return (
            f"v{INDEX_FORMAT_VERSION}|seg{self.seg_shift}|blk{self.block_size}"
            f"|{sorted(self.analyzer.items())}|{self.norm_mode}"
            f"|dv{int(self.store_docvecs)}|pos{int(self.store_positions)}"
            f"{shard}"
        )


_ANALYZER_CACHE: dict = {}


def _process_analyzer(analyzer_config: dict | None):
    """Per-worker-process analyzer singleton. Tokenize runs as plain TASKS
    (not an actor pool): Ray reuses warm worker processes across stages and
    datasets, so the analyzer (and its stem memo) is built once per worker —
    the same once-per-worker property as an actor pool, without paying actor
    spin-up on every build. (Reference analog: per-thread generator,
    IndexCollection.java:164-165.)"""
    key = tuple(sorted((analyzer_config or {}).items()))
    a = _ANALYZER_CACHE.get(key)
    if a is None:
        a = make_analyzer(analyzer_config)
        _ANALYZER_CACHE[key] = a
    return a


def tokenize_table(
    batch: pa.Table,
    analyzer_config: dict | None,
    store_positions: bool,
    shard: tuple[int, int] | None = None,
) -> tuple[pa.Table, np.ndarray, int, int]:
    """Core tokenize kernel: returns (tokenized table, kept original row
    indices, error count, shard-skipped count). The kept-index array lets
    callers derive deterministic ordinals from input row positions
    (streaming build). `shard=(count, current)` applies the reference's
    sha1 shard filter before analysis (skips counted separately).

    A doc whose analysis raises is DROPPED and counted, not fatal (reference
    analog: per-doc exception -> error counter, IndexCollection.java:249-251
    — except the reference loses the whole FILE; we lose one doc)."""
    texts = batch["text"].to_pylist()
    n_skipped = 0
    shard_keep = None
    if shard is not None:
        from .shard import shard_mask

        ids = [
            f"{c}:{t}"
            for c, t in zip(
                batch["conv_id"].to_pylist(), batch["turn_idx"].to_pylist()
            )
        ]
        shard_keep = shard_mask(ids, shard[0], shard[1])
        n_skipped = int(len(ids) - shard_keep.sum())
    _an = _process_analyzer(analyzer_config)
    analyze = _an.analyze
    analyze_pos = _an.analyze_with_positions
    analyze_tfs = getattr(_an, "analyze_with_tfs", None)  # SLR-style
    keep = np.ones(len(texts), dtype=bool)
    kept_dls: list[int] = []
    flat_terms: list[str] = []
    flat_tfs: list[int] = []
    offsets: list[int] = [0]
    positions = store_positions
    flat_pos: list[int] = []
    pos_inner_off: list[int] = [0]
    from collections import Counter

    n_errors = 0
    for i, text in enumerate(texts):
        if shard_keep is not None and not shard_keep[i]:
            keep[i] = False
            continue
        if text is None or not text.strip():
            keep[i] = False
            continue
        try:
            if analyze_tfs is not None:
                a_terms, a_tfs = analyze_tfs(text)
                if not a_terms:
                    keep[i] = False
                    continue
                kept_dls.append(int(sum(a_tfs)))
                flat_terms.extend(a_terms)
                flat_tfs.extend(a_tfs)
                offsets.append(len(flat_terms))
                continue
            if positions:
                toks, tok_pos = analyze_pos(text)
            else:
                toks = analyze(text)
        except Exception:
            keep[i] = False
            n_errors += 1
            continue
        if positions:
            kept_dls.append(len(toks))
            posmap: dict[str, list[int]] = {}
            for t, p in zip(toks, tok_pos):
                posmap.setdefault(t, []).append(p)
            for t, plist in posmap.items():
                flat_terms.append(t)
                flat_tfs.append(len(plist))
                flat_pos.extend(plist)
                pos_inner_off.append(len(flat_pos))
        else:
            kept_dls.append(len(toks))
            counts = Counter(toks)  # C fast path
            flat_terms.extend(counts.keys())
            flat_tfs.extend(counts.values())
        offsets.append(len(flat_terms))
    idx = np.flatnonzero(keep)
    off = pa.array(np.asarray(offsets, dtype=np.int32))
    terms_col = pa.ListArray.from_arrays(off, pa.array(flat_terms, type=pa.string()))
    tfs_col = pa.ListArray.from_arrays(
        off, pa.array(np.asarray(flat_tfs, dtype=np.int32))
    )
    cols = [
        batch["conv_id"].take(pa.array(idx)),
        pc.cast(batch["turn_idx"].take(pa.array(idx)), pa.int32()),
        pa.array(np.asarray(kept_dls, dtype=np.int32)),
        terms_col,
        tfs_col,
    ]
    names = ["conv_id", "turn_idx", "dl", "terms", "tfs"]
    if "ts" in batch.column_names:
        cols.append(batch["ts"].take(pa.array(idx)))
        names.append("ts")
    if positions:
        inner = pa.ListArray.from_arrays(
            pa.array(np.asarray(pos_inner_off, dtype=np.int32)),
            pa.array(np.asarray(flat_pos, dtype=np.int32)),
        )
        cols.append(pa.ListArray.from_arrays(off, inner))
        names.append("positions")
    return pa.Table.from_arrays(cols, names=names), idx, n_errors, n_skipped


class NotSortedError(ValueError):
    pass


def _input_columns(paths: list[str]) -> list[str]:
    names = set(
        pq.read_metadata(sorted(paths)[0]).schema.to_arrow_schema().names
    )
    return [c for c in ("conv_id", "turn_idx", "text", "ts") if c in names]


def _encode_term_run(
    local_ords: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int,
):
    """Encode one (segment, term) run of postings (already ord-sorted) into a
    varint sub-block + per-block impact metadata.

    One varint_encode call per stream; block byte offsets derived from the
    per-value size array (vectorized), not from per-block encoding."""
    n = local_ords.size
    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = local_ords[0]
    np.subtract(local_ords[1:], local_ords[:-1], out=gaps[1:])
    # NOTE: only the run's first value is absolute; later blocks start with a
    # relative gap — full-list decode is one cumsum, per-block decode shifts
    # by the stored absolute blk_first.
    nblocks = (n + block_size - 1) // block_size
    starts = np.arange(0, n, block_size)
    doc_sizes = varint_sizes(gaps)
    tf64 = tfs.astype(np.uint64)
    tf_sizes = varint_sizes(tf64)
    doc_blob = varint_encode(gaps)
    tf_blob = varint_encode(tf64)
    doc_cum = np.concatenate([[0], np.cumsum(doc_sizes)])
    tf_cum = np.concatenate([[0], np.cumsum(tf_sizes)])
    ends = np.minimum(starts + block_size, n)
    blk_first = local_ords[starts].astype(np.int32)
    blk_n = (ends - starts).astype(np.int32)
    blk_max_tf = np.maximum.reduceat(tfs, starts).astype(np.int32)
    blk_min_dl = np.minimum.reduceat(dls, starts).astype(np.int32)
    blk_doc_off = doc_cum[starts].astype(np.int32)
    blk_tf_off = tf_cum[starts].astype(np.int32)
    return (
        doc_blob,
        tf_blob,
        blk_first,
        blk_n,
        blk_max_tf,
        blk_min_dl,
        blk_doc_off,
        blk_tf_off,
    )


def make_subblock_encoder(seg_shift: int, block_size: int):
    """Vectorized map_batches fn: explode tokenized docs to postings and
    encode per-(segment, term) varint sub-blocks within the batch. When the
    batch carries a `positions` column, each run also gets a pos_blob:
    per-posting delta-varint position streams (split at decode by tf)."""

    def encode_subblocks(batch: pa.Table) -> pa.Table:
        """Fully vectorized across ALL runs in the batch — no per-run Python.
        Realistic (Zipfian) vocabularies make the run count approach the
        posting count (~1 run per (term, doc) at the tail), so per-run numpy
        calls are ~100x slower than this batch-wide formulation: one varint
        stream per column for the WHOLE batch, runs sliced out zero-copy via
        Arrow LargeBinary offset buffers; per-run and per-block stats via
        np.reduceat."""
        n_docs = batch.num_rows
        if n_docs == 0:
            return _empty_subblock_table()
        doc_ords = batch["doc_ord"].to_numpy()
        dls = batch["dl"].to_numpy()
        terms_col = batch["terms"].combine_chunks()
        tfs_col = batch["tfs"].combine_chunks()
        lengths = pc.list_value_length(terms_col).to_numpy().astype(np.int64)
        flat_terms = pc.list_flatten(terms_col)
        flat_tfs = pc.list_flatten(tfs_col).to_numpy().astype(np.int32)
        has_pos = "positions" in batch.column_names
        if has_pos:
            pos_col = batch["positions"].combine_chunks()
            pos_flat = pc.list_flatten(pc.list_flatten(pos_col)).to_numpy()
            pcum = np.concatenate([[0], np.cumsum(flat_tfs.astype(np.int64))])
        post_ord = np.repeat(doc_ords, lengths)
        post_dl = np.repeat(dls, lengths).astype(np.int32)
        post_seg = (post_ord >> seg_shift).astype(np.int64)
        # group by (segment, term): dictionary-encode terms, lexsort
        dict_terms = pc.dictionary_encode(flat_terms)
        term_codes = dict_terms.indices.to_numpy().astype(np.int64)
        vocab = dict_terms.dictionary
        order = np.lexsort((post_ord, term_codes, post_seg))
        s_seg = post_seg[order]
        s_code = term_codes[order]
        s_ord = post_ord[order]
        s_tf = flat_tfs[order]
        s_dl = post_dl[order]
        npost = s_seg.size
        if npost == 0:
            return _empty_subblock_table()
        # run boundaries where (segment, term) changes
        change = np.empty(npost, dtype=bool)
        change[0] = True
        np.logical_or(
            s_seg[1:] != s_seg[:-1], s_code[1:] != s_code[:-1], out=change[1:]
        )
        run_starts = np.flatnonzero(change)
        run_ends = np.append(run_starts[1:], npost)
        run_len = run_ends - run_starts
        n_runs = run_starts.size

        seg_mask = np.int64((1 << seg_shift) - 1)
        s_local = (s_ord & seg_mask).astype(np.uint64)
        # doc gaps across the WHOLE sorted stream, reset at run starts
        gaps = s_local.copy()
        gaps[1:] -= s_local[:-1]
        gaps[run_starts] = s_local[run_starts]
        doc_sizes = varint_sizes(gaps)
        doc_stream = varint_encode(gaps)
        doc_cum = np.concatenate([[0], np.cumsum(doc_sizes)])
        tf64 = s_tf.astype(np.uint64)
        tf_sizes = varint_sizes(tf64)
        tf_stream = varint_encode(tf64)
        tf_cum = np.concatenate([[0], np.cumsum(tf_sizes)])

        def _binary_runs(stream: bytes, cum: np.ndarray, bounds: np.ndarray):
            """LargeBinaryArray of per-run slices — one offsets buffer, the
            stream as the shared data buffer (no per-run bytes objects)."""
            offs = cum[np.append(bounds, npost)].astype(np.int64)
            return pa.Array.from_buffers(
                pa.large_binary(),
                len(bounds),
                [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(stream)],
            )

        # per-run stats (reduceat over the whole batch)
        run_cf = np.add.reduceat(s_tf.astype(np.int64), run_starts)
        run_max_tf = np.maximum.reduceat(s_tf, run_starts)

        # per-block flat stats: every run start is a block start, blocks are
        # block_size-aligned WITHIN each run
        run_id = np.repeat(np.arange(n_runs), run_len)
        pos_in_run = np.arange(npost, dtype=np.int64) - run_starts[run_id]
        blk_start_idx = np.flatnonzero(pos_in_run % block_size == 0)
        blk_end_idx = np.append(blk_start_idx[1:], npost)
        blk_run_id = run_id[blk_start_idx]
        blk_first = s_local[blk_start_idx].astype(np.int32)
        blk_n = (blk_end_idx - blk_start_idx).astype(np.int32)
        blk_max_tf = np.maximum.reduceat(s_tf, blk_start_idx).astype(np.int32)
        blk_min_dl = np.minimum.reduceat(s_dl, blk_start_idx).astype(np.int32)
        blk_doc_off = (doc_cum[blk_start_idx] - doc_cum[run_starts][blk_run_id]).astype(np.int32)
        blk_tf_off = (tf_cum[blk_start_idx] - tf_cum[run_starts][blk_run_id]).astype(np.int32)
        # list offsets: blocks per run
        blocks_per_run = np.bincount(blk_run_id, minlength=n_runs)
        blk_list_off = pa.array(
            np.concatenate([[0], np.cumsum(blocks_per_run)]).astype(np.int32)
        )

        def _blk_list(values: np.ndarray):
            return pa.ListArray.from_arrays(blk_list_off, pa.array(values))

        if has_pos:
            # gather per-posting position slices in sorted-posting order
            p_start = pcum[order]
            p_len = flat_tfs[order].astype(np.int64)
            total_pos = int(p_len.sum())
            out_off = np.concatenate([[0], np.cumsum(p_len)])
            gidx = np.repeat(p_start - out_off[:-1], p_len) + np.arange(total_pos)
            pos_sorted = pos_flat[gidx].astype(np.uint64)
            # delta within each posting, absolute at posting starts
            posting_starts = out_off[:-1][p_len > 0]
            pgaps = pos_sorted.copy()
            pgaps[1:] -= pos_sorted[:-1]
            pgaps[posting_starts] = pos_sorted[posting_starts]
            pos_sizes = varint_sizes(pgaps)
            pos_stream = varint_encode(pgaps)
            pos_cum_bytes = np.concatenate([[0], np.cumsum(pos_sizes)])
            # run boundaries in position space: positions of run_starts in
            # posting space -> byte offsets
            run_pos_bounds = out_off[run_starts]
            pos_offs = np.append(
                pos_cum_bytes[run_pos_bounds], pos_cum_bytes[-1]
            ).astype(np.int64)
            pos_blob_arr = pa.Array.from_buffers(
                pa.large_binary(),
                n_runs,
                [None, pa.py_buffer(pos_offs.tobytes()), pa.py_buffer(pos_stream)],
            )
        else:
            pos_blob_arr = pa.array([b""] * n_runs, type=pa.large_binary())

        term_strs = pc.take(vocab, pa.array(s_code[run_starts], type=pa.int64()))
        return pa.Table.from_arrays(
            [
                pa.array(s_seg[run_starts], type=pa.int64()),
                term_strs,
                pa.array(s_local[run_starts].astype(np.int64), type=pa.int64()),
                pa.array(run_len, type=pa.int64()),
                pa.array(run_cf, type=pa.int64()),
                pa.array(run_max_tf.astype(np.int32), type=pa.int32()),
                _binary_runs(doc_stream, doc_cum, run_starts),
                _binary_runs(tf_stream, tf_cum, run_starts),
                _blk_list(blk_first),
                _blk_list(blk_n),
                _blk_list(blk_max_tf),
                _blk_list(blk_min_dl),
                _blk_list(blk_doc_off),
                _blk_list(blk_tf_off),
                pos_blob_arr,
            ],
            names=_SUBBLOCK_NAMES,
        )

    return encode_subblocks


_SUBBLOCK_NAMES = [
    "segment_id", "term", "first_local", "df", "cf", "max_tf",
    "doc_blob", "tf_blob", "blk_first", "blk_n", "blk_max_tf",
    "blk_min_dl", "blk_doc_off", "blk_tf_off", "pos_blob",
]


def _empty_subblock_table() -> pa.Table:
    return pa.Table.from_arrays(
        [
            pa.array([], type=pa.int64()), pa.array([], type=pa.string()),
            pa.array([], type=pa.int64()), pa.array([], type=pa.int64()),
            pa.array([], type=pa.int64()), pa.array([], type=pa.int32()),
            pa.array([], type=pa.large_binary()), pa.array([], type=pa.large_binary()),
            pa.array([], type=pa.list_(pa.int32())), pa.array([], type=pa.list_(pa.int32())),
            pa.array([], type=pa.list_(pa.int32())), pa.array([], type=pa.list_(pa.int32())),
            pa.array([], type=pa.list_(pa.int32())), pa.array([], type=pa.list_(pa.int32())),
            pa.array([], type=pa.large_binary()),
        ],
        names=_SUBBLOCK_NAMES,
    )


_TS_SCHEMA = pa.schema(
    [("term", pa.string()), ("gdf", pa.int64()), ("gcf", pa.int64())]
)


def _ts_sum(table: pa.Table) -> pa.Table:
    """(term, gdf, gcf) summed per term."""
    agg = table.group_by("term").aggregate([("gdf", "sum"), ("gcf", "sum")])
    return pa.Table.from_arrays(
        [agg["term"], agg["gdf_sum"], agg["gcf_sum"]], schema=_TS_SCHEMA
    )


@ray.remote
def _ts_local_combine(source, nparts: int):
    """One source -> nparts (term, gdf, gcf) slices, split by a vectorized
    Arrow-buffer hash of term % nparts (no per-row Python). A source is a
    delta block of (term, df, cf) rows, combined here (an empty block may
    carry no columns), or the path of a committed part file, whose terms
    are already distinct. With nparts 1 it returns the one slice, not a
    list: a task with num_returns=1 stores its return value as is."""
    from anserini_ray.stages.hashagg import vectorized_key_hash

    if isinstance(source, str):
        t = pq.read_table(source)
    elif "term" in source.column_names:
        t = _ts_sum(
            source.select(["term", "df", "cf"])
            .rename_columns(_TS_SCHEMA.names)
            .cast(_TS_SCHEMA)
        )
    else:
        t = _TS_SCHEMA.empty_table()
    part = vectorized_key_hash(t, ["term"], nparts)
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(nparts + 1))
    out = [t.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(nparts)]
    return out if nparts > 1 else out[0]


@ray.remote
def _ts_merge_partition(path: str, *tables: pa.Table) -> None:
    """Sum one hash partition's slices and write them, sorted by term, as
    one part file."""
    pq.write_table(_ts_sum(pa.concat_tables(tables)).sort_by("term"), path)


def write_termstats(delta, index_dir: str, generation: int,
                    committed: list[str]) -> None:
    """Write termstats generation `generation`: the global (term, gdf, gcf)
    table of the (term, df, cf) rows of the materialized `delta` Dataset
    plus the `committed` part files it extends (df and cf are sums, so
    the new table is the old one plus the delta). Every source goes through
    `_ts_local_combine`; each of the P = min(32, cluster CPUs) term-hash
    partitions is summed and written by one `_ts_merge_partition` task as
    `part-PPPPP.parquet`. Only refs pass through the driver. The
    generation is not in use until a manifest names it."""
    import shutil

    nparts = max(1, min(32, int(ray.cluster_resources().get("CPU", 1))))
    out_dir = termstats_dir(index_dir, generation)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    splits = [
        _ts_local_combine.options(num_returns=nparts).remote(src, nparts)
        for src in list(delta.to_arrow_refs()) + list(committed)
    ]
    if nparts == 1:
        splits = [[s] for s in splits]
    ray.get([
        _ts_merge_partition.remote(
            os.path.join(out_dir, f"part-{p:05d}.parquet"),
            *[s[p] for s in splits],
        )
        for p in range(nparts)
    ])


def _whitelist_filter(whitelist: frozenset):
    """map_batches fn of the staging copy: keep only the listed docids
    (broadcast-set semi-join)."""
    wl_ref = ray.put(whitelist)

    def keep(batch: pa.Table) -> pa.Table:
        wl = ray.get(wl_ref)
        return batch.filter(pa.array([
            f"{c}:{t}" in wl
            for c, t in zip(batch["conv_id"].to_pylist(),
                            batch["turn_idx"].to_pylist())
        ], type=pa.bool_()))

    return keep


def _stage_writer(staging: str, row_group_rows: int):
    """map_batches fn that writes one sorted block of the staging copy as
    one Parquet file (row groups of row_group_rows, so units plan as in a
    direct build) and returns its path with its first and last key, by
    which the driver orders the files."""
    import uuid

    def write(batch: pa.Table) -> pa.Table:
        paths, ends = [], []
        if batch.num_rows:
            path = os.path.join(staging, f"{uuid.uuid4().hex}.parquet")
            pq.write_table(batch, path, row_group_size=row_group_rows)
            paths, ends = [path], [0, batch.num_rows - 1]
        first, last = batch.take(ends[:1]), batch.take(ends[1:])
        return pa.table({
            "path": pa.array(paths, type=pa.string()),
            "first_conv": first["conv_id"],
            "first_turn": first["turn_idx"],
            "last_conv": last["conv_id"],
            "last_turn": last["turn_idx"],
        })

    return write


def build_index(
    transcripts=None,
    index_dir: str = None,
    config: IndexConfig | None = None,
    input_files: list[str] | None = None,
    total_input: int | None = None,
    whitelist=None,
    dedup_docids: bool = False,
    input_paths: list[str] | None = None,
) -> IndexManifest:
    """Build the inverted index from a transcripts Dataset or Parquet files
    into index_dir; returns the global IndexManifest.

    Every build runs the streaming builder (`streaming.py`). Sorted Parquet
    `input_paths` with config.assume_sorted go to it directly. Any other
    input — a Dataset, a whitelist, dedup_docids, or files whose units
    overlap — is first staged: filtered, sorted by (conv_id, turn_idx) and
    written as Parquet into `index_dir/staging`, which the streaming builder
    reads and which is removed afterwards.

    input_files: the files a Dataset was read from. They (else input_paths)
    and the config make the fingerprint that config.resume matches, so
    resume needs one of them.
    whitelist: optional iterable of docids ("conv:turn") — only these are
    indexed (reference `-whitelist`, IndexCollection.java:208-211, 707-712).
    dedup_docids: last-write-wins upsert per (conv_id, turn_idx) by ts
    (reference `-uniqueDocid` updateDocument, IndexCollection.java:213-217);
    requires the ts column.

    The staging sort orders rows with equal (conv_id, turn_idx) by ts and
    text too, so a resumed staged build sees the same doc order as the run
    it resumes. The staged fingerprint covers the whitelist and
    dedup_docids."""
    import hashlib
    import shutil

    from . import streaming

    config = config or IndexConfig()
    fp_files = input_files or input_paths or []
    if config.resume and not fp_files:
        raise ValueError(
            "resume needs input_files or input_paths to fingerprint the input"
        )
    if (
        input_paths is not None
        and config.assume_sorted
        and whitelist is None
        and not dedup_docids
    ):
        try:
            return streaming.build_index_streaming(
                input_paths, index_dir, config, total_input=total_input
            )
        except NotSortedError:
            # units overlap: build from a sorted staging copy instead, after
            # dropping this attempt's units (they carry the same fingerprint,
            # so a resumed staged build could otherwise keep them)
            streaming._clean_streaming(index_dir, set())

    if transcripts is None:
        if input_paths is None:
            raise ValueError("build_index needs a Dataset or input_paths")
        transcripts = ray.data.read_parquet(
            sorted(input_paths), columns=_input_columns(input_paths)
        )
    names = transcripts.schema().names
    columns = [c for c in ("conv_id", "turn_idx", "text", "ts") if c in names]
    fp_config = config.repr_for_fingerprint()
    ds = transcripts.select_columns(columns)
    if whitelist is not None:
        whitelist = frozenset(whitelist)
        ds = ds.map_batches(_whitelist_filter(whitelist),
                            batch_format="pyarrow")
        fp_config += "|wl" + hashlib.sha256(
            "\n".join(sorted(whitelist)).encode()
        ).hexdigest()[:16]
    if dedup_docids:
        if "ts" not in names:
            raise ValueError("dedup_docids requires the ts column")
        from ..stages.dedup import unique_by_key

        ds = unique_by_key(ds, ["conv_id", "turn_idx"], "ts", keep="last")
        fp_config += "|dedup"
    staging = os.path.join(index_dir, "staging")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    try:
        # batch_size=None: one sorted block per file, so each file is in
        # key order and the blocks' key ranges order the files
        tiebreak = ["ts", "text"] if "ts" in names else ["text"]
        staged = ds.sort(["conv_id", "turn_idx"] + tiebreak).map_batches(
            _stage_writer(staging, streaming.UNIT_TARGET_ROWS),
            batch_format="pyarrow",
            batch_size=None,
        ).take_all()
        staged = sorted(staged, key=lambda r: (r["first_conv"], r["first_turn"],
                                               r["last_conv"], r["last_turn"]))
        # the builder takes its files in name order: name them by key order
        paths = [os.path.join(staging, f"part-{i:08d}.parquet")
                 for i in range(len(staged))]
        for r, path in zip(staged, paths):
            os.replace(r["path"], path)
        return streaming.build_index_streaming(
            paths,
            index_dir,
            config,
            total_input=total_input,
            fingerprint=input_fingerprint(fp_files, fp_config),
        )
    finally:
        shutil.rmtree(staging, ignore_errors=True)
