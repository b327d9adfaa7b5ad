"""In-memory reader over one or more index segment partitions.

Reference analog: the per-thread `IndexSearcher` over an open
`IndexReader` (`J/search/SearchCollection.java:138-158, 221-225`); term →
postings lookup is `J/index/IndexReaderUtils.java:303-317`. One
SegmentReader is built ONCE per searcher actor (load in `__init__`, never per
batch).

On-disk posting format: each parquet row is one varint-encoded SUB-BLOCK RUN
of a (segment, term) posting list — a doc-ord-contiguous range produced by
one encode task. Runs store their absolute first local ordinal, so a term's
full posting list is the ordered concatenation of its runs with no
re-encoding; the reader presents a merged per-term view (df/cf/max_tf,
postings, per-block impact metadata for block-max pruning).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..index.varint import varint_decode
from ..state.manifest import IndexManifest, termstats_dir
from .norms import quantize_lengths

# Segments at or above this doc count keep identity columns (conv_id,
# turn_idx) lazy; smaller segments eager-load them at open (see the
# adaptive-identity comment in SegmentReader.__init__).
IDENTITY_LAZY_MIN_DOCS = 2_000_000


class _SortedTermMap:
    """dict-like (.get / .items / in) view over a term-sorted Arrow column
    pair. Lookups binary-search the Arrow string array directly (~20 scalar
    reads), so the whole vocabulary never materializes as Python objects —
    the difference between ~50 MB of Arrow buffers and tens of GB of dict
    entries on a realistic million-term vocabulary."""

    __slots__ = ("_terms", "_vals", "_memo")

    def __init__(self, terms: pa.Array, values: np.ndarray):
        self._terms = terms
        self._vals = values
        self._memo: dict = {}

    def _value(self, i: int):
        return int(self._vals[i])

    def _lookup(self, term: str):
        t = self._terms
        lo, hi = 0, len(t)
        while lo < hi:
            mid = (lo + hi) // 2
            if t[mid].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(t) and t[lo].as_py() == term:
            return self._value(lo)
        return None

    def get(self, term: str, default=None):
        memo = self._memo
        if term in memo:
            v = memo[term]
        else:
            v = self._lookup(term)
            if len(memo) < 200_000:
                memo[term] = v
        return default if v is None else v

    def __contains__(self, term: str) -> bool:
        return self.get(term) is not None

    def __getitem__(self, term: str):
        v = self.get(term)
        if v is None:
            raise KeyError(term)
        return v

    def __len__(self) -> int:
        return len(self._terms)

    def items(self):
        for i, t in enumerate(self._terms):
            yield t.as_py(), self._value(i)


class _TermRangeMap(_SortedTermMap):
    """term -> (row_lo, row_hi) posting-run ranges over the sorted
    unique-term Arrow column; the values are len(terms) + 1 row offsets."""

    __slots__ = ()

    def _value(self, i: int):
        return int(self._vals[i]), int(self._vals[i + 1])

    def values(self):
        return (self._value(i) for i in range(len(self._terms)))


class _LazyBlobColumns:
    """Row-group-granular lazy access to the heavy posting payload columns
    (doc_blob / tf_blob / pos_blob and the per-block offset lists).

    Segment open used to `read_table` the WHOLE postings partition — on a
    compacted 16M-doc segment that is ~4.2 GB of varint blobs decompressed
    up front (11.5 s / 5.1 GB RSS, BASELINE.md round 4), paid even by
    queries that touch a handful of terms. This object reads only parquet
    FOOTERS at open; a blob cell is fetched by locating its row group
    (searchsorted over cumulative row-group starts) and decompressing that
    row group's single column on first touch, behind a byte-bounded LRU of
    decompressed column chunks. Hot query terms cluster in few row groups
    (compacted layouts write term-sorted), so steady-state decode cost is
    unchanged while open drops to the skinny-column read."""

    def __init__(self, files: list[str], cache_bytes: int = 256 << 20):
        from collections import OrderedDict

        self._files = files
        self._pfs: list[pq.ParquetFile | None] = [None] * len(files)
        starts = [0]
        rg_file: list[int] = []
        rg_idx: list[int] = []
        for fi, path in enumerate(files):
            md = pq.read_metadata(path)
            for g in range(md.num_row_groups):
                rg_file.append(fi)
                rg_idx.append(g)
                starts.append(starts[-1] + md.row_group(g).num_rows)
        self.num_rows = starts[-1]
        self._rg_start = np.asarray(starts, dtype=np.int64)
        self._rg_file = np.asarray(rg_file, dtype=np.int64)
        self._rg_idx = np.asarray(rg_idx, dtype=np.int64)
        self._cache: OrderedDict[tuple, pa.Array] = OrderedDict()
        self._cache_bytes = 0
        self._cache_limit = cache_bytes

    def _pf(self, fi: int) -> pq.ParquetFile:
        pf = self._pfs[fi]
        if pf is None:
            pf = pq.ParquetFile(self._files[fi], memory_map=True)
            self._pfs[fi] = pf
        return pf

    def chunk(self, col: str, rg: int) -> pa.Array:
        key = (col, rg)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        arr = (
            self._pf(int(self._rg_file[rg]))
            .read_row_group(int(self._rg_idx[rg]), columns=[col])
            .column(0)
            .combine_chunks()
        )
        nb = arr.nbytes
        while self._cache and self._cache_bytes + nb > self._cache_limit:
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= old.nbytes
        self._cache[key] = arr
        self._cache_bytes += nb
        return arr

    def cell(self, col: str, i: int):
        rg = int(np.searchsorted(self._rg_start, i, side="right")) - 1
        return self.chunk(col, rg)[i - int(self._rg_start[rg])]

    def clear(self) -> None:
        self._cache.clear()
        self._cache_bytes = 0


def read_termstats(index_dir: str, manifest: IndexManifest) -> pa.Table:
    """The global (term, gdf, gcf) table of the termstats generation the
    manifest commits, sorted by term. Its part files are each sorted by
    term and split by term hash, so more than one needs a sort."""
    if manifest.termstats_gen is None:
        raise ValueError(
            f"{index_dir}: index format v{manifest.version} has no global "
            "termstats table — rebuild the index"
        )
    d = termstats_dir(index_dir, manifest.termstats_gen)
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    ts = pa.concat_tables([pq.read_table(os.path.join(d, f)) for f in files])
    return ts.sort_by("term") if len(files) > 1 else ts


def load_termstats(index_dir: str, manifest: IndexManifest):
    """(global_df, global_cf) maps over `read_termstats`. Sorted-Arrow
    binary-search maps, NOT Python dicts: on a realistic vocabulary (1M
    terms) materializing dict entries costs GBs and seconds of load; the
    Arrow table stays compact and lookups are O(log V) with a hot-term
    memo."""
    ts = read_termstats(index_dir, manifest)
    terms = ts["term"].combine_chunks()
    return (_SortedTermMap(terms, ts["gdf"].to_numpy()),
            _SortedTermMap(terms, ts["gcf"].to_numpy()))


class SegmentReader:
    def __init__(self, index_dir: str, segment_id: int, manifest: IndexManifest,
                 termstats=None):
        """termstats: the (global_df, global_cf) pair of `load_termstats`,
        shared by the readers of one searcher; loaded here when None."""
        self.segment_id = segment_id
        self.manifest = manifest
        self.base_ord = segment_id << manifest.seg_shift
        self._index_dir = index_dir
        self._docvecs = None
        self._docid_to_local = None
        # decoded-postings LRU (hot high-df terms dominate decode cost;
        # bounded by total cached postings)
        self._decode_cache: dict[str, tuple] = {}
        self._decode_cache_postings = 0
        self._decode_cache_limit = 4_000_000  # ~32 MB of int64+int32

        post_path = os.path.join(index_dir, "postings", f"segment_id={segment_id}")
        if not os.path.isdir(post_path):
            # crash-window recovery: an interrupted optimize swap leaves the
            # partition in postings.old (see recover_interrupted_optimize)
            from ..index.optimize import recover_interrupted_optimize

            recover_interrupted_optimize(index_dir)
        # LAZY OPEN (round 5): only the skinny dictionary columns + per-block
        # impact metadata load eagerly; the varint payload (doc_blob/tf_blob/
        # pos_blob, ~90% of the bytes) stays on disk and decompresses per
        # row group on first touch (see _LazyBlobColumns).
        files = sorted(
            os.path.join(post_path, f)
            for f in os.listdir(post_path)
            if f.endswith(".parquet")
        )
        self._blobs = _LazyBlobColumns(files)
        schema = pq.read_schema(files[0]) if files else pa.schema([])
        self._has_pos_col = "pos_blob" in schema.names
        # blk_* impact metadata is also deferred: it is touched only by
        # block-max pruning (block_meta) and selective block decode, a few
        # rows per query term — eager-loading ~6 int32 per 128 postings for
        # the whole vocabulary is most of the non-blob open bytes
        skinny_cols = ["term", "first_local", "df", "cf", "max_tf"]
        post = (
            pa.concat_tables(
                [pq.read_table(f, columns=skinny_cols) for f in files]
            )
            if files
            else pq.read_table(post_path)  # raises the natural error
        )
        # Order rows by (term, first_local) so a term's runs are adjacent —
        # but ONLY as a permutation (_perm: sorted position -> raw row id).
        # The previous post.take(order) materialized a re-sorted copy of the
        # WHOLE table including the varint blobs: on a run-fragmented 16M-doc
        # single segment (139.8M run rows, 4.7 GB of blobs) that cost 10+
        # minutes and tens of GB at every reader load. Blobs and per-row
        # arrays stay in parquet read order; every access maps through _perm.
        assert post.num_rows == self._blobs.num_rows  # same files, same order
        order = pc.sort_indices(
            post, sort_keys=[("term", "ascending"), ("first_local", "ascending")]
        )
        self._perm = order.to_numpy(zero_copy_only=False).astype(np.int64)
        self._df = post["df"].to_numpy()
        self._cf = post["cf"].to_numpy()
        self._row_max_tf = post["max_tf"].to_numpy()
        # term -> contiguous SORTED-position range [lo, hi): run boundaries
        # computed vectorized over a transient sorted gather of the term
        # column only (dropped after this block), looked up by binary search
        # — a Python dict over the posting dictionary costs tens of GB on a
        # realistic (million-term) vocabulary
        nrows = post.num_rows
        if nrows:
            terms_sorted = post["term"].combine_chunks().take(order)
            neq = pc.invert(
                pc.equal(
                    terms_sorted.slice(0, nrows - 1), terms_sorted.slice(1)
                )
            )
            change = neq.to_numpy(zero_copy_only=False)
            run_bounds = np.concatenate(
                [[0], np.flatnonzero(change) + 1, [nrows]]
            ).astype(np.int64)
            uniq_terms = terms_sorted.take(pa.array(run_bounds[:-1]))
            del terms_sorted
        else:
            run_bounds = np.zeros(1, dtype=np.int64)
            uniq_terms = pa.array([], type=pa.string())
        self._term_range = _TermRangeMap(uniq_terms, run_bounds)

        dm_dir = os.path.join(index_dir, "docmap", f"segment_id={segment_id}")
        dm_files = sorted(
            os.path.join(dm_dir, f)
            for f in os.listdir(dm_dir)
            if f.endswith(".parquet")
        )
        dm_schema = pq.read_schema(dm_files[0]) if dm_files else pa.schema([])
        # Identity columns (conv_id strings + turn_idx) are needed only to
        # FORMAT final top-k candidates — reading 16M strings eagerly was a
        # large share of open time/RSS; they now load row-group-lazily
        # through the same machinery as the posting blobs. Scoring columns
        # (doc_ord, dl, ts) stay eager: every query touches all of them.
        dm_cols = ["doc_ord", "dl"] + (
            ["ts"] if "ts" in dm_schema.names else []
        )
        dm = (
            pa.concat_tables(
                [pq.read_table(f, columns=dm_cols) for f in dm_files]
            )
            if dm_files
            else pq.read_table(dm_dir)
        )
        self._dm_lazy: _LazyBlobColumns | None = _LazyBlobColumns(dm_files)
        self._conv_id = None
        self._turn_idx = None
        # docmap partitions are written in doc_ord order (unit files are
        # ordinal-ordered and sort lexicographically by unit id), so the
        # usual case needs NO sort — and dm.take() would copy every column
        # (~2.5 s per 16M-doc segment open, measured)
        dm_ords = dm["doc_ord"].to_numpy()
        if dm.num_rows > 1 and not bool(
            np.all(dm_ords[1:] > dm_ords[:-1])
        ):
            # legacy out-of-order partition: lazy row ids would not match
            # sorted row ids — load identity columns eagerly instead
            full = (
                pa.concat_tables([pq.read_table(f) for f in dm_files])
                if dm_files
                else pq.read_table(dm_dir)
            )
            full = full.take(pc.sort_indices(full["doc_ord"]))
            dm = full.select(dm_cols)
            self._dm_lazy = None
            self._conv_id = full["conv_id"].combine_chunks()
            self._turn_idx = full["turn_idx"].to_numpy()
        self.doc_count = dm.num_rows
        # Raw local ordinals may have HOLES (streaming builds assign
        # doc_ord = input row position; dropped docs leave gaps). Postings
        # store raw ordinals on disk and SCORING RUNS IN RAW SPACE — per-doc
        # scoring arrays (score_dl_*, score_ts) are scattered once into raw-
        # indexed buffers of size local_span (= max raw ordinal + 1, bounded
        # by 1<<seg_shift), so the postings-decode hot path never remaps.
        # Only the final top-k candidates convert raw -> dense docmap rows
        # (doc_id_strings). On hole-free legacy indexes raw == dense and the
        # scatter is the identity (no extra memory).
        self._raw_local = (
            dm["doc_ord"].to_numpy() - self.base_ord
            if self.doc_count
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64)
        self._holes = bool(
            self.doc_count
            and (
                self._raw_local[0] != 0
                or self._raw_local[-1] != self.doc_count - 1
            )
        )
        self.local_span = (
            int(self._raw_local[-1]) + 1 if self.doc_count else 0
        )
        if self._holes:
            lut = np.full(self.local_span, -1, dtype=np.int64)
            lut[self._raw_local] = np.arange(self.doc_count, dtype=np.int64)
            self._dense_lookup = lut
        else:
            self._dense_lookup = None
        # optional per-doc timestamps (tweet time-filter analog)
        self.ts = (
            dm["ts"].cast(pa.int64()).to_numpy()
            if "ts" in dm.column_names
            else None
        )
        self.dl_raw = dm["dl"].to_numpy().astype(np.int64)
        # norm modes: stock Lucene quantizes dl through SmallFloat byte4
        self.dl_lucene = quantize_lengths(self.dl_raw).astype(np.float32)
        self.dl_accurate = self.dl_raw.astype(np.float32)

        def _scatter(dense_arr, dtype):
            if not self._holes:
                return dense_arr
            out = np.zeros(self.local_span, dtype=dtype)
            out[self._raw_local] = dense_arr
            return out

        # raw-space scoring views (identical objects when hole-free)
        self.score_dl_lucene = _scatter(self.dl_lucene, np.float32)
        self.score_dl_accurate = _scatter(self.dl_accurate, np.float32)
        self.score_ts = _scatter(self.ts, np.int64) if self.ts is not None else None

        # Adaptive identity laziness: below ~2M docs the eager columns cost
        # tens of MB and keep doc_id_strings on the 1-take fast path (lazy
        # per-row-group assembly measured +1.5 ms/segment/query at k=1000);
        # above, laziness is worth it — a 16M-doc segment's conv_id strings
        # alone are ~400 MB and format only ever touches top-k rows.
        if self._conv_id is None and self.doc_count < IDENTITY_LAZY_MIN_DOCS:
            self._identity_columns()

        self.global_df, self.global_cf = (
            termstats or load_termstats(index_dir, manifest)
        )

    # ------------------------------------------------------------------ api
    def clear_caches(self) -> None:
        """Drop the decoded-postings memo and the lazy blob-chunk LRU (for
        fair A/B benchmarking of query strategies that would otherwise
        share decode work)."""
        self._decode_cache.clear()
        self._decode_cache_postings = 0
        self._blobs.clear()

    def has_term(self, term: str) -> bool:
        return term in self._term_range

    def df(self, term: str) -> int:
        r = self._term_range.get(term)
        return int(self._df[self._perm[r[0] : r[1]]].sum()) if r else 0

    def cf(self, term: str) -> int:
        r = self._term_range.get(term)
        return int(self._cf[self._perm[r[0] : r[1]]].sum()) if r else 0

    def max_tf(self, term: str) -> int:
        r = self._term_range.get(term)
        return int(self._row_max_tf[self._perm[r[0] : r[1]]].max()) if r else 0

    def iter_terms(self):
        """(term, df, cf) over this segment's dictionary (merged runs)."""
        for term, (lo, hi) in self._term_range.items():
            rows = self._perm[lo:hi]
            yield term, int(self._df[rows].sum()), int(self._cf[rows].sum())

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Decode full posting list -> (local doc ords int64, tfs int32);
        memoized per reader up to a bounded number of cached postings."""
        hit = self._decode_cache.get(term)
        if hit is not None:
            return hit
        r = self._term_range.get(term)
        if r is None:
            return None
        lo, hi = r
        if hi - lo == 1:
            out = self._decode_row(int(self._perm[lo]))
        else:
            parts = [self._decode_row(int(i)) for i in self._perm[lo:hi]]
            out = (
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
            )
        n = out[0].size
        if self._decode_cache_postings + n > self._decode_cache_limit:
            self._decode_cache.clear()
            self._decode_cache_postings = 0
        self._decode_cache[term] = out
        self._decode_cache_postings += n
        return out

    def dense_of_raw(self, raw_ords: np.ndarray) -> np.ndarray:
        """Raw local ordinals -> dense docmap row indices (identity when the
        segment is hole-free). Used only on final candidates, never in the
        decode hot path."""
        if self._dense_lookup is None:
            return raw_ords
        return self._dense_lookup[raw_ords]

    def all_local_ords(self) -> np.ndarray:
        """Every document's RAW local ordinal, in docmap (doc_ord) order."""
        return self._raw_local

    def _decode_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        # i is a RAW row id (already mapped through _perm by callers)
        df = int(self._df[i])
        gaps = varint_decode(self._blobs.cell("doc_blob", i).as_py(), df)
        ords = np.cumsum(gaps, dtype=np.uint64).astype(np.int64)
        tfs = varint_decode(
            self._blobs.cell("tf_blob", i).as_py(), df
        ).astype(np.int32)
        return ords, tfs

    def block_meta(self, term: str):
        """Merged per-block impact metadata across the term's runs:
        (first, n, max_tf, min_dl, row_idx, local_block_idx) arrays, ordered
        by first ordinal."""
        r = self._term_range.get(term)
        if r is None:
            return None
        lo, hi = r
        firsts, ns, mts, mds, rows_, lblk = [], [], [], [], [], []
        for i in self._perm[lo:hi]:  # raw row ids, in (term, first_local) order
            i = int(i)
            bf = self._blobs.cell("blk_first", i).values.to_numpy()
            firsts.append(bf)
            ns.append(self._blobs.cell("blk_n", i).values.to_numpy())
            mts.append(self._blobs.cell("blk_max_tf", i).values.to_numpy())
            mds.append(self._blobs.cell("blk_min_dl", i).values.to_numpy())
            rows_.append(np.full(bf.size, i, dtype=np.int64))
            lblk.append(np.arange(bf.size, dtype=np.int64))
        return (
            np.concatenate(firsts),
            np.concatenate(ns),
            np.concatenate(mts),
            np.concatenate(mds),
            np.concatenate(rows_),
            np.concatenate(lblk),
        )

    def decode_blocks(
        self, term: str, chosen: np.ndarray, meta=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode only the selected merged-block indices of a posting list."""
        if meta is None:
            meta = self.block_meta(term)
        bf, bn, _, _, brow, blblk = meta
        ords_parts, tf_parts = [], []
        for b in chosen:
            i = int(brow[b])
            k = int(blblk[b])
            doc_blob = self._blobs.cell("doc_blob", i).as_py()
            tf_blob = self._blobs.cell("tf_blob", i).as_py()
            bdo = self._blobs.cell("blk_doc_off", i).values.to_numpy()
            bto = self._blobs.cell("blk_tf_off", i).values.to_numpy()
            d_lo = int(bdo[k])
            d_hi = int(bdo[k + 1]) if k + 1 < bdo.size else len(doc_blob)
            t_lo = int(bto[k])
            t_hi = int(bto[k + 1]) if k + 1 < bto.size else len(tf_blob)
            n = int(bn[b])
            gaps = varint_decode(doc_blob[d_lo:d_hi], n)
            vals = np.cumsum(gaps, dtype=np.uint64)
            vals = vals - gaps[0] + np.uint64(bf[b])
            ords_parts.append(vals.astype(np.int64))
            tf_parts.append(varint_decode(tf_blob[t_lo:t_hi], n).astype(np.int32))
        if not ords_parts:
            return np.empty(0, np.int64), np.empty(0, np.int32)
        return np.concatenate(ords_parts), np.concatenate(tf_parts)

    def positions(self, term: str):
        """Decode positional postings -> (local ords, tfs, flat positions,
        per-posting offsets into the flat array). Requires a
        store_positions=True build."""
        r = self._term_range.get(term)
        if r is None:
            return None
        lo, hi = r
        if not self._has_pos_col:
            raise ValueError(
                "index has no positions — rebuild with "
                "IndexConfig(store_positions=True)"
            )
        all_ords, all_tfs, all_pos = [], [], []
        for i in self._perm[lo:hi]:
            i = int(i)
            ords, tfs = self._decode_row(i)
            blob = self._blobs.cell("pos_blob", i).as_py()
            if not blob:
                raise ValueError(
                    "index has no positions — rebuild with "
                    "IndexConfig(store_positions=True)"
                )
            vals = varint_decode(blob, int(tfs.sum()))
            # segmented cumsum: absolute positions per posting
            bounds = np.cumsum(tfs.astype(np.int64))
            starts = np.concatenate([[0], bounds[:-1]])
            cs = np.cumsum(vals, dtype=np.uint64)
            base = np.repeat(cs[starts] - vals[starts], tfs)
            all_pos.append((cs - base).astype(np.int32))
            all_ords.append(ords)
            all_tfs.append(tfs)
        ords = np.concatenate(all_ords)
        tfs = np.concatenate(all_tfs)
        flat = np.concatenate(all_pos)
        offs = np.concatenate([[0], np.cumsum(tfs.astype(np.int64))])
        return ords, tfs, flat, offs

    def doc_id_strings(self, local_ords: np.ndarray) -> list[str]:
        """RAW local ordinals -> docid strings. Identity columns load
        row-group-lazily (top-k candidates cluster in few row groups); the
        eager fallback covers legacy out-of-order docmaps."""
        rows = self.dense_of_raw(np.asarray(local_ords, dtype=np.int64))
        if self._conv_id is not None:
            convs = self._conv_id.take(pa.array(rows)).to_pylist()
            turns = self._turn_idx[rows]
            return [f"{c}:{t}" for c, t in zip(convs, turns)]
        # batched per row group, NOT per row: a per-row cell() here costs
        # ~2k Python lookups per query at k=1000 (measured p50 40 -> 90 ms)
        lz = self._dm_lazy
        rgs = np.searchsorted(lz._rg_start, rows, side="right") - 1
        convs = np.empty(len(rows), dtype=object)
        turns = np.empty(len(rows), dtype=np.int64)
        for rg in np.unique(rgs):
            m = rgs == rg
            local = pa.array(rows[m] - int(lz._rg_start[rg]))
            convs[m] = lz.chunk("conv_id", int(rg)).take(local).to_pylist()
            turns[m] = lz.chunk("turn_idx", int(rg)).take(local).to_numpy()
        return [f"{c}:{t}" for c, t in zip(convs, turns)]

    def _identity_columns(self) -> tuple[pa.ChunkedArray, np.ndarray]:
        """Full (conv_id, turn_idx) columns — whole-docmap consumers only
        (reverse map build); eager-cached after first use."""
        if self._conv_id is None:
            # same explicit sorted-file order as the lazy row-id space
            full = pa.concat_tables(
                [
                    pq.read_table(f, columns=["conv_id", "turn_idx"])
                    for f in self._dm_lazy._files
                ]
            )
            self._conv_id = full["conv_id"].combine_chunks()
            self._turn_idx = full["turn_idx"].to_numpy()
        return self._conv_id, self._turn_idx

    # ---------------------------------------------------- forward index
    def docid_to_local(self, docid: str) -> int | None:
        """docid string -> RAW local ordinal (lazy reverse map)."""
        if self._docid_to_local is None:
            convs, turns = self._identity_columns()
            self._docid_to_local = {
                f"{c}:{t}": int(self._raw_local[i])
                for i, (c, t) in enumerate(zip(convs.to_pylist(), turns))
            }
        return self._docid_to_local.get(docid)

    def doc_vector(self, local_ord: int) -> dict[str, int]:
        """term -> tf forward vector (requires store_docvecs at build;
        reference analog reader.getTermVector, IndexReaderUtils.java:469-562).
        Terms come back in lexicographic order (Lucene TermsEnum order)."""
        if self._docvecs is None:
            dv_dir = os.path.join(
                self._index_dir, "docvecs", f"segment_id={self.segment_id}"
            )
            if not os.path.isdir(dv_dir):
                raise FileNotFoundError(
                    f"{dv_dir}: forward index not present — rebuild with "
                    "IndexConfig(store_docvecs=True) to use RM3/doc vectors"
                )
            dv = pq.read_table(dv_dir)
            order = pc.sort_indices(dv["doc_ord"])
            dv = dv.take(order)
            self._docvecs = (
                dv["doc_ord"].to_numpy(),
                dv["terms"].combine_chunks(),
                dv["tfs"].combine_chunks(),
            )
        ords, terms, tfs = self._docvecs
        # docvecs store GLOBAL RAW ordinals; local_ord is raw
        target = self.base_ord + int(local_ord)
        i = int(np.searchsorted(ords, target))
        if i >= ords.size or ords[i] != target:
            return {}
        t = terms[i].as_py()
        f = tfs[i].as_py()
        return dict(sorted(zip(t, f)))
