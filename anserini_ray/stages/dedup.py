"""Deduplication operators for large-scale training-data pipelines.

The reference's only dedup is exact last-write-wins by docid
(`J/index/IndexCollection.java:213-217`, `-uniqueDocid`); the rest are the
standard web-scale techniques added as first-class Ray Data stages:

- exact_dedup           hash-partitioned exact text dedup (groupby on a
                        64-bit content hash, representative = min doc_id)
- unique_by_key         last/first-wins upsert by key (the `-uniqueDocid`
                        analog, generalized)
- minhash_lsh_dedup     word-shingle MinHash signatures → banded LSH
                        bucketing (groupby on band hash) → candidate groups
                        → exact n-gram-Jaccard verification
- simhash_dedup         64-bit SimHash + hamming-ball blocking (4-band exact
                        match covers hamming distance <= 3)
- ngram_jaccard         exact Jaccard similarity between shingle sets

All stages are map_batches (vectorized or dict-based per batch) plus ONE
groupby shuffle keyed on a fixed-width hash — the scalable shape: content
never shuffles, only (hash, id) pairs and, for verified pairs, shingle sets
of candidate groups (tiny unless the corpus is mostly duplicates).
"""

from __future__ import annotations

import hashlib
import logging
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Min

logger = logging.getLogger(__name__)

# ------------------------------------------------------------------ hashing

def _md5_64(s: str) -> int:
    """First 8 bytes of md5, little-endian signed int64. md5 (not sha1) so
    the value is reproducible inside DuckDB for the SQL correctness oracles:
    byte i == CAST('0x' || substr(md5(s), 2*i+1, 2) AS INTEGER)."""
    return struct.unpack("<q", hashlib.md5(s.encode()).digest()[:8])[0]


# Back-compat alias (the token-hash choice is an internal detail; every
# consumer goes through _hash_tokens_64 / _md5_64).
_sha1_64 = _md5_64


def _hash_tokens_64(tokens: list[str]) -> np.ndarray:
    """Deterministic 64-bit hashes per token (stable across processes)."""
    return np.fromiter(
        (_sha1_64(t) for t in tokens), dtype=np.int64, count=len(tokens)
    )


# MinHash via universal hashing of base shingle hashes:
#   h_i(x) = (a_i * x + b_i) mod p  over a 61-bit Mersenne prime.
_MERSENNE = (1 << 61) - 1

DEFAULT_MAX_GROUP_SIZE = 256  # clique cost cap: C(256,2) ~ 32K pairs/group


def _perm_params(num_perm: int, seed: int = 1337):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


def word_shingles(text: str, n: int = 3) -> set[str]:
    toks = text.lower().split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def minhash_signature(
    shingles: set[str], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    if not shingles:
        return np.full(a.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = _hash_tokens_64(sorted(shingles)).astype(np.uint64) & np.uint64(
        _MERSENNE
    )
    # (num_perm, n_shingles) universal hash, min over shingles
    prod = (
        a.astype(np.uint64)[:, None] * base[None, :] + b.astype(np.uint64)[:, None]
    ) % np.uint64(_MERSENNE)
    return prod.min(axis=1)


# ----------------------- vectorized batch signatures (round 5)
#
# The per-doc signature path above builds every shingle STRING and md5-hashes
# each one in Python — measured 94% of the dress rehearsal's wall time. The
# batched kernel below computes identical-quality signatures with no
# per-shingle Python work:
#   tokens:   Arrow lower/split/flatten + dictionary_encode; md5 only per
#             DISTINCT token (vocab-sized, memoized per worker process)
#   shingles: rolling 64-bit mix of n consecutive token hashes (the
#             heavy_hitters packed-key trick) — duplicates are fine, the
#             min is multiset-insensitive
#   minhash:  (a*h+b) mod p per perm over the flat shingle array, chunked
#             through ONE preallocated (num_perm, 16K) buffer (a full-width
#             matrix allocates ~GBs and thrashes; measured 7x slower), with
#             per-doc mins via np.minimum.reduceat
# Signatures use a DIFFERENT shingle hash than the verify pass (which keeps
# md5-on-strings for DuckDB-oracle exactness) — banding only generates
# candidates, and any well-mixed 64-bit hash gives the same recall
# statistics; equality of candidate sets on planted near-dups is pinned by
# tests/test_neardup_distributed.py.

_MIX64 = np.uint64(0x9E3779B97F4A7C15)
_TOKEN_HASH_MEMO: dict[str, int] = {}
_TOKEN_HASH_MEMO_CAP = 4_000_000


def _shingle_hash_arrays(texts, n: int):
    """Per-doc 64-bit shingle hashes, batch-vectorized.
    Returns (flat hashes uint64, doc index per hash — grouped by doc,
    n_docs). Docs with 0 < tokens < n emit ONE whole-doc shingle
    (word_shingles parity); empty docs emit none."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.utf8_split_whitespace(pc.utf8_lower(pc.fill_null(texts, "")))
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    doc_idx = doc_idx[keep_np]
    ndocs = len(texts)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab = enc.dictionary.to_pylist()
    memo = _TOKEN_HASH_MEMO
    vh = np.empty(len(vocab), dtype=np.uint64)
    for i, tkn in enumerate(vocab):
        h = memo.get(tkn)
        if h is None:
            h = _md5_64(tkn) & 0xFFFFFFFFFFFFFFFF
            if len(memo) < _TOKEN_HASH_MEMO_CAP:
                memo[tkn] = h
        vh[i] = h
    ids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    th = vh[ids]
    L = th.size
    tk = np.bincount(doc_idx, minlength=ndocs) if L else np.zeros(
        ndocs, dtype=np.int64
    )
    out_h, out_d = [], []
    m = max(L - n + 1, 0)
    if m > 0:
        with np.errstate(over="ignore"):
            h = th[:m].copy()
            for j in range(1, n):
                h *= _MIX64
                h ^= th[j: j + m]
        valid = doc_idx[:m] == doc_idx[n - 1:]
        out_h.append(h[valid])
        out_d.append(doc_idx[:m][valid])
    short = np.flatnonzero((tk > 0) & (tk < n))
    if short.size:
        starts = np.concatenate([[0], np.cumsum(tk)])[:-1]
        sh = np.empty(short.size, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k, d in enumerate(short):
                hh = th[starts[d]]
                for j in range(1, int(tk[d])):
                    hh = hh * _MIX64 ^ th[starts[d] + j]
                sh[k] = hh
        out_h.append(sh)
        out_d.append(short.astype(np.int64))
    if not out_h:
        return np.empty(0, np.uint64), np.empty(0, np.int64), ndocs
    H = np.concatenate(out_h)
    D = np.concatenate(out_d)
    order = np.argsort(D, kind="stable")
    return H[order], D[order], ndocs


def _signature_matrix(texts, a: np.ndarray, b: np.ndarray, n: int,
                      chunk: int = 16384) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signatures for a batch of texts;
    empty docs get the all-max signature (minhash_signature parity)."""
    H, D, ndocs = _shingle_hash_arrays(texts, n)
    au = a.astype(np.uint64)[:, None]
    bu = b.astype(np.uint64)[:, None]
    nper = a.size
    out = np.full((ndocs, nper), np.iinfo(np.uint64).max, dtype=np.uint64)
    if not H.size:
        return out
    Hm = H & np.uint64(_MERSENNE)
    starts_all = np.flatnonzero(np.diff(np.concatenate([[-1], D])) > 0)
    buf = np.empty((nper, chunk), dtype=np.uint64)
    for lo in range(0, Hm.size, chunk):
        hi = min(lo + chunk, Hm.size)
        w = hi - lo
        v = buf[:, :w]
        with np.errstate(over="ignore"):
            np.multiply(au, Hm[None, lo:hi], out=v)
            v += bu
        v %= np.uint64(_MERSENNE)
        # segment starts inside this chunk; a doc continuing across the
        # boundary restarts its segment at lo and min-merges into out
        i0 = max(int(np.searchsorted(starts_all, lo, side="right")) - 1, 0)
        st = np.maximum(starts_all[i0:], lo)
        st = st[st < hi] - lo
        docs = D[st + lo]
        mins = np.minimum.reduceat(v, st, axis=1).T
        out[docs] = np.minimum(out[docs], mins)
    return out


def _band_hash_matrix(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, num_perm) signatures -> (n_docs, bands) int64 bucket keys,
    vectorized (rolling mix per band; replaces per-doc-per-band md5 of a
    hex string — bucket keys are transient, only equality matters)."""
    docs, nper = sigs.shape
    rows = nper // bands
    out = np.empty((docs, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b_ in range(bands):
            h = sigs[:, b_ * rows].copy()
            for j in range(1, rows):
                h *= _MIX64
                h ^= sigs[:, b_ * rows + j]
            h ^= h >> np.uint64(33)
            h *= _MIX64
            out[:, b_] = h
    return out.view(np.int64)


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    sa, sb = word_shingles(text_a, n), word_shingles(text_b, n)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


# ------------------------------------------------------------- exact dedup

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Groups of identical texts: one row per distinct text with the
    representative (min id) and the duplicate count. SQL mirror:
    SELECT min(id), count(*) FROM t GROUP BY text."""

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = pa.array(
            [_sha1_64(t or "") for t in batch[text_col].to_pylist()],
            type=pa.int64(),
        )
        return pa.Table.from_arrays(
            [hashes, batch[id_col]], names=["text_hash", id_col]
        )

    agg = (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("text_hash")
        .aggregate(Min(id_col), Count())
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch[f"min({id_col})"], batch["count()"]],
            names=["rep_doc_id", "dup_count"],
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@ray.remote
def _block_key_winners(table: pa.Table, key_cols: list[str], last: bool):
    """One (key_cols, order)-sorted block -> (winner rows, first key, last
    key). Winner = last (or first) row of each key run — fully vectorized
    (pyarrow compare + shift, no per-group Python)."""
    n = table.num_rows
    if n == 0:
        return table, None, None
    same = None
    for c in key_cols:
        col = table[c]
        eq = pc.equal(col.slice(0, n - 1), col.slice(1))
        same = eq if same is None else pc.and_(same, eq)
    if n == 1:
        idx = np.array([0])
    else:
        change = ~same.combine_chunks().to_numpy(zero_copy_only=False)
        if last:
            # keep i where row i+1 starts a new key, plus the final row
            idx = np.append(np.flatnonzero(change), n - 1)
        else:
            # keep row 0 plus every run start
            idx = np.concatenate([[0], np.flatnonzero(change) + 1])
    first = tuple(table[c][0].as_py() for c in key_cols)
    lastk = tuple(table[c][n - 1].as_py() for c in key_cols)
    return table.take(pa.array(idx)), first, lastk


def unique_by_key(ds, key_cols: list[str], order_col: str, keep: str = "last"):
    """Upsert semantics: keep one row per key — `keep="last"` mirrors the
    reference's `writer.updateDocument` last-write-wins
    (`IndexCollection.java:213-217`).

    Scale shape: ONE sort shuffle by (key, order), then a vectorized
    last-of-run pick per block; keys spanning block boundaries are resolved
    on the driver from per-block boundary keys only (one tuple per block —
    never row data). No per-group Python callback anywhere.
    (Dataset.join was avoided deliberately: Ray's hash-join aggregator
    builds schema-less empty partitions that crash the pyarrow join.)"""
    last = keep == "last"
    ctx = ds.context
    prev_preserve = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True  # block order IS key order
    try:
        mat = ds.sort(key_cols + [order_col]).materialize()
    finally:
        ctx.execution_options.preserve_order = prev_preserve
    refs = mat.to_arrow_refs()
    results = [
        _block_key_winners.remote(r, key_cols, last) for r in refs
    ]
    metas = ray.get([_meta_of.remote(t) for t in results])
    # drop block i's winner for a key also present in a LATER (keep=last) /
    # EARLIER (keep=first) block: sorted order puts all rows of a key in
    # consecutive blocks, so only the boundary key can be superseded.
    drop_first_of: list[tuple[int, tuple] | None] = []
    keep_refs = []
    n_blocks = len(results)
    firsts = [m[0] for m in metas]
    lasts_ = [m[1] for m in metas]
    for i in range(n_blocks):
        if firsts[i] is None:
            continue
        drop_key = None
        if last:
            # superseded if my last key reappears in any later nonempty block
            for j in range(i + 1, n_blocks):
                if firsts[j] is None:
                    continue
                if firsts[j] == lasts_[i]:
                    drop_key = lasts_[i]
                break
        else:
            for j in range(i - 1, -1, -1):
                if firsts[j] is None:
                    continue
                if lasts_[j] == firsts[i]:
                    drop_key = firsts[i]
                break
        keep_refs.append(
            _drop_boundary_winner.remote(results[i], key_cols, drop_key)
        )
    return ray.data.from_arrow_refs(keep_refs)


@ray.remote
def _meta_of(result) -> tuple:
    _, first, lastk = result
    return first, lastk


@ray.remote
def _drop_boundary_winner(result, key_cols: list[str], drop_key):
    table, _, _ = result
    if drop_key is None or table.num_rows == 0:
        return table
    mask = None
    for c, v in zip(key_cols, drop_key):
        eq = pc.equal(table[c], pa.scalar(v))
        mask = eq if mask is None else pc.and_(mask, eq)
    return table.filter(pc.invert(mask))


# ----------------------------------------------------------- MinHash + LSH

def minhash_lsh_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    threshold: float = 0.7,
    verify: bool = True,
    max_group_size: int | None = DEFAULT_MAX_GROUP_SIZE,
):
    """Near-duplicate groups via MinHash + banded LSH.

    Stages: map_batches signatures (stateful perm params, vectorized) →
    flat emit (band_id, band_hash, id) → groupby band bucket → candidate
    groups (>=2 members) → optional exact-Jaccard verification pass that
    re-derives shingles only for candidate docs (broadcast candidate-id set).
    Returns a Dataset of (band_id, band_hash, doc_ids list, pair rows with
    jaccard) — flattened as (doc_a, doc_b, jaccard) pairs when verify=True,
    else (band_id, band_hash, doc_ids)."""
    a, b = _perm_params(num_perm)
    rows = num_perm // bands

    def signatures(batch: pa.Table) -> pa.Table:
        # batched vectorized kernel (see _signature_matrix): no per-shingle
        # strings, no per-shingle/per-band md5, one flat emit
        sigs = _signature_matrix(batch[text_col], a, b, shingle_n)
        bh = _band_hash_matrix(sigs, bands)  # (docs, bands)
        ndocs = bh.shape[0]
        return pa.Table.from_arrays(
            [
                pa.array(
                    np.tile(np.arange(bands, dtype=np.int32), ndocs)
                ),
                pa.array(bh.reshape(-1), type=pa.int64()),
                batch[id_col].take(
                    pa.array(np.repeat(np.arange(ndocs, dtype=np.int64), bands))
                ),
            ],
            names=["band_id", "band_hash", id_col],
        )

    buckets = ds.map_batches(signatures, batch_format="pyarrow")
    groups = dup_bucket_groups(buckets, "band_id", "band_hash", id_col)
    if not verify:
        return groups

    # Exact verification, fully DISTRIBUTED (nothing corpus-proportional on
    # the driver): bucket groups -> candidate-pair Dataset (deduped by a
    # groupby) -> per-doc shingle-hash payloads attached (broadcast map-side
    # join under a cap, hash join above) -> vectorized per-pair Jaccard in
    # map_batches. Returns a Dataset (doc_a, doc_b, jaccard).
    pairs = distinct_pairs_from_groups(groups, "doc_ids", max_group_size)
    return verified_jaccard_pairs(
        ds, pairs, text_col, id_col, shingle_n, threshold
    )


def verified_jaccard_pairs(
    ds,
    pairs,
    text_col: str,
    id_col: str,
    shingle_n: int,
    threshold: float,
):
    """Exact-Jaccard verification of a candidate-pair Dataset: attach each
    side's md5 shingle-hash payload (broadcast under the pair/byte caps,
    distributed hash join above), compute exact Jaccard per pair vectorized,
    and keep pairs >= threshold. Shared by minhash_lsh_dedup and
    ngram_jaccard_join — md5-on-strings hashing so the result is
    reproducible by the DuckDB all-pairs SQL oracle."""

    def shingle_payload(batch: pa.Table) -> pa.Table:
        # payload is a BINARY blob (sorted int64 shingle hashes as raw
        # bytes), NOT list<int64>: the above-cap distributed attach path is
        # an Acero hash join, and Acero rejects list-typed non-key fields
        # ("Data type list<int64> is not supported in join non-key field"
        # — found live by the round-5 dress rehearsal, whose template-heavy
        # transcript corpus blows past the 2M-pair broadcast cap)
        ids = batch[id_col]
        payloads = [
            np.sort(
                _hash_tokens_64(sorted(word_shingles(t or "", shingle_n)))
            ).tobytes()
            for t in batch[text_col].to_pylist()
        ]
        return pa.Table.from_arrays(
            [ids, pa.array(payloads, type=pa.large_binary())],
            names=["pid", "payload"],
        )

    payload_ds = ds.map_batches(shingle_payload, batch_format="pyarrow")
    withp = attach_pair_payloads(pairs, payload_ds)

    def verify_jaccard(batch: pa.Table) -> pa.Table:
        pa_col = batch["payload_a"].combine_chunks()
        pb_col = batch["payload_b"].combine_chunks()
        out_j = np.empty(batch.num_rows, dtype=np.float64)
        for i in range(batch.num_rows):
            sa = np.frombuffer(pa_col[i].as_py() or b"", dtype=np.int64)
            sb = np.frombuffer(pb_col[i].as_py() or b"", dtype=np.int64)
            if sa.size == 0 and sb.size == 0:
                out_j[i] = 1.0
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            out_j[i] = inter / union if union else 0.0
        t = pa.Table.from_arrays(
            [batch["doc_a"], batch["doc_b"], pa.array(out_j)],
            names=["doc_a", "doc_b", "jaccard"],
        )
        return t.filter(pc.greater_equal(t["jaccard"], threshold))

    return withp.map_batches(verify_jaccard, batch_format="pyarrow")


# --------------------------------------- exact set-similarity join (AllPairs)

def _hot_shingle_set(ds, text_col: str, shingle_n: int, k: int):
    """Top-k most frequent shingle hashes in the corpus, as a sorted uint64
    numpy array. Exact df via the streaming hash aggregate (pre-combined per
    block, so the shuffle is vocab-bounded), then per-block top-k partials —
    the driver merges at most k x nblocks skinny (hash, df) rows, never the
    vocabulary."""
    from .hashagg import hash_aggregate

    def explode(batch: pa.Table) -> pa.Table:
        H, D, _ = _shingle_hash_arrays(batch[text_col], shingle_n)
        # distinct per doc: df counts documents, not occurrences
        if H.size:
            order = np.lexsort((H, D))
            Hs, Ds = H[order], D[order]
            keep = np.ones(Hs.size, dtype=bool)
            keep[1:] = (Ds[1:] != Ds[:-1]) | (Hs[1:] != Hs[:-1])
            Hs = Hs[keep]
        else:
            Hs = H
        return pa.Table.from_arrays(
            [pa.array(Hs.view(np.int64))], names=["sh"]
        )

    df_ds = hash_aggregate(
        ds.map_batches(explode, batch_format="pyarrow"),
        keys=["sh"],
        aggs=[("count", None)],
        out_names=["df"],
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        idx = pc.select_k_unstable(
            batch, k=k, sort_keys=[("df", "descending")]
        )
        return batch.take(idx)

    parts = [
        t
        for t in ray.get(
            df_ds.map_batches(block_topk, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    merged = pa.concat_tables(parts)
    if merged.num_rows > k:
        merged = merged.take(
            pc.select_k_unstable(merged, k=k, sort_keys=[("df", "descending")])
        )
    return np.sort(
        merged["sh"].to_numpy(zero_copy_only=False).view(np.uint64)
    )


def ngram_jaccard_join(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_n: int = 3,
    threshold: float = 0.5,
    hot_shingles: int = 65536,
    verify: bool = True,
    max_group_size: int | None = None,
):
    """EXACT n-gram-Jaccard set-similarity self-join via prefix filtering
    (Bayardo et al. AllPairs / Chaudhuri et al. SSJoin blocking): all pairs
    with Jaccard(shingles_a, shingles_b) >= threshold, recall 1 by
    construction (no MinHash probability, no SimHash hamming proxy).

    Prefix-filter lemma: under ANY global total order on the shingle
    universe, two sets with Jaccard >= t share at least one element within
    each set's first |S| - ceil(t*|S|) + 1 elements. So each doc emits only
    its prefix shingles, candidates form in a single groupby on the shingle
    hash, and the shared distributed verify computes exact Jaccard.

    Scale shape: the order is (is_hot, hash) — a BOUNDED broadcast set of
    the `hot_shingles` most-document-frequent shingles (exact df via the
    streaming hash aggregate + per-block top-k partials) sorts frequent
    shingles to the BACK of every prefix, so stop-word-like shingles almost
    never create buckets; correctness is order-independent, only candidate
    volume changes. hot_shingles=0 skips the df pass entirely (pure hash
    order, map-only emit). Everything downstream reuses the minhash pair
    machinery: ONE groupby on the emitted (shingle, id) rows, pair dedup,
    capped/star-logged groups, broadcast-or-join payload attach.

    Exactness caveat (same class as exact_dedup's content hash): candidate
    generation and sizes use 64-bit rolling shingle hashes, so a 2^-64
    cross-shingle collision could in principle perturb a prefix; the verify
    stage itself is md5-based and oracle-exact.

    max_group_size=None by default: exact all-pairs contract (a prefix
    bucket on a truly-shared rare shingle is legitimate signal); set a cap
    on corpora with pathological template shingles — truncation is logged,
    never silent."""
    hot = (
        _hot_shingle_set(ds, text_col, shingle_n, hot_shingles)
        if hot_shingles
        else np.empty(0, dtype=np.uint64)
    )
    hot_ref = ray.put(hot)
    t = float(threshold)

    def emit_prefixes(batch: pa.Table) -> pa.Table:
        H, D, ndocs = _shingle_hash_arrays(batch[text_col], shingle_n)
        ids = batch[id_col]
        if not H.size:
            return pa.Table.from_arrays(
                [
                    pa.array([], type=pa.int32()),
                    pa.array([], type=pa.int64()),
                    ids.slice(0, 0),
                ],
                names=["band_id", "shingle_hash", id_col],
            )
        hot_arr = ray.get(hot_ref)
        if hot_arr.size:
            pos = np.searchsorted(hot_arr, H)
            inb = pos < hot_arr.size
            is_hot = inb & (hot_arr[np.minimum(pos, hot_arr.size - 1)] == H)
        else:
            is_hot = np.zeros(H.size, dtype=bool)
        # global order (doc, is_hot, hash): dups of a shingle within a doc
        # are adjacent (same hash -> same is_hot); non-hot shingles lead
        order = np.lexsort((H, is_hot, D))
        Hs, Ds = H[order], D[order]
        keep = np.ones(Hs.size, dtype=bool)
        keep[1:] = (Ds[1:] != Ds[:-1]) | (Hs[1:] != Hs[:-1])
        Hd, Dd = Hs[keep], Ds[keep]
        m = np.bincount(Dd, minlength=ndocs)  # distinct shingles per doc
        p = np.maximum(m - np.ceil(t * m).astype(np.int64) + 1, 0)
        starts = np.concatenate([[0], np.cumsum(m)])[:-1]
        rank = np.arange(Hd.size, dtype=np.int64) - starts[Dd]
        sel = rank < p[Dd]
        return pa.Table.from_arrays(
            [
                pa.array(np.zeros(int(sel.sum()), dtype=np.int32)),
                pa.array(Hd[sel].view(np.int64)),
                ids.take(pa.array(Dd[sel])),
            ],
            names=["band_id", "shingle_hash", id_col],
        )

    emitted = ds.map_batches(emit_prefixes, batch_format="pyarrow")
    groups = dup_bucket_groups(emitted, "band_id", "shingle_hash", id_col)
    if not verify:
        return groups
    pairs = distinct_pairs_from_groups(groups, "doc_ids", max_group_size)
    return verified_jaccard_pairs(
        ds, pairs, text_col, id_col, shingle_n, threshold
    )


def dup_bucket_groups(buckets, band_col: str, hash_col: str, id_col: str):
    """(band, hash, id) bucket rows -> (band, hash, sorted member-id list)
    groups for buckets with >= 2 members — WITHOUT one Python map_groups
    call per bucket (on a mostly-unique corpus almost every bucket is a
    singleton: measured 4M buckets, 67K with dups, where the naive
    groupby().map_groups cost ~4 minutes of per-group call overhead).

    One hash-partitioned exchange on (band, hash) puts every row of a
    bucket in one partition; each partition builds all its groups
    vectorized: sort, run-boundary detection, runs of >= 2 members kept
    as ListArray offsets. Nothing but refs passes through the driver."""
    from .hashagg import hash_partition_apply

    def build_groups(part: pa.Table) -> pa.Table:
        part = part.sort_by(
            [(band_col, "ascending"), (hash_col, "ascending"),
             (id_col, "ascending")]
        )
        band = part[band_col].to_numpy()
        hsh = part[hash_col].to_numpy()
        change = (band[1:] != band[:-1]) | (hsh[1:] != hsh[:-1])
        bounds = np.concatenate(
            [[0], np.flatnonzero(change) + 1, [part.num_rows]]
        )
        lens = np.diff(bounds)
        dup = lens >= 2
        firsts = pa.array(bounds[:-1][dup])
        offsets = np.concatenate([[0], np.cumsum(lens[dup])])
        members = part[id_col].filter(pa.array(np.repeat(dup, lens)))
        return pa.Table.from_arrays(
            [
                pc.cast(part[band_col].take(firsts), pa.int32()),
                pc.cast(part[hash_col].take(firsts), pa.int64()),
                pa.ListArray.from_arrays(
                    pa.array(offsets, type=pa.int32()),
                    members.combine_chunks(),
                ),
            ],
            names=[band_col, hash_col, "doc_ids"],
        )

    return hash_partition_apply(buckets, [band_col, hash_col], build_groups)


# ----------------------------------------------- distributed pair machinery

PAIR_BROADCAST_LIMIT = 2_000_000  # candidate pairs under this -> broadcast
PAIR_BROADCAST_BYTES_LIMIT = 2 << 30  # ... and candidate payloads under 2 GiB


def _arrow_schema(ds) -> pa.Schema:
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(list(zip(sch.names, sch.types)))


def _normalize_empty_blocks(ds_in, schema: pa.Schema):
    """Ray's hash aggregate/shuffle can emit schema-LESS empty blocks, which
    crash a downstream pyarrow join ("no match for key field"); rewrite them
    as properly-typed empty tables."""

    def fix(b: pa.Table) -> pa.Table:
        if b.num_columns == 0:
            return pa.Table.from_arrays(
                [pa.array([], type=f.type) for f in schema], schema=schema
            )
        return b.select(schema.names)

    return ds_in.map_batches(fix, batch_format="pyarrow")


def distinct_pairs_from_groups(groups, ids_col: str, max_group_size: int | None):
    """Explode candidate groups (list column of member ids) into distinct
    (doc_a, doc_b) pairs as a Dataset. Oversized groups (hot buckets) emit a
    STAR around the min id instead of the quadratic clique — bounded output,
    still connects every member to a representative for dedup purposes.
    Star truncation bounds recall for non-representative pairs, so it is
    LOGGED per batch (no silent caps); pass max_group_size=None for exact
    all-pairs semantics on corpora known to have small groups."""

    def emit(batch: pa.Table) -> pa.Table:
        col = batch[ids_col].combine_chunks()
        out_chunks_a, out_chunks_b = [], []
        n_truncated = 0
        truncated_sizes: list[int] = []
        # vectorized per group: ids as numpy, pairs via np.triu_indices
        for i in range(batch.num_rows):
            members = col[i]
            n = len(members)
            if n < 2:
                continue
            ids = np.asarray(members.as_py())
            if max_group_size is not None and n > max_group_size:
                # star: representative (min id — ids are sorted) -> others
                out_chunks_a.append(np.repeat(ids[:1], n - 1))
                out_chunks_b.append(ids[1:])
                n_truncated += 1
                truncated_sizes.append(n)
                continue
            ia, ib = np.triu_indices(n, k=1)
            out_chunks_a.append(ids[ia])
            out_chunks_b.append(ids[ib])
        if n_truncated:
            logger.warning(
                "distinct_pairs_from_groups: %d group(s) star-truncated "
                "(sizes %s > max_group_size=%d) — intra-group pairs not "
                "involving the representative are dropped",
                n_truncated, truncated_sizes[:10], max_group_size,
            )
        id_type = col.type.value_type
        if out_chunks_a:
            a_all = np.concatenate(out_chunks_a)
            b_all = np.concatenate(out_chunks_b)
        else:
            a_all, b_all = [], []
        return pa.Table.from_arrays(
            [pa.array(a_all, type=id_type), pa.array(b_all, type=id_type)],
            names=["doc_a", "doc_b"],
        )

    exploded = groups.map_batches(emit, batch_format="pyarrow")
    id_type = _arrow_schema(groups).field(ids_col).type.value_type
    pair_schema = pa.schema([("doc_a", id_type), ("doc_b", id_type)])
    # dedupe pairs seen in multiple buckets: one groupby on the pair key
    return _normalize_empty_blocks(
        exploded.groupby(["doc_a", "doc_b"]).aggregate(Count()), pair_schema
    )


def attach_pair_payloads(pairs, payload_ds):
    """Attach per-id payloads (payload_ds: (pid, payload)) to both sides of a
    (doc_a, doc_b) pair Dataset -> columns payload_a, payload_b.

    Under PAIR_BROADCAST_LIMIT pairs AND PAIR_BROADCAST_BYTES_LIMIT payload
    bytes: a (id -> payload) map is built INSIDE a Ray task (the driver holds
    only the object ref) and read per task (broadcast map-side join).
    Above either cap: two distributed hash joins."""
    # materialize BEFORE count(): on a lazy Dataset, count() executes the
    # whole candidate-pair pipeline and then the broadcast/join consumers
    # would execute it again
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        sch = payload_ds.schema()
        ptype = sch.field("payload").type
        empty = pa.Table.from_arrays(
            [
                pa.array([], type=sch.field("pid").type),
                pa.array([], type=sch.field("pid").type),
                pa.array([], type=ptype),
                pa.array([], type=ptype),
            ],
            names=["doc_a", "doc_b", "payload_a", "payload_b"],
        )
        return ray.data.from_arrow(empty)
    if n_pairs <= PAIR_BROADCAST_LIMIT:
        cand = frozenset(pairs.unique("doc_a")) | frozenset(pairs.unique("doc_b"))
        cand_ref = ray.put(cand)

        def grab(batch: pa.Table) -> pa.Table:
            cs = ray.get(cand_ref)
            mask = pa.array([i in cs for i in batch["pid"].to_pylist()])
            return batch.filter(mask)

        fetched = payload_ds.map_batches(grab, batch_format="pyarrow").materialize()
        # bytes-aware gate: the 2M-pair row cap does not bound payload BYTES
        # (shingle sets scale with doc length) — fall through to the
        # distributed hash-join path when candidate payloads are too big to
        # hold in one worker heap
        if fetched.size_bytes() <= PAIR_BROADCAST_BYTES_LIMIT:
            # build the (id -> payload) map inside a Ray task, not on the
            # driver: the driver only ever holds the object ref
            @ray.remote
            def _build_map(*tables: pa.Table) -> dict:
                out = {}
                for t in tables:
                    ids = t["pid"].to_pylist()
                    pls = t["payload"].to_pylist()
                    out.update(zip(ids, pls))
                return out

            pay_ref = _build_map.remote(*fetched.to_arrow_refs())
            return _attach_via_map(pairs, pay_ref)
    # scale path: two hash joins (payloads shuffle once per side, candidate-
    # restricted by the inner join)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nparts = max(2, min(cpus - 2, 16))
    pa_ds = payload_ds.map_batches(
        lambda b: b.rename_columns(["doc_a", "payload_a"]),
        batch_format="pyarrow",
    )
    pb_ds = payload_ds.map_batches(
        lambda b: b.rename_columns(["doc_b", "payload_b"]),
        batch_format="pyarrow",
    )
    out = pairs.join(pa_ds, "inner", nparts, on=("doc_a",))
    return out.join(pb_ds, "inner", nparts, on=("doc_b",))


def _attach_via_map(pairs, pay_ref):
    def attach(batch: pa.Table) -> pa.Table:
        pay = ray.get(pay_ref)
        pl_a = [pay.get(i) for i in batch["doc_a"].to_pylist()]
        pl_b = [pay.get(i) for i in batch["doc_b"].to_pylist()]
        return pa.Table.from_arrays(
            [
                batch["doc_a"],
                batch["doc_b"],
                pa.array(pl_a),
                pa.array(pl_b),
            ],
            names=["doc_a", "doc_b", "payload_a", "payload_b"],
        )

    return pairs.map_batches(attach, batch_format="pyarrow")


# ----------------------------------------------------------------- SimHash

def simhash64(tokens: list[str]) -> int:
    if not tokens:
        return 0
    hashes = _hash_tokens_64(tokens).astype(np.uint64)
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    v = (2 * bits - 1).sum(axis=0)
    return int(
        np.bitwise_or.reduce(
            (v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
        )
    )


def simhash64_batch(texts) -> np.ndarray:
    """Batch simhash64 over raw texts: md5 only per DISTINCT token
    (worker-memoized, shared with the minhash signature path), per-doc
    bit-vote sums via one np.bincount per bit over the flat token-hash
    array (measured ~5x faster than a (tokens, 64) shift-expansion +
    reduceat — no wide temporaries). Tokenization is exactly
    ``text.lower().split()`` so fingerprints (and the DuckDB simhash
    oracles built on them) are bit-identical to per-doc simhash64.
    Returns (n_docs,) uint64 fingerprints; empty docs get 0."""
    tok_lists = [(t or "").lower().split() for t in texts]
    ndocs = len(tok_lists)
    lens = np.fromiter((len(t) for t in tok_lists), np.int64, ndocs)
    fps = np.zeros(ndocs, dtype=np.uint64)
    total = int(lens.sum())
    if total == 0:
        return fps
    # the worker memo doubles as the distinct-token dedupe (a dict probe
    # per token beats np.unique's object sort by ~10x); md5 only on miss
    memo = _TOKEN_HASH_MEMO
    mask = 0xFFFFFFFFFFFFFFFF

    def tok_hash(t):
        h = memo.get(t)
        if h is None:
            h = _md5_64(t) & mask
            if len(memo) < _TOKEN_HASH_MEMO_CAP:
                memo[t] = h
        return h

    th = np.fromiter(
        (tok_hash(t) for tl in tok_lists for t in tl),
        dtype=np.uint64, count=total,
    )
    doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
    shifts = np.arange(64, dtype=np.uint64)
    ones = np.empty((ndocs, 64), dtype=np.int64)
    for b in shifts:
        w = ((th >> b) & np.uint64(1)).astype(np.float64)
        ones[:, int(b)] = np.bincount(doc_idx, weights=w, minlength=ndocs)
    votes = 2 * ones - lens[:, None]  # (+1 per 1-bit, -1 per 0-bit)
    return np.bitwise_or.reduce(
        (votes > 0).astype(np.uint64) << shifts[None, :], axis=1
    )


def _gram_hash_positions(texts, n: int):
    """Per-doc rolling n-gram hashes WITH token positions: (H uint64,
    doc_idx int64, pos int64), pos = index among the doc's kept tokens.
    Docs shorter than n emit nothing (duplicate-substring semantics —
    no whole-doc fallback, unlike word_shingles). Tokenization and
    token hashing match _shingle_hash_arrays (Arrow lower+split, md5
    per distinct token via the worker memo)."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.utf8_split_whitespace(pc.utf8_lower(pc.fill_null(texts, "")))
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    ndocs = len(lens)
    doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    doc_idx = doc_idx[keep_np]
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab = enc.dictionary.to_pylist()
    memo = _TOKEN_HASH_MEMO
    vh = np.empty(len(vocab), dtype=np.uint64)
    for i, tkn in enumerate(vocab):
        h = memo.get(tkn)
        if h is None:
            h = _md5_64(tkn) & 0xFFFFFFFFFFFFFFFF
            if len(memo) < _TOKEN_HASH_MEMO_CAP:
                memo[tkn] = h
        vh[i] = h
    ids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    th = vh[ids]
    L = th.size
    m = max(L - n + 1, 0)
    if m == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    with np.errstate(over="ignore"):
        h = th[:m].copy()
        for j in range(1, n):
            h *= _MIX64
            h ^= th[j : j + m]
    valid = doc_idx[:m] == doc_idx[n - 1 :]
    tk = np.bincount(doc_idx, minlength=ndocs)
    starts = np.concatenate([[0], np.cumsum(tk)])[:-1]
    gidx = np.arange(m, dtype=np.int64)[valid]
    d = doc_idx[:m][valid]
    return h[valid], d, gidx - starts[d]


def duplicate_ngram_spans(ds, n: int = 8, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Exact duplicate-substring spans — the exact-substring dedup of
    Lee et al., "Deduplicating Training Data Makes Language Models
    Better" (ACL 2022), re-expressed for Ray Data without a monolithic
    suffix array: a token position is covered when its n-gram occurs
    >= 2 times in the corpus (any document, including self-repeats);
    overlapping or adjacent covered windows merge into maximal per-doc
    spans. Returns (id_col, start_tok, end_tok exclusive, n_grams).

    Plan (map-only emission, then two hash-partitioned exchanges):
      1. vectorized gram emission (rolling 64-bit mixes of memoized md5
         token hashes, positions by bincount offsets);
      2. exchange on the gram: every occurrence of a gram lands in one
         partition, which counts its grams in-partition and keeps the
         (id, pos) rows of grams seen >= 2 times — no key set is
         gathered on or broadcast from the driver;
      3. exchange on the doc id: each of the <= 32 partitions builds
         ALL its spans vectorized (lexsort + run-boundary detection),
         no per-doc Python.
    64-bit gram-hash collisions can only over-mark a position as
    covered (conservative for dedup); exact-match oracles hold at test
    scale."""
    from .hashagg import hash_partition_apply

    def emit(batch: pa.Table) -> pa.Table:
        H, D, P = _gram_hash_positions(batch[text_col], n)
        ids = batch[id_col].combine_chunks().take(pa.array(D))
        return pa.Table.from_arrays(
            [pa.array(H.view(np.int64)), ids, pa.array(P)],
            names=["gram", id_col, "pos"],
        )

    def covered(part: pa.Table) -> pa.Table:
        _, inverse, counts = np.unique(
            part["gram"].to_numpy(), return_inverse=True, return_counts=True
        )
        return part.filter(pa.array(counts[inverse] > 1)).select(
            [id_col, "pos"]
        )

    def build_spans(part: pa.Table) -> pa.Table:
        ids = part[id_col].combine_chunks()
        pos = part["pos"].to_numpy()
        enc = ids.dictionary_encode()
        did = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos, did))
        did_s, pos_s = did[order], pos[order]
        # a span breaks unless the next row is the same doc AND its
        # window [p, p+n) overlaps or touches the previous one
        brk = ~((did_s[1:] == did_s[:-1]) & ((pos_s[1:] - pos_s[:-1]) <= n))
        first = np.concatenate([[True], brk])[: order.size]
        last = np.concatenate([brk, [True]])[: order.size]
        firsts, lasts = np.flatnonzero(first), np.flatnonzero(last)
        return pa.Table.from_arrays(
            [
                enc.dictionary.take(pa.array(did_s[firsts])),
                pa.array(pos_s[firsts], type=pa.int64()),
                pa.array(pos_s[lasts] + n, type=pa.int64()),
                pa.array(lasts - firsts + 1, type=pa.int64()),
            ],
            names=[id_col, "start_tok", "end_tok", "n_grams"],
        )

    grams = ds.map_batches(emit, batch_format="pyarrow")
    return hash_partition_apply(
        hash_partition_apply(grams, ["gram"], covered), [id_col], build_spans
    )


def _simhash_keys_batch(fps: np.ndarray, tables, ranges) -> np.ndarray:
    """(n_tables, n_docs) uint64 Manku block keys, vectorized shifts of
    the fingerprint vector (same bits as per-doc _simhash_key)."""
    vals = np.empty((len(tables), fps.size), dtype=np.uint64)
    for tid, combo in tables:
        key = np.zeros(fps.size, dtype=np.uint64)
        for bi in combo:
            s, w = ranges[bi]
            key = (key << np.uint64(w)) | (
                (fps >> np.uint64(s)) & np.uint64((1 << w) - 1)
            )
        vals[tid] = key
    return vals


# Manku-style block tables (WWW'07 "Detecting Near-Duplicates for Web
# Crawling"): split the 64-bit fingerprint into `blocks` blocks; a pair at
# hamming distance <= d leaves some (blocks - d)-subset of blocks untouched,
# so keying C(blocks, d) tables on (blocks - d)-block concatenations gives
# EXACT hamming<=d blocking with ~2^32-wide keys (vs the 2^16 of naive 16-bit
# bands, whose buckets blow up ~n/65536 at billions of docs).
_SIMHASH_BLOCKS = 6
_SIMHASH_D = 3


def _simhash_tables(blocks: int = _SIMHASH_BLOCKS, d: int = _SIMHASH_D):
    """[(table_id, [block indices kept in the key])] + block bit-ranges."""
    from itertools import combinations

    sizes = [64 // blocks + (1 if i < 64 % blocks else 0) for i in range(blocks)]
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    keep = blocks - d
    tables = list(enumerate(combinations(range(blocks), keep)))
    return tables, list(zip(starts.tolist(), sizes))


def _simhash_key(h: int, combo, ranges) -> int:
    key = 0
    for bi in combo:
        s, w = ranges[bi]
        key = (key << w) | ((h >> s) & ((1 << w) - 1))
    return key


def simhash_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    verify: bool = False,
    max_hamming: int = _SIMHASH_D,
    max_group_size: int | None = DEFAULT_MAX_GROUP_SIZE,
):
    """SimHash near-dup blocking with the hamming<=d guarantee at scale.

    verify=False: candidate groups (band_id, band_val, doc_ids) — band_id is
    the block-combination table id, band_val the ~32-bit key.
    verify=True: distributed exact verification — candidate pairs with full
    64-bit hamming distance <= max_hamming, as a Dataset
    (doc_a, doc_b, hamming)."""
    tables, ranges = _simhash_tables(d=max_hamming)

    def sig(batch: pa.Table) -> pa.Table:
        fps = simhash64_batch(batch[text_col].to_pylist())
        vals = _simhash_keys_batch(fps, tables, ranges)
        ntab = len(tables)
        n = fps.size
        ids = batch[id_col].combine_chunks()
        id_rep = ids.take(pa.array(np.tile(np.arange(n, dtype=np.int64),
                                           ntab)))
        return pa.Table.from_arrays(
            [
                pa.array(np.repeat(np.arange(ntab, dtype=np.int32), n)),
                pa.array(vals.reshape(-1).view(np.int64)),
                id_rep,
            ],
            names=["band_id", "band_val", id_col],
        )

    groups = dup_bucket_groups(
        ds.map_batches(sig, batch_format="pyarrow"),
        "band_id", "band_val", id_col,
    )
    if not verify:
        return groups

    pairs = distinct_pairs_from_groups(groups, "doc_ids", max_group_size)

    def fp_payload(batch: pa.Table) -> pa.Table:
        fps = simhash64_batch(batch[text_col].to_pylist())
        return pa.Table.from_arrays(
            [batch[id_col], pa.array(fps.view(np.int64))],
            names=["pid", "payload"],
        )

    withp = attach_pair_payloads(
        pairs, ds.map_batches(fp_payload, batch_format="pyarrow")
    )

    def verify_hamming(batch: pa.Table) -> pa.Table:
        ha = batch["payload_a"].to_numpy().astype(np.uint64)
        hb = batch["payload_b"].to_numpy().astype(np.uint64)
        x = ha ^ hb
        ham = np.zeros(x.size, dtype=np.int32)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int32)
            x >>= np.uint64(1)
        t = pa.Table.from_arrays(
            [batch["doc_a"], batch["doc_b"], pa.array(ham)],
            names=["doc_a", "doc_b", "hamming"],
        )
        return t.filter(pc.less_equal(t["hamming"], max_hamming))

    return withp.map_batches(verify_hamming, batch_format="pyarrow")
