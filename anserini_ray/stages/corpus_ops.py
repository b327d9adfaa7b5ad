"""Corpus-level training-data operators: benchmark decontamination and
deterministic dataset splits.

Both are broadcast/map-only stages — the natural Ray Data shape at 100 TB:
no shuffle, the small side (benchmark shingle set) is `ray.put` once and
read inside every task, and the split is a pure rowwise hash.

- decontaminate: flag documents sharing >= `min_overlap` word-shingles with
  a benchmark/eval corpus (the standard n-gram decontamination used for LLM
  training sets; e.g. GPT-3 App. C / PaLM-style 13-gram checks — n is a
  parameter, smaller here because the synthetic docs are short).
- hash_split: deterministic md5(doc_id)-based train/val/test assignment,
  reproducible across runs/cluster sizes and SQL-mirrorable
  (CAST('0x' || substr(md5(id),1,2) AS INT) % 100).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .dedup import word_shingles
from .hashagg import hash_partition_groups


def benchmark_shingles(texts: list[str], n: int = 3) -> frozenset[str]:
    """The blocklist side: union of word n-gram shingles over the benchmark
    texts (small — fits the object store as one broadcast value)."""
    out: set[str] = set()
    for t in texts:
        out |= word_shingles(t or "", n)
    return frozenset(out)


def decontaminate(
    ds,
    benchmark_texts: list[str],
    n: int = 3,
    min_overlap: int = 1,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Per-doc contamination check against a benchmark corpus.

    Returns a Dataset (id, n_overlap, contaminated) — one row per input doc.
    The benchmark shingle set is broadcast once (`ray.put`); each batch
    computes its docs' shingle overlap vectorized-per-doc with set
    intersection (shingle sets are tiny relative to the broadcast)."""
    bench_ref = ray.put(benchmark_shingles(benchmark_texts, n))

    def check(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        overlaps = np.empty(batch.num_rows, dtype=np.int64)
        for i, t in enumerate(batch[text_col].to_pylist()):
            overlaps[i] = len(word_shingles(t or "", n) & bench)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_overlap": pa.array(overlaps),
                "contaminated": pa.array(overlaps >= min_overlap),
            }
        )

    return ds.map_batches(check, batch_format="pyarrow")


def _token_counter(tokenizer: str, text_col: str):
    """Per-batch token-count kernel. tokenizer='split' counts whitespace
    tokens (mirrors the SQL oracle); 'analyzer' routes through the
    analyzer's fast tokenize path (UAX#29-equivalent on clean ASCII) for
    counts consistent with the index's own tokenization."""
    if tokenizer == "split":
        def count(batch: pa.Table) -> np.ndarray:
            # RE2 \S+ run count == the SQL oracle's regexp_split \s+
            # contract, vectorized (Arrow kernel)
            import pyarrow.compute as pc

            return (
                pc.fill_null(
                    pc.count_substring_regex(batch[text_col], r"\S+"), 0
                )
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
    elif tokenizer == "analyzer":
        from ..analysis.analyzer import tokenize

        def count(batch: pa.Table) -> np.ndarray:
            return np.fromiter(
                (len(tokenize(t or "")) for t in batch[text_col].to_pylist()),
                dtype=np.int64,
                count=batch.num_rows,
            )
    else:
        raise ValueError(f"tokenizer must be 'split'|'analyzer', got {tokenizer!r}")
    return count


def _greedy_pack(ids: np.ndarray, toks: np.ndarray, groups: np.ndarray,
                 budget: int) -> np.ndarray:
    """Sequential greedy scan over id-sorted rows; seq counter and
    accumulator reset at every pack_group boundary. Inherently a scan (each
    step depends on the running accumulator), so it is a Python loop — but
    only over the skinny (id, tokens) arrays of one task's rows."""
    n = len(toks)
    seq_idx = np.empty(n, dtype=np.int64)
    cur = acc = 0
    prev_group = None
    toks_l = toks.tolist()
    groups_l = groups.tolist()
    for i in range(n):
        g = groups_l[i]
        t = toks_l[i]
        if g != prev_group:
            cur, acc = 0, 0
            prev_group = g
        elif acc + t > budget:
            cur += 1
            acc = 0
        acc += t
        seq_idx[i] = cur
    return seq_idx


def pack_sequences(
    ds,
    budget: int = 512,
    group_size: int = 1024,
    id_col: str = "doc_id",
    text_col: str = "text",
    tokenizer: str = "split",
):
    """Greedy fixed-token-budget sequence packing — the standard LLM
    training-data step of concatenating documents into budget-sized
    sequences.

    Deterministic distributed contract: documents pack greedily in id order
    WITHIN fixed id-range groups (group = id // group_size), so sequences
    never span groups and the assignment is independent of batch/partition
    boundaries (each map task covers whole groups by construction when the
    input is id-partitioned; here token counting is a narrow map and the
    greedy scan runs per group). A document longer than the budget gets its
    own sequence. Returns (id, pack_group, seq_idx, n_tokens): seq_idx is
    the sequence number within the group."""

    count = _token_counter(tokenizer, text_col)

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = count(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch[id_col],
                "pack_group": pa.array(
                    (ids.astype(np.int64) // group_size).astype(np.int64)
                ),
                "n_tokens": pa.array(n),
            }
        )

    counted = ds.map_batches(count_tokens, batch_format="pyarrow")

    def pack_group(group: pa.Table) -> pa.Table:
        order = np.argsort(
            group[id_col].to_numpy(zero_copy_only=False), kind="stable"
        )
        g = group.take(pa.array(order))
        seq_idx = _greedy_pack(
            g[id_col].to_numpy(zero_copy_only=False),
            g["n_tokens"].to_numpy(),
            g["pack_group"].to_numpy(),
            budget,
        )
        return pa.table(
            {
                id_col: g[id_col],
                "pack_group": g["pack_group"],
                "seq_idx": pa.array(seq_idx),
                "n_tokens": g["n_tokens"],
            }
        )

    return hash_partition_groups(counted, ["pack_group"], pack_group)


# rows per sorted-path unit: same amortize-vs-balance tradeoff as the
# streaming build's UNIT_TARGET_ROWS (index/streaming.py).
PACK_UNIT_TARGET_ROWS = 262144


def pack_sequences_sorted(
    paths: list[str],
    budget: int = 512,
    group_size: int = 1024,
    id_col: str = "doc_id",
    text_col: str = "text",
    tokenizer: str = "split",
    unit_target_rows: int | None = None,
):
    """Shuffle-free fast path of `pack_sequences` for id-SORTED parquet
    input (the transcripts' native layout): because pack groups are fixed
    id ranges (id // group_size) and sorted input keeps each group's rows
    contiguous, the driver can cut task boundaries AT group boundaries
    using parquet FOOTER statistics only (no data read) — mirroring the
    streaming build's assume_sorted unit design (index/streaming.plan_units).

    Each unit is a run of consecutive row groups (possibly spanning files)
    whose trailing edge aligns with a pack-group break; one Ray task packs
    each unit independently and the results become a Dataset via
    `from_arrow_refs` — no exchange, no sort, no all-to-all, nothing
    corpus-proportional on the driver (footer metadata only).

    Output is row-identical to `pack_sequences` on the same rows. Raises
    ValueError when footers lack id statistics or the files/row groups are
    not sorted/disjoint — fall back to the shuffle path then."""
    import pyarrow.parquet as pq

    if not paths:
        raise ValueError("pack_sequences_sorted: no input paths")
    if unit_target_rows is None:
        unit_target_rows = PACK_UNIT_TARGET_ROWS
    _token_counter(tokenizer, text_col)  # validate flag on the driver

    # --- footer scan: (path, rg_idx, min_id, max_id, rows) per row group
    rgs: list[tuple[str, int, int, int, int]] = []
    for path in paths:
        md = pq.read_metadata(path)
        names = md.schema.to_arrow_schema().names
        try:
            id_idx = names.index(id_col)
        except ValueError:
            raise ValueError(f"{path}: no column {id_col!r}")
        for i in range(md.num_row_groups):
            col = md.row_group(i).column(id_idx)
            st = col.statistics
            if st is None or st.min is None or st.max is None:
                raise ValueError(
                    f"{path} rg{i}: no {id_col} statistics — use the "
                    "shuffle path (pack_sequences)"
                )
            rgs.append((path, i, int(st.min), int(st.max),
                        md.row_group(i).num_rows))
    rgs.sort(key=lambda r: r[2])
    for (p1, i1, _, mx, _), (p2, i2, mn, _, _) in zip(rgs, rgs[1:]):
        if mn <= mx:
            raise ValueError(
                f"id ranges overlap/unsorted between {p1} rg{i1} and "
                f"{p2} rg{i2} — use the shuffle path (pack_sequences)"
            )

    # --- group-aligned units: close a unit after rg i only when rg i+1
    # starts a new pack group
    units: list[list[tuple[str, int]]] = []
    cur: list[tuple[str, int]] = []
    cur_rows = 0
    for k, (path, i, mn, mx, rows) in enumerate(rgs):
        cur.append((path, i))
        cur_rows += rows
        aligned = (
            k + 1 == len(rgs)
            or (mx // group_size) < (rgs[k + 1][2] // group_size)
        )
        if aligned and (cur_rows >= unit_target_rows or k + 1 == len(rgs)):
            units.append(cur)
            cur, cur_rows = [], 0
    if cur:
        # trailing row groups whose final edge aligned already (loop always
        # flushes at k+1==len(rgs)); defensive
        units.append(cur)

    @ray.remote
    def _pack_unit(unit: list[tuple[str, int]]) -> pa.Table:
        count = _token_counter(tokenizer, text_col)
        parts = []
        for path, rg in unit:
            parts.append(
                pq.ParquetFile(path).read_row_group(rg, columns=[id_col, text_col])
            )
        t = pa.concat_tables(parts)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) > 1 and not np.all(np.diff(ids) > 0):
            raise ValueError(
                "pack_sequences_sorted: rows not strictly id-sorted within "
                "unit — the assume-sorted contract is violated; use the "
                "shuffle path"
            )
        toks = count(t)
        groups = ids // group_size
        seq_idx = _greedy_pack(ids, toks, groups, budget)
        return pa.table(
            {
                id_col: pa.array(ids),
                "pack_group": pa.array(groups),
                "seq_idx": pa.array(seq_idx),
                "n_tokens": pa.array(toks),
            }
        )

    refs = [_pack_unit.remote(u) for u in units]
    return ray.data.from_arrow_refs(refs)


SPLIT_NAMES = ("train", "val", "test")


def hash_split(
    ds,
    id_col: str = "doc_id",
    weights: tuple[int, int, int] = (80, 10, 10),
):
    """Deterministic split assignment: bucket = first TWO md5 bytes of the
    id string (big-endian) mod 100 — two bytes, not one, so the modulo bias
    is 1/65536 rather than the 2-vs-3-in-256 skew a single byte gives.
    Train gets [0, w0), val [w0, w0+w1), test the rest. Pure rowwise map —
    reproducible across runs, cluster sizes and engines (the SQL mirror is
    CAST('0x' || substr(md5(id), 1, 4) AS INTEGER) % 100)."""
    w0, w1, w2 = weights
    if w0 + w1 + w2 != 100:
        raise ValueError("weights must sum to 100")

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        buckets = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:2], 'big') % 100
             for i in ids),
            dtype=np.int64,
            count=len(ids),
        )
        split = np.where(
            buckets < w0, "train", np.where(buckets < w0 + w1, "val", "test")
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(buckets),
                "split": pa.array(split.tolist()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")
