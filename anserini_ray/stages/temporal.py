"""Temporal / event-stream operators: gap sessionization, as-of join, and
range (interval) join — the window-shaped operators a training-data pipeline
needs over an event log and that Ray Data has no built-in for (the reference
engine is batch-only and has none either; SURVEY §1.1).

All four share one physical shape: ONE hash-partitioned exchange on the
entity key (`hashagg.hash_partition_groups`: every event of a user lands
in one partition, which calls the per-user function once per user), then
fully vectorized numpy inside each group (sort + diff/cumsum for sessions,
searchsorted for the joins). Nothing corpus-proportional touches the
driver.

Partitioning assumption (documented per the custom-operator contract): a
single entity's event history fits in one worker's memory. At 100 TB that
holds for user-keyed logs (millions of events/user is still MBs); for
pathological hot keys, pre-split the key by time bucket with a window-sized
overlap and drop duplicate outputs from the overlap region — the operators
below are deterministic under that scheme because every output row depends
only on events within `window`/`gap` of it.

Tie-break contract (all ops): events are ordered by (ts, event_id); at equal
ts the larger event_id is "later". As-of matches prefer the latest right row
with r.ts <= l.ts, ties resolved to the largest right event_id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashagg import hash_partition_groups

__all__ = [
    "sessionize",
    "session_stats",
    "asof_join",
    "range_count_join",
]


def _sorted_group(
    t: pa.Table, ts_col: str, id_col: str
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Sort one group's table by (ts, event_id); return (sorted_table,
    ts_us[int64], ids[int64])."""
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]")
    ts_us = ts.view(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, ts_us))
    return t.take(pa.array(order)), ts_us[order], ids[order]


# ------------------------------------------------------------ sessionization


def _session_bounds(ts_us: np.ndarray, gap_us: int) -> np.ndarray:
    """session_idx (0-based per entity) for ts_us sorted ascending: a new
    session starts when the gap to the previous event exceeds gap_us."""
    if len(ts_us) == 0:
        return np.empty(0, dtype=np.int64)
    brk = np.empty(len(ts_us), dtype=np.int64)
    brk[0] = 0
    brk[1:] = (np.diff(ts_us) > gap_us).astype(np.int64)
    return np.cumsum(brk)


def sessionize(
    ds,
    gap_us: int,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    user_col: str = "user_id",
):
    """Assign each event a per-user session: (id_col, user_col, session_idx,
    session_seq), session_idx 0-based per user in time order, session_seq
    0-based position within the session."""

    def per_user(t: pa.Table) -> pa.Table:
        t, ts_us, ids = _sorted_group(t, ts_col, id_col)
        sess = _session_bounds(ts_us, gap_us)
        # position within session = index - index of session start
        starts = np.flatnonzero(np.r_[1, np.diff(sess)])
        seq = np.arange(len(sess), dtype=np.int64) - np.repeat(
            starts, np.diff(np.r_[starts, len(sess)])
        )
        return pa.Table.from_arrays(
            [
                pa.array(ids),
                t[user_col],
                pa.array(sess),
                pa.array(seq),
            ],
            names=[id_col, user_col, "session_idx", "session_seq"],
        )

    return hash_partition_groups(ds, [user_col], per_user)


def session_stats(
    ds,
    gap_us: int,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    user_col: str = "user_id",
    value_col: str = "value",
    round_decimals: int = 4,
):
    """Per-session aggregates (user_col, session_idx, n_events, duration_us,
    sum_value) computed inside the SAME single exchange as sessionize (no
    second exchange): reduceat over the session boundaries."""

    def per_user(t: pa.Table) -> pa.Table:
        t, ts_us, _ids = _sorted_group(t, ts_col, id_col)
        sess = _session_bounds(ts_us, gap_us)
        if len(sess) == 0:
            return pa.Table.from_arrays(
                [pa.array([], type=pa.int64())] * 4
                + [pa.array([], type=pa.float64())],
                names=[user_col, "session_idx", "n_events", "duration_us", "sum_value"],
            )
        starts = np.flatnonzero(np.r_[1, np.diff(sess)])
        ends = np.r_[starts[1:], len(sess)] - 1
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        sums = np.round(np.add.reduceat(vals, starts), round_decimals)
        user = t[user_col].to_numpy(zero_copy_only=False)[starts]
        return pa.Table.from_arrays(
            [
                pa.array(user.astype(np.int64)),
                pa.array(sess[starts]),
                pa.array((ends - starts + 1).astype(np.int64)),
                pa.array(ts_us[ends] - ts_us[starts]),
                pa.array(sums),
            ],
            names=[user_col, "session_idx", "n_events", "duration_us", "sum_value"],
        )

    return hash_partition_groups(ds, [user_col], per_user)


# ------------------------------------------------------------- as-of join


def asof_join(
    ds,
    left_type: str,
    right_type: str,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    no_match: int = -1,
):
    """For each left-type event, the latest right-type event of the same user
    with r.ts <= l.ts (ties → largest right event_id). Output (id_col,
    user_col, matched_event_id, lag_us); unmatched rows get no_match / -1
    lag. Self as-of join over one event log; for two tables, union them with
    a type tag first — the semantics below are tag-driven."""

    def per_user(t: pa.Table) -> pa.Table:
        t, ts_us, ids = _sorted_group(t, ts_col, id_col)
        types = t[type_col].to_numpy(zero_copy_only=False)
        lmask = types == left_type
        rmask = types == right_type
        l_ts, l_ids = ts_us[lmask], ids[lmask]
        r_ts, r_ids = ts_us[rmask], ids[rmask]
        # rights sorted by (ts, event_id) already; side="right" on ts picks
        # the last right with r.ts <= l.ts, i.e. the largest event_id at ties
        if len(r_ts) == 0:
            matched = np.full(len(l_ts), no_match, dtype=np.int64)
            lag = np.full(len(l_ts), -1, dtype=np.int64)
        else:
            pos = np.searchsorted(r_ts, l_ts, side="right") - 1
            clamped = np.maximum(pos, 0)
            matched = np.where(pos >= 0, r_ids[clamped], np.int64(no_match))
            lag = np.where(pos >= 0, l_ts - r_ts[clamped], np.int64(-1))
        user = t[user_col].to_numpy(zero_copy_only=False)[lmask]
        return pa.Table.from_arrays(
            [
                pa.array(l_ids),
                pa.array(user.astype(np.int64)),
                pa.array(matched.astype(np.int64)),
                pa.array(lag.astype(np.int64)),
            ],
            names=[id_col, user_col, "matched_event_id", "lag_us"],
        )

    return hash_partition_groups(ds, [user_col], per_user)


# ------------------------------------------------------------- range join


def range_count_join(
    ds,
    left_type: str,
    right_type: str,
    window_us: int,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    value_col: str = "value",
    round_decimals: int = 4,
):
    """For each left-type event, count + sum(value) of right-type events of
    the same user in [l.ts - window_us, l.ts] (both ends inclusive). Output
    (id_col, user_col, n_in_window, sum_value_in_window). Vectorized as two
    searchsorted probes against the user's sorted right-side prefix sums —
    O((L+R) log R) per user, never a per-pair loop."""

    def per_user(t: pa.Table) -> pa.Table:
        t, ts_us, ids = _sorted_group(t, ts_col, id_col)
        types = t[type_col].to_numpy(zero_copy_only=False)
        lmask = types == left_type
        rmask = types == right_type
        l_ts, l_ids = ts_us[lmask], ids[lmask]
        r_ts = ts_us[rmask]
        r_val = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)[rmask]
        lo = np.searchsorted(r_ts, l_ts - window_us, side="left")
        hi = np.searchsorted(r_ts, l_ts, side="right")
        csum = np.concatenate(([0.0], np.cumsum(r_val)))
        sums = np.round(csum[hi] - csum[lo], round_decimals)
        # exact-zero canonicalization: -0.0 from float cancellation → 0.0
        sums = sums + 0.0
        user = t[user_col].to_numpy(zero_copy_only=False)[lmask]
        return pa.Table.from_arrays(
            [
                pa.array(l_ids),
                pa.array(user.astype(np.int64)),
                pa.array((hi - lo).astype(np.int64)),
                pa.array(sums),
            ],
            names=[id_col, user_col, "n_in_window", "sum_value_in_window"],
        )

    return hash_partition_groups(ds, [user_col], per_user)
