"""Full queries()/oracle_sql() registry parity, in-repo (VERDICT r4 #2).

The driver's correctness gate samples a window of the registry (50 of 54 in
round 4), so entries can silently rot out of coverage by rotation. This
suite executes EVERY registry entry with an oracle_sql() against its own
SQL on sf0.001 under the driver's contract — row count, column-name set,
and values compared after sorting columns by name and rows by all columns —
so registry coverage can never shrink below the whole registry.

Entries without an oracle_sql() (genuinely non-SQL-expressible ops) get the
driver's weaker rows-only check: the callable runs and returns rows with a
stable schema.
"""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

_TABLES = (
    "region nation customer supplier part orders lineitem "
    "events documents embeddings"
).split()


def _entry_module():
    import __ray_entry__ as e

    return e


def _to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):  # pyarrow.Table / Dataset-like
        return res.to_pandas()
    raise TypeError(type(res))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(
            drop=True
        )
    return df


def _connect(sf: str):
    con = duckdb.connect()
    for t in _TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * "
            f"FROM read_parquet('{sf}/{t}.parquet')"
        )
    return con


@pytest.fixture(scope="module")
def oracle_con(sf_dir):
    return _connect(sf_dir)


@pytest.fixture(scope="module")
def oracle_con01(sf01_dir):
    return _connect(sf01_dir)


def _registry():
    e = _entry_module()
    qs = e.queries()
    sqls = e.oracle_sql()
    return qs, sqls


_QS, _SQLS = _registry()


@pytest.mark.parametrize("name", sorted(_QS))
def test_registry_entry(name, ray_session, sf_dir, oracle_con):
    mine = _canon(_to_pandas(_QS[name](sf_dir)))
    sql = _SQLS.get(name)
    if sql is None:
        # rows-only contract: runs, has a schema, row objects materialize
        assert list(mine.columns), name
        return
    ref = _canon(oracle_con.execute(sql).fetch_df())
    assert len(mine) == len(ref), f"{name}: rows {len(mine)} != {len(ref)}"
    assert list(mine.columns) == list(ref.columns), name
    for col in mine.columns:
        a, b = mine[col], ref[col]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            an = a.astype(float).to_numpy()
            bn = b.astype(float).to_numpy()
            both_nan = np.isnan(an) & np.isnan(bn)
            ok = both_nan | np.isclose(an, bn, rtol=1e-9, atol=1e-12)
            assert ok.all(), f"{name}.{col}: {an[~ok][:3]} vs {bn[~ok][:3]}"
        else:
            av = a.where(pd.notna(a), None).tolist()
            bv = b.where(pd.notna(b), None).tolist()
            # numeric dtype mismatches (int64 vs int32) compare by value
            norm = lambda v: (
                float(v)
                if isinstance(v, (int, np.integer, float, np.floating))
                and not (isinstance(v, float) and math.isnan(v))
                else v
            )
            assert [norm(x) for x in av] == [
                norm(x) for x in bv
            ], f"{name}.{col}"


def test_registry_and_oracle_keys_consistent():
    # as of round 5 EVERY registry entry carries an oracle_sql(); keep it
    # that way — a new rows-only entry must be a conscious decision (edit
    # this test with a justification, not silently)
    assert set(_SQLS) == set(_QS), (
        sorted(set(_QS) - set(_SQLS)),
        sorted(set(_SQLS) - set(_QS)),
    )


# The near-dup entries, whose duplicate keys go through the hash-partitioned
# exchange, also run at sf0.01.
_NEAR_DUP = [
    "duplicate_spans", "embedding_near_dup", "minhash_dedup",
    "ngram_jaccard_pairs", "simhash_groups", "simhash_pairs",
]


@pytest.mark.parametrize("name", _NEAR_DUP)
def test_near_dup_entry_sf001(name, ray_session, sf01_dir, oracle_con01):
    test_registry_entry(name, ray_session, sf01_dir, oracle_con01)
