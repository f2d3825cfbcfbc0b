"""Local mimic of the driver's correctness gate: run each queries() entry
and its oracle_sql() side by side (default sf0.01), compare row count,
column names, and order-insensitive values.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)

import duckdb
import pandas as pd

# the tables the kept oracles read
TABLES = ["documents", "embeddings"]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    # dtype-strict: the driver value-hash is representation-sensitive
    # (uncast DuckDB sum(CASE..) is HUGEINT and hash-mismatches int64)
    for c in sorted(ray_df.columns):
        if str(ray_df[c].dtype) != str(sql_df[c].dtype):
            problems.append(
                f"dtype[{c}]: ray={ray_df[c].dtype} sql={sql_df[c].dtype}"
            )
    a, b = canonical(ray_df), canonical(sql_df)
    if len(a) == len(b):
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False,
                                          rtol=0, atol=1e-9)
        except AssertionError as e:
            problems.append(f"values: {str(e).splitlines()[-1]}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count() or 1, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray error {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ROWS {name}: {len(ray_df)} rows (no oracle; rows-only)")
            continue
        try:
            sql_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL {name}: sql error {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"OK   {name}: {len(ray_df)} rows")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
