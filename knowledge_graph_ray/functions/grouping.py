"""Bucketed group-map: groupby(key).map_groups without per-key overhead.

Ray's ``groupby(key).map_groups(fn)`` invokes ``fn`` once per DISTINCT
KEY (~1ms overhead each) — ruinous for high-cardinality keys (measured:
8000 tiny groups ≈ 9s vs 1.2s for the same groupby as a vectorized
aggregate).  ``bucketed_group_map`` shuffles once on a stable vectorized
hash bucket of the key (one Ray group per bucket) and iterates the per-key
sub-groups with a pandas groupby inside the bucket — same semantics, one
task per bucket.  ``bucketed_bucket_map`` is the lower-level form whose
body receives the WHOLE bucket, for bodies that can vectorize across
groups (sort/filter once per bucket instead of once per tiny group).

``num_buckets`` is also the skew lever: it bounds per-task memory to
~|dataset|/num_buckets (hot KEYS still colocate — per-key state must fit
one task, which holds for every use here since upstream partial
aggregation bounds per-key rows).

Regime rule: an exchange whose input is provably at most
``DRIVER_THRESHOLD`` rows runs its body once over the whole input on the
driver and returns one contiguous block; larger inputs take the
distributed bucket shuffle.  The graph tail applies the rule twice.
``build_knowledge_graph`` (``pipelines/build._tail``) picks each stage's
regime in one place: when its inputs are Arrow tables summing to at
most its bound, it runs the stage's whole ``pa.Table -> pa.Table``
kernel on the driver, with no Ray execution, and hands the table to the
next stage.  The core's canonical tables are pulled once
(``driver_tables``) to start that chain, and tables become in-memory
datasets (``driver_dataset``) only where a dataset is needed.
Otherwise the stage takes its Dataset path, whose exchanges (joins,
aggregates, the row index sort) still pick the driver regime when
their own input is small.  The checkpoint layer
(``state/checkpoint.py``) applies the rule to reads and writes: a
materialized table or a checkpoint of at most ``DRIVER_THRESHOLD`` rows
is written and read with pyarrow on the driver.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions.hashing import bucket_column

_BUCKET = "__gb"

# Shared default row threshold for the driver regime.  A sort-shuffle
# exchange costs ~0.1-0.3 s at 1 CPU whatever its size.  Measured on
# materialized one-block inputs of 30, 900 and 20k rows, distributed ->
# driver regime: ``hash_join`` 0.27-0.32 s -> 0.11-0.12 s,
# ``with_row_index``'s sort 0.10-0.11 s -> 0.03-0.04 s, ``grouped_agg``
# 0.15-0.20 s -> 0.08-0.10 s.  200k rows is the value canonicalize's
# G1/G2 merge used before the rule was shared.
DRIVER_THRESHOLD = 200_000


def _whole_table(ds) -> "pa.Table | None":
    """A materialized dataset's rows as one Arrow table on the driver;
    a zero-row dataset gives an empty table with its schema, or None
    when no schema is known (empty blocks may carry none)."""
    import ray

    from knowledge_graph_ray.functions.dsschema import plan_schema

    # an in-memory handle (from_arrow) starts an executor on its first
    # pull; materialize() runs no task on it, and the pull after it is
    # metadata-only.  An executed handle skips it: materialize() deep-
    # copies the plan, ~5 ms a call
    if not ds._plan.has_computed_output():
        ds = ds.materialize()
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if tables:
        return pa.concat_tables(tables, promote_options="permissive")
    sch = plan_schema(ds)
    return None if sch is None else sch.empty_table()


def driver_arrow_table(ds) -> "pa.Table | None":
    """A materialized dataset's rows as one Arrow table on the driver,
    or None when it has no rows (empty blocks may carry no schema)."""
    whole = _whole_table(ds)
    return whole if whole is not None and whole.num_rows else None


def driver_tables(datasets, bound: int | None) -> "list[pa.Table] | None":
    """The graph tail's regime rule: the Arrow tables of ``datasets``
    when every one is a ``MaterializedDataset`` and their summed
    ``count()`` (metadata-only on a materialized handle) is at most
    ``bound``; else None, and the caller keeps its Dataset path.  A lazy
    input is never executed to decide.  Callers read ``bound`` at call
    time (``DRIVER_THRESHOLD`` or their stage's own bound).

    Inputs with no rows at all take the kernel whatever the bound: Ray's
    ``map_batches`` never calls its body on a zero-row block, so on them
    the Dataset path returns zero rows with no schema, which the next
    join cannot resolve; the kernel keeps the schema."""
    from ray.data.dataset import MaterializedDataset

    if bound is None or not all(
        isinstance(ds, MaterializedDataset) for ds in datasets
    ):
        return None
    rows = sum(ds.count() for ds in datasets)
    if rows and rows > bound:
        return None
    tables = [_whole_table(ds) for ds in datasets]
    return None if any(t is None for t in tables) else tables


def empty_tables(datasets) -> "list[pa.Table] | None":
    """Zero-row tables with the schemas of ``datasets`` when every one
    is materialized and has no rows; else None.  A graph-tail stage
    function returns its kernel's output on them, typed as the kernel
    types it: its Dataset path would lose the schema (``driver_tables``
    says why)."""
    return driver_tables(datasets, -1)


def driver_dataset(table: pa.Table):
    """A driver kernel's output as a materialized in-memory dataset.

    This is ``ray.data.from_arrow`` with the block metadata computed on
    the driver, which holds the table: ``from_arrow`` submits one Ray
    task per table for it, and stages that run concurrently then start
    one more worker process each.  ``materialize()`` runs no task on the
    result."""
    import ray
    from ray.data import DataContext
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data._internal.util import get_table_block_metadata_schema
    from ray.data.dataset import MaterializedDataset

    meta = [get_table_block_metadata_schema(table)]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta}, parent=None),
                         DataContext.get_current().copy())
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow([ray.put(table)], meta), plan._context)
    ).materialize()


def bucketed_bucket_map(ds, keys: list[str], bucket_fn, num_buckets: int = 64,
                        empty_schema: pa.Schema | None = None,
                        driver_threshold: int | None = None,
                        size_hint: int | None = None,
                        body_format: str = "pandas",
                        pre_partition: int | None = None):
    """Apply ``bucket_fn(bucket_df) -> pyarrow.Table`` once per key-hash
    bucket; all rows of a key land in the same bucket.

    ``bucket_fn`` must return an Arrow table with a fixed schema (may be
    empty); ``empty_schema`` covers the zero-row input case.  A
    contiguous ``bucket_fn`` table stays one chunk per column on the
    driver path; the distributed path's ``map_groups`` concatenates the
    bucket tables of a block, one chunk per bucket.

    ``body_format="pyarrow"`` hands ``bucket_fn`` a ``pyarrow.Table``
    instead of a pandas DataFrame — use it when the body must see the
    exact Arrow types (a pandas conversion turns int64-with-null
    columns into float64, losing the type for the output schema).

    ``driver_threshold``: size-adaptive final merge — when the input is
    PROVABLY small, ``bucket_fn`` runs once over the whole input on the
    driver instead of paying an all-to-all sort round (~0.1-0.3 s of
    fixed latency at 1 CPU regardless of data size).  Larger inputs
    take the distributed path.

    ``size_hint``: a cheap caller-supplied row-count upper bound (e.g.
    the materialized mention count upstream of a combiner).  When the
    hint already exceeds ``driver_threshold`` the probe is skipped
    entirely — the hot path stays streaming instead of forcing a full
    materialize barrier just to learn it is big.  When the hint is under
    the threshold the driver path runs directly (the hint is an upper
    bound, so smallness is proven without a count).  Either path is
    semantically identical; the hint only picks the regime.
    """
    import ray.data as rd

    if driver_threshold is not None and (
        size_hint is None or size_hint <= driver_threshold
    ):
        # materialize even when the hint proves smallness: Ray 2.49's
        # to_arrow_refs/to_pandas on a LAZY dataset launch a second
        # executor just for .schema(); on a materialized handle both are
        # metadata-only (one execution total), and the distributed path
        # below reuses it
        ds = ds.materialize()
        if size_hint is not None or ds.count() <= driver_threshold:
            if body_format == "pyarrow":
                whole = driver_arrow_table(ds)
            else:
                whole = ds.to_pandas()
                whole = None if whole.empty else whole
            if whole is None:
                if empty_schema is not None:
                    return rd.from_arrow(empty_schema.empty_table())
                raise RuntimeError(
                    "bucketed map: empty input needs empty_schema"
                )
            return rd.from_arrow(bucket_fn(whole))

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _BUCKET, bucket_column(batch, keys, num_buckets)
        )

    if pre_partition is not None:
        # groupby().map_groups schedules ONE task per post-sort block,
        # and the sort preserves the input block count — a small
        # (often 1-block) input therefore serializes every bucket body
        # on one core.  Callers whose bodies do heavy per-bucket work
        # (the quadratic pair scans) opt into an input repartition so
        # the map runs wide; measured 8x on the JW join at 100k names.
        bucketed = ds.repartition(pre_partition)
    else:
        bucketed = ds
    bucketed = bucketed.map_batches(add_bucket, batch_format="pyarrow")

    if body_format == "pyarrow":
        def abody(group: pa.Table) -> pa.Table:
            keep = [c for c in group.column_names if c != _BUCKET]
            return bucket_fn(group.select(keep))

        return bucketed.groupby(_BUCKET).map_groups(
            abody, batch_format="pyarrow"
        )

    def body(group: pd.DataFrame) -> pa.Table:
        return bucket_fn(group.drop(columns=[_BUCKET]))

    return bucketed.groupby(_BUCKET).map_groups(body, batch_format="pandas")


def bucketed_group_map(ds, keys: list[str], fn, num_buckets: int = 64,
                       dropna: bool = False, empty_schema: pa.Schema | None = None,
                       driver_threshold: int | None = None,
                       size_hint: int | None = None):
    """Apply ``fn(sub_df) -> pyarrow.Table`` per distinct key group.

    ``fn`` must always return an Arrow table with a fixed schema (may be
    empty).  ``dropna=True`` skips groups whose key is null (pandas
    groupby semantics, used where the reference drops NaN keys);
    ``empty_schema`` is returned for buckets left with zero groups.
    Each bucket's output is contiguous (one Arrow chunk per column), not
    one chunk per group: Ray serializes every chunk array of a block on
    its own, so per-group chunks are slow to ship and to read downstream.
    See ``bucketed_bucket_map`` for ``driver_threshold`` / ``size_hint``.
    """
    group_keys = keys[0] if len(keys) == 1 else keys

    def bucket_fn(bucket: pd.DataFrame) -> pa.Table:
        sub_groups = bucket.groupby(group_keys, sort=False, dropna=dropna)
        out = [fn(sub) for _, sub in sub_groups]
        out = [t for t in out if t is not None]
        if not out:
            if empty_schema is not None:
                return empty_schema.empty_table()
            raise RuntimeError(
                "bucketed_group_map: bucket produced no groups "
                "(pass empty_schema when dropna can empty a bucket)"
            )
        return pa.concat_tables(out, promote_options="default").combine_chunks()

    return bucketed_bucket_map(
        ds, keys, bucket_fn, num_buckets=num_buckets,
        empty_schema=empty_schema, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def grouped_topk(ds, group_cols: list[str], order_col: str, k: int,
                 descending: bool = True, tie_cols: list[str] | None = None,
                 num_buckets: int = 64, driver_threshold: int | None = None,
                 size_hint: int | None = None):
    """Top-k rows per group with a dense 1..k ``rk`` column.

    Scale shape: a per-batch local top-k combiner bounds the shuffle to
    <= k rows per (group, batch) — hub groups ship k rows per upstream
    block, never their full row count — then the bucketed final pass
    re-ranks.  Ties broken by ``tie_cols`` ascending (deterministic).
    """
    tie = tie_cols or []
    sort_cols = [order_col] + tie
    ascending = [not descending] + [True] * len(tie)

    def local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        top = (
            df.sort_values(sort_cols, ascending=ascending, kind="stable")
            # dropna=False to match the final bucketed_group_map pass —
            # pandas' default dropna=True would silently discard
            # null-key rows in the combiner only
            .groupby(group_cols, sort=False, dropna=False)
            .head(k)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    partials = ds.map_batches(local_topk, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pa.Table:
        top = group.sort_values(sort_cols, ascending=ascending,
                                kind="stable").head(k)
        top = top.assign(rk=range(1, len(top) + 1))
        return pa.Table.from_pandas(top, preserve_index=False)

    # the combiner bounds partials to <= k per (group, batch), so a
    # driver_threshold probe over PARTIALS is cheap even for huge inputs
    return bucketed_group_map(partials, group_cols, final_topk,
                              num_buckets=num_buckets,
                              driver_threshold=driver_threshold,
                              size_hint=size_hint)
