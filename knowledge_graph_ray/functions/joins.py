"""Portable partitioned hash join built on groupby shuffles.

Ray 2.49's native ``Dataset.join`` intermittently fails when several
hash-join operators land in one fused DAG (aggregator finalize raises
"No match or multiple matches for key field reference FieldRef..."), so
the engine uses the portable pattern instead: tag and union both sides
and run one merge body per key-hash bucket through
``bucketed_bucket_map`` — one ``groupby(bucket)`` shuffle, or, when the
two sides sum to at most ``DRIVER_THRESHOLD`` rows, the same body once
over the whole input on the driver (no shuffle).  Two materialized sides
that small skip Ray altogether: ``join_arrow`` joins their Arrow tables
with the same kernel (``join_tables``).

Scale properties: a single all-to-all exchange partitioned on the key
hash; ``num_partitions`` bounds per-bucket memory; same-key rows must share
a bucket, so true key skew is bounded by the hot key's own row count —
for the joins in this engine the right side is entity-keyed and
near-unique, and for genuinely hot fact keys ``skew_join`` (below)
routes them around the shuffle entirely (measured 4x at 90% hot
share).
Join semantics: 'inner', 'left_outer', 'left_semi', 'left_anti';
composite keys supported.  Non-key output columns must be disjoint
between the two sides (callers rename first) — asserted.

The semi/anti modes are the shuffle-side replacement for the broadcast
key-set pattern (reference utils/dataframe.py:23-39 antijoin/union) when
the "small" side is no longer small.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions import grouping
from knowledge_graph_ray.functions.dsschema import dataset_schema, plan_schema
from knowledge_graph_ray.functions.grouping import (
    DRIVER_THRESHOLD,
    bucketed_bucket_map,
    driver_dataset,
    driver_tables,
)

_SIDE = "__js"


def _acero_supported(fields) -> bool:
    """True when every field can ride pyarrow's Acero hash join.

    Acero rejects nested (list/struct/map) and dictionary-encoded
    non-key fields ("Data type ... is not supported in join non-key
    field"); those buckets take the pandas body instead.
    """
    return all(
        not (pa.types.is_nested(f.type) or pa.types.is_dictionary(f.type))
        for f in fields
    )


def _to_arrow_col(series: pd.Series, field: pa.Field) -> pa.Array:
    """Vectorized pandas column -> Arrow array of the target field type.

    pandas upcasts ints with NaN to float64 after a left merge;
    ``from_pandas`` turns NaN into null, then the safe cast restores the
    integer type (values are integral by construction).
    """
    arr = pa.Array.from_pandas(series)
    if arr.type != field.type:
        arr = arr.cast(field.type)
    return arr


def project(ds, columns: "dict[str, str] | list[str]"):
    """Opaque select(+rename) via map_batches.

    Ray 2.49's Project operators (``select_columns``/``rename_columns``)
    can be silently DROPPED when two differently-projected branches of
    the same upstream dataset feed one fused DAG (e.g. the union inside
    ``hash_join``): one branch's projection is lost and the join sees the
    original columns.  An opaque ``map_batches`` projection is never
    fused away.  ``columns``: list = select; dict {old: new} =
    select+rename.
    """
    mapping = {c: c for c in columns} if isinstance(columns, list) else dict(columns)

    def body(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {new: b.column(old) for old, new in mapping.items()}
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _join_schema(left_schema: pa.Schema, right_schema: pa.Schema,
                 on: list[str], how: str):
    """-> (output schema, left non-key columns, right payload columns)
    of ``hash_join``; asserts the non-key columns are disjoint."""
    filter_only = how in ("left_semi", "left_anti")
    left_cols = left_schema.names
    right_payload = (
        [] if filter_only else [c for c in right_schema.names if c not in on]
    )
    overlap = set(left_cols) & set(right_payload)
    assert not overlap, f"rename right columns before joining: {overlap}"
    out_schema = pa.schema(
        [left_schema.field(c) for c in left_cols]
        + [right_schema.field(c) for c in right_payload]
    )
    return out_schema, [c for c in left_cols if c not in on], right_payload


def join_tables(lhs: pa.Table, rhs: pa.Table, on: list[str], how: str,
                out_schema: pa.Schema) -> pa.Table:
    """The join kernel: ``lhs`` (key + left non-key columns) joined with
    ``rhs`` (key columns, plus the right payload unless semi/anti) into
    ``out_schema``.  Null keys match null keys (pandas semantics)."""
    filter_only = how in ("left_semi", "left_anti")
    # Acero fast path (measured 1.4x end-to-end on a 20M-row join at
    # 2.5M-row buckets) — taken only when the column types are
    # Acero-joinable AND NEITHER side has null keys, because Acero
    # treats null keys as non-matching while the pandas body matches
    # null==null (the regime contract; see size_adaptive_join's
    # broadcast body for the same split)
    if _acero_supported(out_schema) and all(
        lhs.column(c).null_count == 0
        and rhs.column(c).null_count == 0 for c in on
    ):
        acero_how = {"inner": "inner", "left_outer": "left outer",
                     "full_outer": "full outer", "left_semi": "left semi",
                     "left_anti": "left anti"}[how]
        joined = lhs.join(rhs, keys=on, join_type=acero_how)
        return pa.table(
            {f.name: joined.column(f.name).cast(f.type) for f in out_schema}
        )
    ldf, rdf = lhs.to_pandas(), rhs.to_pandas()
    if filter_only:
        mask = pd.MultiIndex.from_frame(ldf[on]).isin(
            pd.MultiIndex.from_frame(rdf[on].drop_duplicates())
        )
        merged = ldf[mask] if how == "left_semi" else ldf[~mask]
    else:
        pd_how = {"left_outer": "left", "full_outer": "outer"}.get(
            how, "inner"
        )
        merged = ldf.merge(rdf, on=on, how=pd_how)
    return pa.Table.from_arrays(
        [_to_arrow_col(merged[f.name], f) for f in out_schema],
        schema=out_schema,
    )


def _cast_keys(table: pa.Table, schema: pa.Schema, on: list[str]) -> pa.Table:
    """``table`` with its key columns cast to ``schema``'s types."""
    for k in on:
        want = schema.field(k).type
        if table.schema.field(k).type != want:
            table = table.set_column(table.schema.get_field_index(k), k,
                                     table.column(k).cast(want))
    return table


def join_arrow(left: pa.Table, right: pa.Table, on: list[str],
               how: str = "inner") -> pa.Table:
    """``hash_join`` over two Arrow tables on the driver: same output
    columns, types and null-key semantics."""
    on = list(on)
    out_schema, left_only, right_payload = _join_schema(
        left.schema, right.schema, on, how)
    # a zero-row side may carry fallback key types (an empty aggregate
    # never saw its input's): it joins on the other side's key types
    if left.num_rows == 0:
        left = _cast_keys(left, right.schema, on)
    elif right.num_rows == 0:
        right = _cast_keys(right, left.schema, on)
    return join_tables(left.select(on + left_only),
                       right.select(on + right_payload), on, how, out_schema)


def hash_join(
    left,
    right,
    on: list[str] | tuple[str, ...],
    how: str = "inner",
    num_partitions: int = 32,
    driver_threshold: int | None = DRIVER_THRESHOLD,
):
    """left ⨝ right on key columns ``on`` -> Dataset.

    Output columns: all left columns, then right's non-key columns
    ('inner'/'left_outer'/'full_outer'); left columns only
    ('left_semi'/'left_anti').  'full_outer' keeps unmatched rows from
    BOTH sides (key columns coalesced, the other side's payload null).
    Row order is unspecified.  Either side may be empty as long as its
    schema is known.

    ``driver_threshold``: when both sides together are at most this many
    rows, the merge runs once on the driver.  Two materialized sides
    that small (and within ``DRIVER_THRESHOLD``, read at call time) are
    pulled and joined by ``join_arrow`` with no Ray execution; otherwise
    both sides are tagged and unioned, and ``bucketed_bucket_map`` runs
    the same kernel once on the driver (the union is materialized once
    and reused by either regime) or per key-hash bucket.  ``None``
    always shuffles.
    """
    assert how in (
        "inner", "left_outer", "full_outer", "left_semi", "left_anti",
    ), how
    on = list(on)
    filter_only = how in ("left_semi", "left_anti")
    small = driver_tables(
        [left, right],
        None if driver_threshold is None
        else min(driver_threshold, grouping.DRIVER_THRESHOLD),
    )
    if small is not None:
        return driver_dataset(join_arrow(*small, on, how))
    # probe-free schema resolution (see functions/dsschema.py); reuse the
    # materialized handle when resolution had to execute the input
    left_schema, left = dataset_schema(left)
    right_schema, right = dataset_schema(right)
    out_schema, left_only_cols, right_payload = _join_schema(
        left_schema, right_schema, on, how)
    out_fields = list(out_schema)
    left_cols = left_schema.names

    def tag(side: int, add_cols: list[tuple[str, pa.DataType]]):
        def body(batch: pa.Table) -> pa.Table:
            cols = {name: batch.column(name) for name in batch.schema.names}
            for name, typ in add_cols:
                cols[name] = pa.nulls(len(batch), typ)
            cols[_SIDE] = pa.array([side] * len(batch), type=pa.int8())
            # fixed column order so the union schemas align
            ordered = {f.name: cols[f.name] for f in out_fields if f.name in cols}
            ordered[_SIDE] = cols[_SIDE]
            return pa.Table.from_pydict(ordered)

        return body

    left_tagged = left.map_batches(
        tag(0, [(f.name, f.type) for f in out_fields if f.name in right_payload]),
        batch_format="pyarrow",
    )
    if filter_only:
        # the right side only needs its key columns on the wire
        right = right.select_columns(on)
    right_tagged = right.map_batches(
        tag(
            1,
            [
                (f.name, f.type)
                for f in out_fields
                if f.name in left_cols and f.name not in on
            ],
        ),
        batch_format="pyarrow",
    )

    def merge_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(group.column(_SIDE), 0)
        lhs = group.filter(lmask).select(on + left_only_cols)
        rhs = group.filter(pc.invert(lmask)).select(on + right_payload)
        return join_tables(lhs, rhs, on, how, out_schema)

    return bucketed_bucket_map(
        left_tagged.union(right_tagged), on, merge_bucket,
        num_buckets=num_partitions, empty_schema=out_schema,
        driver_threshold=driver_threshold, body_format="pyarrow",
    )


def bloom_semi_join(left, right, on: list[str] | tuple[str, ...],
                    how: str = "left_semi", num_bits: int = 1 << 23,
                    num_hashes: int = 4, num_partitions: int = 32,
                    broadcast_keys_max: int = 2_000_000):
    """Semi/anti join against a smaller right side, size-adaptive — the
    100-TB shape for "big fact table vs bounded key set".

    The RIGHT side's key columns are scanned ONCE (projected +
    materialized; by contract right is the smaller side).  Then:

    * right <= ``broadcast_keys_max`` rows: the exact distinct key set
      is broadcast via ``ray.put`` and ONE stateless ``map_batches``
      filters left — zero shuffle, no false positives, so no residual
      join at all (a Bloom bitmap would only add error here).
    * larger right: a packed Bloom bitmap is built per block
      (vectorized double hashing), OR-merged on the driver (bounded:
      blocks x num_bits/8 bytes), and broadcast.  Rows failing any of
      the ``num_hashes`` bits are DEFINITELY not in right: for
      ``left_semi`` they are dropped before the shuffle, for
      ``left_anti`` they are emitted directly with zero shuffle.  Only
      the Bloom-positive residue (true matches + ~(1-e^(-kn/m))^k false
      positives) pays the exact ``hash_join``, which removes false
      positives.

    Output is exactly ``hash_join(left, right.select(on), on, how)`` in
    both regimes (incl. its null-keys-match-null-keys semantics).
    """
    assert how in ("left_semi", "left_anti"), how
    import numpy as np
    import ray

    from knowledge_graph_ray.functions.hashing import hash_rows_u64

    on = list(on)
    right_keys = right.select_columns(on).materialize()

    n_right = right_keys.count()
    if n_right == 0:
        # semi vs nothing = nothing; anti vs nothing = everything
        if how == "left_anti":
            return left
        return left.map_batches(lambda b: b.slice(0, 0),
                                batch_format="pyarrow")

    if n_right <= broadcast_keys_max:
        kdf = right_keys.to_pandas().drop_duplicates()
        key_index = pd.MultiIndex.from_frame(kdf[on])
        keys_ref = ray.put(key_index)

        def probe(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return b
            idx = ray.get(keys_ref)
            mask = pd.MultiIndex.from_frame(
                b.select(on).to_pandas()
            ).isin(idx)
            if how == "left_anti":
                mask = ~mask
            return b.filter(pa.array(mask))

        return left.map_batches(probe, batch_format="pyarrow")

    nbytes = num_bits // 8

    def build_bitmap(b: pa.Table) -> pa.Table:
        bitmap = np.zeros(nbytes, dtype=np.uint8)
        if len(b):
            h1 = hash_rows_u64(b, on, seed=11)
            h2 = hash_rows_u64(b, on, seed=23) | 1  # odd -> full cycle
            for i in range(num_hashes):
                pos = (h1 + i * h2) % num_bits
                np.bitwise_or.at(bitmap, pos >> 3,
                                 np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bitmap": pa.array([bitmap.tobytes()],
                                            type=pa.large_binary())})

    def or_bitmaps(b: pa.Table) -> pa.Table:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for buf in b.column("bitmap").to_pylist():
            acc |= np.frombuffer(buf, dtype=np.uint8)
        return pa.table({"bitmap": pa.array([acc.tobytes()],
                                            type=pa.large_binary())})

    # tree-OR: one distributed combine level folds 64 per-block bitmaps
    # per task, so the driver pull is blocks/64 x num_bits/8 bytes (the
    # unguarded blocks x 1MiB pull was the 100TB weak spot)
    parts = (right_keys.map_batches(build_bitmap, batch_format="pyarrow")
             .map_batches(or_bitmaps, batch_size=64,
                          batch_format="pyarrow")
             .to_pandas())
    merged = np.zeros(nbytes, dtype=np.uint8)
    if "bitmap" in parts.columns:  # empty right -> no partial bitmaps
        for buf in parts["bitmap"]:
            merged |= np.frombuffer(buf, dtype=np.uint8)
    bitmap_ref = ray.put(merged)

    def bloom_mask(b: pa.Table) -> "np.ndarray":
        bm = ray.get(bitmap_ref)
        h1 = hash_rows_u64(b, on, seed=11)
        h2 = hash_rows_u64(b, on, seed=23) | 1
        ok = np.ones(len(b), dtype=bool)
        for i in range(num_hashes):
            pos = (h1 + i * h2) % num_bits
            bits = (bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
            ok &= bits.astype(bool)
        return ok

    def keep_positive(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(bloom_mask(b))) if len(b) else b

    def keep_negative(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(~bloom_mask(b))) if len(b) else b

    positives = left.map_batches(keep_positive, batch_format="pyarrow")
    exact = hash_join(positives, right_keys, on, how=how,
                      num_partitions=num_partitions)
    if how == "left_semi":
        return exact
    definite = left.map_batches(keep_negative, batch_format="pyarrow")
    return definite.union(exact)


def intersect_distinct(left, right, columns: list[str],
                       num_partitions: int = 32):
    """SQL ``INTERSECT`` (distinct rows present in BOTH inputs) over
    ``columns`` — distinct-combiner left, then one semi membership test.
    Both inputs must expose ``columns`` (rename upstream with
    ``project``)."""
    from knowledge_graph_ray.functions.agg import distinct_rows

    l_d = distinct_rows(left.select_columns(columns), columns)
    return bloom_semi_join(l_d, right, on=columns, how="left_semi",
                           num_partitions=num_partitions)


def except_distinct(left, right, columns: list[str],
                    num_partitions: int = 32):
    """SQL ``EXCEPT`` (distinct left rows absent from right) over
    ``columns`` — distinct left side, size-adaptive anti membership
    test (right needs no distinct pass: anti only tests membership)."""
    from knowledge_graph_ray.functions.agg import distinct_rows

    l_d = distinct_rows(left.select_columns(columns), columns)
    return bloom_semi_join(l_d, right, on=columns, how="left_anti",
                           num_partitions=num_partitions)


def cross_join(left, right, broadcast_rows_max: int = 100_000):
    """CROSS JOIN with a broadcast right side: every left batch pairs
    with the full (small) right table inside one stateless
    ``map_batches`` — output grows |left| x |right| rows but the right
    table ships ONCE via ``ray.put``, and the cartesian expansion is
    two vectorized takes (no Python row loop).  Guarded: raises when
    right exceeds ``broadcast_rows_max`` (an unbroadcastable cartesian
    at scale is almost always a query bug; shard the left and loop if
    you really mean it).  Column names must be disjoint (asserted).
    """
    import numpy as np
    import ray

    right_mat = right.materialize()
    n_right = right_mat.count()
    if n_right > broadcast_rows_max:
        raise ValueError(
            f"cross_join: right side has {n_right} rows "
            f"(> broadcast_rows_max={broadcast_rows_max})"
        )
    if n_right:
        rtab = pa.concat_tables(
            [ray.get(r) for r in right_mat.to_arrow_refs()]
        )
    else:
        rtab = None
    if rtab is None:
        # empty right -> empty cross product, schema = left + right
        rschema, _ = dataset_schema(right_mat)

        def empty(b: pa.Table) -> pa.Table:
            out = b.slice(0, 0)
            for f in rschema:
                out = out.append_column(f.name, pa.nulls(0, f.type))
            return out

        return left.map_batches(empty, batch_format="pyarrow")
    # disjointness checked ONCE on the driver (like hash_join), before
    # any left work runs — not per batch inside worker tasks
    left_schema, left = dataset_schema(left)
    overlap = set(left_schema.names) & set(rtab.schema.names)
    assert not overlap, f"rename columns before cross_join: {overlap}"

    ref = ray.put(rtab)

    def body(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            rt = ray.get(ref)
            out = b
            for f in rt.schema:
                out = out.append_column(f.name, pa.nulls(0, f.type))
            return out
        rt = ray.get(ref)
        nl, nr = len(b), len(rt)
        li = np.repeat(np.arange(nl), nr)
        ri = np.tile(np.arange(nr), nl)
        out = b.take(pa.array(li))
        for f in rt.schema:
            out = out.append_column(f.name, rt.column(f.name).take(
                pa.array(ri)))
        return out

    return left.map_batches(body, batch_format="pyarrow")


def skew_join(left, right, on: list[str] | tuple[str, ...],
              how: str = "inner", hot_min_rows: int = 100_000,
              hot_keys_max: int = 4096,
              hot_right_rows_max: int = 1_000_000,
              num_partitions: int = 32):
    """Skew-adaptive join — the explicit hot-key escape hatch for
    large x large joins where a few keys carry most of the left side
    (the "hot entity" shape the canonicalize combiners handle on the
    aggregate side).

    ``hash_join`` colocates ALL rows of a key in one bucket task: a key
    holding 30% of a 10^12-row fact table is a guaranteed straggler or
    OOM.  skew_join splits the plan by measured key frequency:

    1. One combiner pass counts left keys (partials only cross the
       wire); keys with >= ``hot_min_rows`` rows — at most
       left_rows / hot_min_rows of them, further capped to the
       ``hot_keys_max`` hottest — are pulled to the driver (bounded
       driver pull by construction, never the key space).
    2. The RIGHT rows of those hot keys (guarded by
       ``hot_right_rows_max``) are broadcast once via ``ray.put``; hot
       left rows join them vectorized INSIDE map_batches — they never
       enter a shuffle, so the hot key's rows stay spread across all
       input blocks instead of concentrating in one task.
    3. Cold keys take the ordinary partitioned ``hash_join``.
    4. The union is exactly ``hash_join(left, right, on, how)`` row-set
       (pytest-proven on a 90%-hot-key input).

    Supports ``inner`` and ``left_outer``.  Falls back to plain
    hash_join when no key is hot, or when the hot right side exceeds
    the broadcast budget (a hot LEFT key with a huge right side means
    the output itself explodes — no partitioning fixes that).

    Cost note: the left side is scanned three times (key-frequency
    pass, hot pass, cold pass) and the right twice (hot split + cold
    split) — at scale these are streaming reads, the price of removing
    an unbounded single-task concentration.
    """
    assert how in ("inner", "left_outer"), how
    import numpy as np  # noqa: F401  (vectorized paths below)
    import ray

    from knowledge_graph_ray.functions.agg import grouped_agg

    on = list(on)
    counts = grouped_agg(left.select_columns(on), on,
                         [("__n", None, "count")])
    hot_ds = counts.map_batches(
        lambda t: t.filter(pa.compute.greater_equal(
            t.column("__n"), pa.scalar(hot_min_rows, pa.int64()))),
        batch_format="pyarrow",
    )
    hot_df = (hot_ds.sort("__n", descending=True).limit(hot_keys_max)
              .to_pandas())
    if hot_df.empty:
        return hash_join(left, right, on=on, how=how,
                         num_partitions=num_partitions)

    hot_index = pd.MultiIndex.from_frame(hot_df[on])
    hot_ref = ray.put(hot_index)

    def split(keep_hot: bool):
        def body(batch: pa.Table) -> pa.Table:
            idx = ray.get(hot_ref)
            df_keys = batch.select(on).to_pandas()
            mask = pd.MultiIndex.from_frame(df_keys).isin(idx)
            if not keep_hot:
                mask = ~mask
            return batch.filter(pa.array(mask))

        return body

    # BOUNDED probe: limit() streams with early stop, so at most
    # hot_right_rows_max+1 hot-right rows ever materialize — an
    # over-budget hot right is rejected without pinning it (and the
    # under-budget case reuses the same handle for the broadcast pull,
    # one execution total)
    right_hot = right.map_batches(split(True), batch_format="pyarrow") \
        .limit(hot_right_rows_max + 1).materialize()
    if right_hot.count() > hot_right_rows_max:
        return hash_join(left, right, on=on, how=how,
                         num_partitions=num_partitions)

    # schema bookkeeping identical to hash_join so both paths align
    left_schema, left = dataset_schema(left)
    right_schema, right2 = dataset_schema(right)
    right_payload = [c for c in right_schema.names if c not in on]
    overlap = set(left_schema.names) & set(right_payload)
    assert not overlap, f"rename right columns before joining: {overlap}"
    out_fields = [left_schema.field(c) for c in left_schema.names] + [
        right_schema.field(c) for c in right_payload
    ]
    out_schema = pa.schema(out_fields)

    # column-stable even when NO hot key exists in right (hot left keys
    # with zero right matches are legal: inner drops them, left_outer
    # null-fills) — an empty to_pandas() would lose the columns
    rhs_df = right_hot.to_pandas()
    if rhs_df.empty:
        rhs_df = pa.schema(
            [right_schema.field(c) for c in on + right_payload]
        ).empty_table().to_pandas()
    rhs_df = rhs_df[on + right_payload]
    rhs_ref = ray.put(rhs_df)

    def join_hot(batch: pa.Table) -> pa.Table:
        idx = ray.get(hot_ref)
        lhs = batch.to_pandas()
        mask = pd.MultiIndex.from_frame(lhs[on]).isin(idx)
        lhs = lhs[mask]
        rhs = ray.get(rhs_ref)
        merged = lhs.merge(rhs, on=on,
                           how="left" if how == "left_outer" else "inner")
        return pa.Table.from_arrays(
            [_to_arrow_col(merged[f.name], f) for f in out_fields],
            schema=out_schema,
        )

    hot_result = left.map_batches(join_hot, batch_format="pyarrow")
    cold_result = hash_join(
        left.map_batches(split(False), batch_format="pyarrow"),
        right2.map_batches(split(False), batch_format="pyarrow"),
        on=on, how=how, num_partitions=num_partitions,
    )
    return hot_result.union(cold_result)


def size_adaptive_join(left, right, on: list[str] | tuple[str, ...],
                       how: str = "inner", broadcast_max: int = 1_000_000,
                       right_size_hint: "int | None" = None,
                       num_partitions: int = 32):
    """hash_join semantics with the size-adaptive broadcast fast path.

    When the right side is provably small (``right_size_hint`` or one
    streaming count <= ``broadcast_max`` rows) it is collected once,
    broadcast via ``ray.put``, and joined vectorized inside a stateless
    ``map_batches`` over left — ZERO shuffle, left never repartitions.
    Otherwise the ordinary partitioned ``hash_join`` runs.  Same output
    row-set in both regimes (the broadcast body is the same pandas
    merge/isin the bucket body runs).

    Probe cost: without ``right_size_hint`` the probe is a BOUNDED
    ``limit(broadcast_max+1)`` materialize — the streaming executor
    stops early, so at most broadcast_max+1 projected right rows ever
    pin in the object store regardless of right's true size; a small
    right reuses the same handle for the broadcast pull (one execution
    total), an over-budget right streams through hash_join untouched.
    Pass the hint when the caller already knows the bound to skip even
    the bounded scan (the repo's standard probe-skip convention).
    """
    assert how in ("inner", "left_outer", "left_semi", "left_anti"), how
    import ray

    on = list(on)
    filter_only = how in ("left_semi", "left_anti")
    if right_size_hint is not None and right_size_hint > broadcast_max:
        # hash_join projects/filters right itself; its output column set
        # (on + all non-key right columns) equals the broadcast regime's
        return hash_join(left, right, on=on, how=how,
                         num_partitions=num_partitions)

    # semi/anti only ever needs right's key columns on the wire — prune
    # before the probe when the plan knows its schema without executing
    # (skip the no-op select: re-wrapping a MaterializedDataset makes it
    # lazy again and the probe below would relaunch an executor — the
    # tax iterative callers like BFS pay every hop)
    probe_src = right
    if filter_only:
        psch = plan_schema(right)
        if psch is not None and psch.names != on:
            probe_src = right.select_columns(on)

    # an already-materialized right knows its count for free — decide
    # the regime without a probe (iterative callers pass materialized
    # frontiers every round)
    from ray.data.dataset import MaterializedDataset

    if right_size_hint is None and isinstance(probe_src, MaterializedDataset):
        right_size_hint = probe_src.count()
        if right_size_hint > broadcast_max:
            return hash_join(left, right, on=on, how=how,
                             num_partitions=num_partitions)

    # ONE bounded execution resolves schema + blocks together.  Ray
    # 2.49's ``to_arrow_refs`` on a LAZY dataset launches two executors
    # (one for the blocks, a second for ``.schema()``), and resolving
    # the right schema up front costs a third — materializing the
    # bounded probe first makes all three metadata-only (and a no-op on
    # an already-materialized right).
    if right_size_hint is not None:
        # hint proves smallness: the materialize is bounded by the hint
        probe = probe_src.materialize()
    else:
        # at most broadcast_max+1 rows ever pin in the object store
        # regardless of right's true size; a small right reuses the same
        # handle for the broadcast pull (one execution total)
        probe = probe_src.limit(broadcast_max + 1).materialize()
        if probe.count() > broadcast_max:
            return hash_join(left, right, on=on, how=how,
                             num_partitions=num_partitions)
    right_schema, probe = dataset_schema(probe)  # materialized: no probe
    if filter_only:
        cols = list(on)
        right_payload: list[str] = []
    else:
        right_payload = [c for c in right_schema.names if c not in on]
        cols = on + right_payload
    # LEFT schema is resolved lazily, per batch, inside the broadcast
    # body: resolving it here would materialize the whole lazy prefix at
    # EVERY chained join (N full materializations for an N-join DAG
    # instead of one streaming pass).  A best-effort non-executing check
    # still catches column overlap at call time when the plan knows it.
    left_plan = plan_schema(left)
    if left_plan is not None and not filter_only:
        overlap = set(left_plan.names) & set(right_payload)
        assert not overlap, f"rename right columns before joining: {overlap}"

    # Arrow-native collect: exact right types survive (a pandas round
    # trip would drift large_string/dictionary keys and crash the Acero
    # fast path) and an EMPTY right keeps its columns (inner/semi then
    # yield empty, anti all of left, left_outer null payloads — same as
    # the shuffle regime)
    rhs_schema = pa.schema([right_schema.field(c) for c in cols])
    blocks = ray.get(probe.to_arrow_refs())
    blocks = [b.select(cols).cast(rhs_schema) for b in blocks if b.num_rows]
    rhs_tab = (pa.concat_tables(blocks) if blocks
               else rhs_schema.empty_table())
    if filter_only:
        # distinct keys only — semi/anti never needs dup right rows
        rhs_tab = rhs_tab.group_by(cols).aggregate([])
        rhs_tab = rhs_tab.select(cols).cast(rhs_schema)
    # Acero (pa.Table.join) treats null keys as non-matching; the bucket
    # body's pandas merge matches null==null.  The fast path is only
    # taken when NEITHER side has null keys, so both regimes stay
    # row-set identical for every input.
    rhs_null_free = (_acero_supported(rhs_schema)
                     and all(rhs_tab.column(c).null_count == 0 for c in on))
    acero_how = {"inner": "inner", "left_outer": "left outer",
                 "left_semi": "left semi", "left_anti": "left anti"}[how]
    rhs_ref = ray.put(rhs_tab)
    payload_fields = [rhs_schema.field(c) for c in right_payload]

    def body(batch: pa.Table) -> pa.Table:
        # out fields derive from the RUNTIME batch schema (left stays a
        # lazy streaming chain; see the call-time comment above)
        overlap = set(batch.schema.names) & set(right_payload)
        assert not overlap, f"rename right columns before joining: {overlap}"
        out_fields = list(batch.schema) + payload_fields
        out_schema = pa.schema(out_fields)
        rhs = ray.get(rhs_ref)  # node-local cached
        if rhs_null_free and _acero_supported(batch.schema) and all(
            batch.column(c).null_count == 0 for c in on
        ):
            joined = batch.join(rhs, keys=on, join_type=acero_how)
            return pa.table(
                {f.name: joined.column(f.name).cast(f.type)
                 for f in out_fields}
            )
        lhs = batch.to_pandas()
        rdf = rhs.to_pandas()
        if filter_only:
            mask = pd.MultiIndex.from_frame(lhs[on]).isin(
                pd.MultiIndex.from_frame(rdf[on])
            )
            merged = lhs[mask] if how == "left_semi" else lhs[~mask]
        else:
            merged = lhs.merge(
                rdf, on=on, how="left" if how == "left_outer" else "inner"
            )
        return pa.Table.from_arrays(
            [_to_arrow_col(merged[f.name], f) for f in out_fields],
            schema=out_schema,
        )

    return left.map_batches(body, batch_format="pyarrow")


def _key_counts(ds, on: list[str], count_col: str):
    from knowledge_graph_ray.functions.agg import grouped_agg

    return grouped_agg(ds.select_columns(on), on,
                       [(count_col, None, "count")])


def _repeat_keys(batch: pa.Table, on: list[str], times_col: str) -> pa.Table:
    import numpy as np

    times = batch.column(times_col).to_numpy(zero_copy_only=False)
    times = np.clip(times, 0, None).astype(np.int64)
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), times)
    taken = batch.select(on).take(pa.array(idx))
    return taken


def intersect_all(left, right, on: list[str]):
    """SQL INTERSECT ALL (bag semantics): each key row appears
    min(multiplicity_left, multiplicity_right) times — the DISTINCT
    variant is ``intersect_distinct``.

    Scale shape: both sides collapse to (key, count) through the count
    combiner before the one key shuffle; replication happens on the
    already-bounded joined key table (vectorized np.repeat)."""
    import pyarrow.compute as pc

    ca = _key_counts(left, on, "_na")
    cb = _key_counts(right, on, "_nb")
    j = hash_join(ca, cb, on=on, how="inner")

    def body(batch: pa.Table) -> pa.Table:
        m = pc.min_element_wise(batch.column("_na"), batch.column("_nb"))
        return _repeat_keys(batch.append_column("_m", m), on, "_m")

    return j.map_batches(body, batch_format="pyarrow")


def except_all(left, right, on: list[str]):
    """SQL EXCEPT ALL (bag semantics): each key row appears
    max(multiplicity_left - multiplicity_right, 0) times."""
    import pyarrow.compute as pc

    ca = _key_counts(left, on, "_na")
    cb = _key_counts(right, on, "_nb")
    j = hash_join(ca, cb, on=on, how="left_outer")

    def body(batch: pa.Table) -> pa.Table:
        nb = pc.coalesce(batch.column("_nb"),
                         pa.scalar(0, type=pa.int64()))
        m = pc.subtract(batch.column("_na").cast(pa.int64()),
                        nb.cast(pa.int64()))
        return _repeat_keys(batch.append_column("_m", m), on, "_m")

    return j.map_batches(body, batch_format="pyarrow")
