"""Partial-aggregate groupby: combiner in map_batches, tiny final merge.

Ray's native ``groupby(keys).aggregate(...)`` pays a full sort-based
shuffle of the INPUT rows (~0.5-4s of fixed latency at 32 CPUs even for
six output groups).  For the classic algebraic aggregates
(sum/count/min/max/mean) the right scale shape is: combine per batch
inside ``map_batches`` (one partial row per key per batch — the shuffle
then moves groups x batches rows, not input rows), and merge partials
with the size-adaptive bucketed machinery (driver pass when the partial
set is provably tiny, bucket shuffle otherwise).

Mean decomposes to (sum, count).  Sums over integer input columns
accumulate in int64 (exact); floats in float64.  Null handling matches
SQL/Ray: sum/mean/min/max skip nulls, ``count`` counts rows, and a
group whose values are ALL null sums to NULL (``min_count=1``), not 0.

Schema note: the partial schema is derived from ``batch.schema`` INSIDE
the combiner, never via ``ds.schema()`` — a driver-side schema fetch on
a lazy dataset executes a limit-1 probe whose task Ray CANCELS once the
row arrives, and an async cancellation can interrupt a module import
mid-way inside the worker (observed: a half-initialized ``polars`` left
in ``sys.modules`` poisoning every later task in that process).  Only
the empty-input fallback uses the non-executing
``schema(fetch_if_missing=False)``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions.grouping import (
    DRIVER_THRESHOLD,
    bucketed_bucket_map,
)

_KINDS = ("sum", "count", "min", "max", "mean")


def grouped_agg(ds, keys: list[str],
                specs: list[tuple[str, "str | None", str]],
                num_buckets: int = 16,
                driver_threshold: "int | None" = DRIVER_THRESHOLD,
                size_hint: "int | None" = None):
    """-> Dataset[keys + one column per spec].

    ``specs``: ordered ``(out_name, in_col, kind)`` tuples, kind in
    sum/count/min/max/mean (``in_col=None`` for count = row count).
    Output column order is keys then spec order.
    """
    for _, _, kind in specs:
        assert kind in _KINDS, kind

    # partial column plan: partial_name -> (in_col|None, how)
    partial_cols: dict[str, tuple] = {}
    for out, col, kind in specs:
        if kind == "mean":
            partial_cols[f"__{out}_s"] = (col, "sum")
            partial_cols[f"__{out}_c"] = (col, "vcount")
        elif kind == "count":
            partial_cols[f"__{out}_c"] = (None, "count")
        elif kind == "sum":
            partial_cols[f"__{out}_s"] = (col, "sum")
        else:  # min / max
            partial_cols[f"__{out}_{kind}"] = (col, kind)

    needed = sorted(
        {c for c, _ in partial_cols.values() if c is not None} | set(keys)
    )

    def _acc_type(t: pa.DataType) -> pa.DataType:
        return pa.int64() if pa.types.is_integer(t) else pa.float64()

    def _partial_schema(in_schema: pa.Schema) -> pa.Schema:
        in_types = {f.name: f.type for f in in_schema}
        fields = [(k, in_types[k]) for k in keys]
        for pname, (col, how) in partial_cols.items():
            if how in ("count", "vcount"):
                fields.append((pname, pa.int64()))
            elif how == "sum":
                fields.append((pname, _acc_type(in_types[col])))
            else:
                fields.append((pname, in_types[col]))
        return pa.schema(fields)

    def partial(batch: pa.Table) -> pa.Table:
        psch = _partial_schema(batch.schema)
        if len(batch) == 0:
            return psch.empty_table()
        df = batch.select(needed).to_pandas()
        gb = df.groupby(keys[0] if len(keys) == 1 else keys,
                        sort=False, dropna=False)
        pieces = {}
        for pname, (col, how) in partial_cols.items():
            if how == "count":
                pieces[pname] = gb.size()
            elif how == "vcount":  # non-null value count (mean denominator)
                pieces[pname] = gb[col].count()
            elif how == "sum":
                # min_count=1: an all-null group sums to NULL (SQL/Ray
                # Sum semantics), not pandas' default 0
                pieces[pname] = gb[col].sum(min_count=1)
            else:
                pieces[pname] = gb[col].min() if how == "min" else gb[col].max()
        out = pd.DataFrame(pieces).reset_index()
        return pa.Table.from_pandas(out, schema=psch, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(bucket: pa.Table) -> pa.Table:
        # output schema from the PARTIAL arrow schema (exact accumulator
        # types), not pandas inference — a bucket whose sum partials are
        # all NULL would otherwise come out float64 (NaN) while other
        # buckets stay int64, yielding mixed-type blocks (ADVICE r3)
        psch = bucket.schema
        out_fields = [(k, psch.field(k).type) for k in keys]
        for out, _col, kind in specs:
            if kind == "mean":
                out_fields.append((out, pa.float64()))
            elif kind == "count":
                out_fields.append((out, pa.int64()))
            elif kind == "sum":
                out_fields.append((out, psch.field(f"__{out}_s").type))
            else:
                out_fields.append((out, psch.field(f"__{out}_{kind}").type))
        out_schema = pa.schema(out_fields)

        df = bucket.to_pandas()
        gb = df.groupby(keys[0] if len(keys) == 1 else keys,
                        sort=False, dropna=False)
        merged = {}
        for pname, (_c, how) in partial_cols.items():
            if how == "sum":
                # all partials NULL (all-null group) -> NULL, like SQL
                merged[pname] = gb[pname].sum(min_count=1)
            elif how in ("count", "vcount"):
                merged[pname] = gb[pname].sum()
            elif how == "min":
                merged[pname] = gb[pname].min()
            else:
                merged[pname] = gb[pname].max()
        res = pd.DataFrame(merged).reset_index()
        cols = {k: res[k] for k in keys}
        for out, _col, kind in specs:
            if kind == "mean":
                cols[out] = (res[f"__{out}_s"] / res[f"__{out}_c"]).astype(
                    "float64"
                )
            elif kind == "count":
                cols[out] = res[f"__{out}_c"].astype("int64")
            elif kind == "sum":
                cols[out] = res[f"__{out}_s"]
            else:
                cols[out] = res[f"__{out}_{kind}"]
        return pa.Table.from_pandas(pd.DataFrame(cols), schema=out_schema,
                                    preserve_index=False)

    # empty-input fallback schema from the NON-executing schema fetch
    # (parquet reads know it from metadata; unknown -> string keys)
    empty_schema = None
    try:
        from knowledge_graph_ray.functions.dsschema import plan_schema

        base = plan_schema(ds)
        if isinstance(base, pa.Schema):
            in_types = {f.name: f.type for f in base}
            fields = [(k, in_types[k]) for k in keys]
            for out, col, kind in specs:
                if kind == "mean":
                    fields.append((out, pa.float64()))
                elif kind == "count":
                    fields.append((out, pa.int64()))
                elif kind == "sum":
                    fields.append((out, _acc_type(in_types[col])))
                else:
                    fields.append((out, in_types[col]))
            empty_schema = pa.schema(fields)
    except Exception:
        empty_schema = None
    if empty_schema is None:
        empty_schema = pa.schema(
            [(k, pa.string()) for k in keys]
            + [
                (out, pa.int64() if kind == "count" else pa.float64())
                for out, _c, kind in specs
            ]
        )

    return bucketed_bucket_map(
        partials, keys, final, num_buckets=num_buckets,
        empty_schema=empty_schema, driver_threshold=driver_threshold,
        size_hint=size_hint, body_format="pyarrow",
    )


def distinct_rows(ds, keys: list[str], num_buckets: int = 16,
                  driver_threshold: "int | None" = None,
                  empty_schema: "pa.Schema | None" = None):
    """Distinct ``keys`` rows, combiner-first.

    Per-batch Arrow hash-distinct (``group_by(keys).aggregate([])``)
    bounds the shuffle to distinct rows per batch, then one bucket
    shuffle + per-bucket distinct finishes — cheaper than a count
    aggregate when only distinctness is needed (no count column on the
    wire), and staying in Arrow keeps exact key types (nulls group
    together, like SQL ``DISTINCT``).  Row order is unspecified.
    """

    def _distinct(t: pa.Table) -> pa.Table:
        return t.group_by(keys).aggregate([]).select(keys)

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.select(keys)
        return _distinct(batch.select(keys))

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(bucket: pa.Table) -> pa.Table:
        return _distinct(bucket)

    if empty_schema is None:
        from knowledge_graph_ray.functions.dsschema import plan_schema

        sch = plan_schema(ds)
        if sch is not None:
            empty_schema = pa.schema([(k, sch.field(k).type) for k in keys])
        else:
            empty_schema = pa.schema([(k, pa.string()) for k in keys])

    return bucketed_bucket_map(
        partials, keys, final, num_buckets=num_buckets,
        empty_schema=empty_schema, driver_threshold=driver_threshold,
        body_format="pyarrow",
    )




def rollup_agg(ds, keys: list[str], specs: list[tuple[str, "str | None", str]],
               num_buckets: int = 16,
               driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """GROUP BY ROLLUP(keys): every prefix level of ``keys`` down to the
    grand total, in ONE input scan.

    The finest level runs ``grouped_agg`` over the input; every coarser
    level re-aggregates the PREVIOUS level's (group-cardinality-sized)
    output — sums of sums, sums of counts, min of mins, max of maxes —
    so the input is never re-read and no extra wide shuffle runs.
    ``specs`` kinds are limited to the re-aggregable sum/count/min/max
    (mean does not compose; derive it from sum+count downstream).

    Grouped-out key columns are emitted as NULL with a ``grouping_id``
    bitmask column (SQL ``GROUPING(keys...)``) so rollup NULLs stay
    distinguishable from genuine NULL key values — the same mechanism
    SQL uses.
    """
    for _, _, kind in specs:
        assert kind in ("sum", "count", "min", "max"), (
            f"rollup_agg: {kind} does not re-aggregate; use sum/count/"
            "min/max and derive means from sum+count"
        )

    finest, fin_schema, empty_total = _finest_level(
        ds, keys, specs, num_buckets, driver_threshold
    )
    key_types = {k: fin_schema.field(k).type for k in keys}
    tag = _level_tagger(keys, specs, key_types)

    levels = []
    cur = finest
    for depth in range(len(keys), -1, -1):
        kept = keys[:depth]
        dropped = keys[depth:]
        # grouping_id bitmask: bit i set when keys[i] is grouped out
        gid = sum(1 << (len(keys) - 1 - keys.index(k)) for k in dropped)
        if depth < len(keys):
            if kept:
                # re-aggregate the PREVIOUS level (prefix levels nest);
                # materialize: each level feeds both its tag branch and
                # the next level — group-cardinality sized, so cheap
                cur = grouped_agg(
                    cur, kept, _re_specs(specs),
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold,
                ).materialize()
            else:
                cur = (empty_total if empty_total is not None
                       else _grand_total(finest, specs, driver_threshold))
        levels.append(tag(cur, tuple(dropped), gid))

    out = levels[0]
    for extra in levels[1:]:
        out = out.union(extra)
    return out


def _re_specs(specs):
    """Re-aggregation specs over a level's own output columns — sums of
    sums, min of mins; count partials re-aggregate by SUMMING."""
    return [(out, out, "sum" if kind == "count" else kind)
            for out, _c, kind in specs]


def _finest_level(ds, keys, specs, num_buckets, driver_threshold):
    """-> (materialized finest-level aggregate, its exact schema,
    SQL-parity grand-total for the empty-input case | None).

    The finest level is materialized ONCE: every coarser level and the
    grand total re-read its group-cardinality-sized blocks instead of
    re-executing the input scan per level, and its block schema is the
    authoritative source for the key types the coarser levels' NULL key
    columns must carry (plan_schema is None for lazy mapped inputs and
    would otherwise type them string, splitting the union's schema —
    ADVICE r3)."""
    import ray.data as rd

    from knowledge_graph_ray.functions.dsschema import dataset_schema

    finest = grouped_agg(ds, keys, specs, num_buckets=num_buckets,
                         driver_threshold=driver_threshold).materialize()
    fin_schema, finest = dataset_schema(finest)

    empty_total = None
    if finest.count() == 0:
        # SQL GROUP BY ROLLUP/CUBE over empty input still emits the ()
        # grouping set: one row, NULL sums/mins/maxes, count 0
        fields, row = [], {}
        for out, _c, kind in specs:
            fields.append((out, pa.int64() if kind == "count"
                           else fin_schema.field(out).type))
            row[out] = 0 if kind == "count" else None
        empty_total = rd.from_arrow(
            pa.Table.from_pylist([row], schema=pa.schema(fields))
        )
    return finest, fin_schema, empty_total


def _level_tagger(keys, specs, key_types):
    """Tag one level with its NULL grouped-out keys + grouping_id and
    project to the canonical column order so the level union lines up."""

    def tag(level_ds, dropped: tuple, gid: int):
        def body(b: pa.Table) -> pa.Table:
            for name in dropped:
                b = b.append_column(name, pa.nulls(len(b), key_types[name]))
            b = b.append_column(
                "grouping_id", pa.array([gid] * len(b), type=pa.int64())
            )
            order = keys + [out for out, _c, _k in specs] + ["grouping_id"]
            return b.select(order)

        return level_ds.map_batches(body, batch_format="pyarrow")

    return tag


def _grand_total(finest, specs, driver_threshold):
    """Grand-total via a constant-key ``grouped_agg`` over the finest
    level — fully distributed (the per-batch combiner reduces each block
    to one row; no driver materialization of the aggregate, however many
    groups the finest level has).  NULL-sum semantics (``min_count=1``)
    and the explicit output schema come with ``grouped_agg``."""
    import numpy as np

    const = "__grand"

    def add_const(b: pa.Table) -> pa.Table:
        return b.append_column(
            const, pa.array(np.zeros(len(b), dtype=np.int8))
        )

    keyed = finest.map_batches(add_const, batch_format="pyarrow")
    # the extra const key column is dropped by the level tagger's select
    return grouped_agg(keyed, [const], _re_specs(specs),
                       num_buckets=1, driver_threshold=driver_threshold)


def cube_agg(ds, keys: list[str], specs: list[tuple[str, "str | None", str]],
             num_buckets: int = 16,
             driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """GROUP BY CUBE(keys): every SUBSET of ``keys``, one input scan.

    Same re-aggregation principle as ``rollup_agg``: the finest level
    scans the input once; every subset level re-aggregates the FINEST
    level's group-cardinality output (dropping dimensions is just a
    coarser groupby over it).  2^len(keys) levels — keep ``keys``
    short, as SQL CUBE users do.  Emits the same ``grouping_id``
    bitmask as SQL ``GROUPING(keys...)``.
    """
    from itertools import combinations

    for _, _, kind in specs:
        assert kind in ("sum", "count", "min", "max"), (
            f"cube_agg: {kind} does not re-aggregate"
        )

    finest, fin_schema, empty_total = _finest_level(
        ds, keys, specs, num_buckets, driver_threshold
    )
    key_types = {k: fin_schema.field(k).type for k in keys}
    tag = _level_tagger(keys, specs, key_types)
    re_specs = _re_specs(specs)

    out = None
    for r in range(len(keys), -1, -1):
        for kept in combinations(keys, r):
            dropped = tuple(k for k in keys if k not in kept)
            gid = sum(1 << (len(keys) - 1 - keys.index(k)) for k in dropped)
            if r == len(keys):
                level = finest
            elif r == 0:
                level = (empty_total if empty_total is not None
                         else _grand_total(finest, specs, driver_threshold))
            else:
                level = grouped_agg(finest, list(kept), re_specs,
                                    num_buckets=num_buckets,
                                    driver_threshold=driver_threshold)
            tagged = tag(level, dropped, gid)
            out = tagged if out is None else out.union(tagged)
    return out


def grouping_sets_agg(ds, keys: list[str],
                      sets: list[tuple[str, ...] | list[str]],
                      specs: list[tuple[str, "str | None", str]],
                      num_buckets: int = 16,
                      driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """GROUP BY GROUPING SETS(sets) — the general form ROLLUP and CUBE
    specialize; one input scan.

    ``keys`` fixes the canonical key-column order (and the
    ``grouping_id`` bit positions); each entry of ``sets`` is the subset
    of ``keys`` one grouping set keeps (``()`` = grand total).  The
    finest level (GROUP BY all keys) scans the input once; every
    requested set re-aggregates that group-cardinality output, exactly
    the rollup/cube machinery.  Requested sets may repeat (SQL allows
    it) and arrive in any key order; output rows carry the same
    ``grouping_id`` bitmask as SQL ``GROUPING(keys...)``.
    """
    for _, _, kind in specs:
        assert kind in ("sum", "count", "min", "max"), (
            f"grouping_sets_agg: {kind} does not re-aggregate"
        )
    norm_sets = []
    for s in sets:
        s = tuple(s)
        assert set(s) <= set(keys), f"grouping set {s} not within {keys}"
        # canonical key order within the set
        norm_sets.append(tuple(k for k in keys if k in s))

    finest, fin_schema, empty_total = _finest_level(
        ds, keys, specs, num_buckets, driver_threshold
    )
    key_types = {k: fin_schema.field(k).type for k in keys}
    tag = _level_tagger(keys, specs, key_types)
    re_specs = _re_specs(specs)

    out = None
    for kept in norm_sets:
        dropped = tuple(k for k in keys if k not in kept)
        gid = sum(1 << (len(keys) - 1 - keys.index(k)) for k in dropped)
        if len(kept) == len(keys):
            level = finest
        elif not kept:
            level = (empty_total if empty_total is not None
                     else _grand_total(finest, specs, driver_threshold))
        else:
            level = grouped_agg(finest, list(kept), re_specs,
                                num_buckets=num_buckets,
                                driver_threshold=driver_threshold)
        tagged = tag(level, dropped, gid)
        out = tagged if out is None else out.union(tagged)
    return out


def pivot_agg(ds, keys: list[str], pivot_col: str, pivot_values: list,
              value_col: "str | None", kinds: list[str] = ("count",),
              num_buckets: int = 16,
              driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """PIVOT: one output row per key group, one column per
    (pivot value x kind) — ``<kind>_<value>`` — the SQL
    ``agg(CASE WHEN pivot_col = v THEN value END)`` fan-out.

    Scale shape: the pivot happens INSIDE the per-batch combiner (each
    input row contributes to exactly one masked column), so the shuffle
    moves groups x batches partial rows of |pivot_values| x |kinds|
    columns — never a row explosion, never a second scan per pivot
    value.  ``pivot_values`` is explicit (SQL PIVOT's IN list): at 100TB
    an unbounded value set would make output width data-dependent;
    discover values with a distinct pass upstream if needed.  Rows whose
    pivot value is outside the list are ignored (SQL semantics).
    ``sum`` columns are NULL (not 0) for a group with no matching rows,
    ``count`` columns 0 — SQL's FILTER semantics.
    """
    import pyarrow.compute as pc

    for kind in kinds:
        assert kind in ("sum", "count", "min", "max"), kind
    str_values = [str(v) for v in pivot_values]

    in_cols = list(dict.fromkeys(
        keys + [pivot_col] + ([value_col] if value_col else [])
    ))

    def explode_mask(b: pa.Table) -> pa.Table:
        cols = {k: b.column(k) for k in keys}
        pv = b.column(pivot_col)
        for v, sv in zip(pivot_values, str_values):
            mask = pc.equal(pv, v)
            for kind in kinds:
                name = f"{kind}_{sv}"
                if kind == "count":
                    cols[name] = pc.if_else(
                        pc.fill_null(mask, False),
                        pa.scalar(1, pa.int64()), pa.scalar(0, pa.int64()),
                    )
                else:
                    src = b.column(value_col)
                    cols[name] = pc.if_else(
                        pc.fill_null(mask, False), src,
                        pa.nulls(len(b), src.type),
                    )
        return pa.table(cols)

    masked = ds.select_columns(in_cols).map_batches(
        explode_mask, batch_format="pyarrow"
    )
    specs = []
    for v in str_values:
        for kind in kinds:
            name = f"{kind}_{v}"
            # count partials are already 0/1 ints -> re-aggregate by sum
            specs.append((name, name, "sum" if kind == "count" else kind))
    return grouped_agg(masked, keys, specs, num_buckets=num_buckets,
                       driver_threshold=driver_threshold)


def grouped_string_agg(ds, keys: list[str], value_col: str,
                       order_cols: list[str], sep: str = ",",
                       out_col: str = "agg", num_buckets: int = 16,
                       driver_threshold: "int | None" = None,
                       size_hint: "int | None" = None):
    """SQL ``string_agg(value, sep ORDER BY order_cols)`` per group.

    One shuffle on ``keys``; per bucket one Arrow sort, then the
    per-group concatenation is a SINGLE vectorized Arrow kernel — the
    sorted values become one ListArray via group-boundary offsets and
    ``pyarrow.compute.binary_join`` emits every group's joined string at
    once (no per-group Python ``str.join`` loop).  NULL values are
    skipped like SQL string_agg; a group of all-NULL values yields NULL.
    Output: keys + ``out_col``, one row per group.

    The bucket body runs on the Arrow table directly (no pandas
    round-trip), so nullable integer keys keep their exact type and
    value at any magnitude — there is no float64 2^53 key-range limit.
    """
    import numpy as np
    import pyarrow.compute as pc

    from knowledge_graph_ray.functions.dsschema import dataset_schema

    cols = list(dict.fromkeys(keys + order_cols + [value_col]))
    in_schema, ds = dataset_schema(ds)
    key_fields = [(k, in_schema.field(k).type) for k in keys]
    empty_schema = pa.schema(
        [pa.field(k, t) for k, t in key_fields]
        + [pa.field(out_col, pa.string())]
    )

    def bucket_body(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        idx = pc.sort_indices(
            g, sort_keys=[(c, "ascending") for c in keys + order_cols]
        )
        g = g.take(idx)
        n = g.num_rows
        # group boundaries: a row starts a group when ANY key column's
        # dictionary code differs from the previous row (nulls form one
        # group, like SQL GROUP BY)
        change = np.zeros(n, dtype=bool)
        if n:
            change[0] = True
            for k in keys:
                col = g.column(k)
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                codes = (pc.dictionary_encode(col).indices
                         .fill_null(-1)
                         .to_numpy(zero_copy_only=False).astype(np.int64))
                change[1:] |= codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        head = g.select(keys).take(pa.array(starts, type=pa.int64()))
        vals = g.column(value_col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = pc.cast(vals, pa.string())
        # SQL string_agg skips NULLs: compact them out, remapping offsets
        keep = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        gidx = np.cumsum(change) - 1 if n else np.array([], dtype=np.int64)
        kept_gidx = gidx[keep]
        counts = np.bincount(kept_gidx, minlength=len(starts))
        offsets = np.r_[0, np.cumsum(counts)].astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets), vals.filter(pa.array(keep))
        )
        joined = pc.binary_join(lists, sep)
        # all-NULL group -> NULL (binary_join gives '' for empty lists)
        joined = pc.if_else(pa.array(counts > 0), joined,
                            pa.nulls(len(counts), pa.string()))
        return head.append_column(out_col, joined)

    return bucketed_bucket_map(
        ds.select_columns(cols), keys, bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint, empty_schema=empty_schema,
        body_format="pyarrow",
    )


def histogram_agg(ds, group_cols: list[str], value_col: str,
                  bin_width: float, num_buckets: int = 16,
                  driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """Equi-width histogram per group: one count row per
    (group, floor(value / bin_width)) non-empty bin.

    Pure composition: the bin id is a stateless vectorized column, the
    counting is the per-batch ``grouped_agg`` combiner — the shuffle
    moves (groups x bins) x batches partial rows.  NULL values are
    excluded (SQL count over a NULL bin key would group them; callers
    wanting a NULL bin can fill upstream).  Output: group_cols +
    ``bin`` (int64 floor index) + ``n``.
    """
    import pyarrow.compute as pc

    cols = list(dict.fromkeys(group_cols + [value_col]))

    def add_bin(b: pa.Table) -> pa.Table:
        v = b.column(value_col).cast(pa.float64())
        binned = pc.floor(pc.divide(v, bin_width)).cast(pa.int64())
        b = b.append_column("bin", binned)
        return b.filter(pc.is_valid(binned)).select(group_cols + ["bin"])

    binned = ds.select_columns(cols).map_batches(
        add_bin, batch_format="pyarrow"
    )
    return grouped_agg(binned, group_cols + ["bin"],
                       [("n", None, "count")], num_buckets=num_buckets,
                       driver_threshold=driver_threshold)


def grouped_corr(ds, keys: list[str], x_col: str, y_col: str,
                 out_col: str = "r", num_buckets: int = 16,
                 driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """Pearson correlation per group from EXACT integer sums.

    ``x_col``/``y_col`` must be integer (scale floats upstream): the
    six sufficient statistics (n, Σx, Σy, Σxy, Σx², Σy²) then
    accumulate exactly in int64 through the ordinary grouped_agg
    combiner — no order-dependent float accumulation — and the final

        r = (n·Σxy − Σx·Σy) / (sqrt(n·Σx² − Σx²̂) · sqrt(n·Σy² − Σy²̂))

    is one fixed float64 expression over those exact operands, so it is
    bit-reproducible against a SQL oracle writing the same tree
    (sqrt is IEEE correctly-rounded on both engines).  Groups with zero
    variance in either column yield NULL (SQL corr semantics).

    EXACTNESS BOUND (documented, not silent): int64 accumulation needs
    ``max|x| * max|y| * rows_per_group < 2^63`` (likewise x², y²) — a
    SQL BIGINT sum would promote to HUGEINT where this wraps.  Each
    batch RAISES if a single product can exceed 2^62 (the blatant
    case); for larger magnitudes pre-scale or bucket the values
    upstream — the trade for bit-exact floats is a bounded domain,
    the same contract as running_sum's integer cents.
    """
    import numpy as np
    import pyarrow.compute as pc

    cols = list(dict.fromkeys(keys + [x_col, y_col]))

    def expand(b: pa.Table) -> pa.Table:
        # SQL corr() is pairwise-complete: a row with NULL in EITHER
        # column is excluded from ALL six statistics (a count-all n
        # against null-skipping sums would silently mix row sets)
        b = _pairwise_complete(b, x_col, y_col)
        x = b.column(x_col).cast(pa.int64())
        y = b.column(y_col).cast(pa.int64())
        if len(b):
            mx = max(abs(pc.min(x).as_py() or 0), abs(pc.max(x).as_py() or 0))
            my = max(abs(pc.min(y).as_py() or 0), abs(pc.max(y).as_py() or 0))
            if max(mx * my, mx * mx, my * my) > 2 ** 62:
                raise ValueError(
                    "grouped_corr: |x|*|y| products can overflow int64; "
                    "pre-scale the inputs (see docstring exactness bound)"
                )
        out = {k: b.column(k) for k in keys}
        out["x"] = x
        out["y"] = y
        out["xy"] = pc.multiply(x, y)
        out["xx"] = pc.multiply(x, x)
        out["yy"] = pc.multiply(y, y)
        return pa.table(out)

    sums = grouped_agg(
        ds.select_columns(cols).map_batches(expand, batch_format="pyarrow"),
        keys,
        [("n", None, "count"), ("sx", "x", "sum"), ("sy", "y", "sum"),
         ("sxy", "xy", "sum"), ("sxx", "xx", "sum"), ("syy", "yy", "sum")],
        num_buckets=num_buckets, driver_threshold=driver_threshold,
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        syy = b.column("syy").to_numpy(zero_copy_only=False).astype(np.float64)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = (n * sxy - sx * sy) / (np.sqrt(vx) * np.sqrt(vy))
        valid = (vx > 0) & (vy > 0)
        out = pa.table({k: b.column(k) for k in keys})
        col = pa.Array.from_pandas(
            pd.Series(r).where(pd.Series(valid)), type=pa.float64()
        )
        return out.append_column(out_col, col)

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_regression(ds, keys: list[str], x_col: str, y_col: str,
                       slope_col: str = "slope",
                       intercept_col: str = "intercept",
                       num_buckets: int = 16,
                       driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """Per-group ordinary-least-squares line of y on x (SQL
    REGR_SLOPE / REGR_INTERCEPT) from EXACT integer sums.

    Same sufficient-statistics shape as grouped_corr: the five stats
    (n, Σx, Σy, Σxy, Σx²) accumulate exactly in int64 through the
    grouped_agg combiner — only keys x batches partial rows cross the
    shuffle, never data rows — then

        slope     = (n·Σxy − Σx·Σy) / (n·Σx² − Σx·Σx)
        intercept = (Σy − slope·Σx) / n

    closes in one fixed float64 expression over the exact operands, so
    it is bit-reproducible against a SQL oracle writing the same tree.
    Groups with zero x-variance yield NULL for both (SQL REGR_SLOPE
    semantics).  Same int64 exactness bound as grouped_corr: each batch
    raises if an |x|·|y| product can exceed 2^62 — pre-scale upstream.
    """
    import numpy as np
    import pyarrow.compute as pc

    cols = list(dict.fromkeys(keys + [x_col, y_col]))

    def expand(b: pa.Table) -> pa.Table:
        # SQL REGR_* is pairwise-complete: rows with NULL in either
        # column leave ALL five statistics (see _pairwise_complete)
        b = _pairwise_complete(b, x_col, y_col)
        x = b.column(x_col).cast(pa.int64())
        y = b.column(y_col).cast(pa.int64())
        if len(b):
            mx = max(abs(pc.min(x).as_py() or 0), abs(pc.max(x).as_py() or 0))
            my = max(abs(pc.min(y).as_py() or 0), abs(pc.max(y).as_py() or 0))
            if max(mx * my, mx * mx) > 2 ** 62:
                raise ValueError(
                    "grouped_regression: |x|*|y| products can overflow "
                    "int64; pre-scale the inputs (see docstring bound)"
                )
        out = {k: b.column(k) for k in keys}
        out["x"] = x
        out["y"] = y
        out["xy"] = pc.multiply(x, y)
        out["xx"] = pc.multiply(x, x)
        return pa.table(out)

    sums = grouped_agg(
        ds.select_columns(cols).map_batches(expand, batch_format="pyarrow"),
        keys,
        [("n", None, "count"), ("sx", "x", "sum"), ("sy", "y", "sum"),
         ("sxy", "xy", "sum"), ("sxx", "xx", "sum")],
        num_buckets=num_buckets, driver_threshold=driver_threshold,
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        denom = n * sxx - sx * sx
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (n * sxy - sx * sy) / denom
            intercept = (sy - slope * sx) / n
        valid = denom > 0
        out = pa.table({k: b.column(k) for k in keys})
        out = out.append_column(slope_col, pa.Array.from_pandas(
            pd.Series(slope).where(pd.Series(valid)), type=pa.float64()))
        return out.append_column(intercept_col, pa.Array.from_pandas(
            pd.Series(intercept).where(pd.Series(valid)), type=pa.float64()))

    return sums.map_batches(finish, batch_format="pyarrow")


def _pairwise_complete(b: pa.Table, x_col: str, y_col: str) -> pa.Table:
    """Drop rows with NULL in either column (SQL REGR_*/corr row set).

    A group whose rows are ALL null-paired disappears from the output
    (SQL would keep it with NULL aggregates) — documented edge, same
    non-null-input contract as the window family."""
    import pyarrow.compute as pc

    valid = pc.and_(b.column(x_col).is_valid(), b.column(y_col).is_valid())
    if not pc.all(valid).as_py():
        b = b.filter(valid)
    return b


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            name_col: str = "name", value_col: str = "value"):
    """UNPIVOT / melt: one output row per (input row x value column) —
    the inverse of ``pivot_agg``.  Stateless vectorized map_batches:
    each batch emits |value_cols| stacked copies of its id columns via
    Arrow takes (no Python row loop); value columns are cast to a
    common type (unified via Arrow type promotion).  Rows whose value
    is NULL are dropped, matching SQL UNPIVOT's default
    (INCLUDE NULLS is a filterless variant away).
    """
    import pyarrow.compute as pc

    def body(b: pa.Table) -> pa.Table:
        types = [b.schema.field(c).type for c in value_cols]
        if all(t == types[0] for t in types):
            target = types[0]
        elif all(pa.types.is_integer(t) for t in types):
            target = pa.int64()
        elif all(pa.types.is_integer(t) or pa.types.is_floating(t)
                 for t in types):
            target = pa.float64()
        else:
            target = pa.string()
        pieces = []
        for c in value_cols:
            t = pa.table({
                **{k: b.column(k) for k in id_cols},
                name_col: pa.array([c] * len(b), type=pa.string()),
                value_col: b.column(c).cast(target),
            })
            pieces.append(t)
        out = pa.concat_tables(pieces)
        return out.filter(pc.is_valid(out.column(value_col)))

    return ds.select_columns(id_cols + value_cols).map_batches(
        body, batch_format="pyarrow"
    )


def grouped_stddev(ds, keys: list[str], x_col: str,
                   out_col: str = "stddev", num_buckets: int = 16,
                   driver_threshold: "int | None" = DRIVER_THRESHOLD):
    """Sample standard deviation per group from EXACT integer sums
    (same contract as grouped_corr: scale floats to ints upstream).

    n, Σx, Σx² accumulate exactly in int64 through the grouped_agg
    combiner, then

        stddev = sqrt((n·Σx² − Σx·Σx) / (n·(n−1)))

    is one fixed float64 expression over exact operands — reproducible
    bit-for-bit against a SQL oracle writing the same tree (unlike the
    builtin stddev_samp, whose streaming accumulation is
    order-dependent in the last ulp).  Groups with n < 2 yield NULL.
    Same int64 overflow bound as grouped_corr (batch raises if a
    single x² can exceed 2^62)."""
    import numpy as np
    import pyarrow.compute as pc

    cols = list(dict.fromkeys(keys + [x_col]))

    def expand(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(x_col)))
        x = b.column(x_col).cast(pa.int64())
        if len(b):
            mx = max(abs(pc.min(x).as_py() or 0), abs(pc.max(x).as_py() or 0))
            if mx * mx > 2 ** 62:
                raise ValueError(
                    "grouped_stddev: x*x can overflow int64; pre-scale "
                    "the inputs (see grouped_corr exactness bound)"
                )
        out = {k: b.column(k) for k in keys}
        out["x"] = x
        out["xx"] = pc.multiply(x, x)
        return pa.table(out)

    sums = grouped_agg(
        ds.select_columns(cols).map_batches(expand, batch_format="pyarrow"),
        keys,
        [("n", None, "count"), ("sx", "x", "sum"), ("sxx", "xx", "sum")],
        num_buckets=num_buckets, driver_threshold=driver_threshold,
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.sqrt((n * sxx - sx * sx) / (n * (n - 1.0)))
        valid = n >= 2
        out = pa.table({k: b.column(k) for k in keys})
        out = out.append_column(
            "n", b.column("n")
        )
        col = pa.Array.from_pandas(
            pd.Series(s).where(pd.Series(valid)), type=pa.float64()
        )
        return out.append_column(out_col, col)

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_welch_t(ds, group_col: str, value_col: str, baseline,
                    num_buckets: int = 16):
    """Welch's two-sample t statistic of every group against the
    ``baseline`` group — the unequal-variance A/B test over exact
    integer sufficient statistics (n, Σx, Σx² per group, accumulated in
    int64 through the ordinary grouped_agg combiner like grouped_corr).

        t = (m_g − m_b) / sqrt(v_g/n_g + v_b/n_b),
        m = Σx/n,  v = (Σx² − Σx·Σx/n)/(n−1)

    computed as ONE fixed float64 expression over the exact operands,
    so it is bit-reproducible against a SQL oracle writing the same
    tree (grouped_corr's contract; same int64 overflow bound —
    ``value_col`` must be integer, scale cents upstream).

    Returns Dataset[{group_col, n: int64, t_e6: int64}] for every group
    except the baseline (t rounded half-away at 1e-6, DuckDB round()).
    Scale shape: the shuffle carries three int64 statistics per group;
    the finish runs on the group-cardinality-sized table (repartition(1)
    — bounded by the number of distinct groups, not rows).
    """
    import pyarrow.compute as pc

    def expand(b: pa.Table) -> pa.Table:
        x = b.column(value_col).cast(pa.int64())
        if len(b):
            mx = max(abs(pc.min(x).as_py() or 0), abs(pc.max(x).as_py() or 0))
            if mx * mx > 2 ** 62:
                raise ValueError(
                    "grouped_welch_t: x*x can overflow int64; pre-scale "
                    "the inputs (see grouped_corr exactness bound)"
                )
        return pa.table({
            group_col: b.column(group_col),
            "x": x,
            "xx": pc.multiply(x, x),
        })

    sums = grouped_agg(
        ds.select_columns([group_col, value_col]).map_batches(
            expand, batch_format="pyarrow"),
        [group_col],
        [("n", None, "count"), ("sx", "x", "sum"), ("sxx", "xx", "sum")],
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        from knowledge_graph_ray.functions.numeric import round_half_away

        base = df[df[group_col] == baseline]
        if len(base) != 1:
            raise ValueError(
                f"grouped_welch_t: baseline group {baseline!r} absent "
                "or duplicated in the aggregate"
            )
        bn = float(base.n.iloc[0])
        bsx = float(base.sx.iloc[0])
        bsxx = float(base.sxx.iloc[0])
        rest = df[df[group_col] != baseline]
        n = rest.n.to_numpy().astype(np.float64)
        sx = rest.sx.to_numpy().astype(np.float64)
        sxx = rest.sxx.to_numpy().astype(np.float64)
        vb = (bsxx - bsx * bsx / bn) / (bn - 1.0)
        v = (sxx - sx * sx / n) / (n - 1.0)
        t = (sx / n - bsx / bn) / np.sqrt(v / n + vb / bn)
        return pd.DataFrame({
            group_col: rest[group_col].to_numpy(),
            "n": rest.n.to_numpy().astype(np.int64),
            "t_e6": np.array([round_half_away(x * 1e6) for x in t],
                             dtype=np.int64),
        })

    return sums.repartition(1).map_batches(finish, batch_format="pandas")


def grouped_chi2_gof(ds, group_col: str, cat_col: str,
                     num_buckets: int = 16):
    """Chi-square goodness-of-fit of every group's category
    distribution against the GLOBAL category distribution (the
    homogeneity screen: which segments deviate from the corpus mix):

        E_gc   = n_g * T_c / N
        chi2_g = sum_c (O_gc - E_gc)^2 / E_gc   over categories with
                                                T_c > 0 (zero-observed
                                                cells included)
        dof    = |{c : T_c > 0}| - 1

    Exact int64 observed counts through the ordinary combiner; the
    closing expression is ONE fixed float64 tree over those exact
    operands (grouped_corr's bit-reproducibility contract), chi2
    rounded half-away at 1e-6.

    Returns Dataset[{group_col, n: int64, dof: int64, chi2_e6: int64}].
    Scale shape: the shuffle carries one int64 count per occupied
    (group, category) cell; the finish runs on the cell-cardinality
    table (repartition(1) — bounded by groups x categories, not rows).
    """

    counts = grouped_agg(
        ds.select_columns([group_col, cat_col]),
        [group_col, cat_col], [("n", None, "count")],
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        from knowledge_graph_ray.functions.numeric import round_half_away

        if not len(df):
            return pd.DataFrame({group_col: df[group_col], "n": [],
                                 "dof": [], "chi2_e6": []})
        pivot = df.pivot_table(index=group_col, columns=cat_col,
                               values="n", aggfunc="sum",
                               fill_value=0)
        obs = pivot.to_numpy().astype(np.float64)     # (G, C)
        ng = obs.sum(axis=1)
        tc = obs.sum(axis=0)
        nn = tc.sum()
        exp = ng[:, None] * tc[None, :] / nn          # T_c > 0 by pivot
        chi2 = ((obs - exp) ** 2 / exp).sum(axis=1)
        dof = obs.shape[1] - 1
        return pd.DataFrame({
            group_col: pivot.index.to_numpy(),
            "n": ng.astype(np.int64),
            "dof": np.full(len(ng), dof, dtype=np.int64),
            "chi2_e6": np.array(
                [round_half_away(x * 1e6) for x in chi2], dtype=np.int64),
        })

    return counts.repartition(1).map_batches(finish, batch_format="pandas")
