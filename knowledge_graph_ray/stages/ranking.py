"""Ranking / ordered-scan window functions over partitioned tables.

SQL's ranking windows (RANK / PERCENT_RANK / running SUM / LAG deltas)
have no Ray Data native form; they are computed by treating the input
as a partitioned log — ONE shuffle on the partition key
(functions/grouping.bucketed_bucket_map), then a single vectorized
sort + pandas groupby pass per bucket, never a per-key Python loop and
never a global sort.

Partitioning assumption (documented per the custom-operator rule): all
rows of one partition key fit one bucket task.  ``num_buckets`` bounds
per-task memory to ~|input|/num_buckets; hot keys still colocate — for
a key too hot for one task, pre-aggregate upstream or salt on a coarser
(key, order-prefix) and merge.

Scale shape vs a global sort: ORDER BY inside a partition only needs
per-bucket sorts after one hash shuffle — no range-partition planning
pass, no skewed global merge.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions.grouping import bucketed_bucket_map


def window_rank(ds, key: str, order_col: str, id_cols: list[str],
                descending: bool = False, num_buckets: int = 64,
                driver_threshold: int | None = None,
                size_hint: int | None = None):
    """RANK() and PERCENT_RANK() per partition.

    Emits one row per input row: ``id_cols`` + key + order_col + ``rk``
    (SQL RANK(): ties share the minimum rank, gaps after ties) +
    ``pct_rank`` (SQL PERCENT_RANK(): ``(rk-1)/(n-1)``, 0.0 for a
    single-row partition).  The division is the same two exact int64
    operands IEEE-divided on both engines, so the result is bit-stable
    against a DuckDB oracle.
    """
    cols = list(dict.fromkeys(id_cols + [key, order_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        gb = g.groupby(key, sort=False, dropna=False)[order_col]
        # na_option="bottom": null order values rank AFTER non-nulls in
        # either direction (DuckDB's default_null_order=nulls_last) and
        # tie with each other — also keeps the int64 cast total
        rk = (
            gb.rank(method="min", ascending=not descending,
                    na_option="bottom")
            .to_numpy()
            .astype(np.int64)
        )
        n = gb.transform("size").to_numpy().astype(np.int64)
        pct = np.where(n > 1, (rk - 1) / np.maximum(n - 1, 1), 0.0)
        out = g[cols].copy()
        out["rk"] = rk
        out["pct_rank"] = pct
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def running_sum(ds, key: str, order_cols: list[str], value_col: str,
                out_col: str = "running", num_buckets: int = 64,
                driver_threshold: int | None = None,
                size_hint: int | None = None):
    """SUM(value) OVER (PARTITION BY key ORDER BY order_cols ROWS
    UNBOUNDED PRECEDING) — the running total.

    ``order_cols`` must be a total order within each key (include a
    unique id as tiebreak) or the prefix sums are oracle-ambiguous.
    ``value_col`` must already be integer (scale floats to cents
    upstream) so the cumsum is exact.  One shuffle; per bucket one sort + groupby cumsum.
    """
    cols = list(dict.fromkeys([key] + order_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key] + order_cols, kind="stable")
        out = g[cols].copy()
        out[out_col] = (
            g.groupby(key, sort=False, dropna=False)[value_col]
            .cumsum()
            .astype("int64")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def _gaps_schema(key: str, key_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            (key, key_type),
            ("n_events", pa.int64()),
            ("max_gap_s", pa.int64()),
            ("n_gaps_over", pa.int64()),
        ]
    )


def ordered_gaps(events, key: str = "user_id", ts_col: str = "ts",
                 over_seconds: int = 1800, num_buckets: int = 64,
                 driver_threshold: int | None = None,
                 size_hint: int | None = None):
    """LAG-delta aggregate: per key, the event count, the maximum gap
    between consecutive events (epoch seconds; -1 for single-event
    keys, matching SQL ``coalesce(max(gap), -1)``), and how many gaps
    exceed ``over_seconds``.

    The per-key ordered scan is one vectorized diff over the bucket
    sorted by (key, ts) — key boundaries masked out — then one pandas
    groupby; output is key-cardinality-sized, so the shuffle result is
    tiny regardless of input rows.
    """
    from knowledge_graph_ray.functions.dsschema import dataset_schema

    in_schema, events = dataset_schema(events)
    key_type = dict(zip(in_schema.names, in_schema.types))[key]
    out_schema = _gaps_schema(key, key_type)

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts_s = pc.divide(batch.column(ts_col).cast(pa.int64()), 1_000_000)
        return pa.Table.from_pydict(
            {key: batch.column(key), "ts_s": ts_s.cast(pa.int64())}
        )

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key, "ts_s"], kind="stable")
        ts = g["ts_s"].to_numpy()
        codes, _ = pd.factorize(g[key], use_na_sentinel=False)
        n = len(g)
        gap = np.full(n, -1, dtype=np.int64)
        if n > 1:
            same = codes[1:] == codes[:-1]
            gap[1:] = np.where(same, ts[1:] - ts[:-1], -1)
        df = pd.DataFrame(
            {
                key: g[key].to_numpy(),
                "gap": gap,
                "over": (gap > over_seconds).astype(np.int64),
            }
        )
        agg = df.groupby(key, sort=False, dropna=False).agg(
            n_events=("gap", "size"),
            max_gap_s=("gap", "max"),
            n_gaps_over=("over", "sum"),
        )
        return pa.Table.from_pydict(
            {
                # from_pandas: a null key groups under NaN; keep it null
                key: pa.Array.from_pandas(agg.index.to_series(),
                                          type=key_type),
                "n_events": pa.array(agg["n_events"].astype("int64")),
                "max_gap_s": pa.array(agg["max_gap_s"].astype("int64")),
                "n_gaps_over": pa.array(agg["n_gaps_over"].astype("int64")),
            },
            schema=out_schema,
        )

    prepped = events.select_columns([key, ts_col]).map_batches(
        prep, batch_format="pyarrow"
    )
    return bucketed_bucket_map(
        prepped, [key], bucket_body, num_buckets=num_buckets,
        empty_schema=out_schema, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_ntile(ds, key: str, order_cols: list[str], n_tiles: int,
                 out_col: str = "tile", num_buckets: int = 64,
                 driver_threshold: int | None = None,
                 size_hint: int | None = None):
    """NTILE(n) OVER (PARTITION BY key ORDER BY order_cols): rows of
    each partition split into ``n_tiles`` buckets as equal as possible —
    the first ``n %% n_tiles`` buckets get one extra row (the exact SQL
    rule, reproduced bit-for-bit).

    ``order_cols`` must be a total order within each key (include a
    unique id) or tile assignment is oracle-ambiguous.  Same
    one-shuffle shape as the other ranking windows; the bucket body is
    one sort + cumcount + arithmetic, no per-key loop.
    """
    cols = list(dict.fromkeys([key] + order_cols))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key] + order_cols, kind="stable")
        gb = g.groupby(key, sort=False, dropna=False)
        rn = gb.cumcount().to_numpy()                     # 0-based
        n = gb[order_cols[0]].transform("size").to_numpy().astype(np.int64)
        small = n // n_tiles
        rem = n % n_tiles
        big_span = rem * (small + 1)   # rows covered by the larger tiles
        tile = np.where(
            rn < big_span,
            rn // np.maximum(small + 1, 1),
            rem + (rn - big_span) // np.maximum(small, 1),
        ) + 1
        out = g[cols].copy()
        out[out_col] = tile.astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_lag(ds, key: str, order_cols: list[str], value_col: str,
               out_col: str = "lag_value", num_buckets: int = 64,
               driver_threshold: int | None = None,
               size_hint: int | None = None):
    """LAG(value) OVER (PARTITION BY key ORDER BY order_cols): each row
    carries the PREVIOUS row's value within its partition (null for the
    partition's first row — SQL default).

    ``order_cols`` must be a total order within each key.  One shuffle;
    per bucket one sort + a vectorized groupby shift.
    """
    cols = list(dict.fromkeys([key] + order_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key] + order_cols, kind="stable")
        out = g[cols].copy()
        out[out_col] = (
            g.groupby(key, sort=False, dropna=False)[value_col].shift(1)
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_enumerate(ds, key: str, order_cols: list[str],
                     dense_rank_col: str, value_col: str,
                     num_buckets: int = 64,
                     driver_threshold: int | None = None,
                     size_hint: int | None = None):
    """ROW_NUMBER + DENSE_RANK + LEAD in ONE pass per partition.

    Emits, per row: ``rn`` = ROW_NUMBER() over (key ORDER BY
    order_cols), ``drk`` = DENSE_RANK() over (key ORDER BY
    dense_rank_col) — ties share a rank, no gaps — and ``lead_value`` =
    the NEXT row's ``value_col`` in order_cols order (null for the
    partition's last row).  One shuffle, one sort, three vectorized
    groupby ops — the point of the combined operator: the window
    family's marginal cost per extra function is one kernel, not one
    more shuffle.
    """
    cols = list(dict.fromkeys([key] + order_cols
                              + [dense_rank_col, value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key] + order_cols, kind="stable")
        gb = g.groupby(key, sort=False, dropna=False)
        out = g[cols].copy()
        out["rn"] = (gb.cumcount() + 1).astype("int64")
        out["drk"] = (
            gb[dense_rank_col].rank(method="dense").astype("int64")
        )
        out["lead_value"] = gb[value_col].shift(-1)
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def running_sum_salted(ds, key: str, order_cols: list[str], value_col: str,
                       out_col: str = "running", n_salts: int = 8,
                       num_buckets: int = 64,
                       boundaries: "list | None" = None):
    """Two-phase SKEW FALLBACK for ``running_sum`` — the escape hatch the
    one-shuffle window family documents for a partition key too hot to
    fit one task.

    Phase 1: rows are RANGE-salted on ``order_cols[0]`` (monotone cut
    points, so salt order agrees with the total order; rows tied on the
    first order column always share a salt) and each (key, salt) slice
    computes its local ordered cumsum.  Phase 2: the per-(key, salt)
    value totals — a keys x salts table, tiny because this fallback is
    applied to the skewed keys — prefix-sum into exclusive offsets,
    broadcast via ``ray.put``, and a vectorized map_batches adds each
    row's offset.  Output is row-identical to ``running_sum``.

    ``order_cols[0]`` must be numeric.  ``boundaries`` (ascending
    interior cut points, ``n_salts - 1`` of them) may be supplied by the
    caller (e.g. known time ranges); the default splits
    [min, max] evenly — good enough to break a hot key into bounded
    slices, which is the fallback's only job (perfectly balanced slices
    are not required for correctness).
    """
    import numpy as np
    import ray

    import pyarrow.compute as pc

    cols = list(dict.fromkeys([key] + order_cols + [value_col]))
    ds = ds.select_columns(cols)
    _SALT = "__salt"

    if boundaries is None:
        def minmax(b: pa.Table) -> pa.Table:
            if len(b) == 0:
                return pa.table({"mn": pa.array([], pa.float64()),
                                 "mx": pa.array([], pa.float64())})
            v = b.column(order_cols[0])
            return pa.table({
                "mn": pa.array([pc.min(v).as_py()], pa.float64()),
                "mx": pa.array([pc.max(v).as_py()], pa.float64()),
            })

        mm = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
        if mm.empty:
            return running_sum(ds, key, order_cols, value_col,
                               out_col=out_col, num_buckets=num_buckets)
        lo, hi = float(mm.mn.min()), float(mm.mx.max())
        boundaries = list(np.linspace(lo, hi, n_salts + 1)[1:-1])
    bounds = np.asarray(sorted(boundaries), dtype=np.float64)

    def add_salt(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column(order_cols[0]).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        salt = np.searchsorted(bounds, v, side="right").astype(np.int32)
        return b.append_column(_SALT, pa.array(salt))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key, _SALT] + order_cols, kind="stable")
        out = g[cols + [_SALT]].copy()
        out[out_col] = (
            g.groupby([key, _SALT], sort=False, dropna=False)[value_col]
            .cumsum()
            .astype("int64")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    local = bucketed_bucket_map(
        salted, [key, _SALT], bucket_body, num_buckets=num_buckets,
    ).materialize()

    from knowledge_graph_ray.functions.agg import grouped_agg

    totals = grouped_agg(
        salted, [key, _SALT], [("t", value_col, "sum")]
    ).to_pandas()
    totals = totals.sort_values([key, _SALT], kind="stable")
    totals["offset"] = (
        totals.groupby(key, sort=False, dropna=False)["t"]
        .cumsum().sub(totals["t"]).fillna(0).astype("int64")
    )
    offsets_ref = ray.put(totals[[key, _SALT, "offset"]])

    def add_offset(b: pa.Table) -> pa.Table:
        off = ray.get(offsets_ref)
        df = b.to_pandas().merge(off, on=[key, _SALT], how="left")
        df[out_col] = (df[out_col] + df["offset"].fillna(0)).astype("int64")
        return pa.Table.from_pandas(df[cols + [out_col]],
                                    preserve_index=False)

    return local.map_batches(add_offset, batch_format="pyarrow")


def window_moving_agg(ds, key: str, order_cols: list[str], value_col: str,
                      frame_rows: int, sum_col: str = "mov_sum",
                      avg_col: str = "mov_avg", num_buckets: int = 64,
                      driver_threshold: int | None = None,
                      size_hint: int | None = None):
    """SUM and AVG OVER (PARTITION BY key ORDER BY order_cols ROWS
    BETWEEN frame_rows-1 PRECEDING AND CURRENT ROW) — the moving-window
    aggregate (``frame_rows`` = total rows in the frame incl. current).

    Computed as prefix-sum differences, not a per-row rescan: one sort
    per bucket, one grouped cumsum, one grouped shift —
    ``mov_sum[i] = cum[i] - cum[i-frame_rows]`` — so cost is O(rows),
    independent of the frame width (a naive rolling rescan is
    O(rows x frame)).  ``value_col`` must be non-null integer (scale
    floats to cents upstream) so the prefix sums are exact; the average
    is that exact int sum IEEE-divided by the frame's row count — the
    same two operands SQL divides, hence bit-stable vs the oracle.
    """
    assert frame_rows >= 1
    cols = list(dict.fromkeys([key] + order_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key] + order_cols, kind="stable")
        gb = g.groupby(key, sort=False, dropna=False)
        out = g[cols].copy()
        cum = gb[value_col].cumsum().astype("int64")
        # shift the cumsum WITHIN each key by frame_rows positions
        shifted = (
            cum.groupby(g[key], sort=False, dropna=False)
            .shift(frame_rows).fillna(0).astype("int64")
        )
        rn = (gb.cumcount() + 1).to_numpy()
        out[sum_col] = (cum - shifted).astype("int64")
        n_frame = np.minimum(rn, frame_rows)
        out[avg_col] = out[sum_col].to_numpy(dtype="float64") / n_frame
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_range_agg(ds, key: str, order_col: str, value_col: str,
                     range_preceding: int, id_cols: list[str] | None = None,
                     sum_col: str = "range_sum", n_col: str = "range_n",
                     avg_col: str = "range_avg", num_buckets: int = 64,
                     driver_threshold: int | None = None,
                     size_hint: int | None = None):
    """SUM/COUNT/AVG OVER (PARTITION BY key ORDER BY order_col RANGE
    BETWEEN range_preceding PRECEDING AND CURRENT ROW) — the VALUE-based
    window frame (vs window_moving_agg's ROW-count frame): each row
    aggregates every partition row whose ``order_col`` lies in
    ``[t - range_preceding, t]``, INCLUDING peers of the current row
    that sort after it (SQL RANGE end-bound CURRENT ROW means "last
    peer", not "this row") — the sliding time-window shape
    (events in the trailing hour, bytes in the trailing minute).

    Fully vectorized across keys with ONE searchsorted per bound: after
    the per-bucket sort by (key, order_col), rows are embedded on a
    single non-decreasing composite axis ``code(key) * spacing + t`` with
    ``spacing > (t_max - t_min) + range_preceding`` so no frame can cross
    a key boundary; the frame start/end indices for ALL rows are then two
    ``np.searchsorted`` calls over that axis, and sums are exclusive
    prefix-sum differences — O(rows log rows) per bucket, no per-key
    Python loop, frame width free.

    ``order_col`` and ``value_col`` must be non-null int64 (scale
    timestamps to epoch seconds and floats to cents upstream) so the
    prefix sums are exact; the average is the exact int sum IEEE-divided
    by the exact frame count — the same two operands SQL divides.
    """
    assert range_preceding >= 0
    id_cols = id_cols or []
    cols = list(dict.fromkeys([key, order_col] + id_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        # (no empty-frame branch: map_groups never passes empty groups
        # and the zero-row-INPUT case is bucketed_bucket_map's
        # empty_schema contract — same as window_moving_agg)
        g = g.sort_values([key, order_col], kind="stable")
        out = g[cols].copy()
        codes, _ = pd.factorize(g[key], use_na_sentinel=False)
        t = g[order_col].to_numpy(dtype="int64")
        t0 = int(t.min())
        spacing = int(t.max()) - t0 + range_preceding + 2
        if int(codes[-1]) * spacing > 2 ** 62:
            # composite axis would overflow int64 — coarsen the order
            # column upstream (epoch seconds, not microseconds)
            raise ValueError(
                "window_range_agg: order range x key count overflows the "
                "composite axis; scale order_col to a coarser unit"
            )
        comp = codes.astype("int64") * spacing + (t - t0)
        # frame start: first index >= t - range_preceding (same key);
        # frame end: one past the LAST PEER (rows with equal order value)
        lo = np.searchsorted(comp, comp - range_preceding, side="left")
        hi = np.searchsorted(comp, comp, side="right")
        cum = np.concatenate(
            ([0], np.cumsum(g[value_col].to_numpy(dtype="int64")))
        )
        out[sum_col] = cum[hi] - cum[lo]
        out[n_col] = hi - lo
        out[avg_col] = out[sum_col].to_numpy(dtype="float64") / out[n_col]
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def _partition_bounds(g: pd.DataFrame, key: str):
    """(starts, sizes, gidx) of the key-partitions of a frame already
    sorted by key: ``starts[i]``/``sizes[i]`` bound partition i,
    ``gidx[r]`` maps row r to its partition — the shared scaffolding of
    the boundary-index window functions (FIRST/LAST/NTH_VALUE)."""
    import numpy as np

    codes, _ = pd.factorize(g[key], use_na_sentinel=False)
    n = len(g)
    if n == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty
    change = np.r_[True, codes[1:] != codes[:-1]]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, n])
    gidx = np.cumsum(change) - 1
    return starts, sizes, gidx


def window_first_last(ds, key: str, order_cols: list[str], value_col: str,
                      first_col: str = "first_value",
                      last_col: str = "last_value",
                      num_buckets: int = 64,
                      driver_threshold: int | None = None,
                      size_hint: int | None = None):
    """FIRST_VALUE and LAST_VALUE OVER (PARTITION BY key ORDER BY
    order_cols ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
    FOLLOWING) — every row carries its partition's first and last
    ``value_col`` in order.  One shuffle, one sort, one vectorized
    boundary-index pass.  NULL-respecting like SQL: the first/last ROW's
    value is taken even when it is null (pandas ``transform("first")``
    would skip nulls — wrong semantics).
    """
    cols = list(dict.fromkeys([key] + order_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key] + order_cols, kind="stable")
        out = g[cols].copy()
        starts, sizes, gidx = _partition_bounds(g, key)
        vals = g[value_col].to_numpy()
        n = len(g)
        out[first_col] = vals[starts[gidx]] if n else vals
        out[last_col] = vals[(starts + sizes - 1)[gidx]] if n else vals
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_cume_dist(ds, key: str, order_col: str, id_cols: list[str],
                     num_buckets: int = 64,
                     driver_threshold: int | None = None,
                     size_hint: int | None = None):
    """CUME_DIST() per partition: (# rows with order value <= current)
    / partition size — ties share the max rank, so the division is the
    same two exact int64 operands on both engines (bit-stable like
    window_rank's PERCENT_RANK).  One shuffle, per-bucket vectorized
    rank(method='max')."""
    cols = list(dict.fromkeys(id_cols + [key, order_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        gb = g.groupby(key, sort=False, dropna=False)[order_col]
        out = g[cols].copy()
        rk_max = gb.rank(method="max", na_option="bottom").astype("int64")
        n = gb.transform("size").astype("int64")
        out["cume"] = rk_max / n
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_share(ds, key: str, order_cols: list[str], value_col: str,
                 out_col: str = "share", num_buckets: int = 64,
                 driver_threshold: int | None = None,
                 size_hint: int | None = None):
    """RATIO_TO_REPORT: each row's value divided by its partition's
    total — ``v / SUM(v) OVER (PARTITION BY key)``.  ``value_col`` must
    be integer (scale upstream) so both operands of the single IEEE
    division are exact on both engines.  One shuffle, one grouped
    transform.  A zero-total partition yields NULL — the SQL mirror is
    ``/ NULLIF(sum(...) OVER ..., 0)``.
    """
    cols = list(dict.fromkeys([key] + order_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        out = g[cols].copy()
        tot = g.groupby(key, sort=False, dropna=False)[value_col] \
            .transform("sum").to_numpy(dtype="float64")
        v = g[value_col].to_numpy(dtype="float64")
        with np.errstate(invalid="ignore", divide="ignore"):
            share = v / tot
        out[out_col] = pd.Series(share).where(pd.Series(tot != 0)).to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_nth_value(ds, key: str, order_cols: list[str], value_col: str,
                     n: int, out_col: str = "nth_value",
                     num_buckets: int = 64,
                     driver_threshold: int | None = None,
                     size_hint: int | None = None):
    """NTH_VALUE(value, n) OVER (PARTITION BY key ORDER BY order_cols
    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING): every
    row carries its partition's n-th value in order (NULL when the
    partition has fewer than n rows).  Same null-respecting
    boundary-index pass as window_first_last — the n-th ROW's value is
    taken even when it is null.
    """
    assert n >= 1
    from knowledge_graph_ray.functions.dsschema import dataset_schema

    cols = list(dict.fromkeys([key] + order_cols + [value_col]))
    # out_col carries the input value's EXACT Arrow type in every
    # bucket: a pandas where() would emit int64 blocks from buckets
    # with no short partition and float64 (NaN-bearing) blocks from
    # buckets with one — the mixed-block class grouped_agg guards
    in_schema, ds = dataset_schema(ds)
    val_type = dict(zip(in_schema.names, in_schema.types))[value_col]

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key] + order_cols, kind="stable")
        out = g[cols].copy()
        starts, sizes, gidx = _partition_bounds(g, key)
        m = len(g)
        vals = g[value_col].to_numpy()
        nth_idx = starts + (n - 1)
        has_n = sizes >= n
        # rows in short partitions take a placeholder index then NULL
        safe_idx = np.where(has_n, nth_idx, starts)
        nth = vals[safe_idx[gidx]] if m else vals
        mask = has_n[gidx] if m else np.array([], bool)
        tbl = pa.Table.from_pandas(out, preserve_index=False)
        col = pa.Array.from_pandas(
            pd.Series(nth).where(pd.Series(mask)), type=val_type
        )
        return tbl.append_column(out_col, col)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )


def window_groups_agg(ds, key: str, order_col: str, value_col: str,
                      groups_preceding: int, id_cols: list[str] | None = None,
                      sum_col: str = "groups_sum", num_buckets: int = 64,
                      driver_threshold: int | None = None,
                      size_hint: int | None = None):
    """SUM OVER (PARTITION BY key ORDER BY order_col GROUPS BETWEEN
    groups_preceding PRECEDING AND CURRENT ROW) — the PEER-GROUP window
    frame completing the ROWS (window_moving_agg) / RANGE
    (window_range_agg) / GROUPS triad: each row aggregates its whole
    peer group (rows with equal order value) plus the
    ``groups_preceding`` preceding distinct-order groups in the
    partition.

    Same one-searchsorted-per-bound trick as window_range_agg, on a
    GROUP-INDEX axis instead of the value axis: after the per-bucket
    sort by (key, order_col), a cumulative increment vector (key change
    -> groups_preceding + 2 so no frame crosses a key; order change
    within key -> 1; peer -> 0) embeds every row at its group index,
    and frame bounds for ALL rows are two ``np.searchsorted`` calls
    with exclusive-prefix-sum differences.  ``order_col``/``value_col``
    must be non-null int64 (exact sums).
    """
    assert groups_preceding >= 0
    id_cols = id_cols or []
    cols = list(dict.fromkeys([key, order_col] + id_cols + [value_col]))

    def bucket_body(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        g = g.sort_values([key, order_col], kind="stable")
        out = g[cols].copy()
        codes, _ = pd.factorize(g[key], use_na_sentinel=False)
        t = g[order_col].to_numpy(dtype="int64")
        key_change = np.empty(len(g), dtype=bool)
        key_change[0] = False
        key_change[1:] = codes[1:] != codes[:-1]
        order_change = np.empty(len(g), dtype=bool)
        order_change[0] = False
        order_change[1:] = (t[1:] != t[:-1]) & ~key_change[1:]
        inc = np.where(key_change, groups_preceding + 2,
                       np.where(order_change, 1, 0)).astype("int64")
        gaxis = np.cumsum(inc)
        lo = np.searchsorted(gaxis, gaxis - groups_preceding, side="left")
        hi = np.searchsorted(gaxis, gaxis, side="right")
        cum = np.concatenate(
            ([0], np.cumsum(g[value_col].to_numpy(dtype="int64")))
        )
        out[sum_col] = cum[hi] - cum[lo]
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucketed_bucket_map(
        ds.select_columns(cols), [key], bucket_body,
        num_buckets=num_buckets, driver_threshold=driver_threshold,
        size_hint=size_hint,
    )
