"""Row indexing: global contiguous ids in dataset order.

The reference assigns ``human_readable_id`` by enumeration order over the
in-memory graph (/root/reference/verbs/community_detection/
cluster_graph.py:60-68).  Distributed equivalent (SURVEY §7.5 'Ordering
requirements'): sort on the stable key, then a two-pass prefix-sum —
per-block row counts (tiny remote tasks) -> offsets on the driver ->
per-block index append, so block payloads stay in the object store.  An
input of at most ``DRIVER_THRESHOLD`` rows skips the sort shuffle: it is
sorted and indexed on the driver in one Arrow pass and comes back as
one contiguous block, in the same order.
"""

from __future__ import annotations

import pyarrow as pa

from knowledge_graph_ray.functions.grouping import (
    DRIVER_THRESHOLD,
    driver_arrow_table,
)


def with_weight_offsets(ds, weight_col: str, column: str = "start_offset",
                        sort_key=None):
    """Append the EXCLUSIVE running sum of ``weight_col`` in dataset
    order (row i gets sum of weights of rows 0..i-1).

    Same two-pass shape as ``with_row_index``: per-block weight sums
    (tiny remote tasks over block refs — block payloads never touch the
    driver) -> driver cumulative offsets (one number per block) ->
    per-block local cumsum + offset.  The scale cost is the optional
    sort; the prefix-sum passes are O(blocks) driver work.
    """
    import numpy as np
    import ray
    import ray.data

    if sort_key is not None:
        ds = ds.sort(sort_key)
    mat = ds.materialize()
    refs = mat.to_arrow_refs()

    @ray.remote
    def block_sum(table: pa.Table) -> int:
        import pyarrow.compute as pc

        # cast BEFORE summing so block bases agree exactly with the
        # per-row int64 cumsum below (a float weight column would
        # otherwise truncate sum-of-floats here but sum-of-truncated
        # there — silently inconsistent offsets)
        col = table.column(weight_col).cast(pa.int64())
        return int(pc.sum(col).as_py() or 0)

    sums = ray.get([block_sum.remote(r) for r in refs])
    offsets = []
    total = 0
    for s in sums:
        offsets.append(total)
        total += s

    @ray.remote
    def add_offsets(table: pa.Table, offset: int) -> pa.Table:
        w = table.column(weight_col).to_numpy(zero_copy_only=False).astype("int64")
        excl = np.concatenate(([0], np.cumsum(w)[:-1])) + offset
        return table.append_column(column, pa.array(excl, type=pa.int64()))

    return ray.data.from_arrow_refs(
        [add_offsets.remote(r, off) for r, off in zip(refs, offsets)]
    )


def sort_and_index(table: pa.Table, sort_key,
                   column: str = "human_readable_id") -> pa.Table:
    """Driver kernel of ``with_row_index(sort_key=...)``: ``table``
    sorted ascending on ``sort_key`` (``Table.sort_by``, the order
    ``Dataset.sort`` gives; rows with equal keys keep their input order)
    with a 0-based ``column``, as one contiguous block."""
    import numpy as np

    keys = [sort_key] if isinstance(sort_key, str) else list(sort_key)
    whole = table.sort_by([(k, "ascending") for k in keys])
    idx = pa.array(np.arange(table.num_rows, dtype=np.int64))
    return whole.append_column(column, idx).combine_chunks()


def with_row_index(ds, column: str = "human_readable_id", sort_key=None,
                   driver_threshold: int | None = DRIVER_THRESHOLD):
    """Append a 0-based contiguous global index in dataset order.

    ``sort_key`` (optional) sorts first — e.g. ``"name"`` gives the
    stable enumeration the reference's exports rely on (utils/graph.py
    stabilize_graph sorts nodes by name).  A sorted input of at most
    ``driver_threshold`` rows is sorted on the driver (``sort_and_index``;
    rows with equal keys, which the distributed sort leaves in no
    promised order, keep their input order) instead of by a sort
    shuffle.
    """
    import ray
    import ray.data

    mat = ds.materialize()
    if sort_key is not None:
        n = mat.count()  # metadata-only on a materialized dataset
        if driver_threshold is not None and 0 < n <= driver_threshold:
            return ray.data.from_arrow(
                sort_and_index(driver_arrow_table(mat), sort_key, column)
            )
        mat = mat.sort(sort_key).materialize()
    refs = mat.to_arrow_refs()

    @ray.remote
    def block_count(table: pa.Table) -> int:
        return table.num_rows

    counts = ray.get([block_count.remote(r) for r in refs])
    offsets = []
    total = 0
    for c in counts:
        offsets.append(total)
        total += c

    @ray.remote
    def add_index(table: pa.Table, offset: int) -> pa.Table:
        idx = pa.array(range(offset, offset + table.num_rows), type=pa.int64())
        return table.append_column(column, idx)

    return ray.data.from_arrow_refs(
        [add_index.remote(r, off) for r, off in zip(refs, offsets)]
    )
