"""Distributed connected components: alternating star contraction.

This is the north rule's "distributed union-find realized as iterative
groupby-min label propagation over candidate-match pairs".  The reference
has no distributed equivalent — it calls
``stable_largest_connected_component`` on one in-memory graph
(/root/reference/utils/graph.py, used by
verbs/community_detection/clustering/leiden.py:51-52).

Algorithm: alternating **large-star / small-star** contraction (Kiveris
et al., "Connected Components in MapReduce and Beyond", SoCC'14 — public
algorithm).  Each round is a single ``groupby(node)`` over the adjacency
list; per group with center u, m = min(neighbors ∪ {u}):

* large-star: emit (v, m) for every neighbor v > u
* small-star: emit (v, m) for every neighbor v <= u, plus (u, m)

Edges converge in O(log²  n) rounds to a star forest where every node
points at its component minimum.  Compared to label-propagation-with-join
this needs NO join operator — only groupby shuffles with associative
per-group work — which both sidesteps Ray 2.49's concurrent-hash-join
planner race (two joins in one DAG intermittently fail finalize with
"multiple matches for FieldRef") and matches the explicit
partitioning story: every round shuffles on the node key only.  Hub
nodes are group centers with large neighbor lists; emitted edges always
point at the minimum, so hot groups shrink monotonically.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions.grouping import DRIVER_THRESHOLD


def _pair_batch(batch: pa.Table) -> pa.Table:
    """relationship rows -> normalized (u, v) pairs, u < v (self-loops
    dropped)."""
    import pyarrow.compute as pc

    src = batch.column("src")
    dst = batch.column("dst")
    u = pc.min_element_wise(src, dst)
    v = pc.max_element_wise(src, dst)
    tbl = pa.Table.from_pydict({"u": u, "v": v})
    return tbl.filter(pc.not_equal(tbl.column("u"), tbl.column("v")))


def _edge_pairs(relationships):
    """relationship table -> normalized (u, v) pairs, u < v, deduped later."""
    return relationships.select_columns(["src", "dst"]).map_batches(
        _pair_batch, batch_format="pyarrow"
    )


def _dedup_edges(edges, driver_threshold: int | None = DRIVER_THRESHOLD):
    """distinct (u, v) — combiner-first bucket dedup (no join, and no
    count column on the wire; runs once per star round); an edge set of
    at most ``driver_threshold`` rows dedups on the driver."""
    from knowledge_graph_ray.functions.agg import distinct_rows

    return distinct_rows(edges, ["u", "v"], empty_schema=_EDGE_SCHEMA,
                         driver_threshold=driver_threshold)


def _adjacency(edges):
    def body(batch: pa.Table) -> pa.Table:
        u = batch.column("u").combine_chunks()
        v = batch.column("v").combine_chunks()
        return pa.Table.from_pydict(
            {
                "node": pa.concat_arrays([u, v]),
                "nbr": pa.concat_arrays([v, u]),
            }
        )

    return edges.map_batches(body, batch_format="pyarrow")


_EDGE_SCHEMA = pa.schema([("u", pa.string()), ("v", pa.string())])


def _star_round(edges, large: bool, num_buckets: int = 64,
                driver_threshold: int | None = DRIVER_THRESHOLD):
    from knowledge_graph_ray.functions.grouping import bucketed_group_map

    adj = _adjacency(edges)

    def body(group: pd.DataFrame) -> pa.Table:
        u = group["node"].iloc[0]
        nbrs = group["nbr"].tolist()
        m = min(min(nbrs), u)
        if large:
            targets = [v for v in nbrs if v > u]
        else:
            targets = [v for v in nbrs if v <= u] + [u]
        out_u, out_v = [], []
        for v in targets:
            if v != m:
                a, b = (v, m) if v < m else (m, v)
                out_u.append(a)
                out_v.append(b)
        return pa.Table.from_pydict(
            {"u": pa.array(out_u, type=pa.string()),
             "v": pa.array(out_v, type=pa.string())},
            schema=_EDGE_SCHEMA,
        )

    return _dedup_edges(
        bucketed_group_map(adj, ["node"], body, num_buckets=num_buckets),
        driver_threshold,
    )


def _signature(edges) -> tuple:
    """(row_count, pair-hash sum, u-hash sum, v-hash sum) — convergence
    check.  Three independent order-insensitive sums make a false
    convergence report (collision across all three plus equal count)
    astronomically unlikely."""
    from knowledge_graph_ray.functions.hashing import hash_rows_u64

    def body(batch: pa.Table) -> pa.Table:
        # vectorized process-stable row hashes (Python str hash is salted
        # per process; a crc32 Python loop here cost more than the round's
        # shuffle at 10^7 edges).  Masked to 32 bits so int64 sums cannot
        # overflow below ~2^31 rows.
        h = (hash_rows_u64(batch, ["u", "v"]) & 0xFFFFFFFF).astype("int64")
        hu = (hash_rows_u64(batch, ["u"]) & 0xFFFFFFFF).astype("int64")
        hv = (hash_rows_u64(batch, ["v"]) & 0xFFFFFFFF).astype("int64")
        return pa.Table.from_pydict(
            {
                "h": pa.array(h, type=pa.int64()),
                "hu": pa.array(hu, type=pa.int64()),
                "hv": pa.array(hv, type=pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    agg = edges.map_batches(body, batch_format="pyarrow").aggregate(
        Count(alias_name="n"), Sum("h", alias_name="sh"),
        Sum("hu", alias_name="su"), Sum("hv", alias_name="sv"),
    )
    return (agg["n"], agg["sh"] or 0, agg["su"] or 0, agg["sv"] or 0)


def _driver_union_find(edges: pa.Table) -> pa.Table:
    """Small-graph fast path: classic union-find on the driver over an
    Arrow (u, v) edge table -> star-forest edges (u=root, v=member).

    Legitimate only because the caller has PROVEN the edge set is small
    (guide rule: union-find on the driver only if the candidate set is
    provably small) — the distributed star contraction costs several
    shuffle rounds of fixed latency that dominate tiny graphs.  Union by
    min makes every root its component's minimum, whatever the edge
    order and duplicates.
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(edges.column("u").to_pylist(), edges.column("v").to_pylist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            # union by min so the root IS the component min
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    names = list({*parent.keys(), *(parent.values())})
    return pa.Table.from_pydict(
        {"u": [find(n) for n in names], "v": names},
        schema=_EDGE_SCHEMA,
    )


def _star_label_rows(star: pa.Table) -> pa.Table:
    """Star-forest edges (u=root, v=member) -> (name, component) label
    rows: each member labelled with its root, each root with itself."""
    return pa.concat_tables([
        pa.table({"name": star.column("v"), "component": star.column("u")}),
        pa.table({"name": star.column("u"), "component": star.column("u")}),
    ])


def _self_label_rows(nodes: pa.Table) -> pa.Table:
    """Node rows -> (name, component) with every node its own label, so
    isolated nodes become singleton components."""
    return pa.table({"name": nodes.column("name"),
                     "component": nodes.column("name")})


def component_labels(entities: pa.Table, relationships: pa.Table) -> pa.Table:
    """Driver kernel of ``connected_components``: (name, component) of
    every entity and edge endpoint, component = the minimum name."""
    labels = pa.concat_tables(
        [_star_label_rows(_driver_union_find(_pair_batch(relationships))),
         _self_label_rows(entities)],
        promote_options="permissive",
    )
    # the label min of _labels_from_star, as one Arrow hash aggregate
    mins = labels.group_by("name").aggregate([("component", "min")])
    return pa.table({"name": mins.column("name"),
                     "component": mins.column("component_min")})


def connected_components_from_edges(
    edge_pairs,
    nodes=None,
    max_iters: int = 50,
    num_partitions: int = 32,
    driver_threshold: int = DRIVER_THRESHOLD,
):
    """Generic star-contraction CC over a Dataset[(u, v)] edge list.

    -> Dataset[(name, component)]; component = min node id in the
    component.  ``nodes`` (Dataset with a ``name`` column) supplies
    isolated nodes, which become their own singleton components.  Also
    reused by the near-duplicate stages to cluster duplicate pairs
    (stages/dedup.py).

    Graphs with <= ``driver_threshold`` distinct edges take a driver-side
    union-find fast path (one pass, no shuffle rounds; the edge dedup
    before it and the label min after it run on the driver too when
    their inputs are that small); larger graphs run the distributed star
    contraction.  Entity graphs are usually tiny
    relative to the corpus, but at 10^12-doc scale they are not — the
    threshold keeps both regimes first-class.
    """
    edges = _dedup_edges(edge_pairs, driver_threshold).materialize()
    if edges.count() <= driver_threshold:
        import ray.data

        from knowledge_graph_ray.functions.grouping import driver_arrow_table

        star = _driver_union_find(
            driver_arrow_table(edges) or _EDGE_SCHEMA.empty_table())
        edges = ray.data.from_arrow(star)
        return _labels_from_star(edges, nodes, driver_threshold)
    prev_sig, converged = None, False
    for _ in range(max_iters):
        edges = _star_round(edges, large=True,
                            driver_threshold=driver_threshold).materialize()
        edges = _star_round(edges, large=False,
                            driver_threshold=driver_threshold).materialize()
        sig = _signature(edges)
        if sig == prev_sig:
            converged = True
            break
        prev_sig = sig
    if not converged:
        # applying _labels_from_star to a non-star edge set would return
        # silently WRONG component labels — fail loudly instead
        raise RuntimeError(
            f"star contraction did not converge in {max_iters} rounds "
            f"(last signature {prev_sig}); raise max_iters"
        )
    return _labels_from_star(edges, nodes, driver_threshold)


def _labels_from_star(edges, nodes=None,
                      driver_threshold: int | None = DRIVER_THRESHOLD):
    """Star-forest edges (u=root, v=member) -> (name, component) labels;
    the groupby-min runs on the driver when its partials are at most
    ``driver_threshold`` rows."""
    sources = edges.map_batches(_star_label_rows, batch_format="pyarrow")
    if nodes is not None:
        # isolated nodes: every node not appearing in an edge gets itself
        # as component; groupby-min merges the row sources.
        sources = sources.union(
            nodes.select_columns(["name"]).map_batches(
                _self_label_rows, batch_format="pyarrow")
        )
    from knowledge_graph_ray.functions.agg import grouped_agg

    return grouped_agg(sources, ["name"],
                       [("component", "component", "min")],
                       driver_threshold=driver_threshold)


def connected_components(
    entities,
    relationships,
    max_iters: int = 50,
    num_partitions: int = 32,
):
    """Entity-graph CC: canonical (src, dst) relationship table + entity
    table (for isolated nodes) -> Dataset[(name, component)].
    ``component_labels`` is its driver kernel on Arrow tables."""
    from knowledge_graph_ray.functions import grouping

    empty = grouping.empty_tables([entities, relationships])
    if empty is not None:
        return grouping.driver_dataset(component_labels(*empty))
    return connected_components_from_edges(
        _edge_pairs(relationships),
        nodes=entities,
        max_iters=max_iters,
        num_partitions=num_partitions,
    )
