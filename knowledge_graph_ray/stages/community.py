"""Hierarchical community detection, component-parallel.

Reference: graspologic ``hierarchical_leiden(max_cluster_size=10,
seed=6969)`` on the largest connected component only
(/root/reference/verbs/community_detection/clustering/leiden.py:45-61,
use_lcc=True default).  graspologic is not available in this sandbox, so
the strategy is networkx ``louvain_communities`` with recursive
re-clustering of clusters larger than ``max_cluster_size`` — the same
hierarchy contract (level L+1 refines oversized level-L clusters; parity
is asserted on community granularity, SURVEY.md §7.5).

Scale shape: hierarchical Leiden/Louvain is not data-parallel, but it IS
component-parallel (SURVEY.md §4) — components are computed first via
distributed label propagation (stages/components.py), then each
component's subgraph is clustered independently inside
``groupby(component).map_groups``.  The giant component lands on one
task; at extreme scale give that stage a high-memory resource request.
Community ids are content-derived (md5 of component + path), so they are
stable under any execution order.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import pandas as pd

if TYPE_CHECKING:  # imported lazily at use sites: ~0.5s import per
    import networkx as nx  # worker process, paid only by clustering tasks

from knowledge_graph_ray.config import MAX_CLUSTER_SIZE, SEED
from knowledge_graph_ray.functions.grouping import DRIVER_THRESHOLD
from knowledge_graph_ray.functions.joins import hash_join

COMMUNITY_COLUMNS = ["level", "community", "name"]

COMMUNITY_SCHEMA = None  # built lazily to avoid importing pyarrow at module scope


def _community_schema():
    import pyarrow as pa

    return pa.schema(
        [("level", pa.int64()), ("community", pa.string()), ("name", pa.string())]
    )


def _cid(component: str, path: str) -> str:
    digest = hashlib.md5(f"{component}|{path}".encode()).hexdigest()[:12]
    return f"c{digest}"


def rd_empty_communities():
    import ray.data as rd

    return rd.from_arrow(_community_schema().empty_table())


# above this node count a subgraph skips modularity Louvain and descends
# via the deterministic ordered bisection — the hierarchy contract
# survives, memory AND time stay bounded.  Measured (2026-08-18, this
# host): networkx louvain is 62 s at 50k nodes / 150k edges and >8 min at
# 100k — 500k would be tens of minutes in ONE task, so the threshold sits
# where a single leaf task finishes in ~a minute.  Components above it
# are pre-split distributed (rank arithmetic, no edges needed) and each
# bisection leaf is clustered in its OWN parallel task (see
# detect_communities), so lowering the threshold buys parallelism rather
# than deepening a sequential recursion.
MAX_LOUVAIN_COMPONENT_NODES = 50_000

# detect_communities' driver regime runs the clustering itself, one
# component after another, where the distributed regime clusters
# components in parallel tasks: it pays for its exchanges on smaller
# graphs than the shared DRIVER_THRESHOLD (sized for exchange bodies
# that do little work per row) assumes
CLUSTER_DRIVER_THRESHOLD = 100_000


def _canonical_graph(names, edge_triples) -> "nx.Graph":
    """Deterministic graph build: sorted node insertion, edges normalized
    to (min, max) orientation and inserted in sorted (u, v, w) order.

    networkx louvain tie-breaks follow adjacency-dict INSERTION order, so
    every path that builds a graph for clustering (driver loop,
    per-component map_groups, bisection-leaf map_groups, and the
    recursion's induced subgraphs) must build it identically or the same
    component clusters differently depending on the execution regime.
    Sorting by (u, v, w) also makes the duplicate-edge winner (nx keeps
    the last-added weight) input-order-independent.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(names))
    g.add_weighted_edges_from(sorted(
        (u, v, w) if u <= v else (v, u, w) for u, v, w in edge_triples
    ))
    return g


def _induced_subgraph(g: "nx.Graph", cluster) -> "nx.Graph":
    """Canonically-ordered induced subgraph (see _canonical_graph)."""
    return _canonical_graph(
        cluster,
        ((u, v, d["weight"]) for u, v, d in g.subgraph(cluster).edges(data=True)),
    )


def _cluster_component(
    graph: nx.Graph, component: str, max_cluster_size: int, seed: int,
    max_louvain_nodes: int = MAX_LOUVAIN_COMPONENT_NODES,
    start_level: int = 0, start_path: str = "",
    algorithm: str = "louvain",
) -> list[dict]:
    """Hierarchical louvain/leiden: rows (level, community, name).

    ``start_level``/``start_path`` let a caller resume the recursion
    below pre-computed bisection levels (the distributed giant-component
    path) — rows come out identical to a single recursion from the root.

    ``algorithm``: "louvain" (networkx, the engine default — pinned
    outputs) or "leiden" (functions/leiden.py, the reference's actual
    algorithm per graspologic leiden.py:45-61; guarantees connected
    communities and is 3-5x faster than networkx louvain at leaf scale,
    BASELINE.md round 5).
    """
    import networkx as nx

    if algorithm == "leiden":
        from knowledge_graph_ray.functions.leiden import leiden_communities

        def _partition(g):
            return leiden_communities(g, weight="weight", seed=seed)
    elif algorithm == "louvain":
        def _partition(g):
            return nx.community.louvain_communities(g, weight="weight", seed=seed)
    else:
        raise ValueError(f"unknown clustering algorithm: {algorithm!r}")

    rows: list[dict] = []

    def recurse(subgraph: nx.Graph, level: int, path: str) -> None:
        # NOTE: the size guard must come FIRST — an oversized subgraph
        # with zero internal edges must still bisect, because the
        # distributed pre-split (_leaf_assignments) is edge-free rank
        # arithmetic and the two regimes must emit identical rows
        if (subgraph.number_of_nodes() > max_louvain_nodes
                and subgraph.number_of_nodes() > 1):
            # giant-component guard: modularity Louvain on a graph this
            # size would dominate one task's memory/time — descend via a
            # deterministic ordered bisection until Louvain is affordable
            import logging

            logging.getLogger(__name__).warning(
                "component %s level %d: %d nodes > max_louvain_nodes=%d, "
                "using ordered bisection for this level",
                component, level, subgraph.number_of_nodes(), max_louvain_nodes,
            )
            ordered = sorted(subgraph.nodes())
            half = (len(ordered) + 1) // 2
            clusters = [set(ordered[:half]), set(ordered[half:])]
        elif subgraph.number_of_nodes() <= 1 or subgraph.number_of_edges() == 0:
            clusters = [set(subgraph.nodes())] if subgraph.number_of_nodes() else []
        else:
            clusters = [set(c) for c in _partition(subgraph)]
        if len(clusters) <= 1 and subgraph.number_of_nodes() > max_cluster_size:
            # no modularity split — force a deterministic bisection so the
            # hierarchy terminates (graspologic bisects internally too)
            ordered = sorted(subgraph.nodes())
            clusters = [
                set(ordered[i : i + max_cluster_size])
                for i in range(0, len(ordered), max_cluster_size)
            ]
        for ci, cluster in enumerate(sorted(clusters, key=min)):
            cid = _cid(component, f"{path}/{ci}")
            for node in cluster:
                rows.append({"level": level, "community": cid, "name": node})
            if len(cluster) > max_cluster_size:
                recurse(_induced_subgraph(subgraph, cluster),
                        level + 1, f"{path}/{ci}")

    recurse(graph, start_level, start_path)
    return rows


def _leaf_assignments(
    sub: pd.DataFrame, max_louvain_nodes: int, max_cluster_size: int
):
    """Per-component ordered-bisection leaf assignment, edge-free.

    The bisection branch of ``_cluster_component`` splits by SORTED node
    order only — no edges — so for a component larger than
    ``max_louvain_nodes`` every level above the Louvain threshold is a
    pure function of (rank, component size).  Returns an Arrow table
    (component, name, leaf_path, leaf_level): ``leaf_path`` is the
    recursion path prefix ("/0/1/..." exactly as recurse() would build
    it) of the first subgraph at or below the threshold, ``leaf_level``
    the recursion level that subgraph starts at.  Vectorized: one
    argsort + O(log(n/threshold)) numpy passes.

    Descent gates mirror ``_cluster_component`` exactly: the ROOT
    bisects iff n > max_louvain_nodes (recurse() is always entered for
    the whole component), but a bisected CHILD is only descended into
    when it is both > max_cluster_size (the ``recurse`` re-entry guard)
    and > max_louvain_nodes (the bisection-vs-louvain branch) — without
    the max_cluster_size term the two regimes diverge whenever
    max_cluster_size > max_louvain_nodes.
    """
    import numpy as np
    import pyarrow as pa

    names = sub["name"].to_numpy()
    n = len(names)
    order = np.argsort(names, kind="stable")
    r = np.empty(n, dtype=np.int64)
    r[order] = np.arange(n, dtype=np.int64)
    s = np.full(n, n, dtype=np.int64)
    leaf_level = np.zeros(n, dtype=np.int64)
    packed = np.zeros(n, dtype=np.int64)
    active = s > max_louvain_nodes
    k = 0
    while active.any():
        half = (s + 1) // 2
        hi = (r >= half) & active
        packed |= hi.astype(np.int64) << k
        r = np.where(hi, r - half, r)
        s = np.where(active, np.where(hi, s - half, half), s)
        leaf_level += active
        active = (s > max_louvain_nodes) & (s > max_cluster_size)
        k += 1
    # decode (leaf_level, packed-bit) pairs into path strings once per
    # UNIQUE leaf (<= ~2*n/threshold of them), then gather
    key = (leaf_level << k) | packed if k else leaf_level
    uniq, inv = np.unique(key, return_inverse=True)
    strs = []
    for u in uniq:
        lvl = int(u >> k) if k else int(u)
        bits = int(u & ((1 << k) - 1)) if k else 0
        strs.append("".join(
            "/1" if (bits >> i) & 1 else "/0" for i in range(lvl)
        ))
    paths = np.array(strs, dtype=object)[inv]
    return pa.Table.from_pydict(
        {
            "component": sub["component"].to_numpy(),
            "name": names,
            "leaf_path": paths,
            "leaf_level": leaf_level,
        },
        schema=pa.schema(
            [("component", pa.string()), ("name", pa.string()),
             ("leaf_path", pa.string()), ("leaf_level", pa.int64())]
        ),
    )


def _expand_prefix_rows(batch) -> "pa.Table":
    """Leaf assignments -> the bisection levels ABOVE each leaf.

    A node whose leaf starts at level L was, at every level k < L, a
    member of the bisection cluster identified by the first k+1 segments
    of its leaf path — emit those (level, community, name) rows directly;
    no graph, no task concentration.  Nodes with leaf_level == 0 (normal
    components) expand to nothing.
    """
    import numpy as np
    import pyarrow as pa

    df = batch.to_pandas() if not isinstance(batch, pd.DataFrame) else batch
    lvls = df["leaf_level"].to_numpy()
    reps = lvls.astype(np.int64)
    idx = np.repeat(np.arange(len(df), dtype=np.int64), reps)
    if len(idx) == 0:
        return _community_schema().empty_table()
    cum = np.concatenate([[0], np.cumsum(reps)])
    level = np.arange(cum[-1], dtype=np.int64) - cum[idx]
    comps = df["component"].to_numpy()[idx]
    paths = df["leaf_path"].to_numpy()[idx]
    # md5 once per UNIQUE (component, path, level) cluster (<= a few per
    # threshold-sized leaf), then gather — no per-row Python in the loop
    codes, uniques = pd.MultiIndex.from_arrays(
        [comps, paths, level]
    ).factorize()
    uniq_cids = np.array(
        [
            # first k+1 segments of the leaf path
            _cid(c, "/".join(p.split("/")[: int(k) + 2]))
            for c, p, k in uniques
        ],
        dtype=object,
    )
    cids = uniq_cids[codes]
    return pa.Table.from_pydict(
        {
            "level": pa.array(level, type=pa.int64()),
            "community": pa.array(cids, type=pa.string()),
            "name": pa.array(df["name"].to_numpy()[idx], type=pa.string()),
        },
        schema=_community_schema(),
    )


def _lcc_rows(comp_pdf: pd.DataFrame):
    """Driver LCC pick over a non-empty (name, component) frame ->
    (its rows in the largest component, that component, its size).
    Same tie-break as the dataset-side pass: count descending, then
    smallest component id (the size index is sorted, and idxmax takes
    the first maximum)."""
    sizes = comp_pdf.groupby("component").size()
    largest, largest_size = sizes.idxmax(), int(sizes.max())
    return comp_pdf[comp_pdf["component"] == largest], largest, largest_size


def _cluster_on_driver(comp_pdf: pd.DataFrame, rels_pdf: pd.DataFrame,
                       max_cluster_size: int, seed: int,
                       max_louvain_nodes: int, algorithm: str) -> "pa.Table":
    """Cluster every component of ``comp_pdf`` (name, component) with
    its edges from ``rels_pdf`` (src, dst, weight), one after another
    on the driver -> the (level, community, name) table."""
    import pyarrow as pa

    if rels_pdf.empty:  # a zero-row pull may carry no columns
        rels_pdf = pd.DataFrame(columns=["src", "dst", "weight"])
    comp_of = dict(zip(comp_pdf["name"], comp_pdf["component"]))
    # stamp each edge's component ONCE (was an O(components x edges)
    # re-scan per component); both endpoints must map to the same
    # component — under use_lcc, out-of-LCC endpoints map to NaN and
    # the edge drops, matching the old `dst in g` check
    rels_pdf = rels_pdf.assign(component=rels_pdf["src"].map(comp_of))
    rels_pdf = rels_pdf[
        rels_pdf["component"].notna()
        & (rels_pdf["dst"].map(comp_of) == rels_pdf["component"])
    ]
    edges_by_comp = dict(tuple(rels_pdf.groupby("component", sort=False)))
    rows: list[dict] = []
    for component, sub in comp_pdf.groupby("component"):
        # canonical build — louvain tie-breaks depend on adjacency
        # insertion order, see _canonical_graph
        e = edges_by_comp.get(component)
        triples = (
            zip(e["src"], e["dst"], e["weight"]) if e is not None else ()
        )
        g = _canonical_graph(sub["name"], triples)
        rows.extend(
            _cluster_component(g, component, max_cluster_size, seed,
                               max_louvain_nodes, algorithm=algorithm)
        )
    return pa.Table.from_pylist(rows, schema=_community_schema())


def cluster_tables(components: "pa.Table", relationships: "pa.Table",
                   max_cluster_size: int = MAX_CLUSTER_SIZE, seed: int = SEED,
                   use_lcc: bool = True,
                   max_louvain_nodes: int = MAX_LOUVAIN_COMPONENT_NODES,
                   algorithm: str = "louvain") -> "pa.Table":
    """Driver kernel of ``detect_communities`` on Arrow tables: the LCC
    pick (``use_lcc``) and the clustering, with no Ray execution."""
    comp_pdf = components.to_pandas()
    if use_lcc:
        if comp_pdf.empty:
            return _community_schema().empty_table()
        comp_pdf = _lcc_rows(comp_pdf)[0]
    return _cluster_on_driver(
        comp_pdf, relationships.select(["src", "dst", "weight"]).to_pandas(),
        max_cluster_size, seed, max_louvain_nodes, algorithm,
    )


def detect_communities(
    components,
    relationships,
    max_cluster_size: int = MAX_CLUSTER_SIZE,
    seed: int = SEED,
    use_lcc: bool = True,
    num_partitions: int = 32,
    max_louvain_nodes: int = MAX_LOUVAIN_COMPONENT_NODES,
    clustering_num_cpus: float | None = None,
    clustering_memory: float | None = None,
    driver_threshold: int = CLUSTER_DRIVER_THRESHOLD,
    algorithm: str = "louvain",
):
    """-> Dataset[(level:int, community:str, name:str)].

    ``components``: Dataset[(name, component)] from connected_components.
    ``use_lcc`` mirrors the reference default (cluster only the largest
    connected component, leiden.py:51-52).

    ``cluster_tables`` is its driver kernel on Arrow tables.
    Size-adaptive: graphs whose clustered node count is provably <=
    ``driver_threshold`` run the hierarchy locally on the driver after
    pulling their inputs — clustering is per-component sequential work
    anyway, and the shuffle rounds cost more than the computation for
    small graphs.
    Larger graphs take the distributed component-parallel path.

    Cost note: a component table of at most ``driver_threshold`` rows is
    pulled to the driver once, and the LCC pick (``use_lcc=True``) runs
    there with no exchange.  A larger table pays one
    components.groupby().count() round (~0.1-0.3 s of fixed latency at
    1 CPU): with ``use_lcc=True`` it is the LCC top-1 pass, which also
    yields the size the giant-component check needs; with
    ``use_lcc=False`` on the distributed path it is the probe that
    detects >``max_louvain_nodes`` components before clustering.  That
    probe is what lets a giant component run as parallel bisection
    leaves instead of one multi-hour task (BASELINE.md, 1M-node run).
    """
    import pyarrow as pa

    # read by the LCC pick, the size gate and the driver pull (or the
    # distributed joins): execute the component labels once
    components = components.materialize()
    comp_pdf = None
    if components.count() <= driver_threshold:
        comp_pdf = components.to_pandas()

    if use_lcc:
        if comp_pdf is not None:
            if comp_pdf.empty:
                return rd_empty_communities()
            comp_pdf, largest, largest_size = _lcc_rows(comp_pdf)
        else:
            # dataset-side top-1: with singleton components for every
            # isolated entity the size table is entity-scale — never
            # to_pandas() it, and never full-sort it: a per-batch local
            # top-1 combiner bounds the final pull to one row per block
            # (ties broken by smallest component id)
            def local_top1(b: pa.Table) -> pa.Table:
                df = b.to_pandas()
                df = df.sort_values(["count()", "component"],
                                    ascending=[False, True], kind="stable")
                return pa.Table.from_pandas(df.head(1), preserve_index=False)

            top = (
                components.groupby("component")
                .count()
                .map_batches(local_top1, batch_format="pyarrow")
                .to_pandas()
            )
            if top.empty:
                return rd_empty_communities()
            top = top.sort_values(["count()", "component"],
                                  ascending=[False, True], kind="stable")
            largest = top["component"].iloc[0]
            largest_size = int(top["count()"].iloc[0])
        lcc = components.filter(expr=f"component == {largest!r}")
        if comp_pdf is None and largest_size <= driver_threshold:
            comp_pdf = lcc.to_pandas()
        components = lcc

    if comp_pdf is not None and relationships.count() <= driver_threshold:
        # driver fast path: pull the (PROVABLY bounded — both counts
        # checked) node/edge lists once, cluster locally, return the
        # table — zero shuffle rounds
        import ray.data as rd

        return rd.from_arrow(_cluster_on_driver(
            comp_pdf,
            relationships.select_columns(["src", "dst", "weight"]).to_pandas(),
            max_cluster_size, seed, max_louvain_nodes, algorithm,
        ))

    from knowledge_graph_ray.functions.joins import project

    # clustering_num_cpus/memory: resource annotation for the clustering
    # tasks — at scale give them headroom (e.g. clustering_memory=32e9)
    # and the scheduler will place them on nodes with room
    remote_args = {}
    if clustering_num_cpus is not None:
        remote_args["num_cpus"] = clustering_num_cpus
    if clustering_memory is not None:
        remote_args["memory"] = clustering_memory

    # components larger than max_louvain_nodes take the pre-split path:
    # their bisection levels are edge-free rank arithmetic, and each
    # bisection leaf louvains in its OWN task — no giant-component task
    if use_lcc:
        giants = [largest] if largest_size > max_louvain_nodes else []
    else:
        import pyarrow.compute as pc

        def _only_giants(b: pa.Table) -> pa.Table:
            return b.filter(
                pc.greater(b.column("count()"), max_louvain_nodes)
            )

        # bounded pull: at most total_nodes/max_louvain_nodes rows.
        # NB: an all-filtered (no-giant) result loses its schema through
        # to_pandas() (Ray 2.49 empty-Dataset pitfall) — guard on empty
        giants_pdf = (
            components.groupby("component")
            .count()
            .map_batches(_only_giants, batch_format="pyarrow")
            .to_pandas()
        )
        giants = ([] if giants_pdf.empty
                  else sorted(giants_pdf["component"]))

    if giants:
        return _detect_communities_with_giants(
            components, relationships, giants, max_cluster_size, seed,
            num_partitions, max_louvain_nodes, remote_args, algorithm,
        )

    # tag edges with the component of their src (dst is in the same component)
    edges = hash_join(
        relationships.select_columns(["src", "dst", "weight"]),
        project(components, {"name": "src", "component": "component"}),
        on=["src"],
        how="inner",
        num_partitions=num_partitions,
    )

    edge_rows = edges.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "component": b.column("component"),
                "src": b.column("src"),
                "dst": b.column("dst"),
                "weight": b.column("weight"),
                "name": pa.nulls(len(b), pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    node_rows = components.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "component": b.column("component"),
                "src": pa.nulls(len(b), pa.string()),
                "dst": pa.nulls(len(b), pa.string()),
                "weight": pa.nulls(len(b), pa.float64()),
                "name": b.column("name"),
            }
        ),
        batch_format="pyarrow",
    )

    def cluster_group(group: pd.DataFrame):
        import networkx as nx

        component = group["component"].iloc[0]
        # canonical build — see _canonical_graph
        edges = group.loc[group["src"].notna(), ["src", "dst", "weight"]]
        g = _canonical_graph(
            (n for n in group["name"] if isinstance(n, str)),
            zip(edges["src"], edges["dst"], edges["weight"]),
        )
        rows = _cluster_component(
            g, component, max_cluster_size, seed, max_louvain_nodes,
            algorithm=algorithm,
        )
        return pa.Table.from_pylist(rows, schema=_community_schema())

    return edge_rows.union(node_rows).groupby("component").map_groups(
        cluster_group, batch_format="pandas", **remote_args
    )


def _detect_communities_with_giants(
    components, relationships, giants: list, max_cluster_size: int,
    seed: int, num_partitions: int, max_louvain_nodes: int,
    remote_args: dict, algorithm: str = "louvain",
):
    """Distributed regime when >max_louvain_nodes components exist.

    Three pieces, all component-parallel AND leaf-parallel:
    1. one rank-arithmetic task per giant component assigns every node
       its bisection leaf (``_leaf_assignments``); normal components map
       to the trivial leaf ("", level 0) without sorting;
    2. the bisection levels above each leaf stream out of the assignment
       table (``_expand_prefix_rows``) — no graph is ever built for them;
    3. every (component, leaf) subgraph louvains in its OWN map_groups
       task — the giant component becomes ~2n/max_louvain_nodes parallel
       tasks instead of one monolith.  Edges crossing leaves drop,
       exactly as ``subgraph(cluster)`` drops them in the single-task
       recursion, so rows are identical to ``_cluster_component`` run
       whole (pytest-verified equality).

    Costs one extra hash_join vs the no-giant path (edges need BOTH
    endpoint leaves, not just the src component); only paid when a giant
    component exists.
    """
    import numpy as np
    import pyarrow as pa

    from knowledge_graph_ray.functions.joins import project

    components = components.materialize()
    giant_arr = pa.array(sorted(giants), type=pa.string())

    def _split(want_giant: bool):
        def fn(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            m = pc.is_in(b.column("component"), value_set=giant_arr)
            return b.filter(m if want_giant else pc.invert(m))

        return fn

    comp_g = components.map_batches(_split(True), batch_format="pyarrow")
    comp_n = components.map_batches(_split(False), batch_format="pyarrow")

    def _trivial_leaf(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "component": b.column("component"),
                "name": b.column("name"),
                "leaf_path": pa.array([""] * len(b), type=pa.string()),
                "leaf_level": pa.array(
                    np.zeros(len(b), dtype=np.int64), type=pa.int64()
                ),
            }
        )

    leaves = (
        comp_g.groupby("component")
        .map_groups(
            lambda g: _leaf_assignments(g, max_louvain_nodes,
                                        max_cluster_size),
            batch_format="pandas",
        )
        .union(comp_n.map_batches(_trivial_leaf, batch_format="pyarrow"))
        .materialize()  # feeds 4 consumers (pre-rows, 2 joins, node rows)
    )

    pre_rows = leaves.map_batches(_expand_prefix_rows, batch_format="pyarrow")

    edges = hash_join(
        relationships.select_columns(["src", "dst", "weight"]),
        project(leaves, {"name": "src", "component": "component",
                         "leaf_path": "lp_src"}),
        on=["src"],
        how="inner",
        num_partitions=num_partitions,
    )
    edges = hash_join(
        edges,
        project(leaves, {"name": "dst", "leaf_path": "lp_dst"}),
        on=["dst"],
        how="inner",
        num_partitions=num_partitions,
    ).filter(expr="lp_src == lp_dst")

    edge_rows = edges.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "component": b.column("component"),
                "leaf_path": b.column("lp_src"),
                "src": b.column("src"),
                "dst": b.column("dst"),
                "weight": b.column("weight"),
                "name": pa.nulls(len(b), pa.string()),
                "leaf_level": pa.nulls(len(b), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    node_rows = leaves.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "component": b.column("component"),
                "leaf_path": b.column("leaf_path"),
                "src": pa.nulls(len(b), pa.string()),
                "dst": pa.nulls(len(b), pa.string()),
                "weight": pa.nulls(len(b), pa.float64()),
                "name": b.column("name"),
                "leaf_level": b.column("leaf_level"),
            }
        ),
        batch_format="pyarrow",
    )

    def leaf_cluster_group(group: pd.DataFrame):
        import networkx as nx

        component = group["component"].iloc[0]
        leaf_path = group["leaf_path"].iloc[0]
        node_mask = group["name"].notna()
        leaf_level = int(group.loc[node_mask, "leaf_level"].iloc[0])
        edges = group.loc[group["src"].notna(), ["src", "dst", "weight"]]
        # canonical build — see _canonical_graph
        g = _canonical_graph(
            (n for n in group["name"] if isinstance(n, str)),
            zip(edges["src"], edges["dst"], edges["weight"]),
        )
        if leaf_level > 0 and g.number_of_nodes() <= max_cluster_size:
            # the parent recursion would not descend into a cluster this
            # small — emit nothing (its rows already exist at pre-levels)
            return _community_schema().empty_table()
        rows = _cluster_component(
            g, component, max_cluster_size, seed, max_louvain_nodes,
            start_level=leaf_level, start_path=leaf_path,
            algorithm=algorithm,
        )
        return pa.Table.from_pylist(rows, schema=_community_schema())

    leaf_rows = (
        edge_rows.union(node_rows)
        .groupby(["component", "leaf_path"])
        .map_groups(leaf_cluster_group, batch_format="pandas", **remote_args)
    )
    return leaf_rows.union(pre_rows)


def _hierarchy_schema():
    import pyarrow as pa

    return pa.schema(
        [("community", pa.string()), ("level", pa.int64()),
         ("sub_community", pa.string()), ("sub_community_size", pa.int64())]
    )


_SUB_KEY = ["sub_community", "sub_level"]


def _adjacent_only(b: "pa.Table") -> "pa.Table":
    """Parent/child join rows -> the pairs one level apart."""
    import pyarrow as pa
    import pyarrow.compute as pc

    return b.filter(
        pc.equal(b.column("sub_level"),
                 pc.add(b.column("level"), pa.scalar(1, pa.int64())))
    )


def _pair_rows(b: "pa.Table") -> "pa.Table":
    """Adjacent parent/child pairs -> hierarchy bucket rows."""
    import pyarrow as pa

    n = len(b)
    return pa.Table.from_pydict(
        {
            "sub_community": b.column("sub_community"),
            "sub_level": b.column("sub_level").cast(pa.int64()),
            "p_community": b.column("community"),
            "p_level": b.column("level").cast(pa.int64()),
            "is_member": pa.array([0] * n, type=pa.int8()),
        }
    )


def _member_rows(b: "pa.Table") -> "pa.Table":
    """Community rows -> member-marker bucket rows."""
    import pyarrow as pa

    n = len(b)
    return pa.Table.from_pydict(
        {
            "sub_community": b.column("community"),
            "sub_level": b.column("level").cast(pa.int64()),
            "p_community": pa.nulls(n, pa.string()),
            "p_level": pa.nulls(n, pa.int64()),
            "is_member": pa.array([1] * n, type=pa.int8()),
        }
    )


def _emit_parents(bucket: "pa.Table") -> "pa.Table":
    """Hierarchy bucket rows -> (community, level, sub_community,
    sub_community_size): each sub-community's size counted from its
    member rows, and the parents that share ALL of its members."""
    import pyarrow as pa
    import pyarrow.compute as pc

    member = pc.equal(bucket.column("is_member"), 1)
    sizes = bucket.filter(member).group_by(_SUB_KEY).aggregate([([], "count_all")])
    sizes = sizes.rename_columns(
        ["sub_community_size" if c == "count_all" else c
         for c in sizes.column_names])
    shared = (bucket.filter(pc.invert(member))
              .group_by(_SUB_KEY + ["p_community", "p_level"])
              .aggregate([([], "count_all")])
              .join(sizes, keys=_SUB_KEY, join_type="inner"))
    full = shared.filter(pc.equal(shared.column("count_all"),
                                  shared.column("sub_community_size")))
    # the join's row order is unspecified: sort for a stable table
    return pa.Table.from_pydict(
        {
            "community": full.column("p_community"),
            "level": full.column("p_level"),
            "sub_community": full.column("sub_community"),
            "sub_community_size": full.column("sub_community_size"),
        },
        schema=_hierarchy_schema(),
    ).sort_by([("sub_community", "ascending"), ("level", "ascending"),
               ("community", "ascending")])


def hierarchy_table(communities: "pa.Table") -> "pa.Table":
    """Driver kernel of ``community_hierarchy`` on an Arrow
    (level, community, name) table."""
    import pyarrow as pa

    from knowledge_graph_ray.functions.joins import join_arrow

    if communities.num_rows == 0:
        return _hierarchy_schema().empty_table()
    parent = communities.select(["community", "level", "name"])
    child = parent.rename_columns(["sub_community", "sub_level", "name"])
    joined = join_arrow(parent, child, ["name"], "inner")
    return _emit_parents(pa.concat_tables(
        [_pair_rows(_adjacent_only(joined)), _member_rows(communities)]))


def community_hierarchy(communities, num_partitions: int = 32,
                        driver_threshold: int | None = DRIVER_THRESHOLD):
    """G5 hierarchy table: (community, level, sub_community,
    sub_community_size) — each level-L community paired with the level-L+1
    communities whose members it contains (reference
    verbs/community_summarization/prepare_report/community_hierachy.py:22-74,
    which does the same subset scan in pandas on the driver).

    Distributed: one self-join on name restricted to adjacent levels,
    then pair-scale aggregates; the subset condition (all of the
    sub-community's members appear under the parent) is enforced by
    comparing the shared-member count with the sub-community size.
    ``hierarchy_table`` is its driver kernel on an Arrow table.  Both
    exchanges (the join and the bucket map) run on the driver when
    their inputs are at most ``driver_threshold`` rows.
    """
    import ray.data as rd

    from knowledge_graph_ray.functions.joins import project

    hierarchy_schema = _hierarchy_schema()
    # read three times below (parent, child, member rows): execute once.
    # An empty table ends here — its projections would carry no schema
    # for the join to resolve
    communities = communities.materialize()
    if communities.count() == 0:
        return rd.from_arrow(hierarchy_schema.empty_table())

    parent = project(
        communities, {"community": "community", "level": "level", "name": "name"}
    )
    child = project(
        communities,
        {"community": "sub_community", "level": "sub_level", "name": "name"},
    )
    joined = hash_join(parent, child, on=["name"], how="inner",
                       num_partitions=num_partitions,
                       driver_threshold=driver_threshold)

    # NOT filter(expr="sub_level == level + 1"): Ray 2.49 evaluates
    # column-vs-column arithmetic exprs to no rows silently
    adjacent = joined.map_batches(_adjacent_only, batch_format="pyarrow")

    # one bucket map keyed by the sub-community: parent-pair rows from
    # the adjacency join union'd with member-marker rows; the bucket body
    # counts each sub-community's members (size) and keeps the parents
    # sharing ALL of them
    unioned = adjacent.map_batches(_pair_rows, batch_format="pyarrow").union(
        communities.map_batches(_member_rows, batch_format="pyarrow")
    )

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    return bucketed_bucket_map(
        unioned, _SUB_KEY, _emit_parents, num_buckets=num_partitions,
        empty_schema=hierarchy_schema, body_format="pyarrow",
        driver_threshold=driver_threshold,
    )


def assign_clusters_table(entities: "pa.Table", communities: "pa.Table",
                          level: int = 0) -> "pa.Table":
    """Driver kernel of ``assign_clusters`` on Arrow tables."""
    import pyarrow.compute as pc

    from knowledge_graph_ray.functions.joins import join_arrow

    at_level = communities.filter(pc.equal(communities.column("level"), level))
    clusters = at_level.select(["name", "community"]).rename_columns(
        ["name", "cluster"])
    return join_arrow(entities, clusters, ["name"], "left_outer")


def assign_clusters(entities, communities, level: int = 0, num_partitions: int = 32):
    """Stamp each entity with its community at ``level`` (reference
    cluster_graph.py:49-53 applies level==0 only); entities outside the
    clustered component get null cluster."""
    from knowledge_graph_ray.functions import grouping
    from knowledge_graph_ray.functions.joins import project

    empty = grouping.empty_tables([entities, communities])
    if empty is not None:
        return grouping.driver_dataset(assign_clusters_table(*empty, level))
    at_level = project(
        communities.filter(expr=f"level == {level}"),
        {"name": "name", "community": "cluster"},
    )
    return hash_join(
        entities, at_level, on=["name"], how="left_outer", num_partitions=num_partitions
    )
