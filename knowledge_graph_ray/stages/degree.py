"""Node degrees + edge rank (SURVEY.md G4 / J1).

Reference: node degree from the global graph
(/root/reference/verbs/community_detection/cluster_graph.py:55-57); edge
rank = source_degree + target_degree with fillna(0) after two left joins
(/root/reference/verbs/community_summarization/prepare_report/compute_edge_degree.py:11-54).

Ray-Data-native: degrees are a partial-count per batch (both endpoints)
followed by a small groupby-sum — no global graph.  Attaching degrees to
the entity/edge tables is a left-outer ``hash_join`` (fillna 0): one Arrow
join on the driver when both sides together are at most
``DRIVER_THRESHOLD`` rows, else a hash-partitioned bucket shuffle, which
scales to entity tables that don't fit one node.  Each stage also has a
driver kernel on Arrow tables (``degrees_table``, ``entity_degrees_table``,
``edge_degrees_table``), which ``build_knowledge_graph`` runs instead of
the Dataset path when its inputs are small Arrow tables.
"""

from __future__ import annotations

import pyarrow as pa

from knowledge_graph_ray.functions import grouping
from knowledge_graph_ray.functions.joins import hash_join, join_arrow, project


def degree_partials_batch(batch: pa.Table) -> pa.Table:
    """relationship rows -> partial (name, cnt) for both endpoints
    (vectorized arrow value_counts, no Python row loop)."""
    src = batch.column("src").combine_chunks()
    dst = batch.column("dst").combine_chunks()
    both = pa.chunked_array([src, dst])
    vc = both.value_counts()  # StructArray<values, counts>
    return pa.Table.from_pydict(
        {
            "name": vc.field("values"),
            "cnt": vc.field("counts").cast(pa.int64()),
        }
    )


def _fill_degree(batch: pa.Table) -> pa.Table:
    """entity ⟕ degrees rows: missing degree -> 0."""
    deg = batch.column("degree").fill_null(0)
    return batch.set_column(batch.schema.get_field_index("degree"), "degree", deg)


def _finish_edge_degrees(batch: pa.Table) -> pa.Table:
    """edge ⟕ degrees (both endpoints) rows: missing degrees -> 0, and
    rank = source_degree + target_degree."""
    import pyarrow.compute as pc

    sd = batch.column("source_degree").fill_null(0)
    td = batch.column("target_degree").fill_null(0)
    batch = batch.set_column(
        batch.schema.get_field_index("source_degree"), "source_degree", sd
    )
    batch = batch.set_column(
        batch.schema.get_field_index("target_degree"), "target_degree", td
    )
    return batch.append_column("rank", pc.add(sd, td))


def _endpoint_degrees(degrees: pa.Table, end: str, column: str) -> pa.Table:
    """degrees (name, degree) renamed to (``end``, ``column``)."""
    return degrees.select(["name", "degree"]).rename_columns([end, column])


def degrees_table(relationships: pa.Table) -> pa.Table:
    """Driver kernel of ``compute_degrees``: the partial count over the
    whole table is already the final (name, degree) count."""
    return degree_partials_batch(relationships).rename_columns(["name", "degree"])


def entity_degrees_table(entities: pa.Table, degrees: pa.Table) -> pa.Table:
    """Driver kernel of ``attach_entity_degrees``."""
    return _fill_degree(join_arrow(entities, degrees, ["name"], "left_outer"))


def edge_degrees_table(relationships: pa.Table, degrees: pa.Table) -> pa.Table:
    """Driver kernel of ``attach_edge_degrees``."""
    with_src = join_arrow(relationships,
                          _endpoint_degrees(degrees, "src", "source_degree"),
                          ["src"], "left_outer")
    with_both = join_arrow(with_src,
                           _endpoint_degrees(degrees, "dst", "target_degree"),
                           ["dst"], "left_outer")
    return _finish_edge_degrees(with_both)


def compute_degrees(relationships):
    """Dataset[relationship] -> Dataset[(name, degree)].

    Degree = number of distinct canonical edges incident to the entity
    (matches nx.Graph.degree on the merged graph: one undirected edge per
    endpoint pair, self-loop-free by construction of the canonical key):
    per-batch partials feed ``grouped_agg``.
    """
    from knowledge_graph_ray.functions.agg import grouped_agg

    empty = grouping.empty_tables([relationships])
    if empty is not None:
        return grouping.driver_dataset(degrees_table(*empty))
    partials = relationships.select_columns(["src", "dst"]).map_batches(
        degree_partials_batch, batch_format="pyarrow"
    )
    return grouped_agg(partials, ["name"], [("degree", "cnt", "sum")])


def attach_entity_degrees(entities, degrees, num_partitions: int = 32):
    """entities ⟕ degrees on name; missing -> degree 0."""
    empty = grouping.empty_tables([entities, degrees])
    if empty is not None:
        return grouping.driver_dataset(entity_degrees_table(*empty))
    joined = hash_join(
        entities, degrees, on=["name"], how="left_outer", num_partitions=num_partitions
    )
    return joined.map_batches(_fill_degree, batch_format="pyarrow")


def attach_edge_degrees(relationships, degrees, num_partitions: int = 32):
    """edges ⟕ degrees on src, then dst; rank = source_degree + target_degree
    (compute_edge_degree.py:11-54)."""
    empty = grouping.empty_tables([relationships, degrees])
    if empty is not None:
        return grouping.driver_dataset(edge_degrees_table(*empty))
    # project() not rename_columns: two projected branches of `degrees`
    # land in one DAG — Project ops can be dropped by fusion (joins.project)
    with_src = hash_join(
        relationships,
        project(degrees, {"name": "src", "degree": "source_degree"}),
        on=["src"],
        how="left_outer",
        num_partitions=num_partitions,
    )
    with_both = hash_join(
        with_src,
        project(degrees, {"name": "dst", "degree": "target_degree"}),
        on=["dst"],
        how="left_outer",
        num_partitions=num_partitions,
    )
    return with_both.map_batches(_finish_edge_degrees, batch_format="pyarrow")
