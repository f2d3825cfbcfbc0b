"""End-to-end KG construction pipeline (the reference's
workflow/build_workflow.py:20-83 re-expressed as streaming Ray Data stages).

Stage graph::

    docs (interleaved spans)
      └─ chunk_documents            (stateless map_batches)        M1
         └─ extract_mentions        (actor pool)                   A1/A2
            ├─ canonicalize_entities      (partial + groupby)      G1
            └─ canonicalize_relationships (partial + groupby)      G2
               └─ degrees / rank          (G4/J1)
                  └─ components → communities → reports  (§7.3 steps 7-8)

Nothing here calls ray.init(); callers own the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.stages.chunk import chunk_documents
from knowledge_graph_ray.stages.extract import PatternExtractor, extract_mentions
from knowledge_graph_ray.stages.canonicalize import (
    canonicalize_entities,
    canonicalize_relationships,
)


@dataclass
class GraphTables:
    """Canonical outputs of the construction core (lazy Datasets)."""

    text_units: Any
    mentions: Any
    entities: Any
    relationships: Any
    communities: Any = None
    reports: Any = None
    claims: Any = None
    media_features: Any = None
    hierarchy: Any = None  # G5: (community, level, sub_community, size)


def _chunk_and_extract(docs, cfg: PipelineConfig,
                      extractor_cls=PatternExtractor, **extractor_kwargs):
    """docs Dataset -> (text_units, mentions), both LAZY: nothing runs
    until a consumer executes them."""
    text_units = chunk_documents(
        docs, cfg.chunk_size, cfg.chunk_overlap, batch_size=cfg.chunk_batch_size
    )
    mentions = extract_mentions(
        text_units,
        extractor_cls=extractor_cls,
        batch_size=cfg.extract_batch_size,
        concurrency=cfg.extract_concurrency,
        use_actor_pool=cfg.extract_use_actor_pool,
        **extractor_kwargs,
    )
    return text_units, mentions


def _canonical_core(text_units, mentions, cfg: PipelineConfig,
                   mentions_checkpoint: str | None = None,
                   fingerprint: str = "default") -> GraphTables:
    """Lazy (text_units, mentions) -> canonical entity/relationship
    tables.  Executes extraction exactly once: the mentions are pinned
    (or checkpointed) before the G1/G2 merges read them."""
    if mentions_checkpoint is not None:
        from knowledge_graph_ray.state.checkpoint import checkpoint_or_compute

        captured = mentions
        mentions = checkpoint_or_compute(
            lambda: captured, mentions_checkpoint, fingerprint, "mentions"
        )
    else:
        mentions = mentions.materialize()
    # pinned/checkpointed mentions make count() metadata-cheap, and the
    # mention count upper-bounds the combiner's partial rows (x2 for
    # entities: a rel row touches both endpoints) — passing it as
    # size_hint lets the canonicalize merges skip their driver-path
    # size probe (a full materialize barrier) when the corpus is big
    n_mentions = mentions.count()
    entities = canonicalize_entities(
        mentions,
        max_descriptions=cfg.max_descriptions_per_key,
        max_sources=cfg.max_sources_per_key,
        size_hint=2 * n_mentions,
    )
    relationships = canonicalize_relationships(
        mentions,
        max_descriptions=cfg.max_descriptions_per_key,
        max_sources=cfg.max_sources_per_key,
        size_hint=n_mentions,
    )
    return GraphTables(
        text_units=text_units,
        mentions=mentions,
        entities=entities,
        relationships=relationships,
    )


def build_graph(
    docs,
    config: PipelineConfig | None = None,
    extractor_cls=PatternExtractor,
    mentions_checkpoint: str | None = None,
    fingerprint: str = "default",
    **extractor_kwargs,
) -> GraphTables:
    """docs Dataset (interleaved schema) -> canonical entity/relationship tables.

    The mention dataset is pinned in the object store so the two
    downstream canonicalization shuffles don't re-run extraction (the
    expensive stage).  At extreme scale pass ``mentions_checkpoint`` (a
    directory) instead: mentions persist to Parquet with a lineage
    manifest — disk-backed rather than object-store-pinned, and a rerun
    with the same fingerprint resumes past extraction entirely.
    """
    cfg = config or PipelineConfig()
    text_units, mentions = _chunk_and_extract(
        docs, cfg, extractor_cls, **extractor_kwargs
    )
    return _canonical_core(text_units, mentions, cfg, mentions_checkpoint,
                          fingerprint)


def build_knowledge_graph(
    docs,
    config: PipelineConfig | None = None,
    extractor_cls=PatternExtractor,
    num_partitions: int = 32,
    checkpoint_dir: str | None = None,
    fingerprint: str = "default",
    **extractor_kwargs,
) -> GraphTables:
    """Full pipeline: the reference workflow build_workflow.py:20-83 as
    streaming stages — chunk, extract, canonicalize, summarize, degree,
    components, communities, reports (+ optional claims).

    ``checkpoint_dir``: when set, the expensive stage boundaries
    (canonical entities/relationships-with-degrees, communities, the
    community hierarchy) persist to Parquet checkpoints with lineage
    manifests; a rerun with the same ``fingerprint`` resumes from the
    last complete stage instead of recomputing (north rule: resumable
    from checkpoint).  A changed fingerprint (new input) invalidates
    downstream checkpoints.

    Resume contract — with the same fingerprint, complete checkpoints
    skip this work:

    * ``entities_summarized`` + ``relationships_summarized``: chunking,
      extraction (no LLM calls) and the G1/G2 canonicalize merges.  If
      either is missing, the core runs once for both: a partial resume
      extracts at most once.
    * ``entities_degreed`` + ``relationships_degreed``: the degree
      shuffle.
    * ``communities``: the connected-components chain and community
      detection.
    * ``community_hierarchy``: the hierarchy's join and bucket map.  A
      checkpoint directory without this stage computes it once from the
      ``communities`` checkpoint and writes it.
    * ``entities_clustered``, ``reports``, ``claims``,
      ``media_features``: their own stage.

    ``text_units`` (and ``mentions``, when extraction did not run) come
    back as lazy Datasets; consuming them executes chunking (and
    extraction).
    """
    from knowledge_graph_ray.stages.summarize import summarize_descriptions
    from knowledge_graph_ray.stages.degree import (
        attach_edge_degrees,
        attach_entity_degrees,
        compute_degrees,
    )
    from knowledge_graph_ray.stages.components import connected_components
    from knowledge_graph_ray.stages.community import (
        assign_clusters,
        community_hierarchy,
        detect_communities,
    )
    from knowledge_graph_ray.stages.report import generate_reports
    from knowledge_graph_ray.stages.claims import (
        extract_claims,
        merge_claims,
        resolve_claims,
    )

    import os

    from knowledge_graph_ray.state.checkpoint import checkpoint_or_compute

    cfg = config or PipelineConfig()

    def staged(make, stage: str):
        """Materialize a stage output — via a resumable checkpoint when
        checkpoint_dir is set, else in the object store."""
        if checkpoint_dir is None:
            return make().materialize()
        return checkpoint_or_compute(
            make, os.path.join(checkpoint_dir, stage), fingerprint, stage
        )

    if checkpoint_dir is None:
        core = build_graph(docs, cfg, extractor_cls=extractor_cls,
                           **extractor_kwargs)
        text_units, mentions = core.text_units, core.mentions
        # independent DAGs over the pinned mentions — overlap their
        # shuffles in driver threads instead of idling between barriers
        from knowledge_graph_ray.functions.poolcache import (
            materialize_concurrently,
        )

        entities, relationships = materialize_concurrently(
            [
                summarize_descriptions(
                    core.entities,
                    max_input_tokens=cfg.max_summary_input_tokens,
                    max_summary_length=cfg.max_summary_length,
                ),
                summarize_descriptions(core.relationships),
            ]
        )
    else:
        # the extract -> canonicalize core is built lazily and at most
        # once, INSIDE the staged lambdas: when both *_summarized
        # checkpoints are complete neither lambda runs, so a full resume
        # executes no extraction and no G1/G2 merge (resume contract —
        # same class as the degree and CC chains below).  text_units and
        # the lazy mentions cost nothing until executed
        text_units, lazy_mentions = _chunk_and_extract(
            docs, cfg, extractor_cls, **extractor_kwargs
        )
        _core_box: dict = {}

        def _core() -> GraphTables:
            if "c" not in _core_box:
                _core_box["c"] = _canonical_core(text_units, lazy_mentions,
                                                 cfg)
            return _core_box["c"]

        entities = staged(
            lambda: summarize_descriptions(
                _core().entities,
                max_input_tokens=cfg.max_summary_input_tokens,
                max_summary_length=cfg.max_summary_length,
            ),
            "entities_summarized",
        )
        relationships = staged(
            lambda: summarize_descriptions(_core().relationships),
            "relationships_summarized",
        )
        # the pinned mentions when the core ran, else the lazy handle
        mentions = _core_box["c"].mentions if _core_box else lazy_mentions

    if checkpoint_dir is None:
        from knowledge_graph_ray.functions.poolcache import run_concurrently

        # components depend only on names/edges, not on degree columns —
        # overlap the CC chain (several shuffle rounds + driver probes)
        # with the degree DAGs instead of running the waves back-to-back
        degrees, components = run_concurrently(
            [
                lambda: compute_degrees(relationships).materialize(),
                lambda: connected_components(
                    entities, relationships, num_partitions=num_partitions
                ).materialize(),
            ]
        )
        entities, relationships, communities = run_concurrently(
            [
                lambda: attach_entity_degrees(
                    entities, degrees, num_partitions
                ).materialize(),
                lambda: attach_edge_degrees(
                    relationships, degrees, num_partitions
                ).materialize(),
                lambda: detect_communities(
                    components,
                    relationships,
                    max_cluster_size=cfg.max_cluster_size,
                    seed=cfg.seed,
                    use_lcc=cfg.use_lcc,
                    num_partitions=num_partitions,
                    algorithm=cfg.clustering_algorithm,
                ).materialize(),
            ]
        )
    else:
        # degrees computed lazily and at most once, INSIDE the staged
        # lambdas: when both *_degreed checkpoints are complete neither
        # lambda runs and the degree shuffle is skipped entirely
        # (resume contract — same class as the CC chain below)
        _degrees_box: dict = {}

        def _degrees():
            if "d" not in _degrees_box:
                _degrees_box["d"] = compute_degrees(relationships).materialize()
            return _degrees_box["d"]

        pre_degree_relationships = relationships
        entities = staged(
            lambda: attach_entity_degrees(entities, _degrees(),
                                          num_partitions),
            "entities_degreed",
        )
        relationships = staged(
            lambda: attach_edge_degrees(pre_degree_relationships,
                                        _degrees(), num_partitions),
            "relationships_degreed",
        )
        # the whole CC chain lives INSIDE the staged lambda: a complete
        # 'communities' checkpoint must skip it entirely (resume
        # contract), not compute-and-discard it.  The inner materialize
        # stays because detect_communities probes the component table
        # several times (LCC pick, size gate, driver pull) and each
        # probe would otherwise re-run the final label aggregate
        communities = staged(
            lambda: detect_communities(
                connected_components(
                    entities, relationships, num_partitions=num_partitions
                ).materialize(),
                relationships,
                max_cluster_size=cfg.max_cluster_size,
                seed=cfg.seed,
                use_lcc=cfg.use_lcc,
                num_partitions=num_partitions,
                algorithm=cfg.clustering_algorithm,
            ),
            "communities",
        )
    if checkpoint_dir is None:
        # cluster assignment and report generation are independent
        # consumers of (communities, entities, relationships) — overlap
        # their waves like the degree/CC pair above
        pre_cluster_entities = entities
        entities, reports = run_concurrently(
            [
                lambda: assign_clusters(
                    pre_cluster_entities, communities,
                    num_partitions=num_partitions,
                ).materialize(),
                lambda: generate_reports(
                    communities, pre_cluster_entities, relationships,
                    num_partitions,
                ).materialize(),
            ]
        )
    else:
        entities = staged(
            lambda: assign_clusters(entities, communities, num_partitions=num_partitions),
            "entities_clustered",
        )
        reports = staged(
            lambda: generate_reports(communities, entities, relationships, num_partitions),
            "reports",
        )
    if checkpoint_dir is None:
        hierarchy = community_hierarchy(communities, num_partitions)
    else:
        hierarchy = staged(
            lambda: community_hierarchy(communities, num_partitions),
            "community_hierarchy",
        )

    claims = None
    if cfg.extract_claims:
        # resolve_claims (M7): subject/object mapped onto the canonical
        # entity key before merge so claims join the entity table
        claims = staged(
            lambda: merge_claims(
                resolve_claims(
                    extract_claims(text_units, batch_size=cfg.extract_batch_size)
                )
            ),
            "claims",
        )

    media_features = None
    if cfg.media_features:
        # real-format path: BMP/WAV/KGV1 payloads decoded by the stdlib
        # codec (no external libs); RealCodec remains the seam for
        # compressed formats
        from knowledge_graph_ray.stages.multimodal import (
            StdlibCodec,
            decode_media,
            fetch_media_real,
            media_refs_from_docs,
        )

        media_features = staged(
            lambda: decode_media(
                fetch_media_real(media_refs_from_docs(docs)),
                codec_cls=StdlibCodec,
            ),
            "media_features",
        )

    return GraphTables(
        text_units=text_units,
        mentions=mentions,
        entities=entities,
        relationships=relationships,
        communities=communities,
        reports=reports,
        claims=claims,
        media_features=media_features,
        hierarchy=hierarchy,
    )


def export_tables(tables: GraphTables, out_dir: str, fingerprint: str = "none",
                  reference_layout: bool = False):
    """Materialize the final tables as partitioned Parquet + manifests
    (replaces the reference's 6-CSV export,
    verbs/community_summarization/export.py:23-60).

    Entities sort by name, relationships by subject (adjacency-sharded
    triples) — the reference's stabilize_graph ordering (utils/graph.py:
    33-56) — and both get contiguous ``human_readable_id`` via a
    distributed prefix-sum plus a content-derived ``id`` (deterministic
    md5-based, replacing the reference's enumeration-order seeded uuid4,
    cluster_graph.py:60-68 — content-derived ids are order-independent,
    hence parallel/incremental-safe).

    A materialized table of at most ``DRIVER_THRESHOLD`` rows is sorted,
    indexed and given its ``id`` in one Arrow kernel on the driver and
    written with pyarrow (``write_checkpoint``'s driver regime), so an
    export of small in-memory tables runs Ray only for lazy ones.
    """
    import hashlib
    import os

    import pyarrow as pa

    from knowledge_graph_ray.functions import grouping
    from knowledge_graph_ray.functions.index import sort_and_index, with_row_index
    from knowledge_graph_ray.state.checkpoint import write_checkpoint

    def add_id(key_cols):
        def body(batch: pa.Table) -> pa.Table:
            cols = [batch.column(c).to_pylist() for c in key_cols]
            ids = [
                hashlib.md5("|".join(map(str, t)).encode()).hexdigest()
                for t in zip(*cols)
            ]
            return batch.append_column("id", pa.array(ids, type=pa.string()))

        return body

    def mapped(ds, body):
        """``body`` over ``ds``'s batches, or once over its whole table on
        the driver when ``ds`` is materialized and small."""
        small = grouping.driver_tables([ds], grouping.DRIVER_THRESHOLD)
        if small is not None:
            return grouping.driver_dataset(body(small[0]))
        return ds.map_batches(body, batch_format="pyarrow")

    def indexed(ds, sort_key, key_cols):
        small = grouping.driver_tables([ds], grouping.DRIVER_THRESHOLD)
        if small is not None:
            return grouping.driver_dataset(
                add_id(key_cols)(sort_and_index(small[0], sort_key)))
        return mapped(with_row_index(ds, sort_key=sort_key), add_id(key_cols))

    entities = indexed(tables.entities, "name", ["name"])
    if reference_layout:
        entities = entities.materialize()  # consumed by 3 export branches
    relationships = indexed(tables.relationships, ["src", "dst"], ["src", "dst"])

    manifests = {}
    named = {
        "text_units": tables.text_units,
        "entities": entities,
        "relationships": relationships,
        "communities": tables.communities,
        "community_reports": tables.reports,
    }
    if tables.claims is not None:
        named["claims"] = tables.claims
    if tables.media_features is not None:
        named["media_features"] = tables.media_features
    if tables.hierarchy is not None:
        named["community_hierarchy"] = tables.hierarchy
    if reference_layout:
        # reference 6-CSV column parity (export.py:23-60): node.csv adds
        # community/level, entity.csv uses name/text_unit_ids — consumers
        # of the reference layout can read these tables verbatim
        def node_rows(b: pa.Table) -> pa.Table:
            n = len(b)
            cluster = (
                b.column("cluster") if "cluster" in b.schema.names
                else pa.nulls(n, pa.string())
            )
            return pa.Table.from_pydict(
                {
                    "id": b.column("id"),
                    "title": b.column("name"),
                    "type": b.column("type"),
                    "description": b.column("description"),
                    "source_id": b.column("source_id"),
                    "degree": b.column("degree").cast(pa.float64()),
                    "human_readable_id": b.column("human_readable_id"),
                    "community": cluster,
                    "level": pa.array([0] * n, type=pa.int64()),
                }
            )

        def entity_rows(b: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "id": b.column("id"),
                    "name": b.column("name"),
                    "type": b.column("type"),
                    "description": b.column("description"),
                    "human_readable_id": b.column("human_readable_id"),
                    "graph_embedding": pa.nulls(len(b), pa.list_(pa.float64())),
                    "text_unit_ids": b.column("source_id"),
                }
            )

        named["node"] = mapped(entities, node_rows)
        named["entity"] = mapped(entities, entity_rows)
    for name, ds in named.items():
        if ds is None:
            continue
        manifests[name] = write_checkpoint(
            ds, os.path.join(out_dir, name), fingerprint=fingerprint, stage=name
        )
    return manifests
