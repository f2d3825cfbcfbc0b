"""End-to-end KG construction pipeline (the reference's
workflow/build_workflow.py:20-83 re-expressed as streaming Ray Data stages).

``build_knowledge_graph`` declares its stage graph once and runs only
the stages its outputs need (``_run_stages``).  Checkpointed stages (*)
persist under ``checkpoint_dir``, else in the object store::

    text_units: chunk (M1)                                        <- docs
    core: extract (A1/A2) -> canonicalize (G1/G2)                 <- text_units
    entities_summarized*, relationships_summarized*               <- core
    degrees                  <- relationships_summarized
    components               <- both *_summarized
    entities_degreed*        <- entities_summarized, degrees
    relationships_degreed*   <- relationships_summarized, degrees
    communities*             <- components, relationships_summarized
    entities_clustered*      <- entities_degreed, communities
    reports*                 <- communities, both *_degreed
    community_hierarchy*     <- communities
    claims*                  <- text_units
    media_features*          <- docs

The graph-tail stages (summarize to hierarchy) each have a driver
kernel on Arrow tables and a Dataset path; ``_tail`` picks one per
stage, in one place.  Small stage outputs pass between stages as
``pa.Table`` values, and become datasets only on ``GraphTables``.

Nothing here calls ray.init(); callers own the session.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import pyarrow as pa

from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.functions import grouping
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


def _chunk(docs, cfg: PipelineConfig):
    """docs Dataset -> LAZY text_units: nothing runs until a consumer
    executes them."""
    return chunk_documents(
        docs, cfg.chunk_size, cfg.chunk_overlap, batch_size=cfg.chunk_batch_size
    )


def _extract(text_units, cfg: PipelineConfig,
             extractor_cls=PatternExtractor, **extractor_kwargs):
    """text_units Dataset -> LAZY mentions."""
    return extract_mentions(
        text_units,
        extractor_cls=extractor_cls,
        batch_size=cfg.extract_batch_size,
        concurrency=cfg.extract_concurrency,
        use_actor_pool=cfg.extract_use_actor_pool,
        **extractor_kwargs,
    )


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
    text_units = _chunk(docs, cfg)
    mentions = _extract(text_units, cfg, extractor_cls, **extractor_kwargs)
    return _canonical_core(text_units, mentions, cfg, mentions_checkpoint,
                          fingerprint)


def _small_table(ds):
    """``ds`` as one Arrow table when it is materialized and at most
    ``DRIVER_THRESHOLD`` rows, or has none (``driver_tables``' rule);
    else ``ds`` itself."""
    small = grouping.driver_tables([ds], grouping.DRIVER_THRESHOLD)
    return ds if small is None else small[0]


def _pinned(value):
    """A stage output held for its consumers: a table is its own pinned
    value; a dataset is materialized in the object store, and handed on
    as a table when it is small (``_small_table``)."""
    if isinstance(value, pa.Table):
        return value
    return _small_table(value.materialize())


def _tail(kernel, dataset_fn, bound=lambda: grouping.DRIVER_THRESHOLD):
    """A graph-tail stage's ``make``: the one place a stage's regime is
    picked.  ``kernel`` runs on the driver when every input is a
    ``pa.Table`` and they sum to at most ``bound()`` rows (read at call
    time), or have no rows at all: on zero-row blocks Ray's
    ``map_batches`` never calls its body, so the Dataset path would lose
    the schema (``driver_tables``' rule).  Otherwise ``dataset_fn``
    runs, with any table input wrapped as an in-memory dataset."""
    def make(*inputs):
        if all(isinstance(t, pa.Table) for t in inputs):
            rows = sum(t.num_rows for t in inputs)
            if not rows or rows <= bound():
                return kernel(*inputs)
        return dataset_fn(*map(_dataset, inputs))

    return make


def _stage_store(checkpoint_dir: str | None, fingerprint: str):
    """(complete, store, dataset) of the stage outputs.

    ``complete(stage)`` is true when the stage's output can be read back
    instead of computed: a complete checkpoint with this ``fingerprint``
    (manifests only; nothing is read).  ``store(make, stage)`` is the
    stage's output, pinned (``_pinned``) without a directory, else
    through a resumable checkpoint: what a resume reads, a small
    checkpoint as one Arrow table.  ``dataset(value)`` is a stage output
    as a dataset, for ``GraphTables``: a table read from a checkpoint
    gets back the dataset that read built."""
    import os

    from knowledge_graph_ray.state.checkpoint import (
        checkpoint_complete,
        checkpoint_or_compute,
    )

    if checkpoint_dir is None:
        return ((lambda stage: False), (lambda make, stage: _pinned(make())),
                _dataset)
    read_back: dict = {}  # id(table) -> the checkpoint read it came from

    def path(stage):
        return os.path.join(checkpoint_dir, stage)

    def store(make, stage):
        ds = checkpoint_or_compute(lambda: _dataset(make()), path(stage),
                                   fingerprint, stage)
        value = _small_table(ds)
        read_back[id(value)] = ds
        return value

    def dataset(value):
        return read_back[id(value)] if id(value) in read_back else _dataset(value)

    return (lambda stage: checkpoint_complete(path(stage), fingerprint), store,
            dataset)


def _dataset(value):
    """A stage output as a dataset: a table becomes an in-memory one."""
    if isinstance(value, pa.Table):
        return grouping.driver_dataset(value)
    return value


def _run_stages(stages: list, outputs: list, complete, store) -> dict:
    """Run the ``stages`` the ``outputs`` need; -> {name: output}.

    ``stages`` are ``(name, inputs, make, checkpointed)`` entries, each
    listed after its inputs.  Demand starts at ``outputs``: a
    checkpointed stage that is ``complete`` is read back through
    ``store`` and demands nothing; any other demanded stage demands its
    inputs and computes ``make(*inputs)``, through ``store`` when it is
    checkpointed.  Demanded stages run in list order, and a run of
    consecutive ones that read none of each other goes through
    ``run_concurrently`` together."""
    from knowledge_graph_ray.functions.poolcache import run_concurrently

    entries = {s[0]: s for s in stages}
    computes: dict = {}  # demanded stage -> computed (else read back)

    def demand(name):
        if name not in computes:
            _, inputs, _, checkpointed = entries[name]
            computes[name] = not (checkpointed and complete(name))
            for i in inputs if computes[name] else ():
                demand(i)

    for name in outputs:
        demand(name)
    waves: list = [[]]
    for stage in stages:
        if stage[0] in computes:
            if computes[stage[0]] and {s[0] for s in waves[-1]} & set(stage[1]):
                waves.append([])
            waves[-1].append(stage)
    done: dict = {}

    def thunk(name, inputs, make, checkpointed):
        def compute():
            return make(*(done[i] for i in inputs))

        return (lambda: store(compute, name)) if checkpointed else compute

    for wave in waves:
        done.update(zip([s[0] for s in wave],
                        run_concurrently([thunk(*s) for s in wave])))
    return done


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

    ``checkpoint_dir``: when set, each checkpointed stage (the module
    docstring's table) persists to Parquet with a lineage manifest, and
    a rerun with the same ``fingerprint`` resumes from complete stages
    (north rule: resumable from checkpoint).  A changed fingerprint (new
    input) invalidates every checkpoint.

    Resume contract — the run is demand-driven, from the outputs
    (``entities_clustered``, ``relationships_degreed``, ``communities``,
    ``reports``, ``community_hierarchy``, and ``claims`` /
    ``media_features`` when on).  A stage with a complete checkpoint of
    this fingerprint is read and demands nothing; any other stage
    demands its inputs and is computed and written.  Manifests alone
    decide this.  So a full resume reads the output checkpoints only,
    with no LLM call and no graph work, and a missing checkpoint
    recomputes only what it needs: the chunk -> extract -> canonicalize
    core runs at most once, and only when a missing stage needs a
    ``*_summarized`` checkpoint that is missing too.

    ``text_units`` and ``mentions`` come back pinned when the core ran.
    Otherwise they are lazy Datasets (``text_units`` is pinned when the
    claims stage ran); consuming them executes chunking (and
    extraction).
    """
    from knowledge_graph_ray.stages import community, components, degree, report
    from knowledge_graph_ray.stages.summarize import (
        DescriptionSummarizer,
        summarize_descriptions,
    )
    from knowledge_graph_ray.stages.claims import (
        extract_claims,
        merge_claims,
        resolve_claims,
    )

    cfg = config or PipelineConfig()
    parts = num_partitions
    text_units = _chunk(docs, cfg)

    def extract(units):
        return _extract(units, cfg, extractor_cls, **extractor_kwargs)

    def core(units):
        # executes extraction once: the mentions are pinned before the
        # G1/G2 merges read them; the two canonical tables are pulled
        # once for the whole tail
        out = _canonical_core(units, extract(units), cfg)
        return replace(out, entities=_small_table(out.entities),
                       relationships=_small_table(out.relationships))

    def media_features():
        # real-format path: BMP/WAV/KGV1 payloads decoded by the stdlib
        # codec (no external libs); RealCodec remains the seam for
        # compressed formats
        from knowledge_graph_ray.stages.multimodal import (
            StdlibCodec,
            decode_media,
            fetch_media_real,
            media_refs_from_docs,
        )

        return decode_media(fetch_media_real(media_refs_from_docs(docs)),
                            codec_cls=StdlibCodec)

    summary = dict(max_input_tokens=cfg.max_summary_input_tokens,
                   max_summary_length=cfg.max_summary_length)
    clustering = dict(max_cluster_size=cfg.max_cluster_size, seed=cfg.seed,
                      use_lcc=cfg.use_lcc, algorithm=cfg.clustering_algorithm)
    summarize_entities = _tail(
        DescriptionSummarizer(**summary),
        lambda ents: summarize_descriptions(ents, **summary))
    summarize_relationships = _tail(DescriptionSummarizer(),
                                    summarize_descriptions)
    degrees = _tail(degree.degrees_table, degree.compute_degrees)
    # pinned: detect_communities' Dataset path probes the component
    # table several times (LCC pick, size gate, driver pull), and each
    # probe would otherwise re-run the final label aggregate
    labels = _tail(components.component_labels,
                   lambda ents, rels: components.connected_components(
                       ents, rels, num_partitions=parts))
    stages = [
        # pinned: the core extracts from it, and claims and the export
        # read it without chunking again
        ("text_units", (), lambda: text_units.materialize(), False),
        ("core", ("text_units",), core, False),
        ("entities_summarized", ("core",),
         lambda core: summarize_entities(core.entities), True),
        ("relationships_summarized", ("core",),
         lambda core: summarize_relationships(core.relationships), True),
        ("degrees", ("relationships_summarized",),
         lambda rels: _pinned(degrees(rels)), False),
        ("components", ("entities_summarized", "relationships_summarized"),
         lambda ents, rels: _pinned(labels(ents, rels)), False),
        ("entities_degreed", ("entities_summarized", "degrees"),
         _tail(degree.entity_degrees_table,
               lambda ents, deg: degree.attach_entity_degrees(ents, deg, parts)),
         True),
        ("relationships_degreed", ("relationships_summarized", "degrees"),
         _tail(degree.edge_degrees_table,
               lambda rels, deg: degree.attach_edge_degrees(rels, deg, parts)),
         True),
        ("communities", ("components", "relationships_summarized"),
         _tail(lambda comps, rels: community.cluster_tables(comps, rels,
                                                            **clustering),
               lambda comps, rels: community.detect_communities(
                   comps, rels, num_partitions=parts, **clustering),
               lambda: community.CLUSTER_DRIVER_THRESHOLD), True),
        ("entities_clustered", ("entities_degreed", "communities"),
         _tail(community.assign_clusters_table,
               lambda ents, comms: community.assign_clusters(
                   ents, comms, num_partitions=parts)), True),
        # the kernel is the broadcast regime, so broadcast's bound holds too
        ("reports", ("communities", "entities_degreed",
                     "relationships_degreed"),
         _tail(report.report_tables,
               lambda comms, ents, rels: report.generate_reports(
                   comms, ents, rels, parts),
               lambda: min(report.REPORT_DRIVER_THRESHOLD,
                           report.BROADCAST_COMMUNITIES_MAX)), True),
        ("community_hierarchy", ("communities",),
         _tail(community.hierarchy_table,
               lambda comms: community.community_hierarchy(comms, parts)), True),
        # resolve_claims (M7): subject/object mapped onto the canonical
        # entity key before merge so claims join the entity table
        ("claims", ("text_units",),
         lambda units: merge_claims(resolve_claims(
             extract_claims(units, batch_size=cfg.extract_batch_size))),
         True),
        ("media_features", (), media_features, True),
    ]
    outputs = ["entities_clustered", "relationships_degreed", "communities",
               "reports", "community_hierarchy"]
    if cfg.extract_claims:
        outputs.append("claims")
    if cfg.media_features:
        outputs.append("media_features")
    complete, store, dataset = _stage_store(checkpoint_dir, fingerprint)
    out = _run_stages(stages, outputs, complete, store)
    # the pinned text units and mentions when they were computed, else
    # the lazy handles
    units = out.get("text_units", text_units)
    return GraphTables(
        text_units=units,
        mentions=out["core"].mentions if "core" in out else extract(units),
        entities=dataset(out["entities_clustered"]),
        relationships=dataset(out["relationships_degreed"]),
        communities=dataset(out["communities"]),
        reports=dataset(out["reports"]),
        claims=dataset(out["claims"]) if "claims" in out else None,
        media_features=(dataset(out["media_features"])
                        if "media_features" in out else None),
        hierarchy=dataset(out["community_hierarchy"]),
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
