"""Driver-contract queries + DuckDB oracle SQL for the KG engine.

Every SQL-checkable KG gate gets a (ray_impl, oracle_sql) pair over the
driver's parquet tables; column names and float rounding match EXACTLY
between both sides (the driver hash-compares values after sorting
columns by name).  Genuinely non-SQL stages (the full KG pipeline,
communities, graph embedding, prompt tuning, media features, search
context) are rows-only entries.  ``QUERIES`` lists the oracled gates
first, so every ``ORACLE_SQL`` key sits at the head of the registry.

Token semantics note: the KG/text queries tokenize with ``split(' ')``
on BOTH sides (DuckDB ``string_split``) — the engine's regex tokenizer
is equivalent for the driver's punctuation-free word-soup documents and
these queries pin the SQL-checkable contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from knowledge_graph_ray.corpus import docs_table_to_interleaved

GAZETTEER = ["spark", "customer", "table", "window", "vector"]
GAZETTEER_SQL = "(" + ", ".join(f"'{w}'" for w in GAZETTEER) + ")"

FLAGSHIP_GAZETTEER = [
    "spark", "customer", "table", "window", "vector", "join",
    "merge", "filter", "sort", "hash", "stream", "batch",
]

CHUNK_SIZE_Q = 32
CHUNK_OVERLAP_Q = 8


def _tune_streaming_gen_buffer(blocks: int = 64) -> None:
    """Single-file parquet inputs produce ONE read task that SplitBlocks
    fans out to ~64 blocks; the streaming generator's default 2-block
    in-flight buffer then locksteps every downstream task behind that
    one producer (measured: a 0.4s chunk+extract wave stretched to 2.0s
    — downstream tasks launch nearly serially).  Raising the buffer to
    64 restores full downstream parallelism for this query surface.

    Memory safety: this surface is the small-SF bench/correctness
    contract where blocks are ~0.03-2 MB, so 64 in-flight blocks per
    task is <= ~128 MB.  The 100-TB pipelines do NOT import this module;
    their many-file reads give one task per file and the 2-block default
    backpressure is the right bound for ~128 MB blocks."""
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        if ctx._max_num_blocks_in_streaming_gen_buffer < blocks:
            ctx._max_num_blocks_in_streaming_gen_buffer = blocks
    except Exception:
        pass  # private knob: degrade to default backpressure on API drift


_tune_streaming_gen_buffer()


def _docs(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet")


def _emb(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


# --------------------------------------------------------------- KG queries


def kg_entity_merge(sf_dir: str):
    """G1 canonicalization shape: mention rows -> groupby(name) merge.
    Per-batch mention extraction is vectorized (polars split/explode)."""

    def mentions(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        out = (
            pl.from_arrow(batch.select(["doc_id", "text"]))
            .with_columns(pl.col("text").fill_null("").str.split(" ").alias("w"))
            .drop("text")
            .explode("w")
            .filter(pl.col("w").is_in(GAZETTEER))
            .with_columns(pl.col("w").str.to_uppercase().alias("name"))
            .group_by(["doc_id", "name"])
            .agg(pl.len().cast(pl.Int64).alias("cnt"))
            .select(
                pl.col("doc_id").cast(pl.Int64), pl.col("name"), pl.col("cnt")
            )
        )
        return out.to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("name", pa.string()),
                       ("cnt", pa.int64())])
        )

    from knowledge_graph_ray.functions.agg import grouped_agg

    per_doc = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        mentions, batch_format="pyarrow"
    )
    return grouped_agg(
        per_doc, ["name"],
        [("mention_count", "cnt", "sum"), ("n_docs", None, "count")],
    )


KG_ENTITY_MERGE_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT upper(w) AS name, count(*) AS mention_count, count(DISTINCT doc_id) AS n_docs
FROM toks WHERE w IN {GAZETTEER_SQL}
GROUP BY upper(w)
"""


def _presence_pairs(sf_dir: str, vocab: "list[str] | None" = None):
    words = vocab if vocab is not None else GAZETTEER

    def pairs(batch: pa.Table) -> pa.Table:
        # vectorized presence extraction (polars); pair generation runs
        # over the tiny per-doc distinct lists (<= |gazetteer| each)
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        present = (
            pl.from_arrow(batch.select(["doc_id", "text"]))
            .with_columns(pl.col("text").fill_null("").str.split(" ").alias("w"))
            .drop("text")
            .explode("w")
            .filter(pl.col("w").is_in(words))
            .with_columns(pl.col("w").str.to_uppercase())
            .unique()
            .group_by("doc_id")
            .agg(pl.col("w").sort().alias("names"))
        )
        srcs, dsts = [], []
        for names in present.get_column("names").to_list():
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    srcs.append(names[i])
                    dsts.append(names[j])
        return pa.Table.from_pydict(
            {
                "src": pa.array(srcs, type=pa.string()),
                "dst": pa.array(dsts, type=pa.string()),
            }
        )

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        pairs, batch_format="pyarrow"
    )


def kg_edge_merge(sf_dir: str):
    """G2 shape: co-occurrence edges, undirected key, weight = doc count."""
    from knowledge_graph_ray.functions.agg import grouped_agg

    return grouped_agg(
        _presence_pairs(sf_dir), ["src", "dst"], [("weight", None, "count")]
    )


KG_EDGE_MERGE_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
pres AS (SELECT DISTINCT doc_id, upper(w) AS name FROM toks WHERE w IN {GAZETTEER_SQL})
SELECT a.name AS src, b.name AS dst, count(*) AS weight
FROM pres a JOIN pres b ON a.doc_id = b.doc_id AND a.name < b.name
GROUP BY a.name, b.name
"""


def kg_degree(sf_dir: str):
    """G4: degree per entity from the canonical edge table."""
    edges = kg_edge_merge(sf_dir)

    def endpoints(batch: pa.Table) -> pa.Table:
        src = batch.column("src").combine_chunks()
        dst = batch.column("dst").combine_chunks()
        return pa.Table.from_pydict({"name": pa.concat_arrays([src, dst])})

    from knowledge_graph_ray.functions.agg import grouped_agg

    return grouped_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        ["name"], [("degree", None, "count")],
    )


KG_DEGREE_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
pres AS (SELECT DISTINCT doc_id, upper(w) AS name FROM toks WHERE w IN {GAZETTEER_SQL}),
edges AS (
  SELECT a.name AS src, b.name AS dst
  FROM pres a JOIN pres b ON a.doc_id = b.doc_id AND a.name < b.name
  GROUP BY a.name, b.name
),
und AS (SELECT src AS name FROM edges UNION ALL SELECT dst FROM edges)
SELECT name, count(*) AS degree FROM und GROUP BY name
"""


def kg_text_units(sf_dir: str):
    """M1 window math: chunk counts from the REAL chunker (32/8 windows)."""
    from knowledge_graph_ray.stages.chunk import chunk_documents

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    chunks = chunk_documents(docs, CHUNK_SIZE_Q, CHUNK_OVERLAP_Q)

    def doc_rows(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"doc_id": batch.column("doc_id").cast(pa.int64())}
        )

    from knowledge_graph_ray.functions.agg import grouped_agg

    return grouped_agg(
        chunks.map_batches(doc_rows, batch_format="pyarrow"),
        ["doc_id"], [("n_chunks", None, "count")],
    )


KG_TEXT_UNITS_SQL = f"""
SELECT doc_id,
  CASE WHEN len(string_split(text, ' ')) <= {CHUNK_SIZE_Q} THEN 1
       ELSE CAST(ceil((len(string_split(text, ' ')) - {CHUNK_SIZE_Q})
                 / {CHUNK_SIZE_Q - CHUNK_OVERLAP_Q}.0) + 1 AS BIGINT)
  END AS n_chunks
FROM documents
"""


# ------------------------------------------------------- similarity query


def _query_vector(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = t.to_pandas()
    row = df[df.vec_id == 0].iloc[0]
    return np.asarray(row.embedding, dtype=np.float64)[None, :]


def similarity_topk(sf_dir: str):
    from knowledge_graph_ray.stages.similarity import brute_force_topk

    top = brute_force_topk(_emb(sf_dir), _query_vector(sf_dir), k=10)

    def finish(batch: pa.Table) -> pa.Table:
        # (vec_id, rk) only: DuckDB's list_cosine_similarity computes in
        # float32, so the score can't be bit-identical across engines
        return pa.Table.from_pydict(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "rk": batch.column("rk").cast(pa.int64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


SIMILARITY_TOPK_SQL = """
WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0),
scored AS (
  SELECT vec_id, list_cosine_similarity(embedding, (SELECT qv FROM q)) AS c
  FROM embeddings
)
SELECT vec_id, row_number() OVER (ORDER BY c DESC, vec_id) AS rk
FROM scored ORDER BY c DESC, vec_id LIMIT 10
"""


# -------------------------------------------------------------- KG flagship


def kg_pipeline_entities(sf_dir: str):
    """Rows-only: the full KG construction pipeline over the driver's
    documents table (wrapped as interleaved single-span docs) with the
    co-occurrence gazetteer strategy; returns the canonical entity table
    with degree + community columns."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    cfg = PipelineConfig(chunk_size=256, chunk_overlap=16,
                         extract_use_actor_pool=False,
                         max_descriptions_per_key=32, max_sources_per_key=256)
    tables = build_knowledge_graph(
        docs,
        cfg,
        extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    return tables.entities


def kg_communities(sf_dir: str):
    """Rows-only: communities table from the flagship pipeline."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    tables = build_knowledge_graph(
        docs,
        PipelineConfig(chunk_size=256, chunk_overlap=16,
                       extract_use_actor_pool=False,
                       max_descriptions_per_key=32, max_sources_per_key=256),
        extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    return tables.communities


def kg_incremental_entities(sf_dir: str):
    """G8 incremental old/new merge — canonicalize the first half of the
    documents, convert the canonical table back to partials, union with
    the second half's fresh mentions and re-merge.  The SQL oracle
    expresses the equivalent FULL run over all documents (incremental ==
    full is additionally asserted in pytest,
    test_incremental_merge_equals_full_run): per-entity n_mentions is
    the gazetteer occurrence count.  ``chunk_overlap=0`` makes chunks an
    exact token partition, so occurrence counts are chunking-invariant
    and SQL-expressible for any document length."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_graph
    from knowledge_graph_ray.stages.canonicalize import (
        incremental_canonicalize_entities,
    )
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    cfg = PipelineConfig(chunk_size=256, chunk_overlap=0,
                         extract_use_actor_pool=False)
    vocab = [(w, "organization") for w in FLAGSHIP_GAZETTEER]
    docs = _docs(sf_dir)
    n = docs.count()
    half = n // 2
    first = docs.filter(expr=f"doc_id < {half}").map_batches(
        docs_table_to_interleaved, batch_format="pyarrow"
    )
    second = docs.filter(expr=f"doc_id >= {half}").map_batches(
        docs_table_to_interleaved, batch_format="pyarrow"
    )
    prev = build_graph(first, cfg, extractor_cls=CooccurrenceExtractor,
                       vocabulary=vocab).entities.materialize()
    new_mentions = build_graph(second, cfg, extractor_cls=CooccurrenceExtractor,
                               vocabulary=vocab).mentions
    return incremental_canonicalize_entities(prev, new_mentions).select_columns(
        ["name", "type", "n_mentions"]
    )


_FLAGSHIP_GAZETTEER_SQL = (
    "(" + ", ".join(f"'{w}'" for w in FLAGSHIP_GAZETTEER) + ")"
)

# full-run equivalent of the incremental merge (G8): the incremental
# path re-merges prev-canonical partials with new mentions, which by the
# merge laws equals one canonicalization over ALL documents — per-entity
# n_mentions is the occurrence count of the gazetteer word (chunks
# partition tokens exactly at chunk_overlap=0), type is the vocabulary
# type uppercased by clean_str
KG_INCREMENTAL_ENTITIES_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT upper(w) AS name, 'ORGANIZATION' AS type, count(*) AS n_mentions
FROM toks WHERE w IN {_FLAGSHIP_GAZETTEER_SQL}
GROUP BY upper(w)
"""


def kg_graph_embedding(sf_dir: str):
    """Rows-only: A7 graph embedding — component-parallel seeded
    walk-matrix projection over the flagship gazetteer graph (one
    16-dim unit vector per entity; deterministic, non-SQL)."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_graph
    from knowledge_graph_ray.stages.components import connected_components
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor
    from knowledge_graph_ray.stages.graph_embed import embed_graph

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    core = build_graph(
        docs,
        PipelineConfig(chunk_size=256, chunk_overlap=16,
                       extract_use_actor_pool=False,
                       max_descriptions_per_key=32, max_sources_per_key=256),
        extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    ents = core.entities.materialize()
    rels = core.relationships.materialize()
    comps = connected_components(ents, rels, num_partitions=8)
    return embed_graph(comps, rels, dimensions=16, num_partitions=8)


def kg_hierarchy(sf_dir: str):
    """Rows-only: the G5 community-hierarchy table (parent -> next-level
    sub-community with size).  ``max_louvain_nodes=8`` makes the
    12-entity gazetteer graph take the giant-component bisection path at
    level 0, guaranteeing >= 2 levels (and exercising that guard under
    the driver gate)."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_graph
    from knowledge_graph_ray.stages.community import (
        community_hierarchy,
        detect_communities,
    )
    from knowledge_graph_ray.stages.components import connected_components
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    core = build_graph(
        docs,
        PipelineConfig(chunk_size=256, chunk_overlap=16,
                       extract_use_actor_pool=False,
                       max_descriptions_per_key=32, max_sources_per_key=256),
        extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    ents = core.entities.materialize()
    rels = core.relationships.materialize()
    comps = connected_components(ents, rels, num_partitions=8).materialize()
    comms = detect_communities(comps, rels, max_cluster_size=3,
                               num_partitions=8,
                               max_louvain_nodes=8).materialize()
    return community_hierarchy(comms, 8)


def _gazetteer_graph(sf_dir: str, use_lcc: bool = False):
    """Shared gate-query scaffold: doc-level co-occurrence edges over
    the FLAGSHIP gazetteer (the kg_edge_merge shape, SQL-expressible;
    12 words so ``max_louvain_nodes=8`` forces the bisection path and a
    >= 2-level hierarchy), every present word as an entity, connected
    components + Louvain communities over them.  ``use_lcc=False`` so
    EVERY present entity clusters — that makes the clustered roster
    exactly the SQL-computable set of present words."""
    from knowledge_graph_ray.functions.agg import grouped_agg
    from knowledge_graph_ray.stages.community import detect_communities
    from knowledge_graph_ray.stages.components import connected_components

    edges = grouped_agg(
        _presence_pairs(sf_dir, vocab=FLAGSHIP_GAZETTEER),
        ["src", "dst"], [("weight", None, "count")],
    ).materialize()

    def names(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        out = (
            pl.from_arrow(batch.select(["text"]))
            .with_columns(pl.col("text").fill_null("").str.split(" ").alias("w"))
            .drop("text")
            .explode("w")
            .filter(pl.col("w").is_in(FLAGSHIP_GAZETTEER))
            .select(pl.col("w").str.to_uppercase().alias("name"))
            .unique()
        )
        return out.to_arrow().cast(pa.schema([("name", pa.string())]))

    from knowledge_graph_ray.functions.agg import distinct_rows

    ents = distinct_rows(
        _docs(sf_dir).select_columns(["text"]).map_batches(
            names, batch_format="pyarrow"
        ),
        ["name"],
        empty_schema=pa.schema([("name", pa.string())]),
    ).materialize()
    comps = connected_components(ents, edges, num_partitions=8)
    comms = detect_communities(comps, edges, max_cluster_size=3,
                               use_lcc=use_lcc, num_partitions=8,
                               max_louvain_nodes=8).materialize()
    return ents, edges, comps, comms


def kg_community_partition(sf_dir: str):
    """SQL-invariant gate for the community family (VERDICT r3 #4,
    the dedup_sketch_recall pattern): level-0 communities must
    PARTITION the clustered node set.  Louvain itself is not SQL, but
    the partition property is — with ``use_lcc=False`` every present
    gazetteer entity is clustered, so each must appear in EXACTLY ONE
    level-0 community.  Emits (name, n_level0); the oracle emits
    (name, 1) per present word, so any duplicate or missing membership
    hash-mismatches."""
    from knowledge_graph_ray.functions.agg import grouped_agg

    _ents, _edges, _comps, comms = _gazetteer_graph(sf_dir)
    level0 = comms.filter(expr="level == 0")
    return grouped_agg(level0, ["name"], [("n_level0", None, "count")])


KG_COMMUNITY_PARTITION_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT upper(w) AS name, CAST(1 AS BIGINT) AS n_level0
FROM toks WHERE w IN {_FLAGSHIP_GAZETTEER_SQL}
GROUP BY upper(w)
"""


def kg_hierarchy_invariants(sf_dir: str):
    """SQL-invariant gate for the G5 hierarchy (VERDICT r3 #4): every
    hierarchy row's ``sub_community_size`` must equal the sub
    community's actual member count, every sub community must have
    exactly one parent, and the hierarchy must be non-empty
    (max_cluster_size=3 / max_louvain_nodes=8 forces >= 2 levels).
    Emits one row (ok, n_entities) where ok=1 iff all invariants hold
    and n_entities is the clustered distinct-name count — which the
    oracle computes as the number of present gazetteer words."""
    import pyarrow.compute as pc

    from knowledge_graph_ray.functions.agg import distinct_rows, grouped_agg
    from knowledge_graph_ray.functions.joins import hash_join, project
    from knowledge_graph_ray.stages.community import community_hierarchy

    _ents, _edges, _comps, comms = _gazetteer_graph(sf_dir)
    hier = community_hierarchy(comms, 8).materialize()

    sizes = project(
        grouped_agg(comms, ["community"], [("n_members", None, "count")]),
        {"community": "sub_community", "n_members": "n_members"},
    )
    # left_outer, NOT inner: a hierarchy row referencing a nonexistent
    # sub community (dangling reference, null n_members) must count as
    # a violation rather than silently dropping out of the gate
    joined = hash_join(hier, sizes, on=["sub_community"], how="left_outer",
                       num_partitions=8)

    def size_mismatch(b: pa.Table) -> pa.Table:
        bad = pc.or_kleene(
            pc.not_equal(b.column("sub_community_size"),
                         b.column("n_members")),
            pc.is_null(b.column("n_members")),
        )
        return b.filter(pc.fill_null(bad, True))

    size_viol = joined.map_batches(size_mismatch,
                                   batch_format="pyarrow").count()
    parents = grouped_agg(hier, ["sub_community"],
                          [("n_parents", None, "count")])
    parent_viol = parents.filter(expr="n_parents != 1").count()
    n_rows = hier.count()
    n_names = distinct_rows(
        comms.filter(expr="level == 0"), ["name"],
        empty_schema=pa.schema([("name", pa.string())]),
    ).count()
    ok = 1 if (n_rows > 0 and size_viol == 0 and parent_viol == 0) else 0
    return pa.table({
        "ok": pa.array([ok], type=pa.int64()),
        "n_entities": pa.array([n_names], type=pa.int64()),
    })


KG_HIERARCHY_INVARIANTS_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT CAST(1 AS BIGINT) AS ok, count(DISTINCT upper(w)) AS n_entities
FROM toks WHERE w IN {_FLAGSHIP_GAZETTEER_SQL}
"""


def kg_graph_embedding_norms(sf_dir: str):
    """SQL-invariant gate for A7 (VERDICT r3 #4): every graph embedding
    must be unit-norm (float32 tolerance 1e-5 — isolated nodes included,
    they embed as their seeded projection row, never zero) and the
    embedded roster must be exactly the clustered entity set.  Emits one
    row (ok, n_entities); the oracle computes n_entities as the number
    of present gazetteer words."""
    import numpy as np

    from knowledge_graph_ray.stages.graph_embed import embed_graph

    _ents, edges, comps, _comms = _gazetteer_graph(sf_dir)
    emb = embed_graph(comps, edges, dimensions=16, num_partitions=8
                      ).materialize()

    def norm_viol(b: pa.Table) -> pa.Table:
        vecs = np.asarray(b.column("graph_embedding").combine_chunks()
                          .flatten().to_numpy(zero_copy_only=False),
                          dtype=np.float64).reshape(len(b), -1)
        bad = np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > 1e-5
        return b.filter(pa.array(bad))

    viol = emb.map_batches(norm_viol, batch_format="pyarrow").count()
    n_emb = emb.count()
    n_ents = _ents.count()
    ok = 1 if (viol == 0 and n_emb == n_ents and n_emb > 0) else 0
    return pa.table({
        "ok": pa.array([ok], type=pa.int64()),
        "n_entities": pa.array([n_emb], type=pa.int64()),
    })


KG_GRAPH_EMBEDDING_NORMS_SQL = f"""
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
SELECT CAST(1 AS BIGINT) AS ok, count(DISTINCT upper(w)) AS n_entities
FROM toks WHERE w IN {_FLAGSHIP_GAZETTEER_SQL}
"""


# ---------------------------------------------------------- claims family

CLAIM_VERBS = ["join", "merge", "scan", "filter"]
CLAIM_VERBS_SQL = ", ".join(f"('{v}', {i + 1})" for i, v in enumerate(CLAIM_VERBS))

# shared SQL prefix mirroring PatternClaimExtractor over one-chunk-per-doc
# word-soup documents: subject/object = first two gazetteer tokens, type =
# first verb (in priority-list order) appearing strictly between them;
# order_key mirrors stages/claims.py "{doc_id}:{chunk:08d}:{order:08d}".
_CLAIMS_CTE = f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS i
  FROM documents
),
ent AS (
  SELECT doc_id, w, i, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
  FROM toks WHERE w IN {GAZETTEER_SQL}
),
ab AS (
  SELECT a.doc_id, a.w AS aw, a.i AS ai, b.w AS bw, b.i AS bi
  FROM ent a JOIN ent b USING (doc_id)
  WHERE a.rn = 1 AND b.rn = 2
),
verbs(v, pri) AS (VALUES {CLAIM_VERBS_SQL}),
vpick AS (
  SELECT ab.doc_id, min(vb.pri) AS pri
  FROM ab
  JOIN toks t ON t.doc_id = ab.doc_id AND t.i > ab.ai AND t.i < ab.bi
  JOIN verbs vb ON vb.v = t.w
  GROUP BY ab.doc_id
),
claims AS (
  SELECT ab.doc_id,
         upper(ab.aw) AS subject_id, upper(ab.bw) AS object_id,
         upper(vb.v) AS type, 'TRUE' AS status,
         'NONE' AS start_date, 'NONE' AS end_date,
         ab.aw || ' ' || vb.v || ' ' || ab.bw AS description,
         trim(d.text) AS source_text,
         CAST(ab.doc_id AS VARCHAR) || ':00000000:00000000' AS order_key
  FROM ab
  JOIN vpick USING (doc_id)
  JOIN verbs vb ON vb.pri = vpick.pri
  JOIN documents d ON d.doc_id = ab.doc_id
)
"""

_CLAIMS_MERGE_SELECT = """
SELECT subject_id,
       arg_min(object_id, order_key) AS object_id,
       arg_min(type, order_key) AS type,
       arg_min(status, order_key) AS status,
       arg_min(start_date, order_key) AS start_date,
       arg_min(end_date, order_key) AS end_date,
       string_agg(description, ' ' ORDER BY order_key) AS description,
       string_agg(DISTINCT source_text, ' | ' ORDER BY source_text) AS source_text,
       string_agg(CAST(doc_id AS VARCHAR), ', ' ORDER BY order_key) AS doc_id,
       count(*) AS n_claims
FROM claims
GROUP BY subject_id
"""


def _claims_dataset(sf_dir: str):
    """documents -> interleaved -> REAL chunker (one window per doc) ->
    actor-pool PatternClaimExtractor (A4/M6: 9-field wire protocol through
    parse_claim_records, reference graph_claims.py:218-259)."""
    from knowledge_graph_ray.stages.chunk import chunk_documents
    from knowledge_graph_ray.stages.claims import extract_claims

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved, batch_format="pyarrow")
    chunks = chunk_documents(docs, chunk_size=1_000_000, chunk_overlap=0)
    return extract_claims(
        chunks,
        vocabulary=[(w, "CONCEPT") for w in GAZETTEER],
        rel_verbs=[(v, 1.0) for v in CLAIM_VERBS],
    )


def _finalize_merged_claims(merged):
    """source_text list<str> -> ' | '-joined string so the driver's
    column-sorted value hash sees a scalar column on both sides."""

    def finalize(batch: pa.Table) -> pa.Table:
        src = batch.column("source_text").to_pylist()
        joined = pa.array(
            [" | ".join(s or []) for s in src], type=pa.large_string()
        )
        idx = batch.schema.get_field_index("source_text")
        return batch.set_column(idx, "source_text", joined)

    return merged.map_batches(finalize, batch_format="pyarrow")


def kg_claims_merge(sf_dir: str):
    """A4/M6/G3 driver gate: claim extraction + groupby(subject) merge
    (reference verbs/covariates/extract_covariates.py:69-83 — description
    ' '-joined in order, source_text sorted set union, doc_id ', '-joined,
    first-non-None scalars)."""
    from knowledge_graph_ray.stages.claims import merge_claims

    return _finalize_merged_claims(merge_claims(_claims_dataset(sf_dir)))


KG_CLAIMS_MERGE_SQL = _CLAIMS_CTE + _CLAIMS_MERGE_SELECT


# surface -> canonical map exercised by the resolution (M7) variant
CLAIM_RESOLUTION = {"TABLE": "RELATION", "WINDOW": "FRAME"}
_CLAIM_RES_CASE = (
    "CASE {col} "
    + " ".join(f"WHEN '{k}' THEN '{v}'" for k, v in CLAIM_RESOLUTION.items())
    + " ELSE {col} END"
)


def kg_claims_resolved(sf_dir: str):
    """M7 driver gate: resolve_claims (normalize + broadcast resolution
    map over subject/object, reference graph_claims.py:123-137) between
    extraction and the G3 merge."""
    from knowledge_graph_ray.stages.claims import merge_claims, resolve_claims

    resolution = rd.from_items(
        [{"surface": k, "canonical": v} for k, v in CLAIM_RESOLUTION.items()]
    )
    resolved = resolve_claims(_claims_dataset(sf_dir), resolution=resolution)
    return _finalize_merged_claims(merge_claims(resolved))


KG_CLAIMS_RESOLVED_SQL = (
    _CLAIMS_CTE
    + ", resolved AS (SELECT doc_id, "
    + _CLAIM_RES_CASE.format(col="subject_id")
    + " AS subject_id, "
    + _CLAIM_RES_CASE.format(col="object_id")
    + " AS object_id, type, status, start_date, end_date, description,"
      " source_text, order_key FROM claims)"
    + _CLAIMS_MERGE_SELECT.replace("FROM claims", "FROM resolved")
)


def kg_prompt_tune(sf_dir: str):
    """Rows-only: the prompt-tuning pipeline (reference api.py:25-152 /
    cli.py:14-43) over the documents table — domain/language/persona/
    entity-type generation through the deterministic offline model,
    token-budgeted example packing, one row per generated prompt file.
    Not SQL-expressible (string templating over sampled chunks)."""
    import pyarrow as pa
    import ray.data as rd

    from knowledge_graph_ray.pipelines.prompt_tune import (
        generate_indexing_prompts,
    )

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved,
                                     batch_format="pyarrow")
    extraction, summarization, community = generate_indexing_prompts(
        docs, chunk_size=256, chunk_overlap=16, sample_size=8,
    )
    return rd.from_arrow(pa.Table.from_pydict(
        {
            "prompt": ["community_report", "entity_extraction",
                       "summarize_descriptions"],
            "chars": pa.array(
                [len(community), len(extraction), len(summarization)],
                type=pa.int64(),
            ),
            "has_input_slot": [
                "{input_text}" in community,
                "{input_text}" in extraction,
                "{entity_name}" in summarization,
            ],
        }
    ))


# ------------------------------------------------------------ media queries


def kg_media_features(sf_dir: str):
    """Rows-only: the multimodal feature-extraction pipeline over the
    deterministic interleaved corpus — media spans -> actor-pool fetch
    (client held once per actor) -> actor-pool decode (codec once per
    actor) -> per-kind feature aggregate.  The codec is the documented
    DeterministicFakeCodec seam (no codec libs in this container); the
    Ray-side plumbing (schemas, actor pools, batch sizing, output
    layout) is the real path.  Non-SQL (blake2b payloads); the
    integrity gate is kg_media_integrity."""
    import numpy as np

    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.functions.agg import grouped_agg
    from knowledge_graph_ray.stages.multimodal import (
        decode_media,
        fetch_media,
        media_refs_from_docs,
    )

    docs = read_corpus(500, seed=6969, shard_size=125)
    feats = decode_media(fetch_media(media_refs_from_docs(docs)))

    def norms(batch: pa.Table) -> pa.Table:
        mat = np.asarray(
            batch.column("feature").combine_chunks().flatten()
        ).reshape(len(batch), -1)
        return pa.table({
            "kind": batch.column("kind"),
            "norm_e6": pa.array(
                np.round(np.linalg.norm(mat.astype(np.float64), axis=1)
                         * 1e6).astype(np.int64)
            ),
        })

    return grouped_agg(
        feats.map_batches(norms, batch_format="pyarrow"),
        ["kind"],
        [("n_media", None, "count"), ("sum_norm_e6", "norm_e6", "sum")],
    )


def kg_media_integrity(sf_dir: str):
    """SQL-gated integrity invariants for the multimodal path: (a) no
    media row is dropped between the ref listing and the decoded
    features (streaming counts agree); (b) every decoded feature has
    the contract dimension and values inside [0, 1] (violations
    counted distributed, must be 0); (c) all three media kinds appear.
    A silent drop or shape drift FAILS the driver."""
    import numpy as np

    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.functions.agg import grouped_agg
    from knowledge_graph_ray.stages.multimodal import (
        FEATURE_DIM,
        decode_media,
        fetch_media,
        media_refs_from_docs,
    )

    docs = read_corpus(500, seed=6969, shard_size=125)
    refs = media_refs_from_docs(docs)
    n_refs = refs.count()
    feats = decode_media(fetch_media(refs))

    def check(batch: pa.Table) -> pa.Table:
        mat = np.asarray(
            batch.column("feature").combine_chunks().flatten()
        ).reshape(len(batch), -1)
        row_bad = ((mat < 0.0) | (mat > 1.0)).any(axis=1)
        if mat.shape[1] != FEATURE_DIM:
            row_bad[:] = True
        return pa.table({
            "kind": batch.column("kind"),
            "bad": pa.array(row_bad.astype(np.int64)),
        })

    checked = grouped_agg(
        feats.map_batches(check, batch_format="pyarrow"),
        ["kind"], [("n", None, "count"), ("n_bad", "bad", "sum")],
    ).to_pandas()
    n_decoded = int(checked["n"].sum())
    n_bad = int(checked["n_bad"].sum())
    return pa.table({
        "refs_equal_decoded": pa.array(
            [int(n_refs == n_decoded)], type=pa.int64()),
        "feature_violations": pa.array([n_bad], type=pa.int64()),
        "kinds_found": pa.array([len(checked)], type=pa.int64()),
    })


KG_MEDIA_INTEGRITY_SQL = """
SELECT CAST(1 AS BIGINT) AS refs_equal_decoded,
       CAST(0 AS BIGINT) AS feature_violations,
       CAST(3 AS BIGINT) AS kinds_found
"""


# ------------------------------------------------------- query-side context


def kg_local_search_context(sf_dir: str):
    """Rows-only: the reference's QUERY side driven end-to-end — build
    the KG from the driver's documents table, embed entity
    descriptions, and assemble a local-search context for a
    deterministic query vector (pipelines/search.build_local_context:
    vector top-k entities with k*2 oversample, rank-ordered
    relationships, token-budgeted text units — reference
    search_test.py:36-147 minus the LLM call).

    Returns the selected-entity table with e6-rounded cosine and the
    per-entity relationship/text-unit pull counts; embedding ranking is
    not ANSI-SQL-expressible, so this is a rows-only gate (the
    construction tables feeding it are themselves driver-oracled)."""
    import numpy as np

    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph
    from knowledge_graph_ray.pipelines.search import build_local_context
    from knowledge_graph_ray.stages.embed import HashingEmbedder, embed_descriptions
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved,
                                     batch_format="pyarrow")
    cfg = PipelineConfig(chunk_size=256, chunk_overlap=16,
                         extract_use_actor_pool=False,
                         max_descriptions_per_key=32,
                         max_sources_per_key=256)
    tables = build_knowledge_graph(
        docs, cfg, extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    entities = embed_descriptions(tables.entities.materialize(),
                                  concurrency=1, dim=32)
    # deterministic query vector: the embedder's own encoding of a
    # fixed probe phrase (no RNG anywhere)
    probe = HashingEmbedder(dim=32).embed_one("energy grid operator")
    ctx = build_local_context(
        entities, tables.relationships.materialize(),
        tables.text_units.materialize(),
        np.asarray(probe, dtype=np.float64), k=5, token_budget=4000,
    )
    ents = ctx["entities"].copy()
    rel_counts = ctx["relationships"].groupby("src").size() \
        if len(ctx["relationships"]) else pd.Series(dtype=int)
    out = pa.table({
        "name": pa.array(ents["name"].astype(str), type=pa.string()),
        "match_rank": pa.array(
            ents["match_rank"].to_numpy(dtype="int64"), type=pa.int64()),
        "n_rels_from": pa.array(
            [int(rel_counts.get(n, 0)) for n in ents["name"]],
            type=pa.int64()),
        "n_text_units": pa.array(
            [len(ctx["text_units"])] * len(ents), type=pa.int64()),
    })
    return out


def kg_global_search_context(sf_dir: str):
    """Rows-only: the reference's GLOBAL search retrieval driven
    end-to-end — build the KG (with community reports) from the
    driver's documents table, then assemble the seeded-shuffle
    rank-scored top-k report context
    (pipelines/search.build_global_context; reference
    global_search/search.py:82-142 minus the LLM map/reduce calls).
    Returns (community, rank, n_tokens) for the kept reports."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.functions.text import token_count
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph
    from knowledge_graph_ray.pipelines.search import build_global_context
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    docs = _docs(sf_dir).map_batches(docs_table_to_interleaved,
                                     batch_format="pyarrow")
    cfg = PipelineConfig(chunk_size=256, chunk_overlap=16,
                         extract_use_actor_pool=False,
                         max_descriptions_per_key=32,
                         max_sources_per_key=256,
                         max_cluster_size=4)
    tables = build_knowledge_graph(
        docs, cfg, extractor_cls=CooccurrenceExtractor,
        vocabulary=[(w, "organization") for w in FLAGSHIP_GAZETTEER],
    )
    ctx = build_global_context(tables.reports, k=5, token_budget=6000)
    return pa.table({
        "community": pa.array(ctx["community"].astype(str),
                              type=pa.string()),
        "rank": pa.array(ctx["rank"].to_numpy(dtype="int64"),
                         type=pa.int64()),
        "n_tokens": pa.array(
            [int(token_count(t or "")) for t in ctx["full_content"]],
            type=pa.int64()),
    })


# oracled gates first: the correctness snapshot reads only the head of
# this registry, so every ORACLE_SQL key must sit there
QUERIES = {
    "kg_entity_merge": kg_entity_merge,
    "kg_edge_merge": kg_edge_merge,
    "kg_degree": kg_degree,
    "kg_text_units": kg_text_units,
    "kg_incremental_entities": kg_incremental_entities,
    "kg_community_partition": kg_community_partition,
    "kg_hierarchy_invariants": kg_hierarchy_invariants,
    "kg_graph_embedding_norms": kg_graph_embedding_norms,
    "kg_claims_merge": kg_claims_merge,
    "kg_claims_resolved": kg_claims_resolved,
    "kg_media_integrity": kg_media_integrity,
    "similarity_topk": similarity_topk,
    "kg_pipeline_entities": kg_pipeline_entities,
    "kg_communities": kg_communities,
    "kg_hierarchy": kg_hierarchy,
    "kg_graph_embedding": kg_graph_embedding,
    "kg_prompt_tune": kg_prompt_tune,
    "kg_media_features": kg_media_features,
    "kg_local_search_context": kg_local_search_context,
    "kg_global_search_context": kg_global_search_context,
}

ORACLE_SQL = {
    "kg_entity_merge": KG_ENTITY_MERGE_SQL,
    "kg_edge_merge": KG_EDGE_MERGE_SQL,
    "kg_degree": KG_DEGREE_SQL,
    "kg_text_units": KG_TEXT_UNITS_SQL,
    "kg_incremental_entities": KG_INCREMENTAL_ENTITIES_SQL,
    "kg_community_partition": KG_COMMUNITY_PARTITION_SQL,
    "kg_hierarchy_invariants": KG_HIERARCHY_INVARIANTS_SQL,
    "kg_graph_embedding_norms": KG_GRAPH_EMBEDDING_NORMS_SQL,
    "kg_claims_merge": KG_CLAIMS_MERGE_SQL,
    "kg_claims_resolved": KG_CLAIMS_RESOLVED_SQL,
    "kg_media_integrity": KG_MEDIA_INTEGRITY_SQL,
    "similarity_topk": SIMILARITY_TOPK_SQL,
}
