"""Local-search context builder over constructed tables (serving-side
data ops, reference search_test.py flow minus the LLM call)."""

import numpy as np
import ray.data as rd

from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.corpus import generate_corpus_table
from knowledge_graph_ray.pipelines.build import build_knowledge_graph
from knowledge_graph_ray.pipelines.search import build_local_context
from knowledge_graph_ray.stages.embed import HashingEmbedder, embed_descriptions


def test_local_context():
    docs = rd.from_arrow(generate_corpus_table(150, seed=6969)).repartition(4)
    cfg = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_concurrency=1)
    tables = build_knowledge_graph(docs, cfg, num_partitions=4)
    entities = embed_descriptions(tables.entities, concurrency=1, dim=64).materialize()
    text_units = tables.text_units.materialize()
    relationships = tables.relationships.materialize()

    # query with the embedding of one entity's own description: that
    # entity must be the top match
    target = entities.to_pandas().iloc[3]
    qv = HashingEmbedder(dim=64).embed_one(target["description"])

    ctx = build_local_context(entities, relationships, text_units, qv, k=5,
                              token_budget=500)
    assert ctx["entities"].iloc[0]["name"] == target["name"]
    assert len(ctx["entities"]) == 5
    # every context relationship touches a selected entity
    names = set(ctx["entities"]["name"])
    for _, r in ctx["relationships"].iterrows():
        assert r["src"] in names or r["dst"] in names
    # text units come from the selected entities' sources, budget respected
    assert not ctx["text_units"].empty
    total_tokens = sum(len((t or "").split()) for t in ctx["text_units"]["text"])
    assert total_tokens <= 600  # ~budget (regex vs whitespace tokens)
    sources = " ".join(ctx["entities"]["source_id"])
    for cid in ctx["text_units"]["chunk_id"]:
        assert cid in sources


def test_global_context():
    from knowledge_graph_ray.pipelines.search import build_global_context

    docs = rd.from_arrow(generate_corpus_table(150, seed=6969)).repartition(4)
    cfg = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_concurrency=1,
                         max_cluster_size=3)
    tables = build_knowledge_graph(docs, cfg, num_partitions=4)
    ctx = build_global_context(tables.reports, k=3, token_budget=10000)
    assert 1 <= len(ctx) <= 3
    ranks = ctx["rank"].tolist()
    assert ranks == sorted(ranks, reverse=True)  # top by score
    # determinism
    ctx2 = build_global_context(tables.reports, k=3, token_budget=10000)
    assert ctx["community"].tolist() == ctx2["community"].tolist()


def test_brute_force_topk_merges_without_an_exchange():
    """The per-block top-k rows merge on the driver: the executed plan
    has no Sort/Aggregate operator, and ties still break on the numeric
    id ('2' before '10') as in the SQL oracle."""
    import re

    import pyarrow as pa

    from knowledge_graph_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(40, 8))
    vecs[10] = vecs[2]  # a cosine tie across blocks
    ids = [str(i) for i in range(40)]
    table = pa.table({"vec_id": ids, "embedding": [list(v) for v in vecs]})
    emb = rd.from_arrow([table.slice(i, 10) for i in range(0, 40, 10)])
    queries = vecs[[2, 5, 30]]
    top = brute_force_topk(emb, queries, k=4).materialize()
    assert not re.findall(
        r"Operator \d+ (Sort|Aggregate|RandomShuffle|Repartition)\b",
        top.stats())

    got = top.to_pandas()
    assert list(got.columns) == ["query_id", "vec_id", "cosine", "rk"]
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for qi, q in enumerate(unit[[2, 5, 30]]):
        order = np.lexsort((np.arange(40), -(unit @ q)))[:4]
        rows = got[got.query_id == qi].sort_values("rk")
        assert rows.vec_id.tolist() == [ids[i] for i in order]
        assert rows.rk.tolist() == [1, 2, 3, 4]
    assert got[got.query_id == 0].vec_id.tolist()[:2] == ["2", "10"]

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.string()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    }))
    assert brute_force_topk(empty, queries, k=4).count() == 0
