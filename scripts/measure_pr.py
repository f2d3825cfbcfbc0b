"""Measure triple P/R of the Ray pipeline vs the sequential
reference-semantics oracle on the synthetic interleaved corpus.

Usage: python scripts/measure_pr.py [num_docs]   (default 2000)
Prints one JSON line: entity/triple precision+recall and attribute
agreement rates — the BASELINE.md accuracy evidence.
"""

from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


def main():
    num_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 2000

    import ray

    ray.init(address="local", num_cpus=os.cpu_count() or 1, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray import oracle
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import generate_corpus_table, read_corpus
    from knowledge_graph_ray.pipelines.build import build_graph
    from knowledge_graph_ray.stages.chunk import chunk_spans_batch
    from knowledge_graph_ray.stages.extract import PatternExtractor

    chunk_size, chunk_overlap = 64, 16

    # oracle: sequential replay over the same corpus
    corpus = generate_corpus_table(num_docs, seed=6969)
    chunks = chunk_spans_batch(corpus, chunk_size, chunk_overlap).to_pylist()
    chunks.sort(key=lambda c: (c["doc_id"], c["chunk_index"]))
    extractor = PatternExtractor()
    results = {c["chunk_id"]: extractor._extract_raw(c["text"]) for c in chunks if c["text"]}
    o_ents, o_rels = oracle.graph_to_tables(oracle.process_results(results))

    # ray pipeline
    docs = read_corpus(num_docs, seed=6969, shard_size=max(64, num_docs // 64))
    cfg = PipelineConfig(chunk_size=chunk_size, chunk_overlap=chunk_overlap,
                         extract_use_actor_pool=False)
    tables = build_graph(docs, cfg)
    r_ents = {r["name"]: r for r in tables.entities.to_pandas().to_dict("records")}
    r_rels = {
        (r["src"], r["dst"]): r
        for r in tables.relationships.to_pandas().to_dict("records")
    }

    def prf(expected, got):
        tp = len(expected & got)
        return tp / max(1, len(got)), tp / max(1, len(expected))

    ep, er = prf(set(o_ents), set(r_ents))
    tp_, tr = prf(set(o_rels), set(r_rels))

    attr_ok = sum(
        1
        for name, o in o_ents.items()
        if name in r_ents
        and r_ents[name]["type"] == o["type"]
        and frozenset(r_ents[name]["description"].split("\n")) == o["descriptions"]
        and frozenset(r_ents[name]["source_id"].split(", ")) == o["sources"]
    )
    weight_ok = sum(
        1
        for key, o in o_rels.items()
        if key in r_rels and abs(r_rels[key]["weight"] - o["weight"]) < 1e-9
    )
    out = {
        "num_docs": num_docs,
        "entities": len(o_ents),
        "triples": len(o_rels),
        "entity_precision": round(ep, 6),
        "entity_recall": round(er, 6),
        "triple_precision": round(tp_, 6),
        "triple_recall": round(tr, 6),
        "entity_attribute_agreement": round(attr_ok / max(1, len(o_ents)), 6),
        "triple_weight_agreement": round(weight_ok / max(1, len(o_rels)), 6),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
