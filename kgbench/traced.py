"""Traced run: the per-layer metrics.

A checkpointed build followed by a resume from its checkpoints gives the
checkpoint layer's numbers (and warms the session).  Then the build is
driven stage by stage through each module's public functions,
materializing after every call, with a span (name, start, end, parent)
around each call.  The same stages' batch kernels then run in this process
without Ray on the same input, so each stage's Ray overhead is a measured
ratio.  Spans and metrics are written to ``.kgbench_traces/`` in the
checkout when the run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager

import corpora
from checks import check_outputs
from run import REPO, Stopwatch, log, read_exported, run_pass


class Tracer:
    """Spans kept in memory; ``total(name)`` sums the spans of a name."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, since: int = 0) -> float:
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def truncated_keys(df, cfg) -> int:
    """Canonical rows whose description or source set is at a per-key cap."""
    n = 0
    for col, sep, cap in (("description", "\n", cfg.max_descriptions_per_key),
                          ("source_id", ", ", cfg.max_sources_per_key)):
        if cap is not None:
            n += int((df[col].str.count(sep) + 1 >= cap).sum())
    return n


def traced_round(corpus, tracer: Tracer, out_dir: str) -> tuple[dict, dict]:
    """One stage-by-stage build + export; returns (metrics, counts)."""
    from knowledge_graph_ray.pipelines.build import GraphTables, export_tables
    from knowledge_graph_ray.sources.io import read_documents
    from knowledge_graph_ray.stages.canonicalize import (
        canonicalize_entities,
        canonicalize_relationships,
    )
    from knowledge_graph_ray.stages.chunk import chunk_documents
    from knowledge_graph_ray.stages.community import (
        assign_clusters,
        community_hierarchy,
        detect_communities,
    )
    from knowledge_graph_ray.stages.components import connected_components
    from knowledge_graph_ray.stages.degree import (
        attach_edge_degrees,
        attach_entity_degrees,
        compute_degrees,
    )
    from knowledge_graph_ray.stages.extract import extract_mentions
    from knowledge_graph_ray.stages.report import generate_reports
    from knowledge_graph_ray.stages.summarize import summarize_descriptions

    cfg = corpus.cfg
    parts = 32  # build_knowledge_graph's default num_partitions
    first = len(tracer.spans)
    c = {}
    with tracer.span("round"):
        with tracer.span("sources.read"):
            docs = read_documents(corpus.input).materialize()
        c["sources.rows"] = docs.count()
        with tracer.span("chunk"):
            units = chunk_documents(docs, cfg.chunk_size, cfg.chunk_overlap,
                                    batch_size=cfg.chunk_batch_size).materialize()
        c["chunk.rows_out"] = units.count()
        calls0 = corpus.calls()
        with tracer.span("extract"):
            mentions = extract_mentions(
                units, extractor_cls=corpus.extractor_cls,
                batch_size=cfg.extract_batch_size, concurrency=cfg.extract_concurrency,
                use_actor_pool=cfg.extract_use_actor_pool,
                **corpus.extractor_kwargs).materialize()
        c["llm.calls"] = corpus.calls() - calls0
        c["extract.mentions"] = mentions.count()
        c["extract.error_rows"] = mentions.filter(expr="kind == 'error'").count()
        caps = {"max_descriptions": cfg.max_descriptions_per_key,
                "max_sources": cfg.max_sources_per_key}
        with tracer.span("canonicalize.entities"):
            entities = canonicalize_entities(
                mentions, size_hint=2 * c["extract.mentions"], **caps).materialize()
        with tracer.span("canonicalize.relationships"):
            relationships = canonicalize_relationships(
                mentions, size_hint=c["extract.mentions"], **caps).materialize()
        c["canonicalize.entity_keys"] = entities.count()
        c["canonicalize.edge_keys"] = relationships.count()
        c["canonicalize.truncated_keys"] = (
            truncated_keys(entities.to_pandas(), cfg)
            + truncated_keys(relationships.to_pandas(), cfg))
        with tracer.span("summarize"):
            entities = summarize_descriptions(
                entities, max_input_tokens=cfg.max_summary_input_tokens,
                max_summary_length=cfg.max_summary_length).materialize()
            relationships = summarize_descriptions(relationships).materialize()
        c["summarize.rows"] = entities.count() + relationships.count()
        with tracer.span("degree"):
            degrees = compute_degrees(relationships).materialize()
        with tracer.span("components"):
            components = connected_components(
                entities, relationships, num_partitions=parts).materialize()
        c["components.count"] = len(set(components.to_pandas()["component"]))
        with tracer.span("degree.attach"):
            degreed_entities = attach_entity_degrees(entities, degrees, parts).materialize()
            degreed_relationships = attach_edge_degrees(
                relationships, degrees, parts).materialize()
        with tracer.span("community"):
            communities = detect_communities(
                components, relationships, max_cluster_size=cfg.max_cluster_size,
                seed=cfg.seed, use_lcc=cfg.use_lcc, num_partitions=parts,
                algorithm=cfg.clustering_algorithm).materialize()
            clustered = assign_clusters(degreed_entities, communities,
                                        num_partitions=parts).materialize()
        c["community.rows"] = communities.count()
        with tracer.span("report"):
            reports = generate_reports(communities, degreed_entities,
                                       degreed_relationships, parts).materialize()
        c["report.reports"] = reports.count()
        with tracer.span("community.hierarchy"):
            hierarchy = community_hierarchy(communities, parts).materialize()
        with tracer.span("export"):
            export_tables(GraphTables(
                text_units=units, mentions=mentions, entities=clustered,
                relationships=degreed_relationships, communities=communities,
                reports=reports, hierarchy=hierarchy), out_dir, fingerprint="kgbench")
    c["export.bytes"] = dir_bytes(out_dir)
    t = {name: tracer.total(name, first) for name in (
        "round", "sources.read", "chunk", "extract", "canonicalize.entities",
        "canonicalize.relationships", "summarize", "degree", "degree.attach",
        "components", "community", "community.hierarchy", "report", "export")}
    keys = c["canonicalize.entity_keys"] + c["canonicalize.edge_keys"]
    metrics = {
        "sources.read_s": t["sources.read"],
        "chunk.stage_s": t["chunk"],
        "chunk.us_per_doc": 1e6 * t["chunk"] / max(1, c["sources.rows"]),
        "extract.stage_s": t["extract"],
        "canonicalize.entities_s": t["canonicalize.entities"],
        "canonicalize.relationships_s": t["canonicalize.relationships"],
        "canonicalize.us_per_key": 1e6 * (t["canonicalize.entities"]
                                          + t["canonicalize.relationships"]) / max(1, keys),
        "summarize.stage_s": t["summarize"],
        "degree.stage_s": t["degree"],
        "degree.attach_s": t["degree.attach"],
        "components.stage_s": t["components"],
        "community.stage_s": t["community"],
        "community.hierarchy_s": t["community.hierarchy"],
        "report.stage_s": t["report"],
        "export.stage_s": t["export"],
        "trace.total_s": t["round"],
    }
    return metrics, c


def kernels(corpus) -> dict:
    """Batch kernels of chunk, extract and canonicalize, in this process."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledge_graph_ray.stages import canonicalize as canon
    from knowledge_graph_ray.stages.chunk import chunk_spans_batch

    cfg = corpus.cfg

    def batches(table, size):
        return [table.slice(i, size) for i in range(0, table.num_rows, size)]

    docs = pq.read_table(os.path.join(corpus.input, "docs.parquet"))
    out = {}
    t0 = time.perf_counter()
    units = pa.concat_tables([chunk_spans_batch(b, cfg.chunk_size, cfg.chunk_overlap)
                              for b in batches(docs, cfg.chunk_batch_size)])
    out["chunk.kernel_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    extractor = corpus.extractor_cls(**corpus.extractor_kwargs)
    out["extract.setup_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    mentions = pa.concat_tables([extractor(b) for b in batches(units, cfg.extract_batch_size)])
    out["extract.kernel_s"] = time.perf_counter() - t0
    caps = {"max_descriptions": cfg.max_descriptions_per_key,
            "max_sources": cfg.max_sources_per_key}
    t0 = time.perf_counter()
    ent_parts = [canon.entity_partials_batch(b, **caps) for b in batches(mentions, 32768)]
    edge_parts = [canon.edge_partials_batch(b, **caps) for b in batches(mentions, 32768)]
    out["canonicalize.kernel_partials_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # the per-key final merge that canonicalize runs inside each key bucket
    for parts, keys, merge in ((ent_parts, "name", canon._merge_entity_group),
                               (edge_parts, ["src", "dst"], canon._merge_edge_group)):
        df = pd.concat([p.to_pandas() for p in parts])
        for _, group in df.groupby(keys, sort=False):
            merge(group, **caps)
    out["canonicalize.kernel_merge_s"] = time.perf_counter() - t0
    return out


def duplicate_chunk_share(docs) -> float:
    """Share of text chunks whose text repeats an earlier chunk's."""
    seen, dup, total = set(), 0, 0
    for doc in docs:
        for text in corpora.chunk_texts(doc["spans"]):
            total += 1
            dup += text in seen
            seen.add(text)
    return dup / max(1, total)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per" in name:
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "fraction"
    if "calls_per_" in name:
        return "calls/" + name.rsplit("_", 1)[1]
    return "count"


def checkpoint_stats(path: str) -> dict:
    """Write time recorded in the stage manifests, bytes on disk, and the
    time to read every stage checkpoint back."""
    from knowledge_graph_ray.state.checkpoint import MANIFEST_NAME, read_checkpoint

    stages = sorted(os.path.join(path, d) for d in os.listdir(path))
    write_s = 0.0
    for stage in stages:
        with open(os.path.join(stage, MANIFEST_NAME)) as f:
            write_s += json.load(f)["write_seconds"]
    t0 = time.perf_counter()
    for stage in stages:
        read_checkpoint(stage).materialize()
    return {"checkpoint.write_s": write_s, "checkpoint.bytes": dir_bytes(path),
            "checkpoint.read_s": time.perf_counter() - t0}


def traced_run(wl, corpus, workdir, seconds, started):
    """A checkpointed build (also the warm-up) and a resume from it, then
    traced stage-by-stage rounds for ``seconds``, then the kernels."""
    ckpt = os.path.join(workdir, "ckpt")
    first, first_tables = run_pass(corpus, os.path.join(workdir, "first"), ckpt)
    metrics = checkpoint_stats(ckpt)
    resumed, _ = run_pass(corpus, os.path.join(workdir, "resumed"), ckpt, first_tables)
    log(started, "checkpointed build and resume done")
    errors = first["errors"] + resumed["errors"]
    tracer = Tracer()
    rounds, failed = [], first["quarantined"] + resumed["quarantined"]
    watch = Stopwatch()
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        out = os.path.join(workdir, f"traced{len(rounds)}")
        timings, counts = traced_round(corpus, tracer, out)
        errors += check_outputs(read_exported(out), corpus.expected)
        shutil.rmtree(out, ignore_errors=True)
        rounds.append(timings)
        failed += counts["extract.error_rows"]
        log(started, f"traced round {len(rounds)}: {timings['trace.total_s']:.2f}s")
    # the spans are wall times; this is the share of them the host stole
    metrics["host.steal_share"] = watch.stop()[1]
    metrics.update({k: statistics.median(r[k] for r in rounds) for k in rounds[0]})
    metrics.update(counts)
    metrics.update(kernels(corpus))
    log(started, "kernels done")
    metrics.update({
        "llm.calls_per_chunk": metrics["llm.calls"] / max(1, corpus.expected.text_chunks),
        "llm.duplicate_chunk_share": duplicate_chunk_share(corpus.docs),
        "resume_s": resumed["run_s"],
        "resume.llm_calls": resumed["calls"],
        "llm_calls_per_doc": (first["calls"] + resumed["calls"]) / len(corpus.docs),
    })
    trace_dir = os.path.join(REPO, ".kgbench_traces")
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{wl.name}-{os.getpid()}.json"), "w") as f:
        json.dump({"workload": wl.name, "spans": tracer.spans, "metrics": metrics}, f)
    for e in errors[:10]:
        print("CHECK FAILED:", e, file=sys.stderr)
    print_stage_table(metrics)
    result = {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())}
    attempted = first["chunks"] + resumed["chunks"] + len(rounds) * counts["chunk.rows_out"]
    return result, not errors, attempted, failed


STAGES = [("sources.read_s", None), ("chunk.stage_s", "chunk.kernel_s"),
          ("extract.stage_s", "extract.kernel_s"),
          ("canonicalize.entities_s", None), ("canonicalize.relationships_s", None),
          ("summarize.stage_s", None), ("degree.stage_s", None), ("degree.attach_s", None),
          ("components.stage_s", None), ("community.stage_s", None),
          ("community.hierarchy_s", None), ("report.stage_s", None),
          ("export.stage_s", None)]


def print_stage_table(m: dict):
    """Per-stage wall time under Ray next to its in-process kernel time."""
    canon_s = m["canonicalize.entities_s"] + m["canonicalize.relationships_s"]
    canon_k = m["canonicalize.kernel_partials_s"] + m["canonicalize.kernel_merge_s"]
    print(f"{'stage':32} {'ray s':>8} {'kernel s':>9} {'ray/kernel':>10}")
    for stage, kernel in STAGES:
        k = m[kernel] if kernel else None
        ratio = f"{m[stage] / k:10.1f}" if k else f"{'':10}"
        print(f"{stage:32} {m[stage]:8.3f} {'' if k is None else f'{k:9.3f}':>9} {ratio}")
    print(f"{'canonicalize (both)':32} {canon_s:8.3f} {canon_k:9.3f} {canon_s / canon_k:10.1f}")
    print(f"{'traced total':32} {m['trace.total_s']:8.3f}")
