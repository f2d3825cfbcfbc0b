"""Full-pipeline resume: stage checkpoints skip recomputation on rerun;
a changed fingerprint invalidates them."""

import json
import os

import pytest
import ray.data as rd

from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.corpus import generate_corpus_table
from knowledge_graph_ray.pipelines.build import build_knowledge_graph

CFG = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_concurrency=1)


def _manifest(path):
    with open(os.path.join(path, "_manifest.json")) as f:
        return json.load(f)


def test_pipeline_resume(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    docs = rd.from_arrow(generate_corpus_table(80, seed=6969)).repartition(2)

    t1 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-a")
    n_ents = t1.entities.count()
    stages = ["entities_summarized", "relationships_summarized",
              "entities_degreed", "relationships_degreed", "communities"]
    first = {s: _manifest(os.path.join(ckpt, s))["written_at"] for s in stages}
    for s in stages:
        assert _manifest(os.path.join(ckpt, s))["fingerprint"] == "fp-a"

    # same fingerprint -> resumed, no checkpoint rewritten
    t2 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-a")
    assert t2.entities.count() == n_ents
    second = {s: _manifest(os.path.join(ckpt, s))["written_at"] for s in stages}
    assert second == first

    # new fingerprint (new input) -> stages recomputed
    docs2 = rd.from_arrow(generate_corpus_table(100, seed=6969)).repartition(2)
    t3 = build_knowledge_graph(docs2, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-b")
    assert t3.entities.count() >= n_ents
    third = {s: _manifest(os.path.join(ckpt, s))["written_at"] for s in stages}
    assert all(third[s] > first[s] for s in stages)
    for s in stages:
        assert _manifest(os.path.join(ckpt, s))["fingerprint"] == "fp-b"


def test_mentions_checkpoint(tmp_path):
    from knowledge_graph_ray.pipelines.build import build_graph

    docs = rd.from_arrow(generate_corpus_table(60, seed=6969)).repartition(2)
    path = str(tmp_path / "mentions")
    t1 = build_graph(docs, CFG, mentions_checkpoint=path, fingerprint="m1")
    n = t1.mentions.count()
    assert n > 0
    first = _manifest(path)["written_at"]
    # resume: mention extraction skipped, same rows
    t2 = build_graph(docs, CFG, mentions_checkpoint=path, fingerprint="m1")
    assert t2.mentions.count() == n
    assert _manifest(path)["written_at"] == first
    assert t2.entities.count() == t1.entities.count()


def test_media_features_branch(tmp_path):
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph, export_tables

    cfg = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_concurrency=1,
                        media_features=True)
    docs = rd.from_arrow(generate_corpus_table(80, seed=6969)).repartition(2)
    tables = build_knowledge_graph(docs, cfg, num_partitions=4)
    feats = tables.media_features.to_pandas()
    assert not feats.empty
    assert set(feats.columns) == {"doc_id", "media_ref", "kind", "feature"}
    assert feats.kind.isin(["image", "audio", "table"]).all()
    manifests = export_tables(tables, str(tmp_path / "out"), fingerprint="m")
    assert manifests["media_features"]["rows"] == len(feats)


def test_resume_skips_cc_chain_entirely(tmp_path, monkeypatch):
    """A complete 'communities' checkpoint must not re-execute the
    connected-components chain (compute-and-discard regression)."""
    import knowledge_graph_ray.stages.community as community_mod
    import knowledge_graph_ray.stages.components as components_mod
    import knowledge_graph_ray.stages.degree as degree_mod

    ckpt = str(tmp_path / "ckpt")
    docs = rd.from_arrow(generate_corpus_table(80, seed=6969)).repartition(2)
    t1 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-cc")
    n = t1.entities.count()

    def _boom(*a, **k):
        raise AssertionError("CC chain executed despite complete checkpoint")

    monkeypatch.setattr(components_mod, "connected_components", _boom)
    monkeypatch.setattr(community_mod, "detect_communities", _boom)
    monkeypatch.setattr(degree_mod, "compute_degrees", _boom)
    t2 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-cc")
    assert t2.entities.count() == n


def test_full_resume_runs_no_extraction_or_canonicalize(tmp_path, monkeypatch):
    """Complete *_summarized checkpoints must skip the whole chunk ->
    extract -> canonicalize core.  The lazy mentions handle is still
    built (it is free until executed), so the patched extract_mentions
    returns a dataset that raises when executed."""
    import knowledge_graph_ray.pipelines.build as build_mod

    ckpt = str(tmp_path / "ckpt")
    docs = rd.from_arrow(generate_corpus_table(80, seed=6969)).repartition(2)
    t1 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-core")
    n_ents, n_rels = t1.entities.count(), t1.relationships.count()

    def _boom(*a, **k):
        raise AssertionError("core executed despite complete checkpoints")

    def _extract_must_not_run(text_units, **kwargs):
        return text_units.map_batches(_boom, batch_format="pyarrow")

    monkeypatch.setattr(build_mod, "extract_mentions", _extract_must_not_run)
    monkeypatch.setattr(build_mod, "canonicalize_entities", _boom)
    monkeypatch.setattr(build_mod, "canonicalize_relationships", _boom)
    t2 = build_knowledge_graph(docs, CFG, num_partitions=4,
                               checkpoint_dir=ckpt, fingerprint="fp-core")
    assert t2.entities.count() == n_ents
    assert t2.relationships.count() == n_rels


def test_resume_llm_calls(tmp_path):
    """Endpoint calls on resume: a full resume makes none; so does a
    partial one missing only relationships_summarized, which no output
    needs.  With relationships_degreed missing as well, it extracts
    once — as many calls as the first build, not one extraction per
    canonicalize side."""
    import re
    import shutil

    from llm_mock import canned_chat_server

    from knowledge_graph_ray.config import COMPLETION_DELIMITER, RECORD_DELIMITER
    from knowledge_graph_ray.corpus import VOCABULARY
    from knowledge_graph_ray.functions.records import (
        format_entity_record,
        format_relationship_record,
    )
    from knowledge_graph_ray.stages.llm import OpenAICompatGraphExtractor

    types = {n.upper(): t for n, t in VOCABULARY}
    name_re = re.compile(
        r"\b(?:" + "|".join(re.escape(n) for n, _ in sorted(
            VOCABULARY, key=lambda v: len(v[0]), reverse=True)) + r")\b",
        re.IGNORECASE,
    )
    calls = []

    def reply(messages):
        calls.append(1)
        text = messages[-1]["content"].split("Text:\n", 1)[-1]
        found = list(dict.fromkeys(m.group(0) for m in name_re.finditer(text)))
        records = [format_entity_record(n, types.get(n.upper(), ""), "seen")
                   for n in found]
        if len(found) >= 2:
            records.append(format_relationship_record(
                found[0], found[1], "mentioned together", 1.0))
        return RECORD_DELIMITER.join(records) + COMPLETION_DELIMITER

    ckpt = str(tmp_path / "ckpt")
    docs = rd.from_arrow(generate_corpus_table(40, seed=6969)).repartition(2)
    with canned_chat_server(reply) as base_url:
        def build():
            before = len(calls)
            tables = build_knowledge_graph(
                docs, CFG, extractor_cls=OpenAICompatGraphExtractor,
                num_partitions=4, checkpoint_dir=ckpt, fingerprint="fp-llm",
                max_gleanings=0, base_url=base_url, api_key="test-key",
                model="canned-model")
            return tables, len(calls) - before

        t1, first_calls = build()
        n_rels = t1.relationships.count()
        assert first_calls > 0

        t2, full_resume_calls = build()
        assert full_resume_calls == 0
        assert t2.relationships.count() == n_rels

        shutil.rmtree(os.path.join(ckpt, "relationships_summarized"))
        t3, partial_resume_calls = build()
        assert partial_resume_calls == 0
        assert t3.relationships.count() == n_rels

        # nothing rewrote relationships_summarized: it is still missing
        assert not os.path.exists(os.path.join(ckpt, "relationships_summarized"))
        shutil.rmtree(os.path.join(ckpt, "relationships_degreed"))
        t4, partial_resume_calls = build()
        assert partial_resume_calls == first_calls
        assert t4.relationships.count() == n_rels


def _export_rows(out_dir, table):
    import pyarrow.parquet as pq

    rows = pq.read_table(os.path.join(out_dir, table)).to_pylist()
    return sorted(json.dumps(r, sort_keys=True) for r in rows)


def _resume_and_export(ckpt, out_dir):
    from knowledge_graph_ray.pipelines.build import export_tables

    docs = rd.from_arrow(generate_corpus_table(80, seed=6969)).repartition(2)
    tables = build_knowledge_graph(docs, CFG, num_partitions=4,
                                   checkpoint_dir=ckpt, fingerprint="fp-h")
    return export_tables(tables, out_dir, fingerprint="fp-h")


@pytest.fixture(scope="module")
def small_checkpointed_build(tmp_path_factory):
    """(checkpoint dir, export dir) of one small checkpointed build."""
    root = tmp_path_factory.mktemp("small_build")
    ckpt, out = str(root / "ckpt"), str(root / "out")
    _resume_and_export(ckpt, out)
    return ckpt, out


def test_full_resume_reads_hierarchy_checkpoint(small_checkpointed_build,
                                                tmp_path, monkeypatch):
    """A complete 'community_hierarchy' checkpoint skips the hierarchy's
    join and bucket map; the exported hierarchy is unchanged."""
    import knowledge_graph_ray.stages.community as community_mod

    ckpt, first = small_checkpointed_build

    def _boom(*a, **k):
        raise AssertionError("hierarchy computed despite complete checkpoint")

    monkeypatch.setattr(community_mod, "community_hierarchy", _boom)
    out = str(tmp_path / "out")
    manifests = _resume_and_export(ckpt, out)
    assert manifests["community_hierarchy"]["rows"] > 0
    assert (_export_rows(out, "community_hierarchy")
            == _export_rows(first, "community_hierarchy"))


def test_resume_without_hierarchy_stage_writes_it(small_checkpointed_build,
                                                  tmp_path):
    """A checkpoint directory written before the hierarchy was a stage:
    the resume computes it once, writes it, and exports the same rows."""
    import shutil

    ckpt, first = small_checkpointed_build
    old = str(tmp_path / "ckpt")
    shutil.copytree(ckpt, old)
    shutil.rmtree(os.path.join(old, "community_hierarchy"))
    out = str(tmp_path / "out")
    _resume_and_export(old, out)
    assert _manifest(os.path.join(old, "community_hierarchy"))["status"] == \
        "complete"
    for table in ("community_hierarchy", "communities", "entities"):
        assert _export_rows(out, table) == _export_rows(first, table)


def test_full_resume_reads_small_checkpoints_on_driver(small_checkpointed_build,
                                                       tmp_path, monkeypatch):
    """A full resume + export of a small build reads no checkpoint
    through ray.data.read_parquet, and only the lazy table (text units)
    is written through Ray: the export indexes the small materialized
    entities and relationships on the driver."""
    import traceback

    ckpt, first = small_checkpointed_build
    ray_reads = []
    read_parquet = rd.read_parquet

    def recording(*args, **kwargs):
        caller = traceback.extract_stack(limit=2)[0]
        if caller.filename.endswith(os.path.join("state", "checkpoint.py")):
            ray_reads.append(args)
        return read_parquet(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", recording)
    out = str(tmp_path / "out")
    manifests = _resume_and_export(ckpt, out)
    assert ray_reads == []
    regimes = {name: m["regime"] for name, m in manifests.items()}
    assert regimes == {
        "text_units": "distributed",
        "entities": "driver",
        "relationships": "driver",
        "communities": "driver",
        "community_reports": "driver",
        "community_hierarchy": "driver",
    }
    assert _export_rows(out, "relationships") == \
        _export_rows(first, "relationships")
