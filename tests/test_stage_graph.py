"""``build_knowledge_graph``'s one stage graph: the demand-driven runner
computes or reads only what the requested outputs need, and the
in-memory and checkpointed stores give the same tables."""

import json
import os

from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.corpus import read_corpus
from knowledge_graph_ray.pipelines import build

CFG = PipelineConfig(chunk_size=64, chunk_overlap=16)
OUTPUTS = ["entities_clustered", "relationships_degreed", "communities",
           "reports", "community_hierarchy"]


def _toy_run(monkeypatch, outputs, complete):
    """Run a toy stage graph; -> (outputs, computed stages, stored
    stages, wave sizes)."""
    from knowledge_graph_ray.functions import poolcache

    computed, stored, waves = [], [], []
    run_concurrently = poolcache.run_concurrently

    def recording(thunks):
        waves.append(len(thunks))
        return run_concurrently(thunks)

    monkeypatch.setattr(poolcache, "run_concurrently", recording)

    def make(name):
        def body(*inputs):
            computed.append(name)
            return (name, inputs)

        return body

    def store(compute, stage):
        stored.append(stage)
        return ("read", stage) if stage in complete else compute()

    graph = {"a": (), "b": ("a",), "c": ("a",), "d": ("b", "c"), "e": ("b",)}
    stages = [(n, ins, make(n), n != "a") for n, ins in graph.items()]
    out = build._run_stages(stages, outputs, complete.__contains__, store)
    return out, computed, stored, waves


def test_runner_demand_and_waves(monkeypatch):
    # nothing complete: every demanded stage computes once, in list
    # order, and independent neighbours share a wave
    out, computed, stored, waves = _toy_run(monkeypatch, ["d", "e"], set())
    assert computed == ["a", "b", "c", "d", "e"]
    assert stored == ["b", "c", "d", "e"]
    assert waves == [1, 2, 2]
    assert out["d"] == ("d", (out["b"], out["c"]))


def test_runner_reads_complete_stages_without_their_inputs(monkeypatch):
    # 'b' complete: 'e' reads it and never demands 'a'
    out, computed, stored, waves = _toy_run(monkeypatch, ["e"], {"b"})
    assert computed == ["e"]
    assert out["b"] == ("read", "b") and "a" not in out
    # 'c' missing: 'd' demands it, so 'a' runs once for 'c' only
    out, computed, stored, waves = _toy_run(monkeypatch, ["d"], {"b"})
    assert computed == ["a", "c", "d"]
    assert out["d"] == ("d", (("read", "b"), out["c"]))


def test_full_resume_reads_only_output_checkpoints(tmp_path, monkeypatch):
    """A second build with the same fingerprint reads the output
    checkpoints and nothing else (not the *_summarized or
    entities_degreed checkpoints that only lead to them)."""
    from knowledge_graph_ray.state import checkpoint

    ckpt = str(tmp_path / "ckpt")

    def run():
        return build.build_knowledge_graph(
            read_corpus(100, seed=5, shard_size=50), CFG, num_partitions=4,
            checkpoint_dir=ckpt, fingerprint="fp-reads")

    first = run()
    reads = []
    read_checkpoint = checkpoint.read_checkpoint

    def recording(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return read_checkpoint(path, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "read_checkpoint", recording)
    second = run()
    assert sorted(reads) == sorted(OUTPUTS)
    assert second.entities.count() == first.entities.count()


def _exported_rows(out_dir):
    import pyarrow.parquet as pq

    return {
        name: sorted(json.dumps(r, sort_keys=True, default=str)
                     for r in pq.read_table(os.path.join(out_dir, name)).to_pylist())
        for name in sorted(os.listdir(out_dir))
    }


def test_in_memory_and_checkpointed_builds_export_the_same_rows(tmp_path):
    """One wiring for both stores: an in-memory build, a checkpointed
    build and its full resume export identical sorted rows for every
    table, claims included."""
    cfg = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_claims=True)
    exports = {}
    for run, ckpt in (("memory", None), ("checkpointed", "ckpt"),
                      ("resumed", "ckpt")):
        tables = build.build_knowledge_graph(
            read_corpus(150, seed=7, shard_size=50), cfg, num_partitions=4,
            checkpoint_dir=ckpt and str(tmp_path / ckpt), fingerprint="fp-same")
        build.export_tables(tables, str(tmp_path / run))
        exports[run] = _exported_rows(str(tmp_path / run))
    assert {"claims", "community_hierarchy", "community_reports"} <= set(
        exports["memory"])
    assert exports["memory"]["claims"] and exports["memory"]["communities"]
    assert exports["checkpointed"] == exports["memory"]
    assert exports["resumed"] == exports["memory"]


def test_driver_dataset_equals_from_arrow():
    """``driver_dataset`` builds the same materialized dataset as
    ``ray.data.from_arrow`` without its metadata task, also for a
    zero-row table."""
    import pyarrow as pa
    import ray.data as rd

    from knowledge_graph_ray.functions.grouping import driver_dataset

    table = pa.table({"name": ["b", "a", None], "degree": [2, 1, 3]})
    for t in (table, table.schema.empty_table()):
        ours, theirs = driver_dataset(t), rd.from_arrow(t).materialize()
        assert ours.count() == theirs.count() == t.num_rows
        assert ours.schema() == theirs.schema()
        assert ours.take_all() == theirs.take_all()
