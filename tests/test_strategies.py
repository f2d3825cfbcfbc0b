"""Strategy-seam tests: multi-round gleaning merge semantics (A1),
claims entity resolution (M7), tolerant JSON report parsing (M9) and the
raw-JSON report composer behind it."""

import json

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from knowledge_graph_ray.functions.records import (
    format_entity_record,
    format_relationship_record,
    join_records,
)
from knowledge_graph_ray.stages.extract import PatternExtractor, extract_mentions


class GleaningExtractor(PatternExtractor):
    """Round 0: base extraction.  Glean round 1 adds an extra mention of
    ALPHA with a NEW TYPE + a new relationship (the reference CONTINUE
    round); the YES/NO probe stops after one glean round."""

    max_gleanings = 2
    glean_calls: list
    probe_calls: list

    def __init__(self):
        super().__init__(
            vocabulary=[("Alpha", "person"), ("Beta", "organization")],
            rel_verbs=[("works with", 1.0)],
        )
        self.glean_calls = []
        self.probe_calls = []

    def _glean(self, text, round_index, previous):
        self.glean_calls.append(round_index)
        if round_index == 0:
            return join_records(
                [
                    format_entity_record("Alpha", "deity", "gleaned alpha desc"),
                    format_relationship_record("Alpha", "Beta", "gleaned rel", 2.0),
                ]
            )
        return join_records([format_entity_record("Alpha", "ghost", "never")])

    def _should_continue(self, text, round_index, accumulated):
        self.probe_calls.append(round_index)
        return False  # the probe says stop after round 0's glean


def test_gleaning_rounds_merge_with_order_precedence():
    """Gleaned records append AFTER round-0 records; the order-sensitive
    merge gives them precedence (last non-empty type) and unions
    descriptions/weights — the reference protocol's merge interaction."""
    from knowledge_graph_ray.stages.canonicalize import (
        canonicalize_entities,
        canonicalize_relationships,
    )

    chunks = pa.Table.from_pylist(
        [
            {
                "chunk_id": "c0",
                "doc_id": "d0",
                "chunk_index": 0,
                "text": "Alpha works with Beta.",
            }
        ]
    )
    # the extractor class lives in this test module, which Ray workers
    # can't import — run extraction locally, merge distributed
    mentions = rd.from_arrow(GleaningExtractor()(chunks))
    ents = canonicalize_entities(mentions).to_pandas().set_index("name")
    rels = canonicalize_relationships(mentions).to_pandas()

    alpha = ents.loc["ALPHA"]
    # glean-round type overrides round-0 'PERSON' (later order_key wins)
    assert alpha["type"] == "DEITY"
    assert "gleaned alpha desc" in alpha["description"]
    assert "Alpha works with Beta." in alpha["description"]
    # round-2 glean never ran (probe stopped): no 'ghost'
    assert "never" not in alpha["description"]
    # relationship weights summed across rounds: 1.0 + 2.0
    edge = rels[(rels.src == "ALPHA") & (rels.dst == "BETA")].iloc[0]
    assert edge["weight"] == pytest.approx(3.0)
    assert "gleaned rel" in edge["description"]


def test_gleaning_probe_call_protocol():
    ext = GleaningExtractor()
    raw = ext._extract_all_rounds("Alpha works with Beta.")
    assert ext.glean_calls == [0]      # round-1 glean ran
    assert ext.probe_calls == [0]      # probe asked once, answered stop
    assert "deity" in raw and "ghost" not in raw


# ------------------------------------------------------------- M7 resolution


def test_resolve_claims_normalizes_and_maps():
    from knowledge_graph_ray.stages.claims import CLAIM_SCHEMA, resolve_claims

    rows = [
        {
            "chunk_id": "c0", "order_key": "d0:0:0",
            "subject_id": "hart &amp; sons\x01", "object_id": "ACME",
            "type": "T", "status": "TRUE", "start_date": "NONE",
            "end_date": "NONE", "description": "d", "source_text": ["s"],
            "doc_id": "d0",
        }
    ]
    claims = rd.from_arrow(pa.Table.from_pylist(rows, schema=CLAIM_SCHEMA))
    resolution = rd.from_items(
        [{"surface": "ACME", "canonical": "ACME CORPORATION"}]
    )
    # broadcast path
    out = resolve_claims(claims, resolution).to_pandas().iloc[0]
    assert out["subject_id"] == "HART & SONS"  # clean_str + upper
    assert out["object_id"] == "ACME CORPORATION"  # resolution dict applied
    # shuffle path (forced) matches
    out2 = resolve_claims(claims, resolution, broadcast_max=0).to_pandas().iloc[0]
    assert out2["subject_id"] == out["subject_id"]
    assert out2["object_id"] == out["object_id"]


def test_pipeline_claim_subjects_join_entity_table():
    """Claims produced by the full pipeline carry canonical entity keys
    (M7 done-criterion: claim subjects are a subset of entity names)."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import generate_corpus_table
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph

    docs = rd.from_arrow(generate_corpus_table(120, seed=6969)).repartition(2)
    cfg = PipelineConfig(chunk_size=64, chunk_overlap=16,
                         extract_concurrency=1, extract_claims=True)
    tables = build_knowledge_graph(docs, cfg, num_partitions=4)
    subjects = set(tables.claims.to_pandas()["subject_id"])
    entities = set(tables.entities.to_pandas()["name"])
    assert subjects, "corpus should produce claims"
    assert subjects <= entities, subjects - entities


# ---------------------------------------------------------------- M9 parser


@pytest.mark.parametrize(
    "raw,expected",
    [
        ('{"a": 1}', {"a": 1}),
        ('text before ```json\n{"t": "x"}\n``` after', {"t": "x"}),
        ('{"a": [1, 2,], }', {"a": [1, 2]}),
        ("{'k': 'v'}", {"k": "v"}),
        ('{k: "v"}', {"k": "v"}),
        ('{"a": {"b": [1', {"a": {"b": [1]}}),  # truncated output
        ("not json at all", {}),
        ("[1, 2]", {}),  # non-dict payload rejected
    ],
)
def test_try_parse_json_object(raw, expected):
    from knowledge_graph_ray.functions.jsonx import try_parse_json_object

    _, got = try_parse_json_object(raw)
    assert got == expected


def test_raw_json_composer_recovers_messy_llm_output():
    """A fake LLM emitting fenced/trailing-comma JSON flows through the
    composer seam; malformed output degrades to defaults, not a crash."""
    from knowledge_graph_ray.stages.report import RawJsonReportComposer

    class FakeLLMComposer(RawJsonReportComposer):
        def _generate_raw(self, community, level, context):
            if community == "bad":
                return "the model refused to answer"
            return (
                "Sure! Here is the report:\n```json\n"
                '{"title": "T-' + community + '", "summary": "S", '
                '"rating": 7.5, "findings": [{"summary": "f"},],}\n```'
            )

    nodes = pd.DataFrame(
        {"name": ["A"], "type": ["org"], "description": ["d"], "degree": [1.0]}
    )
    edges = pd.DataFrame(columns=["src", "dst", "rank", "description"])
    good = FakeLLMComposer().compose("c1", 0, nodes, edges, 100, None)
    assert good["title"] == "T-c1"
    assert good["rank"] == 7.5
    assert json.loads(good["findings"]) == [{"summary": "f"}]
    bad = FakeLLMComposer().compose("bad", 0, nodes, edges, 100, None)
    assert bad["title"] == "Community bad"
    assert bad["rank"] == 0.0


def test_generate_reports_with_custom_composer():
    """The composer seam plugs into the distributed report stage."""
    from knowledge_graph_ray.stages.report import RawJsonReportComposer, generate_reports

    class FakeLLMComposer(RawJsonReportComposer):
        def _generate_raw(self, community, level, context):
            return '{"title": "LLM-%s", "summary": "s", "rating": 3}' % community

    communities = rd.from_items(
        [{"level": 0, "community": "cX", "name": "A"},
         {"level": 0, "community": "cX", "name": "B"}]
    )
    entities = rd.from_items(
        [{"name": "A", "type": "org", "description": "da", "degree": 1.0},
         {"name": "B", "type": "org", "description": "db", "degree": 1.0}]
    )
    rels = rd.from_items(
        [{"src": "A", "dst": "B", "weight": 1.0, "rank": 2.0,
          "description": "edge"}]
    )
    reports = generate_reports(communities, entities, rels, 4,
                               composer=FakeLLMComposer()).to_pandas()
    assert list(reports["title"]) == ["LLM-cX"]
    assert reports["rank"].iloc[0] == 3.0


def _units(texts):
    return pa.table({
        "chunk_id": [f"c{i}" for i in range(len(texts))],
        "doc_id": [f"d{i}" for i in range(len(texts))],
        "chunk_index": list(range(len(texts))),
        "text": texts,
    })


def test_cooccurrence_extractor_records_unchanged_without_regex():
    """CooccurrenceExtractor builds only its type lookup (no vocabulary
    regex) and emits the same records as when it was built through
    PatternExtractor.__init__."""
    from knowledge_graph_ray.stages.extract import CooccurrenceExtractor

    vocab = [("ALPHA", "person"), ("BETA", "organization"), ("GAMMA", "geo")]
    units = _units([
        "ALPHA met BETA near GAMMA today",
        "no names here",
        "BETA and ALPHA x x x x x x GAMMA BETA BETA",
    ])
    ext = CooccurrenceExtractor(vocab, window=3)
    assert not hasattr(ext, "entity_re")

    ref = CooccurrenceExtractor.__new__(CooccurrenceExtractor)
    PatternExtractor.__init__(ref, vocabulary=vocab, rel_verbs=[])
    ref.window = 3
    got, want = ext(units), ref(units)
    assert got.equals(want)
    rels = got.filter(pa.compute.equal(got.column("kind"), "rel"))
    assert sorted(zip(rels.column("src").to_pylist(),
                      rels.column("dst").to_pylist())) == [
        ("ALPHA", "BETA"), ("BETA", "ALPHA"), ("BETA", "GAMMA"),
        ("GAMMA", "BETA")]


def test_task_pool_extractor_built_once_per_worker_process():
    """The task-pool extractor cache outlives one dataset execution: a
    worker process that runs two executions constructs the extractor once."""
    import os
    import uuid

    class Probe:
        def __init__(self, tag):
            self.token = uuid.uuid4().hex  # one per construction

        def __call__(self, batch):
            n = batch.num_rows
            return pa.table({"pid": [os.getpid()] * n, "token": [self.token] * n})

    units = rd.from_arrow(_units(["a", "b", "c", "d"]))
    tokens_by_pid: dict = {}
    seen_twice = False
    for _ in range(8):
        out = extract_mentions(units, extractor_cls=Probe, batch_size=2,
                               use_actor_pool=False, tag="t").to_pandas()
        pids = set(out["pid"])
        seen_twice = seen_twice or bool(pids & tokens_by_pid.keys())
        for pid, token in zip(out["pid"], out["token"]):
            tokens_by_pid.setdefault(pid, set()).add(token)
        if seen_twice:
            break
    assert seen_twice, "no worker process ran two executions"
    assert all(len(t) == 1 for t in tokens_by_pid.values()), tokens_by_pid


_ONE_CPU_BUILD = """
import sys
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
ray.data.DataContext.get_current().enable_progress_bars = False
from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.corpus import generate_corpus_table
from knowledge_graph_ray.pipelines.build import build_knowledge_graph
from knowledge_graph_ray.sources.io import read_documents
path = sys.argv[1]
pq.write_table(generate_corpus_table(60, seed=7), path)
cfg = PipelineConfig(chunk_size=64, chunk_overlap=16)
assert cfg.extract_use_actor_pool and cfg.extract_concurrency == (2, 8)
tables = build_knowledge_graph(read_documents(path), cfg)
print("entities", tables.entities.count())
ray.shutdown()
"""


def test_actor_pool_build_progresses_on_one_cpu(tmp_path):
    """The default actor-pool extractor at ``num_cpus=1``: the pool
    leaves the read and chunk tasks a CPU, so the build completes
    instead of hanging.  Own Ray cluster in a subprocess, hard timeout."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_BUILD, str(tmp_path / "docs.parquet")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("actor-pool build at num_cpus=1 made no progress in 240 s")
    assert proc.returncode == 0, err[-2000:]
    n = int(out.split("entities")[-1])
    assert n > 0


def test_actor_pool_args_unchanged_from_three_cpus(monkeypatch):
    """Below min size + 1 CPUs the pool is fixed at its minimum with
    fractional actors; from there up it is exactly what was asked."""
    import ray

    from knowledge_graph_ray.stages.extract import actor_pool_args

    for cpus, want in (
        (1.0, {"concurrency": 2, "num_cpus": 0.0}),
        (2.0, {"concurrency": 2, "num_cpus": 0.5}),
        (3.0, {"concurrency": (2, 8)}),
        (32.0, {"concurrency": (2, 8)}),
    ):
        monkeypatch.setattr(ray, "cluster_resources", lambda c=cpus: {"CPU": c})
        assert actor_pool_args((2, 8)) == want, cpus
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 4.0})
    assert actor_pool_args(4) == {"concurrency": 4, "num_cpus": 0.75}
