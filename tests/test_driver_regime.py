"""Driver vs distributed regime of the graph tail's exchanges.

Every small input takes the driver regime by default, so each test here
also forces the distributed regime with ``driver_threshold=0`` and
compares the two: as row sets, or in exact order where the API promises
one.
One test counts the sort/groupby exchanges of a small in-memory build
after canonicalize: there are none.  The last tests compare whole builds
with each stage's driver kernel against its Dataset path (stage bounds
monkeypatched to -1), count the Ray executors a small build starts
after canonicalize (none) and the tables it pulls (the core's two), and
check that each graph-tail stage function's Dataset path types its
empty output as its kernel does.
"""

import json

import pyarrow as pa
import pytest
import ray.data as rd

from knowledge_graph_ray.functions.agg import distinct_rows, grouped_agg
from knowledge_graph_ray.functions.grouping import DRIVER_THRESHOLD
from knowledge_graph_ray.functions.index import with_row_index
from knowledge_graph_ray.functions.joins import hash_join
from knowledge_graph_ray.stages.community import (
    community_hierarchy,
    detect_communities,
)

HOWS = ["inner", "left_outer", "full_outer", "left_semi", "left_anti"]

LEFT_SCHEMA = pa.schema([("k", pa.string()), ("j", pa.int64()),
                         ("a", pa.int64())])
RIGHT_SCHEMA = pa.schema([("k", pa.string()), ("j", pa.int64()),
                          ("b", pa.string())])

LEFT = pa.table(
    {"k": ["x", "y", None, "z", "x", None, "w"],
     "j": [1, 2, 3, 1, 1, 3, 9],
     "a": [10, 20, 30, 40, 50, 60, 70]},
    schema=LEFT_SCHEMA,
)
RIGHT = pa.table(
    {"k": ["x", None, "z", "v", "x"],
     "j": [1, 3, 2, 5, 1],
     "b": ["p", "q", "r", "s", "t"]},
    schema=RIGHT_SCHEMA,
)

COMMUNITY_SCHEMA = pa.schema([("level", pa.int64()), ("community", pa.string()),
                              ("name", pa.string())])
HIERARCHY_SCHEMA = pa.schema([("community", pa.string()), ("level", pa.int64()),
                              ("sub_community", pa.string()),
                              ("sub_community_size", pa.int64())])


def _blocks(table: pa.Table, n: int = 3):
    """A multi-block dataset over ``table``'s rows."""
    step = max(1, -(-table.num_rows // n))
    return rd.from_arrow([table.slice(i, step)
                          for i in range(0, max(1, table.num_rows), step)])


def _rows(ds) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in ds.take_all()]


def _row_set(ds) -> list[str]:
    return sorted(_rows(ds))


def _both_regimes(make):
    """(driver regime, forced distributed regime) row sets of
    ``make(driver_threshold)``."""
    return _row_set(make(DRIVER_THRESHOLD)), _row_set(make(0))


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("case", ["both", "empty_left", "empty_right"])
def test_hash_join_regimes_agree(how, case):
    left = LEFT_SCHEMA.empty_table() if case == "empty_left" else LEFT
    right = RIGHT_SCHEMA.empty_table() if case == "empty_right" else RIGHT

    def make(threshold):
        return hash_join(_blocks(left), _blocks(right), on=["k", "j"],
                         how=how, num_partitions=4,
                         driver_threshold=threshold)

    driver, distributed = _both_regimes(make)
    assert driver == distributed
    if case == "both" and how == "inner":
        # null keys match null keys in both regimes
        assert sum('"k": null' in r for r in driver) == 2


@pytest.mark.parametrize("sort_key", ["name", ["src", "dst"]])
def test_with_row_index_regimes_agree(sort_key):
    table = pa.table({
        "name": ["m", "b", "z", "a", "q", "c", "k", "e"],
        "src": ["b", "a", "b", "a", "c", "a", "b", "c"],
        "dst": ["c", "z", "a", "b", "a", "c", "d", "b"],
        "v": list(range(8)),
    })

    def make(threshold):
        return with_row_index(_blocks(table, 4), sort_key=sort_key,
                              driver_threshold=threshold)

    driver, distributed = _rows(make(DRIVER_THRESHOLD)), _rows(make(0))
    assert driver == distributed
    keys = [sort_key] if isinstance(sort_key, str) else sort_key
    got = make(DRIVER_THRESHOLD).take_all()
    assert [r["human_readable_id"] for r in got] == list(range(8))
    assert [tuple(r[k] for k in keys) for r in got] == sorted(
        tuple(r[k] for k in keys) for r in table.to_pylist())


def test_distinct_rows_regimes_agree():
    table = pa.table({"u": ["a", "a", None, "b", None, "a"],
                      "v": ["b", "b", "c", "c", "c", "c"]})
    driver, distributed = _both_regimes(
        lambda t: distinct_rows(_blocks(table), ["u", "v"], num_buckets=4,
                                driver_threshold=t))
    assert driver == distributed
    assert len(driver) == 4


def test_grouped_agg_min_regimes_agree():
    table = pa.table({"name": ["a", "b", "a", None, "c", None],
                      "component": ["z", "b", "c", "y", "c", "x"]})
    driver, distributed = _both_regimes(
        lambda t: grouped_agg(_blocks(table), ["name"],
                              [("component", "component", "min")],
                              num_buckets=4, driver_threshold=t))
    assert driver == distributed
    assert '{"component": "c", "name": "a"}' in driver


def test_community_hierarchy_regimes_agree():
    rows = ([(0, "A", n) for n in "abcdef"] + [(0, "B", n) for n in "gh"]
            + [(1, "A1", n) for n in "abc"] + [(1, "A2", n) for n in "def"]
            + [(1, "B1", n) for n in "gh"] + [(2, "A1x", n) for n in "ab"]
            + [(2, "A1y", "c")])
    table = pa.Table.from_pylist(
        [{"level": lv, "community": c, "name": n} for lv, c, n in rows],
        schema=COMMUNITY_SCHEMA,
    )
    driver, distributed = _both_regimes(
        lambda t: community_hierarchy(
            _blocks(table), num_partitions=4, driver_threshold=t))
    assert driver == distributed
    assert len(driver) == 5
    assert ('{"community": "A", "level": 0, "sub_community": "A1", '
            '"sub_community_size": 3}') in driver


def test_lcc_tie_break_regimes_agree():
    """Two largest components of equal size: both regimes cluster the
    one with the smaller id."""
    comps = pa.table({
        "name": ["p", "q", "r", "a", "b", "c", "x"],
        "component": ["p", "p", "p", "a", "a", "a", "x"],
    })
    rels = pa.table({
        "src": ["p", "q", "a", "b"], "dst": ["q", "r", "b", "c"],
        "weight": [1.0, 1.0, 1.0, 1.0],
    })

    def make(threshold):
        return detect_communities(_blocks(comps), rd.from_arrow(rels),
                                  use_lcc=True, num_partitions=4,
                                  driver_threshold=threshold)

    driver, distributed = _both_regimes(make)
    assert driver == distributed
    names = {json.loads(r)["name"] for r in driver}
    assert names == {"a", "b", "c"}


def test_empty_hierarchy_has_schema():
    out = community_hierarchy(rd.from_arrow(COMMUNITY_SCHEMA.empty_table()))
    assert out.count() == 0
    assert out.schema().base_schema == HIERARCHY_SCHEMA


@pytest.mark.parametrize("empty", ["left", "right"])
def test_hash_join_empty_side_keeps_schema(empty):
    left = LEFT_SCHEMA.empty_table() if empty == "left" else LEFT
    right = RIGHT_SCHEMA.empty_table() if empty == "right" else RIGHT
    out = hash_join(rd.from_arrow(left), rd.from_arrow(right), on=["k", "j"],
                    how="inner").materialize()
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        list(LEFT_SCHEMA) + [RIGHT_SCHEMA.field("b")])


def test_small_build_runs_no_exchange_after_canonicalize(tmp_path, monkeypatch):
    """A small in-memory build + export calls no Dataset.sort/groupby
    once the canonical core is built (the exchanges count is taken by
    wrapping those methods; calls from Ray's own code are not counted)."""
    import traceback

    from ray.data import Dataset

    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.pipelines import build

    after_core = {"on": False}
    exchanges = []

    def counting(name):
        orig = getattr(Dataset, name)

        def wrapper(self, *args, **kwargs):
            caller = traceback.extract_stack(limit=2)[0]
            if after_core["on"] and "knowledge_graph_ray" in caller.filename:
                exchanges.append(f"{name} {caller.filename}:{caller.lineno}")
            return orig(self, *args, **kwargs)

        return wrapper

    for name in ("sort", "groupby"):
        monkeypatch.setattr(Dataset, name, counting(name))
    core = build._canonical_core

    def core_then_count(*args, **kwargs):
        out = core(*args, **kwargs)
        after_core["on"] = True
        return out

    monkeypatch.setattr(build, "_canonical_core", core_then_count)
    docs = read_corpus(200, seed=5, shard_size=100)
    tables = build.build_knowledge_graph(
        docs, PipelineConfig(chunk_size=64, chunk_overlap=16))
    manifests = build.export_tables(tables, str(tmp_path))
    assert after_core["on"]
    assert manifests["entities"]["rows"] > 0
    assert manifests["community_hierarchy"]["rows"] > 0
    assert exchanges == []


CKPT = pa.table({"name": [f"n{i:02d}" for i in range(30)],
                 "degree": list(range(30)),
                 "tag": [None if i % 4 else "t" for i in range(30)]})


def _checkpoint(path):
    """(rows in sorted file order, Parquet schemas of its files,
    manifest) of a checkpoint directory."""
    import os

    import pyarrow.parquet as pq

    from knowledge_graph_ray.state.checkpoint import MANIFEST_NAME

    files = sorted(p for p in os.listdir(path) if p.endswith(".parquet"))
    schemas = {pq.read_schema(os.path.join(path, f)) for f in files}
    rows = [r for f in files
            for r in pq.read_table(os.path.join(path, f)).to_pylist()]
    with open(os.path.join(path, MANIFEST_NAME)) as f:
        manifest = json.load(f)
    return [json.dumps(r, sort_keys=True) for r in rows], schemas, manifest


@pytest.mark.parametrize("case", ["multi_block", "lazy", "zero_row"])
def test_checkpoint_write_regimes_agree(tmp_path, case):
    from knowledge_graph_ray.state.checkpoint import read_checkpoint, write_checkpoint

    if case == "multi_block":
        ds = _blocks(CKPT).materialize()
    elif case == "lazy":
        ds = _blocks(CKPT).map_batches(lambda b: b, batch_format="pyarrow")
    else:
        ds = rd.from_arrow(CKPT.schema.empty_table()).materialize()
    write_checkpoint(ds, str(tmp_path / "driver"))
    # -1 forces Ray's writer for the zero-row input as well
    write_checkpoint(ds, str(tmp_path / "distributed"), driver_threshold=-1)
    rows, schemas, manifest = _checkpoint(str(tmp_path / "driver"))
    rows0, schemas0, manifest0 = _checkpoint(str(tmp_path / "distributed"))
    assert sorted(rows) == sorted(rows0)
    assert schemas == schemas0 and len(schemas) == 1
    assert manifest["rows"] == manifest0["rows"] == len(rows)
    assert manifest["regime"] == ("distributed" if case == "lazy" else "driver")
    assert manifest0["regime"] == "distributed"
    back = read_checkpoint(str(tmp_path / "driver"))
    assert back.schema().base_schema == CKPT.schema
    assert _row_set(back) == sorted(rows)


def test_checkpoint_read_regimes_agree(tmp_path):
    """A directory of several Ray-written files reads back the same rows,
    in memory or lazily."""
    from ray.data.dataset import MaterializedDataset

    from knowledge_graph_ray.state.checkpoint import read_checkpoint, write_checkpoint

    path = str(tmp_path / "ckpt")
    manifest = write_checkpoint(_blocks(CKPT).materialize(), path,
                                driver_threshold=0)
    assert len(manifest["partitions"]) > 1
    driver, lazy = read_checkpoint(path), read_checkpoint(path, driver_threshold=0)
    assert isinstance(driver, MaterializedDataset)
    assert not isinstance(lazy, MaterializedDataset)
    assert _row_set(driver) == _row_set(lazy)
    # the driver read keeps the sorted file order
    assert _rows(driver) == _checkpoint(path)[0]


def test_empty_checkpoint_round_trip_runs_no_execution(tmp_path, monkeypatch):
    """A zero-row materialized dataset is written and read back with its
    schema, and no step executes a Ray plan.  Every execution, eager or
    streaming, starts an executor, so the test counts executor starts."""
    from ray.data._internal.plan import ExecutionPlan

    from knowledge_graph_ray.state.checkpoint import read_checkpoint, write_checkpoint

    ds = rd.from_arrow(CKPT).filter(expr="degree < 0").materialize()
    assert ds.count() == 0
    executions = []
    create_executor = ExecutionPlan.create_executor

    def counting(self, *args, **kwargs):
        executions.append(self)
        return create_executor(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    path = str(tmp_path / "empty")
    manifest = write_checkpoint(ds, path)
    back = read_checkpoint(path)
    assert back.count() == 0
    assert back.schema().base_schema == CKPT.schema
    assert manifest["rows"] == 0 and manifest["regime"] == "driver"
    assert executions == []


def _count_executors(monkeypatch, phase: dict | None = None):
    """Record every Ray executor start (every execution, eager or
    streaming, starts one) as (phase, checkpoint stage being written)."""
    from ray.data._internal.plan import ExecutionPlan

    from knowledge_graph_ray.state import checkpoint

    started = []
    writing = {"stage": None}
    create_executor = ExecutionPlan.create_executor
    write_checkpoint = checkpoint.write_checkpoint

    def counting(self, *args, **kwargs):
        started.append(((phase or {}).get("p"), writing["stage"]))
        return create_executor(self, *args, **kwargs)

    def tracked_write(ds, path, *args, stage=None, **kwargs):
        writing["stage"] = stage
        try:
            return write_checkpoint(ds, path, *args, stage=stage, **kwargs)
        finally:
            writing["stage"] = None

    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    monkeypatch.setattr(checkpoint, "write_checkpoint", tracked_write)
    return started


def test_hash_join_of_materialized_inputs_starts_no_executor(monkeypatch):
    """Two small materialized sides are joined on the driver: no Ray
    executor starts, and the rows equal the forced distributed join."""
    expected = {
        how: _row_set(hash_join(_blocks(LEFT), _blocks(RIGHT), on=["k", "j"],
                                how=how, num_partitions=4, driver_threshold=0))
        for how in HOWS
    }
    sides = {how: (_blocks(LEFT).materialize(), _blocks(RIGHT).materialize())
             for how in HOWS}
    started = _count_executors(monkeypatch)
    joined = {how: hash_join(*sides[how], on=["k", "j"], how=how)
              for how in HOWS}
    assert started == []
    for how in HOWS:
        assert _row_set(joined[how]) == expected[how], how


def _force_dataset_path(monkeypatch):
    """Bounds of -1: every graph-tail stage takes its Dataset path."""
    from knowledge_graph_ray.functions import grouping
    from knowledge_graph_ray.stages import community, report

    monkeypatch.setattr(grouping, "DRIVER_THRESHOLD", -1)
    monkeypatch.setattr(community, "CLUSTER_DRIVER_THRESHOLD", -1)
    monkeypatch.setattr(report, "REPORT_DRIVER_THRESHOLD", -1)


def _exported(out_dir):
    """table -> (rows in file order, Parquet schemas) of an export."""
    import os

    import pyarrow.parquet as pq

    tables = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
        parts = [pq.read_table(os.path.join(path, f)) for f in files]
        tables[name] = (
            [json.dumps(r, sort_keys=True, default=str)
             for t in parts for r in t.to_pylist()],
            {t.schema.remove_metadata() for t in parts},
        )
    return tables


REGIME_CASES = {
    "lcc": (200, {}, {}),
    "no_lcc": (200, {"use_lcc": False}, {}),
    "leiden": (200, {"clustering_algorithm": "leiden", "max_cluster_size": 4}, {}),
    "claims": (100, {"extract_claims": True}, {}),
    "empty": (0, {}, {}),
    # no relationship verbs: entities but no relationships
    "isolated": (100, {"use_lcc": False}, {"rel_verbs": []}),
}


@pytest.mark.parametrize("case", sorted(REGIME_CASES))
def test_build_regimes_agree(tmp_path, monkeypatch, case):
    """A small build + export with each stage's driver kernel equals the
    same build with every stage forced onto its Dataset path: same row
    sets and Parquet schemas for every table, and the same entity and
    relationship rows in the same order (``human_readable_id``, ``id``).
    A stage whose inputs have no rows runs its kernel in both builds."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.pipelines.build import (
        build_knowledge_graph,
        export_tables,
    )

    docs, cfg, extractor_kwargs = REGIME_CASES[case]
    config = PipelineConfig(chunk_size=64, chunk_overlap=16, **cfg)

    def export(name):
        tables = build_knowledge_graph(
            read_corpus(docs, seed=5, shard_size=100), config,
            **extractor_kwargs)
        export_tables(tables, str(tmp_path / name))
        return _exported(str(tmp_path / name))

    kernels = export("kernels")
    _force_dataset_path(monkeypatch)
    datasets = export("datasets")
    assert sorted(kernels) == sorted(datasets)
    for name, (rows, schemas) in kernels.items():
        rows0, schemas0 = datasets[name]
        assert schemas == schemas0, name
        if name in ("entities", "relationships"):
            assert rows == rows0, name
        else:
            assert sorted(rows) == sorted(rows0), name
    if docs:
        assert kernels["entities"][0]
    if case == "isolated":
        assert kernels["relationships"][0] == []


@pytest.mark.parametrize("checkpointed", [False, True])
def test_small_build_tail_starts_no_executor(tmp_path, monkeypatch, checkpointed):
    """After ``_canonical_core`` returns, a small build + export starts
    no Ray executor: every graph-tail stage runs its kernel on the
    driver, and every table, the pinned ``text_units`` included, is
    written with pyarrow."""
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.pipelines import build

    phase = {"p": "core"}
    started = _count_executors(monkeypatch, phase)
    core = build._canonical_core

    def core_then_tail(*args, **kwargs):
        out = core(*args, **kwargs)
        phase["p"] = "tail"
        return out

    monkeypatch.setattr(build, "_canonical_core", core_then_tail)
    tables = build.build_knowledge_graph(
        read_corpus(200, seed=5, shard_size=100),
        PipelineConfig(chunk_size=64, chunk_overlap=16),
        checkpoint_dir=str(tmp_path / "ckpt") if checkpointed else None)
    phase["p"] = "export"
    manifests = build.export_tables(tables, str(tmp_path / "out"))
    assert manifests["communities"]["rows"] > 0
    assert [s for s in started if s[0] != "core"] == []
    assert {name for name, m in manifests.items()
            if m["regime"] == "distributed"} == set()


def _empty_tail():
    """(stage function, its kernel, kernel inputs) of every graph-tail
    stage, on the zero-row tables the kernels give each other."""
    from knowledge_graph_ray.stages import community, degree, report
    from knowledge_graph_ray.stages.canonicalize import (
        ENTITY_SCHEMA,
        RELATIONSHIP_SCHEMA,
    )
    from knowledge_graph_ray.stages.components import (
        component_labels,
        connected_components,
    )
    from knowledge_graph_ray.stages.summarize import (
        DescriptionSummarizer,
        summarize_descriptions,
    )

    ents = DescriptionSummarizer()(ENTITY_SCHEMA.empty_table())
    rels = DescriptionSummarizer()(RELATIONSHIP_SCHEMA.empty_table())
    degs = degree.degrees_table(rels)
    comps = component_labels(ents, rels)
    comms = community.cluster_tables(comps, rels)
    ents_deg = degree.entity_degrees_table(ents, degs)
    rels_deg = degree.edge_degrees_table(rels, degs)
    return {
        "summarize": (summarize_descriptions, DescriptionSummarizer(),
                      [ENTITY_SCHEMA.empty_table()]),
        "degrees": (degree.compute_degrees, degree.degrees_table, [rels]),
        "entity_degrees": (degree.attach_entity_degrees,
                           degree.entity_degrees_table, [ents, degs]),
        "edge_degrees": (degree.attach_edge_degrees,
                         degree.edge_degrees_table, [rels, degs]),
        "components": (connected_components, component_labels, [ents, rels]),
        "communities": (detect_communities, community.cluster_tables,
                        [comps, rels]),
        "clusters": (community.assign_clusters,
                     community.assign_clusters_table, [ents_deg, comms]),
        "reports": (report.generate_reports, report.report_tables,
                    [comms, ents_deg, rels_deg]),
        "hierarchy": (community_hierarchy, community.hierarchy_table, [comms]),
    }


@pytest.mark.parametrize("stage", ["summarize", "degrees", "entity_degrees",
                                   "edge_degrees", "components", "communities",
                                   "clusters", "reports", "hierarchy"])
def test_empty_dataset_path_keeps_kernel_schema(stage):
    """A stage function's Dataset path on zero-row datasets returns no
    rows, typed as its driver kernel types them on the same tables."""
    fn, kernel, tables = _empty_tail()[stage]
    out = fn(*[rd.from_arrow(t) for t in tables]).materialize()
    assert out.count() == 0
    schema = out.schema()
    assert schema is not None
    assert schema.base_schema.remove_metadata() == \
        kernel(*tables).schema.remove_metadata()


def test_small_build_tail_pulls_core_tables_once(tmp_path, monkeypatch):
    """After ``_canonical_core`` returns, a small in-memory build pulls
    two tables to the driver, the core's canonical entities and
    relationships, and wraps tables into datasets only for the
    ``GraphTables`` it returns: the tail's stages pass Arrow tables."""
    from dataclasses import fields

    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.functions import grouping
    from knowledge_graph_ray.pipelines import build

    tail = {"on": False}
    pulls, wraps = [], []
    whole_table, driver_dataset = grouping._whole_table, grouping.driver_dataset

    def pull(ds):
        if tail["on"]:
            pulls.append(ds)
        return whole_table(ds)

    def wrap(table):
        out = driver_dataset(table)
        if tail["on"]:
            wraps.append(out)
        return out

    monkeypatch.setattr(grouping, "_whole_table", pull)
    monkeypatch.setattr(grouping, "driver_dataset", wrap)
    core = build._canonical_core

    def core_then_tail(*args, **kwargs):
        out = core(*args, **kwargs)
        tail["on"] = True
        return out

    monkeypatch.setattr(build, "_canonical_core", core_then_tail)
    tables = build.build_knowledge_graph(
        read_corpus(200, seed=5, shard_size=100),
        PipelineConfig(chunk_size=64, chunk_overlap=16))
    tail["on"] = False
    assert len(pulls) <= 2
    returned = [getattr(tables, f.name) for f in fields(tables)]
    assert wraps and all(any(w is r for r in returned) for w in wraps)
    manifests = build.export_tables(tables, str(tmp_path))
    assert manifests["entities"]["rows"] > 0
