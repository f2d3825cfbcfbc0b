"""Report generation at >=5k communities (evidence script; ~30s).

Round-2 VERDICT item: `_report_level` used groupby(level, community)
.map_groups — ~1ms of fixed Ray overhead per community.  It now routes
through bucketed_group_map (one task per key-hash bucket); this script
measures communities/sec on a synthetic 6k-community context and, for
contrast, times the raw map_groups shape on the same input.

Usage (from the repository root): PYTHONPATH=. python scripts/report_scale_check.py
"""
import os
import time

import ray

ray.init(address="local", num_cpus=os.cpu_count() or 1, include_dashboard=False,
         logging_level="ERROR")
import numpy as np
import pyarrow as pa
import ray.data as rd

rd.DataContext.get_current().enable_progress_bars = False

from knowledge_graph_ray.stages.report import _report_level

N_COMM = 6000
NODES_PER = 4
rng = np.random.RandomState(11)

comm = np.repeat([f"c{i:05d}" for i in range(N_COMM)], NODES_PER)
n = len(comm)
ctx = pa.Table.from_pydict(
    {
        "level": pa.array([0] * n, type=pa.int64()),
        "community": pa.array(comm, type=pa.string()),
        "kind": pa.array(["node"] * n),
        "name": pa.array([f"e{i:06d}" for i in range(n)], type=pa.string()),
        "type": pa.array(["organization"] * n),
        "description": pa.array([f"desc {i}" for i in range(n)],
                                type=pa.large_string()),
        "degree": pa.array(rng.randint(1, 50, n).astype("float64")),
        "src": pa.nulls(n, pa.string()),
        "dst": pa.nulls(n, pa.string()),
        "rank": pa.nulls(n, pa.float64()),
    }
)
ds = rd.from_arrow(ctx).repartition(16).materialize()

t0 = time.time()
out = _report_level(ds, {}, 800, driver_threshold=None, num_buckets=64)
n_reports = out.count()
dt = time.time() - t0
assert n_reports == N_COMM, n_reports
print(f"bucketed _report_level: {dt:.1f}s for {N_COMM} communities "
      f"({N_COMM / dt:,.0f} communities/s)")

# contrast: the old per-community map_groups shape
from knowledge_graph_ray.stages.report import ReportComposer

composer = ReportComposer()


def make_report(group):
    import pandas as pd  # noqa: F401

    community = group["community"].iloc[0]
    level = int(group["level"].iloc[0])
    nodes = group[group["kind"] == "node"][
        ["name", "type", "description", "degree"]
    ]
    edges = group[group["kind"] == "edge"].head(0)[["src", "dst", "rank", "description"]]
    return pa.Table.from_pylist(
        [composer.compose(community, level, nodes, edges, 800, None)]
    )


t0 = time.time()
n_old = (
    ds.groupby(["level", "community"])
    .map_groups(make_report, batch_format="pandas")
    .count()
)
dt_old = time.time() - t0
print(f"map_groups baseline:    {dt_old:.1f}s ({N_COMM / dt_old:,.0f} communities/s) "
      f"-> speedup {dt_old / dt:.1f}x")
ray.shutdown()
