"""Distributed-regime report generation at >=100k communities (~1-2 min).

Round-3 VERDICT item #3: above BROADCAST_COMMUNITIES_MAX the level loop
must not rebuild community-count-sized driver dicts per level.  The
distributed regime now keeps each level's summaries as a materialized
Dataset and hash_joins them into the parent level's context as
kind='sub' rows.  This script drives that path end-to-end on a
synthetic two-level hierarchy (100k leaf communities, 20k parents,
300k entities) with broadcast_max=0 and a tiny token budget so parents
actually take the mixed-context branch.

Usage (from the repository root): PYTHONPATH=. python scripts/report_distributed_scale_check.py
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

from knowledge_graph_ray.stages.report import generate_reports

N_ENT = 300_000
LEAF_SIZE = 3            # 100k level-1 communities
PARENT_SIZE = 15         # 20k level-0 parents (5 leaves each)

names = np.array([f"e{i:06d}" for i in range(N_ENT)])
leaf = np.array([f"l1_{i // LEAF_SIZE:06d}" for i in range(N_ENT)])
parent = np.array([f"l0_{i // PARENT_SIZE:06d}" for i in range(N_ENT)])

communities = rd.from_arrow(pa.table({
    "name": pa.array(np.concatenate([names, names]), type=pa.string()),
    "level": pa.array([1] * N_ENT + [0] * N_ENT, type=pa.int64()),
    "community": pa.array(np.concatenate([leaf, parent]), type=pa.string()),
})).repartition(32).materialize()

rng = np.random.RandomState(7)
entities = rd.from_arrow(pa.table({
    "name": pa.array(names, type=pa.string()),
    "type": pa.array(["organization"] * N_ENT),
    "description": pa.array([f"desc {i}" for i in range(N_ENT)],
                            type=pa.large_string()),
    "degree": pa.array(rng.randint(1, 50, N_ENT).astype("float64")),
})).repartition(32).materialize()

# one edge per leaf community (its first two members) so edge context
# rows and ranks exist
src = names[0::LEAF_SIZE]
dst = names[1::LEAF_SIZE]
m = len(src)
relationships = rd.from_arrow(pa.table({
    "src": pa.array(src, type=pa.string()),
    "dst": pa.array(dst, type=pa.string()),
    "weight": pa.array(np.ones(m)),
    "rank": pa.array(rng.randint(2, 90, m).astype("float64")),
    "description": pa.array([f"edge {i}" for i in range(m)],
                            type=pa.large_string()),
})).repartition(32).materialize()

n_comm = N_ENT // LEAF_SIZE + N_ENT // PARENT_SIZE
t0 = time.time()
reports = generate_reports(
    communities, entities, relationships, 32,
    max_input_tokens=40,       # force parents over budget -> mixed context
    broadcast_max=0,           # force the distributed regime
    driver_threshold=None,     # and the distributed bucket merge
).materialize()
dt = time.time() - t0
n = reports.count()
assert n == n_comm, (n, n_comm)

sample = reports.filter(expr="level == 0").limit(200).to_pandas()
mixed = sum("Sub-community reports" in fc for fc in sample.full_content)
assert mixed > 0, "no parent took the mixed-context branch"
print(f"distributed generate_reports: {dt:.1f}s for {n_comm:,} communities "
      f"({n_comm / dt:,.0f} communities/s); "
      f"{mixed}/{len(sample)} sampled parents used mixed context")
ray.shutdown()
