"""Star-contraction CC at scale vs networkx (evidence script; ~30s).

Usage (from the repository root): PYTHONPATH=. python scripts/cc_scale_check.py
"""
import os, ray, time
ray.init(address="local", num_cpus=os.cpu_count() or 1, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
import numpy as np, networkx as nx, pyarrow as pa
from knowledge_graph_ray.stages.components import connected_components_from_edges

rng = np.random.RandomState(7)
n_nodes, n_edges = 20000, 30000
us = rng.randint(0, n_nodes, n_edges); vs = rng.randint(0, n_nodes, n_edges)
mask = us != vs
u = [f"n{min(a,b):06d}" for a,b in zip(us[mask], vs[mask])]
v = [f"n{max(a,b):06d}" for a,b in zip(us[mask], vs[mask])]
edges = rd.from_arrow(pa.Table.from_pydict({"u": u, "v": v})).repartition(16)
t0=time.time()
labels = connected_components_from_edges(edges, driver_threshold=0, num_partitions=16).to_pandas()
print(f"star contraction: {time.time()-t0:.1f}s, {len(labels)} labeled nodes")
g = nx.Graph(); g.add_edges_from(zip(u, v))
lab = labels.set_index("name")["component"]
bad = 0
for comp in nx.connected_components(g):
    m = min(comp)
    for node in comp:
        if lab[node] != m: bad += 1
print("mismatches:", bad, "components:", nx.number_connected_components(g))
ray.shutdown()
