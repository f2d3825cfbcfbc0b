"""Giant-component clustering scale check (round-4 VERDICT ask #6).

Pushes a single ~N-node / ~M-edge connected component through
``connected_components`` + ``detect_communities``'s distributed regime
(pre-split bisection + parallel louvain leaves) with clustering_memory
set, and reports wall time per stage plus peak worker RSS (sampled from
/proc).  Deterministic synthetic input: a ring (guarantees one
component) plus seeded unique chords.

Usage: python scripts/community_scale_check.py [nodes] [edges] [cpus]
"""

from __future__ import annotations

import glob
import json
import os
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


class RssMonitor(threading.Thread):
    """Samples VmRSS of every ray worker process twice a second."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_per_proc = 0
        self.peak_total = 0
        self.stop_flag = False

    def run(self):
        while not self.stop_flag:
            total = 0
            for status in glob.glob("/proc/[0-9]*/status"):
                pid_dir = os.path.dirname(status)
                try:
                    with open(os.path.join(pid_dir, "cmdline"), "rb") as f:
                        if b"ray::" not in f.read():
                            continue
                    with open(status) as f:
                        for line in f:
                            if line.startswith("VmRSS:"):
                                kb = int(line.split()[1])
                                total += kb
                                self.peak_per_proc = max(self.peak_per_proc, kb)
                                break
                except OSError:
                    continue
            self.peak_total = max(self.peak_total, total)
            time.sleep(0.5)


def main(n_nodes: int, n_edges: int, ncpu: int) -> None:
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray.stages.community import detect_communities
    from knowledge_graph_ray.stages.components import connected_components

    rng = np.random.RandomState(6969)
    ring = np.stack([np.arange(n_nodes), (np.arange(n_nodes) + 1) % n_nodes],
                    axis=1)
    chords = rng.randint(0, n_nodes,
                         size=(max(0, n_edges - n_nodes), 2))
    pairs = np.concatenate([ring, chords])
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keep = lo != hi
    packed = np.unique(lo[keep].astype(np.int64) * n_nodes + hi[keep])
    a, b = packed // n_nodes, packed % n_nodes
    weight = (1.0 + (a * 31 + b) % 3).astype(np.float64)

    def name(arr):
        return pa.compute.binary_join_element_wise(
            pa.array(["n"] * len(arr)),
            pa.compute.cast(pa.array(arr + 10**7), pa.string()), "")

    ents = rd.from_arrow(
        pa.Table.from_pydict({"name": name(np.arange(n_nodes))})
    ).repartition(max(8, ncpu)).materialize()
    rels = rd.from_arrow(
        pa.Table.from_pydict(
            {"src": name(a), "dst": name(b),
             "weight": pa.array(weight, type=pa.float64())}
        )
    ).repartition(max(8, ncpu)).materialize()
    n_uniq_edges = len(packed)

    mon = RssMonitor()
    mon.start()

    t0 = time.time()
    comps = connected_components(ents, rels, num_partitions=ncpu).materialize()
    t_cc = time.time() - t0
    n_comp_rows = comps.count()

    t0 = time.time()
    comms = detect_communities(
        comps, rels, num_partitions=ncpu,
        clustering_memory=4e9,
    ).materialize()
    t_cluster = time.time() - t0

    import pandas as pd  # noqa: F401

    lvl = comms.groupby("level").count().to_pandas().sort_values("level")
    mon.stop_flag = True
    out = {
        "nodes": n_nodes,
        "unique_edges": n_uniq_edges,
        "num_cpus": ncpu,
        "cc_sec": round(t_cc, 1),
        "cluster_sec": round(t_cluster, 1),
        "component_rows": n_comp_rows,
        "community_rows": comms.count(),
        "levels": {int(r["level"]): int(r["count()"]) for _, r in lvl.iterrows()},
        "peak_worker_rss_gb": round(mon.peak_per_proc / 1e6, 2),
        "peak_total_rss_gb": round(mon.peak_total / 1e6, 2),
    }
    ray.shutdown()
    print(json.dumps(out))


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000_000
    c = int(sys.argv[3]) if len(sys.argv) > 3 else 32
    main(n, m, c)
