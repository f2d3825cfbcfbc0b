"""Scale check for the round-5 coda-9 propagation operators:
multi_source_bfs (4 seeds, 4 hops) and label_spread's all-shuffle
regime (broadcast off) on a synthetic ~1M-node / ~3M-edge ring+chord
graph, plus personalized_pagerank's all-shuffle regime on the same
edges — proving the frontier iteration and sparse (node,label) state
hold at node counts far beyond the flagship gazetteer graph.

Usage: python scripts/propagation_scale_check.py [n_nodes]
Prints one JSON line per check with wall seconds and result sizes.
"""
from __future__ import annotations

import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


def main():
    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000

    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import pandas as pd
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray.stages.graphops import multi_source_bfs
    from knowledge_graph_ray.stages.pagerank import (
        label_spread,
        personalized_pagerank,
    )

    rng = np.random.default_rng(6969)
    ids = np.arange(n_nodes)
    ring_src, ring_dst = ids, (ids + 1) % n_nodes
    chord_src = rng.integers(0, n_nodes, 2 * n_nodes)
    chord_dst = rng.integers(0, n_nodes, 2 * n_nodes)
    keep = chord_src != chord_dst
    src = np.concatenate([ring_src, chord_src[keep]])
    dst = np.concatenate([ring_dst, chord_dst[keep]])
    w = rng.integers(1, 5, len(src)).astype("float64")
    edges = rd.from_pandas(pd.DataFrame({
        "src": np.char.add("n", src.astype(str)),
        "dst": np.char.add("n", dst.astype(str)),
        "w": w,
    })).repartition(64).materialize()
    n_edges = edges.count()

    seeds = [f"n{i}" for i in (0, n_nodes // 3, n_nodes // 2,
                               2 * n_nodes // 3)]

    t0 = time.time()
    reached = multi_source_bfs(edges, seeds, hops=4).materialize()
    bfs_s = time.time() - t0
    print(json.dumps({"check": "multi_source_bfs", "n_nodes": n_nodes,
                      "n_edges": n_edges, "seeds": len(seeds), "hops": 4,
                      "reached_rows": reached.count(),
                      "wall_s": round(bfs_s, 1)}), flush=True)

    labels = {seeds[0]: "a", seeds[1]: "b", seeds[2]: "c", seeds[3]: "d"}
    t0 = time.time()
    spread = label_spread(edges, labels, weight="w", rounds=3).materialize()
    ls_s = time.time() - t0
    print(json.dumps({"check": "label_spread_allshuffle",
                      "n_nodes": n_nodes, "n_edges": n_edges,
                      "rounds": 3, "labeled_rows": spread.count(),
                      "wall_s": round(ls_s, 1)}), flush=True)

    t0 = time.time()
    ppr = personalized_pagerank(edges, seeds, weight="w", iterations=3,
                                broadcast_nodes_max=0).materialize()
    ppr_s = time.time() - t0
    print(json.dumps({"check": "ppr_allshuffle", "n_nodes": n_nodes,
                      "n_edges": n_edges, "iterations": 3,
                      "rank_rows": ppr.count(),
                      "wall_s": round(ppr_s, 1)}), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
