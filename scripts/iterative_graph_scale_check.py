"""Scale check for the round-5 coda-7 operators: sssp_weighted and
kcore on a synthetic 1M-node / ~4M-edge graph, and levenshtein1_pairs
on 1M TPC-H-style names (digit-substitution near-dups).

Usage: python scripts/iterative_graph_scale_check.py [n_nodes] [n_names]
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
    n_names = int(sys.argv[2]) if len(sys.argv) > 2 else 1_000_000

    import numpy as np
    import pandas as pd
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray.stages.fuzzy import levenshtein1_pairs
    from knowledge_graph_ray.stages.graphops import kcore, sssp_weighted

    rng = np.random.default_rng(6969)

    # --- graph: ring backbone (guarantees a long shortest-path chain
    # is NOT needed — ring + chords keeps the hop diameter ~log n so
    # rounds stay bounded) + random chords for degree variance
    ids = np.arange(n_nodes)
    ring_src = ids
    ring_dst = (ids + 1) % n_nodes
    n_chords = 3 * n_nodes
    ch_src = rng.integers(0, n_nodes, n_chords)
    ch_dst = rng.integers(0, n_nodes, n_chords)
    src = np.concatenate([ring_src, ch_src])
    dst = np.concatenate([ring_dst, ch_dst])
    w = rng.integers(1, 100, len(src)).astype(np.int64)
    keep = src != dst
    df = pd.DataFrame({
        "src": np.char.add("n", src[keep].astype(str)),
        "dst": np.char.add("n", dst[keep].astype(str)),
        "w": w[keep],
    })
    sym = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])
    sym = sym.groupby(["src", "dst"], as_index=False).w.min()
    edges = rd.from_pandas(sym).repartition(64).materialize()
    n_edges = edges.count()

    t0 = time.time()
    dist = sssp_weighted(edges, "n0", max_rounds=64).materialize()
    t_sssp = time.time() - t0
    print(json.dumps({
        "check": "sssp_weighted", "nodes": n_nodes, "edges": n_edges,
        "reached": dist.count(), "sec": round(t_sssp, 2),
        "nodes_per_sec": round(n_nodes / t_sssp),
    }), flush=True)

    t0 = time.time()
    core = kcore(edges.select_columns(["src", "dst"]), k=6,
                 max_rounds=64).materialize()
    t_core = time.time() - t0
    print(json.dumps({
        "check": "kcore_k6", "nodes": n_nodes, "edges": n_edges,
        "core_nodes": core.count(), "sec": round(t_core, 2),
        "nodes_per_sec": round(n_nodes / t_core),
    }), flush=True)

    # --- names: Customer#NNNNNNNNN over a 10x-smaller keyspace so
    # single-digit-substitution near-dups are dense, like the driver
    keys = rng.integers(0, n_names // 2, n_names)
    names = pd.DataFrame({
        "name": np.char.add("Customer#",
                            np.char.zfill(keys.astype(str), 9)),
    }).drop_duplicates()
    ds = rd.from_pandas(names).repartition(64).materialize()
    t0 = time.time()
    pairs = levenshtein1_pairs(ds, "name").materialize()
    t_lev = time.time() - t0
    print(json.dumps({
        "check": "levenshtein1_pairs", "names": len(names),
        "pairs": pairs.count(), "sec": round(t_lev, 2),
        "names_per_sec": round(len(names) / t_lev),
    }), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
