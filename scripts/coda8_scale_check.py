"""Scale check for the round-5 coda-8 operators at ~100-1000x the
bench inputs: IVF mutual-NN on 200k vectors (vs brute recall),
link_prediction on a multi-million-edge bipartite graph with a hot
hub (degree_cap path), HITS through the all-shuffle regime, and the
JW / banded-Levenshtein blocked joins on 1M blocked names.

Usage: python scripts/coda8_scale_check.py [n_vec] [n_names]
Prints one JSON line per check.
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
    n_vec = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    n_names = int(sys.argv[2]) if len(sys.argv) > 2 else 1_000_000

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray.stages.fuzzy import (
        jaro_winkler_blocked_pairs,
        levenshtein_blocked_pairs,
    )
    from knowledge_graph_ray.stages.graphops import link_prediction
    from knowledge_graph_ray.stages.pagerank import hits
    from knowledge_graph_ray.stages.similarity import (
        mutual_nn_pairs,
        mutual_nn_pairs_ivf,
    )

    rng = np.random.default_rng(6969)

    # --- IVF mutual-NN on clustered vectors (near-dup-corpus shape)
    dim, n_clusters = 32, 256
    cents = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, n_vec)
    vecs = (cents[assign] + 0.15 * rng.normal(size=(n_vec, dim))) \
        .astype(np.float32)
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n_vec), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.reshape(-1)), dim),
    })).materialize()
    t0 = time.time()
    ivf = mutual_nn_pairs_ivf(emb, num_centroids=64, nprobe=8,
                              sample=8192).materialize()
    t_ivf = time.time() - t0
    ivf_pairs = set(map(tuple, ivf.to_pandas().to_numpy()))
    t0 = time.time()
    brute = mutual_nn_pairs(emb).materialize()
    t_brute = time.time() - t0
    bp = brute.to_pandas()
    brute_pairs = set(zip(bp.a.astype(str), bp.b.astype(str)))
    recall = len(ivf_pairs & brute_pairs) / max(len(brute_pairs), 1)
    print(json.dumps({
        "check": "mutual_nn_ivf_200k", "n_vec": n_vec,
        "ivf_s": round(t_ivf, 1), "brute_s": round(t_brute, 1),
        "ivf_pairs": len(ivf_pairs), "brute_pairs": len(brute_pairs),
        "recall_vs_brute": round(recall, 4),
        "vec_per_s_ivf": int(n_vec / t_ivf),
    }), flush=True)

    # --- link prediction: bipartite users x items, zipf-ish item
    # popularity plus one pathological hub touching 2% of users
    n_users, n_items, n_edges = n_names, n_names // 10, 3 * n_names
    u = rng.integers(0, n_users, n_edges)
    it = (rng.pareto(1.3, n_edges) * 50).astype(np.int64) % n_items
    hub_u = rng.choice(n_users, n_users // 50, replace=False)
    edges = pd.DataFrame({
        "src": np.char.add("u", np.concatenate([u, hub_u]).astype(str)),
        "dst": np.char.add("i", np.concatenate(
            [it, np.zeros(len(hub_u), np.int64)]).astype(str)),
    })
    eds = rd.from_pandas(edges).materialize()
    t0 = time.time()
    lp = link_prediction(eds, min_common=3, degree_cap=256,
                         num_buckets=128).materialize()
    t_lp = time.time() - t0
    print(json.dumps({
        "check": "link_prediction_capped", "n_edges": int(len(edges)),
        "wall_s": round(t_lp, 1), "pairs": lp.count(),
        "edges_per_s": int(len(edges) / t_lp),
    }), flush=True)

    # --- HITS all-shuffle regime on the same bipartite graph
    t0 = time.time()
    h = hits(eds, iterations=4, broadcast_nodes_max=1000).materialize()
    t_h = time.time() - t0
    print(json.dumps({
        "check": "hits_all_shuffle", "n_edges": int(len(edges)),
        "wall_s": round(t_h, 1), "rows": h.count(),
        "edges_per_s": int(len(edges) / t_h),
    }), flush=True)

    # --- JW + Levenshtein blocked joins on 1M names, 2000 blocks
    # (2000 blocks of ~500 rows -> ~250M pair evals; with coarser
    # 1000-block blocking the JW leg alone is ~500M evals / ~2.5 min)
    digits = rng.integers(0, 10_000_000, n_names)
    names = pd.DataFrame({
        "id": np.arange(n_names, dtype=np.int64),
        "blk": rng.integers(0, 2000, n_names),
        "name": np.char.add("Customer#",
                            np.char.zfill(digits.astype(str), 9)),
    })
    nds = rd.from_pandas(names).materialize()
    t0 = time.time()
    jw = jaro_winkler_blocked_pairs(
        nds, "id", "name", ["blk"], 0.985, num_buckets=128).materialize()
    t_jw = time.time() - t0
    npairs_per_blk = (n_names // 2000) ** 2 // 2 * 2000
    print(json.dumps({
        "check": "jw_blocked_1m_2000blk", "n_names": n_names,
        "wall_s": round(t_jw, 1), "pairs_out": jw.count(),
        "pair_evals": npairs_per_blk,
        "pair_evals_per_s": int(npairs_per_blk / t_jw),
    }), flush=True)
    t0 = time.time()
    lev = levenshtein_blocked_pairs(
        nds, "id", "name", ["blk"], k=1, num_buckets=128).materialize()
    t_lev = time.time() - t0
    print(json.dumps({
        "check": "lev_blocked_1m", "n_names": n_names,
        "wall_s": round(t_lev, 1), "pairs_out": lev.count(),
        "pair_evals_per_s": int(npairs_per_blk / t_lev),
    }), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
