"""sssp_weighted / kcore (stages/graphops.py) vs networkx, and
grouped_welch_t (functions/agg.py) vs an independent plain-Python
computation."""

import networkx as nx
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from knowledge_graph_ray.functions.agg import grouped_welch_t
from knowledge_graph_ray.stages.graphops import kcore, sssp_weighted


def _random_edges(rng, n, m, max_w=20):
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(1, max_w, m)
    df = pd.DataFrame({
        "src": [f"n{a:02d}" for a in src],
        "dst": [f"n{b:02d}" for b in dst],
        "w": w.astype(np.int64),
    })
    df = df[df.src != df.dst]
    # symmetrize, then min weight per directed pair so both the engine
    # and networkx see one unambiguous weight
    sym = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])
    return sym.groupby(["src", "dst"], as_index=False).w.min()


def test_sssp_weighted_matches_dijkstra():
    rng = np.random.default_rng(11)
    for n, m in ((12, 40), (40, 220)):
        sym = _random_edges(rng, n, m)
        g = nx.DiGraph()
        g.add_weighted_edges_from(sym.itertuples(index=False))
        seed = sym.src.min()
        want = nx.single_source_dijkstra_path_length(g, seed, weight="weight")

        edges = rd.from_pandas(sym).materialize()
        got = sssp_weighted(edges, seed).to_pandas()
        got_map = dict(zip(got.node, got.dist))
        assert got_map == {k: int(v) for k, v in want.items()}


def test_sssp_unreachable_nodes_absent():
    sym = pd.DataFrame({
        "src": ["a", "b", "x"],
        "dst": ["b", "a", "y"],
        "w": np.array([3, 3, 1], dtype=np.int64),
    })
    edges = rd.from_pandas(sym).materialize()
    got = sssp_weighted(edges, "a").to_pandas()
    assert dict(zip(got.node, got.dist)) == {"a": 0, "b": 3}


def test_kcore_matches_networkx():
    rng = np.random.default_rng(23)
    for n, m, k in ((20, 50, 2), (50, 160, 3), (60, 260, 4)):
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        df = pd.DataFrame({"src": [f"n{a:02d}" for a in src],
                           "dst": [f"n{b:02d}" for b in dst]})
        g = nx.Graph()
        g.add_edges_from(df.itertuples(index=False))
        g.remove_edges_from(nx.selfloop_edges(g))
        core = nx.k_core(g, k)
        want = dict(core.degree())

        got = kcore(rd.from_pandas(df), k=k).to_pandas()
        assert dict(zip(got.node, got.deg)) == want


def test_kcore_multi_round_peel_to_empty():
    # path graph: k=2 peels one end-pair per round until nothing is left
    nodes = [f"p{i}" for i in range(10)]
    df = pd.DataFrame({"src": nodes[:-1], "dst": nodes[1:]})
    got = kcore(rd.from_pandas(df), k=2).to_pandas()
    assert len(got) == 0


def test_grouped_welch_t_matches_plain_python():
    rng = np.random.default_rng(5)
    rows = []
    for grp, mu in (("a", 100), ("b", 130), ("c", 70)):
        for v in rng.integers(mu - 40, mu + 40, 200):
            rows.append({"g": grp, "x": int(v)})
    df = pd.DataFrame(rows)
    got = grouped_welch_t(rd.from_pandas(df), "g", "x",
                          baseline="a").to_pandas()
    assert set(got.g) == {"b", "c"}

    base = df[df.g == "a"].x.to_numpy(dtype=np.float64)
    nb, mb, vb = len(base), base.mean(), base.var(ddof=1)
    for grp in ("b", "c"):
        s = df[df.g == grp].x.to_numpy(dtype=np.float64)
        t = (s.mean() - mb) / np.sqrt(s.var(ddof=1) / len(s) + vb / nb)
        row = got[got.g == grp].iloc[0]
        assert row.n == len(s)
        assert abs(int(row.t_e6) - round(t * 1e6)) <= 2


def test_grouped_welch_t_missing_baseline_raises():
    df = pd.DataFrame({"g": ["a", "b"], "x": [1, 2]})
    with pytest.raises(Exception, match="baseline"):
        grouped_welch_t(rd.from_pandas(df), "g", "x",
                        baseline="zz").to_pandas()


# --------------------------------------------------------- link prediction


def _lp_frame(got) -> dict:
    df = got.to_pandas()
    return {(a, b): (int(c), round(float(s), 9))
            for a, b, c, s in zip(df.a, df.b, df.common, df.aa)}


def test_link_prediction_matches_networkx():
    from knowledge_graph_ray.stages.graphops import link_prediction

    rng = np.random.default_rng(37)
    for n, m in ((15, 40), (40, 150)):
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        df = pd.DataFrame({"src": [f"n{a:02d}" for a in src],
                           "dst": [f"n{b:02d}" for b in dst]})
        g = nx.Graph()
        g.add_edges_from(df.itertuples(index=False))
        g.remove_edges_from(nx.selfloop_edges(g))

        want = {}
        for u, v, s in nx.adamic_adar_index(g):
            cn = len(list(nx.common_neighbors(g, u, v)))
            if cn:
                a, b = min(u, v), max(u, v)
                want[(a, b)] = (cn, round(float(s), 9))

        got = _lp_frame(link_prediction(rd.from_pandas(df)))
        assert got == want


def test_link_prediction_keeps_existing_edges_when_asked():
    from knowledge_graph_ray.stages.graphops import link_prediction

    # triangle + pendant: A-B adjacent AND share neighbor C
    df = pd.DataFrame({"src": ["A", "B", "A", "C"],
                       "dst": ["B", "C", "C", "D"]})
    excl = _lp_frame(link_prediction(rd.from_pandas(df)))
    keep = _lp_frame(link_prediction(rd.from_pandas(df),
                                     exclude_existing=False))
    assert ("A", "B") not in excl and ("A", "B") in keep
    assert set(keep) - set(excl) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_link_prediction_degree_cap_drops_hub_wedges():
    from knowledge_graph_ray.stages.graphops import link_prediction

    # hub H serves 5 leaves; side edge X-Y-Z gives one capped-safe pair
    df = pd.DataFrame({
        "src": ["H"] * 5 + ["X", "Y"],
        "dst": [f"l{i}" for i in range(5)] + ["Y", "Z"],
    })
    exact = _lp_frame(link_prediction(rd.from_pandas(df)))
    capped = _lp_frame(link_prediction(rd.from_pandas(df), degree_cap=4))
    assert len(exact) == 10 + 1          # C(5,2) hub pairs + (X, Z)
    assert capped == {("X", "Z"): exact[("X", "Z")]}


def test_link_prediction_empty_and_min_common():
    from knowledge_graph_ray.stages.graphops import link_prediction

    empty = pa.table({"src": pa.array([], type=pa.string()),
                      "dst": pa.array([], type=pa.string())})
    assert link_prediction(rd.from_arrow(empty)).count() == 0
    assert link_prediction(rd.from_arrow(empty), min_common=2).count() == 0

    # square A-B-C-D-A: each diagonal has exactly 2 common neighbors
    df = pd.DataFrame({"src": ["A", "B", "C", "D"],
                       "dst": ["B", "C", "D", "A"]})
    got = _lp_frame(link_prediction(rd.from_pandas(df), min_common=2))
    assert set(got) == {("A", "C"), ("B", "D")}
    assert all(c == 2 for c, _ in got.values())


# ----------------------------------------------------------- chi-square GOF


def test_grouped_chi2_gof_matches_plain_python():
    from knowledge_graph_ray.functions.agg import grouped_chi2_gof

    rng = np.random.default_rng(41)
    g = rng.choice(["a", "b", "c"], 500)
    c = rng.choice([0, 1, 2, 3], 500, p=[0.4, 0.3, 0.2, 0.1])
    df = pd.DataFrame({"g": g, "c": c})
    got = grouped_chi2_gof(rd.from_pandas(df), "g", "c").to_pandas() \
        .sort_values("g").reset_index(drop=True)

    cats = sorted(df.c.unique())
    tot = {cc: (df.c == cc).sum() for cc in cats}
    nn = len(df)
    for _, row in got.iterrows():
        grp = df[df.g == row.g]
        chi2 = 0.0
        for cc in cats:
            obs = float((grp.c == cc).sum())
            exp = len(grp) * tot[cc] / nn
            chi2 += (obs - exp) ** 2 / exp
        assert row.dof == len(cats) - 1
        assert row.n == len(grp)
        assert abs(row.chi2_e6 - round(chi2 * 1e6)) <= 1
    assert len(got) == 3


def test_grouped_chi2_gof_uniform_group_scores_zero():
    from knowledge_graph_ray.functions.agg import grouped_chi2_gof

    # both groups have identical category mixes -> chi2 == 0 exactly
    df = pd.DataFrame({"g": ["x"] * 6 + ["y"] * 12,
                       "c": [0, 0, 1, 1, 2, 2] * 3})
    got = grouped_chi2_gof(rd.from_pandas(df), "g", "c").to_pandas()
    assert sorted(got.chi2_e6) == [0, 0]
    assert sorted(got.dof) == [2, 2]


def test_clustering_coefficient_matches_networkx():
    from knowledge_graph_ray.stages.graphops import clustering_coefficient

    rng = np.random.default_rng(53)
    for n, m in ((15, 45), (40, 200)):
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        df = pd.DataFrame({"src": [f"n{a:02d}" for a in src],
                           "dst": [f"n{b:02d}" for b in dst]})
        g = nx.Graph()
        g.add_edges_from(df.itertuples(index=False))
        g.remove_edges_from(nx.selfloop_edges(g))
        want_cc = nx.clustering(g)
        want_tri = nx.triangles(g)

        got = clustering_coefficient(rd.from_pandas(df)).to_pandas()
        assert len(got) == g.number_of_nodes()
        for _, r in got.iterrows():
            assert r.deg == g.degree(r.node)
            assert r.triangles == want_tri[r.node], r.node
            assert abs(r.cc - want_cc[r.node]) < 1e-12, r.node


def test_clustering_coefficient_empty_and_triangle():
    from knowledge_graph_ray.stages.graphops import clustering_coefficient

    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    assert clustering_coefficient(rd.from_arrow(empty)).count() == 0

    # triangle + pendant: A, B fully clustered; C has 1 of 3 pairs
    df = pd.DataFrame({"src": ["A", "B", "A", "C"],
                       "dst": ["B", "C", "C", "D"]})
    got = clustering_coefficient(rd.from_pandas(df)).to_pandas()
    m = {r.node: (r.deg, r.triangles, round(r.cc, 9))
         for _, r in got.iterrows()}
    assert m == {"A": (2, 1, 1.0), "B": (2, 1, 1.0),
                 "C": (3, 1, round(1 / 3, 9)), "D": (1, 0, 0.0)}


def test_ktruss_matches_networkx():
    from knowledge_graph_ray.stages.graphops import ktruss

    rng = np.random.default_rng(29)
    for n, m, k in ((20, 70, 3), (40, 220, 4), (30, 140, 5)):
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        df = pd.DataFrame({"src": [f"n{a:02d}" for a in src],
                           "dst": [f"n{b:02d}" for b in dst]})
        g = nx.Graph()
        g.add_edges_from(df.itertuples(index=False))
        g.remove_edges_from(nx.selfloop_edges(g))
        want = {tuple(sorted(e)) for e in nx.k_truss(g, k).edges}

        got = ktruss(rd.from_pandas(df), k=k).to_pandas()
        assert {tuple(sorted((a, b)))
                for a, b in zip(got.a, got.b)} == want, (n, m, k)
        # in-truss support: every edge closes >= k-2 triangles
        assert (got.support >= k - 2).all()


def test_ktruss_cascade_and_empty():
    from knowledge_graph_ray.stages.graphops import ktruss

    # two triangles sharing an edge + a pendant: 3-truss drops the
    # pendant; 4-truss cascades to empty (shared edge has support 2
    # but its neighbors lose support once outer edges go)
    df = pd.DataFrame({"src": ["A", "B", "A", "C", "B", "C"],
                       "dst": ["B", "C", "C", "D", "D", "E"]})
    t3 = ktruss(rd.from_pandas(df), k=3).to_pandas()
    assert {tuple(sorted((a, b))) for a, b in zip(t3.a, t3.b)} == {
        ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")}
    assert ktruss(rd.from_pandas(df), k=4).count() == 0

    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    assert ktruss(rd.from_arrow(empty), k=3).count() == 0
