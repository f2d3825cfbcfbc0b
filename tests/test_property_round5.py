"""Property tests for the round-5 hot rewrites.

Both targets are pure functions whose exactness claims the engine leans
on: the vectorized CRC32 (MinHash shingle hashing must equal
zlib.crc32 bit-for-bit or LSH buckets silently change) and the
giant-component bisection pre-split (must assign every node the SAME
leaf the single-task recursion would reach, for ANY combination of
max_louvain_nodes / max_cluster_size, or the two regimes emit different
community tables).
"""
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from knowledge_graph_ray.stages.community import _leaf_assignments
from knowledge_graph_ray.stages.dedup import _crc32_of_strings


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=80), max_size=60))
def test_crc32_of_strings_matches_zlib(strs):
    arr = pa.array(strs, type=pa.string())
    got = _crc32_of_strings(arr)
    want = np.array([zlib.crc32(s.encode()) for s in strs], dtype=np.uint32)
    assert got.tolist() == want.tolist()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50,
             unique=True),
    st.integers(min_value=1, max_value=2000),
)
def test_crc32_of_strings_matches_zlib_with_one_long_string(strs, long_len):
    # exercises the >=1KB zlib-kernel tail path next to short strings
    strs = strs + ["y" * long_len]
    arr = pa.array(strs, type=pa.string())
    got = _crc32_of_strings(arr)
    want = np.array([zlib.crc32(s.encode()) for s in strs], dtype=np.uint32)
    assert got.tolist() == want.tolist()


def _reference_leaves(names, ml, mc):
    """Direct transcription of _cluster_component's descent gates:
    the root is always entered (bisects iff n > ml); a bisected child
    is descended into iff it is BOTH > mc (the recurse() re-entry
    guard) and > ml (the bisection-vs-louvain branch); any child not
    descended-by-bisection is a pre-split leaf at (path/ci, level+1)."""
    out = {}

    def rec(cluster, level, path):
        n = len(cluster)
        if n > ml and n > 1:
            ordered = sorted(cluster)
            half = (n + 1) // 2
            for ci, sub in enumerate([ordered[:half], ordered[half:]]):
                if len(sub) > mc and len(sub) > ml:
                    rec(sub, level + 1, f"{path}/{ci}")
                else:
                    for node in sub:
                        out[node] = (f"{path}/{ci}", level + 1)
        else:
            for node in cluster:
                out[node] = (path, level)

    rec(list(names), 0, "")
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=120),
)
def test_leaf_assignments_match_recursion_gates(n, ml, mc):
    names = [f"n{i:05d}" for i in range(n)]
    sub = pd.DataFrame({"component": ["c"] * n, "name": names})
    t = _leaf_assignments(sub, ml, mc).to_pandas()
    got = {
        r["name"]: (r["leaf_path"], int(r["leaf_level"]))
        for _, r in t.iterrows()
    }
    assert got == _reference_leaves(names, ml, mc)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(max_codepoint=0x2FF),
                        max_size=60),
                max_size=25),
       st.integers(min_value=1, max_value=4))
def test_gram_frame_matches_grams_reference(texts, n):
    """Vectorized (doc, gram) explode == the per-row _grams sets, for
    arbitrary unicode-ish text and any n."""
    from knowledge_graph_ray.stages.decontaminate import _gram_frame, _grams

    arr = pa.array(texts, type=pa.string())
    gf = _gram_frame(arr, n).drop_duplicates(["doc", "gram"])
    got = {(int(d), g) for d, g in gf.itertuples(index=False)}
    want = {(i, g) for i, t in enumerate(texts) for g in _grams(t, n)}
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(max_codepoint=0x2FF),
                        max_size=50),
                max_size=20))
def test_simhash_batch_matches_reference(texts):
    """Vectorized SimHasher.__call__ == per-row simhash64, any input."""
    from knowledge_graph_ray.stages.dedup import SimHasher

    h = SimHasher()
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    got = h(batch).column("simhash").to_pylist()
    assert got == [h.simhash64(t) for t in texts]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-100, max_value=100,
                                   allow_nan=False, width=32),
                         min_size=4, max_size=4),
                min_size=1, max_size=40))
def test_column_matrix_matches_per_row(vecs):
    """Zero-copy Arrow matrix path == per-row conversion for uniform
    list columns (list and fixed_size_list types)."""
    from knowledge_graph_ray.stages.similarity import (
        _as_matrix,
        _column_matrix,
    )

    want = _as_matrix(vecs)
    flat = pa.array(np.asarray(vecs, dtype=np.float64).ravel(),
                    type=pa.float64())
    for arr in (
        pa.array(vecs, type=pa.list_(pa.float64())),
        pa.FixedSizeListArray.from_arrays(flat, 4),
    ):
        got = _column_matrix(arr)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=0)


def test_bag_set_ops_match_counter_semantics():
    """intersect_all/except_all vs collections.Counter bag semantics on
    randomized multisets (property-style, fixed seeds, through Ray)."""
    from collections import Counter

    import ray.data as rd

    from knowledge_graph_ray.functions.joins import except_all, intersect_all

    rng = np.random.RandomState(42)
    for trial in range(3):
        left = rng.randint(0, 12, 150).tolist()
        right = rng.randint(0, 15, 90).tolist()
        lds = rd.from_items([{"k": int(k)} for k in left]).repartition(4)
        rds = rd.from_items([{"k": int(k)} for k in right]).repartition(3)
        ca, cb = Counter(left), Counter(right)
        want_inter = sorted((ca & cb).elements())
        want_except = sorted((ca - cb).elements())
        got_inter = sorted(intersect_all(lds, rds, ["k"])
                           .to_pandas()["k"].tolist())
        got_except = sorted(except_all(lds, rds, ["k"])
                            .to_pandas()["k"].tolist())
        assert got_inter == want_inter, trial
        assert got_except == want_except, trial


@given(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_cusum_closed_form_matches_recursion(devs):
    """events_cusum_drift's vectorized prefix-sum/running-min closed
    form C_k = P_k - min(0, min_{j<=k} P_j) equals the literal
    recursion C_k = max(0, C_{k-1} + d_k) the SQL oracle runs."""
    dev = np.asarray(devs, dtype=np.int64)
    p = np.cumsum(dev)
    closed = p - np.minimum(np.minimum.accumulate(p), 0)
    c, rec = 0, []
    for d in devs:
        c = max(0, c + d)
        rec.append(c)
    assert closed.tolist() == rec


@given(st.lists(st.integers(min_value=0, max_value=5_000_000),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_holt_recursion_deterministic_and_exact_while_small(means):
    """events_holt_forecast's cross-engine equality rests on both
    engines running the identical float64 recursion — re-running it
    must be bit-identical, and while the dyadic denominators still fit
    the 53-bit mantissa (first few steps) the floats equal the exact
    Fraction recursion."""
    from fractions import Fraction

    def run(ms):
        l, t = float(ms[0]), 0.0
        out = [(l, t)]
        for m in ms[1:]:
            l2 = 0.5 * m + 0.5 * (l + t)
            t = 0.5 * (l2 - l) + 0.5 * t
            l = l2
            out.append((l, t))
        return out

    a, b = run(means), run(means)
    assert a == b  # deterministic replay, step for step
    # exactness holds for the first steps (denominator 2^(2k) < 2^53
    # headroom for e2-cent magnitudes)
    fl, ft = Fraction(means[0]), Fraction(0)
    for k, m in enumerate(means[1:8], start=1):
        fl2 = Fraction(1, 2) * m + Fraction(1, 2) * (fl + ft)
        ft = Fraction(1, 2) * (fl2 - fl) + Fraction(1, 2) * ft
        fl = fl2
        assert Fraction(a[k][0]) == fl and Fraction(a[k][1]) == ft
