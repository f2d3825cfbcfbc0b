"""Tests for the training-data operators: dedup family, similarity search,
text analysis, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from knowledge_graph_ray.stages import dedup, multimodal, similarity

SF = "/root/testdata/sf0.001"


def _docs_ds():
    return rd.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_matches_pandas():
    ds = _docs_ds()
    got = dedup.exact_dedup(ds, column="text", id_column="doc_id").to_pandas()
    pdf = pd.read_parquet(f"{SF}/documents.parquet")
    expected = pdf.sort_values("doc_id").drop_duplicates("text")
    assert len(got) == len(expected)
    assert set(got.doc_id) == set(expected.doc_id)


def _near_dup_corpus():
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    rows = [
        {"doc_id": "d1", "text": base},
        {"doc_id": "d2", "text": base},  # exact dup of d1
        {"doc_id": "d3", "text": base.replace("kappa", "lambda", 1)},  # near dup
        {"doc_id": "d4", "text": "completely different words about other topics entirely " * 6},
        {"doc_id": "d5", "text": "unrelated content with nothing shared at all here " * 6},
    ]
    return rd.from_pandas(pd.DataFrame(rows))


def test_minhash_lsh_finds_near_dups():
    ds = _near_dup_corpus()
    sigs = dedup.minhash_signatures(ds, num_perm=128, ngram=3)
    pairs = dedup.minhash_lsh_pairs(sigs, num_bands=16, threshold=0.7).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(pairs.a, pairs.b)}
    assert ("d1", "d2") in found
    assert ("d1", "d3") in found or ("d2", "d3") in found
    assert not any("d4" in p or "d5" in p for p in found)
    exact = pairs[(pairs.a == "d1") & (pairs.b == "d2")]
    assert exact.est_jaccard.iloc[0] == 1.0
    groups = dedup.duplicate_groups(rd.from_pandas(pairs)).to_pandas()
    comp = groups.set_index("name")["component"]
    assert comp["d1"] == comp["d2"] == comp["d3"] == "d1"


def test_simhash_pairs():
    ds = _near_dup_corpus()
    pairs = dedup.simhash_pairs(ds, max_hamming=3).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(pairs.a, pairs.b)}
    assert ("d1", "d2") in found
    zero = pairs[(pairs.a == "d1") & (pairs.b == "d2")]
    assert zero.hamming.iloc[0] == 0
    assert not any("d4" in p and "d5" in p for p in found)


def test_ngram_jaccard_matches_bruteforce():
    pdf = pd.read_parquet(f"{SF}/documents.parquet").head(100)
    pdf["doc_id"] = pdf["doc_id"].astype(str)
    ds = rd.from_pandas(pdf)
    threshold = 0.04  # word-soup docs: 2-gram jaccard tops out ~0.08
    got = dedup.ngram_jaccard_pairs(
        ds, threshold=threshold, ngram=2, partition_column="source"
    ).to_pandas()
    expected = {}
    for _, grp in pdf.groupby("source"):
        rows = grp.sort_values("doc_id")
        ids = rows.doc_id.tolist()
        sets = [dedup._shingles(t, 2) for t in rows.text]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if sets[i] or sets[j]:
                    jac = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
                    if jac >= threshold:
                        expected[(ids[i], ids[j])] = jac
    assert len(expected) > 0  # the fixture actually exercises the operator
    got_pairs = {
        tuple(sorted((a, b))): j for a, b, j in zip(got["a"], got["b"], got["jaccard"])
    }
    assert got_pairs.keys() == {tuple(sorted(p)) for p in expected}
    for k, j in expected.items():
        assert got_pairs[tuple(sorted(k))] == pytest.approx(j)


def test_embedding_near_dup_and_topk():
    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in pdf.embedding])
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)

    threshold = 0.3  # driver embeddings are near-random: max cosine ~0.45
    pairs = dedup.embedding_near_dup_pairs(emb, threshold=threshold).to_pandas()
    # brute-force within-label verification
    expected = set()
    for lab, grp in pdf.groupby("label"):
        idx = grp.sort_values("vec_id").index.tolist()
        sub = unit[idx]
        sims = sub @ sub.T
        ids = grp.sort_values("vec_id").vec_id.astype(str).tolist()
        ii, jj = np.where(np.triu(sims, k=1) >= threshold)
        for i, j in zip(ii, jj):
            expected.add((ids[i], ids[j]))
    assert expected  # fixture exercises the operator
    got = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
    assert got == expected

    # brute-force top-k vs numpy
    queries = mat[:3]
    topk = similarity.brute_force_topk(emb, queries, k=5).to_pandas()
    for qi in range(3):
        qv = unit[qi]
        sims = unit @ qv
        order = np.argsort(-sims)[:5]
        expected_ids = [str(pdf.vec_id.iloc[i]) for i in order]
        got_ids = topk[topk.query_id == qi].sort_values("rk").vec_id.tolist()
        assert got_ids == expected_ids, qi


def test_ivf_topk_recall():
    # ds and the query matrix MUST come from the same corpus (the
    # queries are members of the searched set by design)
    emb = rd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
    pdf = pd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in pdf.embedding])
    cents = similarity.train_centroids(emb, num_centroids=8, sample=256, seed=6969)
    assigned = similarity.ivf_assign(emb, cents).materialize()
    buckets = assigned.to_pandas()["ivf_bucket"]
    assert buckets.nunique() > 1
    queries = mat[:3]
    approx = similarity.ivf_topk(assigned, cents, queries, k=5, nprobe=4).to_pandas()
    exact = similarity.brute_force_topk(emb, queries, k=5).to_pandas()
    recalls = []
    for qi in range(3):
        a = set(approx[approx.query_id == qi].vec_id)
        e = set(exact[exact.query_id == qi].vec_id)
        recalls.append(len(a & e) / len(e))
    assert np.mean(recalls) >= 0.5, recalls


def test_prompt_tune_language_of():
    """The offline prompt model's language guess (stopword hits, CJK)."""
    from knowledge_graph_ray.functions.text import tokenize
    from knowledge_graph_ray.pipelines.prompt_tune import _language_of

    for text, lang in [
        ("the cat and the dog sat in the garden of the house", "en"),
        ("le chat et le chien est dans la maison du jardin", "fr"),
        ("这是一个中文句子", "zh"),
        ("", "unknown"),
    ]:
        assert _language_of(tokenize(text.lower()), text) == lang, text


def test_multimodal_plumbing():
    from knowledge_graph_ray.corpus import generate_corpus_table

    docs = rd.from_arrow(generate_corpus_table(100, seed=6969))
    refs = multimodal.media_refs_from_docs(docs)
    n_refs = refs.count()
    assert n_refs > 0
    media = multimodal.fetch_media(refs, payload_bytes=2048)
    feats = multimodal.decode_media(media).to_pandas()
    assert len(feats) == n_refs
    assert all(len(f) == multimodal.FEATURE_DIM for f in feats.feature)
    # determinism: same ref -> same feature
    again = multimodal.decode_media(
        multimodal.fetch_media(refs, payload_bytes=2048), concurrency=1
    ).to_pandas()
    merged = feats.merge(again, on="media_ref")
    assert all(
        np.allclose(x, y) for x, y in zip(merged.feature_x, merged.feature_y)
    )
    frames = multimodal.sample_frames(
        multimodal.fetch_media(refs, payload_bytes=2048)
    ).to_pandas()
    assert (frames.byte_offset % 1024 == 0).all()
    with pytest.raises(NotImplementedError):
        multimodal.RealCodec().decode("image", b"xx")


def test_real_media_codecs_roundtrip():
    """BMP/WAV/KGV1 encode->decode are exact roundtrips (pure stdlib)."""
    rng = np.random.RandomState(0)
    px = rng.randint(0, 256, size=(13, 7, 3), dtype=np.uint8)  # odd width: row padding
    assert np.array_equal(multimodal.decode_bmp(multimodal.encode_bmp(px)), px)

    samples = (np.sin(np.linspace(0, 20, 500)) * 30000).astype(np.int16)
    dec, rate = multimodal.decode_wav(multimodal.encode_wav(samples, rate=8000))
    assert rate == 8000
    assert np.allclose(dec, samples / 32768.0, atol=1e-4)

    frames = [multimodal.encode_bmp(px), multimodal.encode_bmp(px[::-1].copy())]
    vid = multimodal.encode_video(frames)
    got = list(multimodal.iter_video_frames(vid))
    assert [g[2] for g in got] == frames

    small = multimodal.resize_image(px, 4, 4)
    assert small.shape == (4, 4, 3)


def test_real_media_pipeline_end_to_end():
    """fetch(real formats) -> StdlibCodec decode -> features through the
    actual Ray actor-pool stages; video frame sampling yields decodable
    frames."""
    from knowledge_graph_ray.corpus import generate_corpus_table

    docs = rd.from_arrow(generate_corpus_table(100, seed=6969))
    refs = multimodal.media_refs_from_docs(docs)
    n_refs = refs.count()
    assert n_refs > 0
    media = multimodal.fetch_media_real(refs).materialize()
    feats = multimodal.decode_media(
        media, codec_cls=multimodal.StdlibCodec, concurrency=1
    ).to_pandas()
    assert len(feats) == n_refs
    assert all(len(f) == multimodal.FEATURE_DIM for f in feats.feature)
    # features are real, not hashes: image features bounded, non-trivial
    assert feats.feature.map(lambda f: float(np.abs(f).sum())).min() > 0

    # determinism
    again = multimodal.decode_media(
        multimodal.fetch_media_real(refs),
        codec_cls=multimodal.StdlibCodec, concurrency=1,
    ).to_pandas().sort_values("media_ref").reset_index(drop=True)
    first = feats.sort_values("media_ref").reset_index(drop=True)
    assert all(np.allclose(x, y) for x, y in zip(first.feature, again.feature))

    frames = multimodal.sample_video_frames(media).to_pandas()
    if len(frames):
        decoded = multimodal.decode_bmp(frames.frame.iloc[0])
        assert decoded.ndim == 3 and decoded.shape[2] == 3


def test_hll_distinct_close_to_exact():
    """HyperLogLog sketch path within ~5% of the exact distinct count,
    through the real Ray stages."""
    from knowledge_graph_ray.stages.sketches import (
        grouped_distinct_count,
        grouped_hll_distinct,
    )

    events = rd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "user_id"])
    exact = (
        grouped_distinct_count(events, "event_type", "user_id")
        .to_pandas().set_index("event_type")["n_distinct"]
    )
    est = (
        grouped_hll_distinct(events, "event_type", "user_id")
        .to_pandas().set_index("event_type")["n_distinct_est"]
    )
    assert set(exact.index) == set(est.index)
    for k in exact.index:
        assert abs(est[k] - exact[k]) / exact[k] < 0.05, (k, est[k], exact[k])


def test_grouped_quantiles_match_numpy():
    from knowledge_graph_ray.stages.sketches import grouped_quantiles

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b"], 500),
            "v": np.round(rng.randn(500) * 10, 2),
        }
    )
    got = grouped_quantiles(
        rd.from_pandas(df).repartition(4), "g", "v", qs=[0.5, 0.9]
    ).to_pandas().set_index(["g", "q"])["v"]
    import math

    for g, sub in df.groupby("g"):
        vals = np.sort(sub["v"].to_numpy())
        for q in (0.5, 0.9):
            expected = vals[math.ceil(len(vals) * q) - 1]
            assert got[(g, q)] == expected, (g, q)


def test_embedding_near_dup_with_ivf_buckets():
    """The documented scale path: IVF assignment as the near-dup bucket
    key — planted near-duplicates (jittered copies, cosine >= 0.99)
    co-locate in IVF cells, so the bucketed O(n^2) finds them without
    the label shard key."""
    import pyarrow.parquet as pq

    from knowledge_graph_ray.stages.similarity import ivf_assign, train_centroids

    base = pq.read_table("/root/testdata/sf0.01/embeddings.parquet").to_pandas()
    rng = np.random.RandomState(5)
    planted = base.sample(40, random_state=5).copy()
    planted["embedding"] = planted["embedding"].map(
        lambda v: (np.asarray(v) + rng.randn(len(v)) * 0.01).tolist()
    )
    planted["vec_id"] = planted["vec_id"] + 100000
    df = pd.concat([base, planted], ignore_index=True)
    expected = {
        (str(r.vec_id), str(r.vec_id + 100000)) for r in
        planted.assign(vec_id=planted.vec_id - 100000).itertuples()
    }

    emb = rd.from_pandas(df).repartition(4)
    cents = train_centroids(emb, num_centroids=8, sample=512, seed=6969)
    assigned = ivf_assign(emb, cents).materialize()
    pairs = dedup.embedding_near_dup_pairs(
        assigned, threshold=0.95, bucket_column="ivf_bucket"
    ).to_pandas()
    got = set(zip(pairs.a, pairs.b)) if not pairs.empty else set()
    recall = len(expected & got) / len(expected)
    assert recall >= 0.95, (recall, len(expected), len(got))


def test_grouped_quantiles_binned_within_bound():
    """Quantize-first fallback on a high-cardinality unbounded float
    column: every reported quantile within one bin width of the exact
    quantile_disc value (VERDICT r2 item 7)."""
    import math

    from knowledge_graph_ray.stages.sketches import grouped_quantiles

    rng = np.random.RandomState(5)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 4000),
            "v": rng.randn(4000) * 37.0 + rng.rand(4000),  # ~all distinct
        }
    )
    assert df["v"].nunique() == len(df)  # genuinely high-cardinality
    bins = 2048
    got = grouped_quantiles(
        rd.from_pandas(df).repartition(4), "g", "v", qs=[0.1, 0.5, 0.99],
        bins=bins,
    ).to_pandas().set_index(["g", "q"])["v"]
    for g, sub in df.groupby("g"):
        vals = np.sort(sub["v"].to_numpy())
        width = (vals[-1] - vals[0]) / bins
        for q in (0.1, 0.5, 0.99):
            exact = vals[math.ceil(len(vals) * q) - 1]
            assert abs(got[(g, q)] - exact) <= width, (g, q)


def test_grouped_quantiles_binned_constant_group():
    from knowledge_graph_ray.stages.sketches import grouped_quantiles_binned

    df = pd.DataFrame({"g": ["z"] * 50, "v": [7.25] * 50})
    got = grouped_quantiles_binned(
        rd.from_pandas(df).repartition(2), "g", "v", qs=[0.5]
    ).to_pandas()
    assert got["v"].tolist() == [7.25]


def test_quantile_threshold_filter_matches_bruteforce():
    import math

    from knowledge_graph_ray.stages.sketches import quantile_threshold_filter

    pdf = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "lang", "n_chars"])
    ds = rd.from_arrow(pa.Table.from_pandas(pdf, preserve_index=False))
    got = (
        quantile_threshold_filter(ds, "lang", "n_chars", q=0.9)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # brute force: quantile_disc rule = ceil(n*q)-th (1-indexed) sorted value
    keep = []
    for lang, g in pdf.groupby("lang"):
        vals = sorted(g.n_chars)
        thr = vals[math.ceil(len(vals) * 0.9) - 1]
        sub = g[g.n_chars > thr].copy()
        sub["q_threshold"] = float(thr)
        keep.append(sub)
    expected = (
        pd.concat(keep).sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, expected[got.columns.tolist()], check_dtype=False
    )


def test_quantile_threshold_filter_drops_unknown_groups():
    from knowledge_graph_ray.stages.sketches import quantile_threshold_filter

    ds = rd.from_arrow(pa.table({
        "g": ["a", "a", "a", "b"],
        "v": pa.array([1.0, 2.0, 3.0, None], type=pa.float64()),
    }))
    got = quantile_threshold_filter(ds, "g", "v", q=0.5).to_pandas()
    # a's median (quantile_disc 0.5 of [1,2,3]) = 2 -> only v=3 passes;
    # b has no non-null values -> no threshold -> dropped entirely
    assert got.g.tolist() == ["a"]
    assert got.v.tolist() == [3.0]


def test_group_minmax_normalize_matches_bruteforce():
    from knowledge_graph_ray.stages.sketches import group_minmax_normalize

    pdf = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "lang", "n_chars"])
    ds = rd.from_arrow(pa.Table.from_pandas(pdf, preserve_index=False))
    got = (
        group_minmax_normalize(ds, "lang", "n_chars", out_col="norm")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    g = pdf.groupby("lang")["n_chars"]
    mn, mx = g.transform("min"), g.transform("max")
    span = (mx - mn).to_numpy().astype("float64")
    expected = pdf.copy()
    expected["norm"] = np.where(
        span > 0,
        (pdf.n_chars - mn).to_numpy().astype("float64")
        / np.where(span > 0, span, 1.0),
        0.0,
    )
    expected = expected.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected[got.columns.tolist()],
                                  check_dtype=False)
    assert got.norm.between(0, 1).all()


def test_group_minmax_normalize_constant_group():
    from knowledge_graph_ray.stages.sketches import group_minmax_normalize

    ds = rd.from_arrow(pa.table({"g": ["a", "a"], "v": [5, 5]}))
    got = group_minmax_normalize(ds, "g", "v").to_pandas()
    assert got.norm.tolist() == [0.0, 0.0]


def test_grouped_agg_all_null_group_sums_to_null():
    from knowledge_graph_ray.functions.agg import grouped_agg

    ds = rd.from_arrow(pa.table({
        "g": ["a", "a", "b", "b"],
        "v": pa.array([1.5, 2.5, None, None], type=pa.float64()),
    }))
    got = (
        grouped_agg(ds, ["g"], [("s", "v", "sum"), ("n", None, "count")])
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    assert got.s.tolist()[0] == 4.0
    assert pd.isna(got.s.tolist()[1])  # SQL SUM over all nulls = NULL
    assert got.n.tolist() == [2, 2]


def test_weighted_repeat_empty_batch_after_filter():
    from knowledge_graph_ray.stages.sampling import weighted_repeat

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "w": [1.0, 1.0],
        "keep": [False, False],
    })).filter(expr="keep == False").filter(expr="keep == True")
    # entire dataset filtered away -> empty batches reach expand
    assert weighted_repeat(ds, "w", "doc_id").count() == 0


def test_minhash_bands_with_remainder_permutations():
    import numpy as np

    from knowledge_graph_ray.stages.dedup import (
        minhash_lsh_pairs,
        minhash_signatures,
    )

    docs = rd.from_arrow(pa.table({
        "doc_id": ["a", "b", "c"],
        "text": ["x y z w v u", "x y z w v u", "totally different text here"],
    }))
    # 100 perms / 16 bands leaves a remainder of 4 — must not crash,
    # identical docs must still pair
    sigs = minhash_signatures(docs, num_perm=100)
    pairs = minhash_lsh_pairs(sigs, num_bands=16, threshold=0.8).to_pandas()
    assert ("a", "b") in set(zip(pairs.a, pairs.b))


def test_anti_join_by_content_hash():
    from knowledge_graph_ray.stages.dedup import anti_join_by_content_hash

    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": ["seen before", "brand new", "brand new", "also new"],
    }))
    prior = rd.from_arrow(pa.table({
        "text": ["seen before", "other prior"],
    }))
    got = (
        anti_join_by_content_hash(new, prior)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # prior content dropped; duplicates WITHIN new are all kept
    assert got.doc_id.tolist() == [2, 3, 4]
    assert list(got.columns) == ["doc_id", "text"]


def test_rollup_agg_levels_consistent():
    from knowledge_graph_ray.functions.agg import rollup_agg

    pdf = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                          columns=["lang", "source", "n_chars"])
    ds = rd.from_arrow(pa.Table.from_pandas(pdf, preserve_index=False))
    got = rollup_agg(
        ds, ["lang", "source"],
        [("total_chars", "n_chars", "sum"), ("n_docs", None, "count")],
    ).to_pandas()

    finest = got[got.grouping_id == 0]
    lang_lvl = got[got.grouping_id == 1]
    total = got[got.grouping_id == 3]
    # finest matches pandas
    exp = (pdf.groupby(["lang", "source"])
           .agg(total_chars=("n_chars", "sum"), n_docs=("n_chars", "size"))
           .reset_index())
    pd.testing.assert_frame_equal(
        finest[["lang", "source", "total_chars", "n_docs"]]
        .sort_values(["lang", "source"]).reset_index(drop=True),
        exp.sort_values(["lang", "source"]).reset_index(drop=True),
        check_dtype=False,
    )
    # each level re-aggregates the one below exactly
    assert lang_lvl.source.isna().all()
    assert lang_lvl.n_docs.sum() == len(pdf)
    per_lang = finest.groupby("lang").total_chars.sum()
    got_lang = lang_lvl.set_index("lang").total_chars
    assert (per_lang.sort_index() == got_lang.sort_index()).all()
    assert len(total) == 1
    assert total.n_docs.iloc[0] == len(pdf)
    assert total.total_chars.iloc[0] == pdf.n_chars.sum()


def test_rollup_agg_int_keys():
    from knowledge_graph_ray.functions.agg import rollup_agg

    ds = rd.from_arrow(pa.table({
        "a": pa.array([1, 1, 2], type=pa.int64()),
        "b": pa.array([10, 20, 10], type=pa.int64()),
        "v": pa.array([1, 2, 4], type=pa.int64()),
    }))
    got = rollup_agg(ds, ["a", "b"], [("s", "v", "sum")]).to_pandas()
    # int key columns stay int64-typed nulls, not strings
    assert str(got.a.dtype) in ("float64", "Int64", "object") or got.a.isna().any()
    total = got[got.grouping_id == 3]
    assert total.s.iloc[0] == 7
    a_lvl = got[got.grouping_id == 1].set_index("a").s
    assert a_lvl[1] == 3 and a_lvl[2] == 4


def test_cube_agg_all_subsets():
    from knowledge_graph_ray.functions.agg import cube_agg

    pdf = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                          columns=["lang", "source", "n_chars"])
    ds = rd.from_arrow(pa.Table.from_pandas(pdf, preserve_index=False))
    got = cube_agg(
        ds, ["lang", "source"],
        [("total_chars", "n_chars", "sum"), ("n_docs", None, "count")],
    ).to_pandas()
    # four grouping levels present: 0=finest, 1=(lang), 2=(source), 3=()
    assert set(got.grouping_id) == {0, 1, 2, 3}
    # the source-only level (lang grouped out -> bit for lang set)
    src_lvl = got[got.grouping_id == 2]
    assert src_lvl.lang.isna().all()
    exp = pdf.groupby("source").n_chars.sum()
    got_src = src_lvl.set_index("source").total_chars
    assert (exp.sort_index() == got_src.sort_index()).all()
    assert got[got.grouping_id == 3].n_docs.iloc[0] == len(pdf)


def test_rollup_agg_lazy_input_consistent_key_types():
    # ADVICE r4: a lazy (no plan-metadata) input must not emit
    # string-typed NULL key columns on coarser levels while the finest
    # level keeps int64 — the union would carry conflicting schemas
    import ray

    from knowledge_graph_ray.functions.agg import rollup_agg

    base = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 2], type=pa.int64()),
        "v": pa.array([1, 2, 3, 4], type=pa.int64()),
    }))
    lazy = base.map_batches(lambda b: b, batch_format="pyarrow")
    got = rollup_agg(lazy, ["k"], [("s", "v", "sum")])
    # promote_options="none" raises if any block disagrees on k's type
    tbl = pa.concat_tables(
        [t for t in ray.get(got.to_arrow_refs()) if t.num_rows],
        promote_options="none",
    )
    assert tbl.schema.field("k").type == pa.int64()
    pdf = tbl.to_pandas()
    assert pdf[pdf.grouping_id == 1].s.iloc[0] == 10


def test_grouped_agg_mixed_null_buckets_keep_int_sum_type():
    # ADVICE r4: buckets whose sum inputs are all NULL must not flip
    # their int64 sum column to float64 (mixed-type blocks)
    import ray

    from knowledge_graph_ray.functions.agg import grouped_agg

    n_groups = 48
    g = [f"g{i:02d}" for i in range(n_groups) for _ in range(2)]
    v = []
    for i in range(n_groups):
        v += [None, None] if i % 2 else [i, i + 1]
    ds = rd.from_arrow(pa.table({
        "g": g, "v": pa.array(v, type=pa.int64()),
    }))
    got = grouped_agg(ds, ["g"], [("s", "v", "sum")],
                      driver_threshold=None)  # force the bucketed path
    tbl = pa.concat_tables(
        [t for t in ray.get(got.to_arrow_refs()) if t.num_rows],
        promote_options="none",
    )
    assert tbl.schema.field("s").type == pa.int64()
    pdf = tbl.to_pandas().sort_values("g").reset_index(drop=True)
    assert pdf.s.isna().sum() == n_groups // 2


def test_rollup_all_null_totals_are_null():
    # ADVICE r4: SUM over all-NULL input is NULL at EVERY level
    # including the grand total (DuckDB parity), never 0
    from knowledge_graph_ray.functions.agg import rollup_agg

    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 1], type=pa.int64()),
        "v": pa.array([None, None], type=pa.int64()),
    }))
    got = rollup_agg(ds, ["k"], [("s", "v", "sum")]).to_pandas()
    assert len(got) == 2
    assert got.s.isna().all()


def test_rollup_empty_input_sql_parity():
    # DuckDB: GROUP BY ROLLUP over EMPTY input still emits the ()
    # grouping set -> exactly one row (NULL key, NULL sum, count 0)
    from knowledge_graph_ray.functions.agg import rollup_agg

    ds = rd.from_arrow(pa.table({
        "k": pa.array([], type=pa.int64()),
        "v": pa.array([], type=pa.int64()),
    }))
    got = rollup_agg(
        ds, ["k"], [("s", "v", "sum"), ("n", None, "count")]
    ).to_pandas()
    assert len(got) == 1
    assert got.grouping_id.iloc[0] == 1
    assert pd.isna(got.k.iloc[0]) and pd.isna(got.s.iloc[0])
    assert got.n.iloc[0] == 0


def test_rollup_large_finest_no_driver_pull():
    # VERDICT r3 #1: a high-cardinality key set (1M finest-level groups)
    # must complete with the grand total computed distributed — the
    # combiner reduces each block to one row; no driver materialization
    # of the 1M-row aggregate
    from knowledge_graph_ray.functions.agg import rollup_agg

    n = 1_000_000

    def gen(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column("id"),
            "v": pa.array(np.ones(len(b), dtype=np.int64)),
        })

    ds = rd.range(n).map_batches(gen, batch_format="pyarrow")
    got = rollup_agg(ds, ["k"], [("s", "v", "sum"), ("n", None, "count")],
                     driver_threshold=100_000)
    total = got.filter(expr="grouping_id == 1").to_pandas()
    assert total.s.iloc[0] == n and total.n.iloc[0] == n


def test_hll_dtype_canonicalization():
    # ADVICE r4: the same logical numeric value arriving as int64 in
    # one batch and float64 in another must land in the SAME register
    from knowledge_graph_ray.stages.sketches import HyperLogLog

    a = HyperLogLog(12)
    a.add_many(pd.Series([1, 2, 3], dtype="int64"))
    b = HyperLogLog(12)
    b.add_many(pd.Series([1.0, 2.0, 3.0], dtype="float64"))
    assert (a.registers == b.registers).all()
    c = HyperLogLog(12)
    c.add_many(pd.Series([0.0, -0.0]))
    assert round(c.estimate()) == 1


def test_grouping_sets_matches_duckdb():
    import duckdb

    from knowledge_graph_ray.functions.agg import grouping_sets_agg

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", None], 300),
        "b": rng.integers(0, 4, 300).astype("int64"),
        "v": rng.integers(-5, 50, 300).astype("int64"),
    })
    # full set, partial, empty (grand total) and a DUPLICATE set
    got = (
        grouping_sets_agg(rd.from_pandas(df).repartition(4), ["a", "b"],
                          [("a", "b"), ("b",), (), ("b",)],
                          [("sv", "v", "sum"), ("n", None, "count")])
        .to_pandas()
        .sort_values(["grouping_id", "a", "b"], na_position="first")
        .reset_index(drop=True)
    )
    exp = duckdb.sql("""
        SELECT a, b, CAST(sum(v) AS BIGINT) AS sv, count(*) AS n,
               CAST(grouping(a, b) AS BIGINT) AS grouping_id
        FROM df GROUP BY GROUPING SETS ((a, b), (b), (), (b))
    """).df().sort_values(["grouping_id", "a", "b"],
                          na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                  check_dtype=False)


def test_pivot_agg_null_sum_and_unlisted_values():
    from knowledge_graph_ray.functions.agg import pivot_agg

    df = pd.DataFrame({
        "k": ["g1", "g1", "g2", "g2"],
        "p": ["red", "red", "blue", "GREEN"],  # GREEN not in the IN list
        "v": [10, 5, 7, 99],
    })
    got = (
        pivot_agg(rd.from_pandas(df), ["k"], "p", ["red", "blue"], "v",
                  kinds=["count", "sum"])
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # g1: 2 red (sum 15), no blue -> count 0, sum NULL (SQL FILTER)
    g1 = got[got.k == "g1"].iloc[0]
    assert g1.count_red == 2 and g1.sum_red == 15
    assert g1.count_blue == 0 and pd.isna(g1.sum_blue)
    # g2: GREEN row ignored entirely
    g2 = got[got.k == "g2"].iloc[0]
    assert g2.count_blue == 1 and g2.sum_blue == 7
    assert g2.count_red == 0 and pd.isna(g2.sum_red)


def test_bloom_semi_join_equals_hash_join():
    from knowledge_graph_ray.functions.joins import bloom_semi_join, hash_join

    rng = np.random.default_rng(5)
    left = pd.DataFrame({
        "key": rng.integers(0, 1000, 5000).astype("int64"),
        "payload": rng.integers(0, 10, 5000).astype("int64"),
    })
    right = pd.DataFrame({"key": rng.choice(1000, 80, replace=False)
                          .astype("int64")})
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(2)

    def norm(df):
        return (df.sort_values(["key", "payload"])
                .reset_index(drop=True))

    for how in ("left_semi", "left_anti"):
        exp = norm(hash_join(lds, rds, on=["key"], how=how).to_pandas())
        # broadcast-exact regime (right under the key budget)
        got_b = norm(bloom_semi_join(lds, rds, on=["key"], how=how,
                                     num_bits=1 << 12).to_pandas())
        pd.testing.assert_frame_equal(got_b, exp)
        # bitmap + residual-join regime (forced small budget; tiny
        # num_bits so false positives exist and the exact join matters)
        got_f = norm(bloom_semi_join(lds, rds, on=["key"], how=how,
                                     num_bits=1 << 8,
                                     broadcast_keys_max=0).to_pandas())
        pd.testing.assert_frame_equal(got_f, exp)


def test_bloom_semi_join_empty_right():
    from knowledge_graph_ray.functions.joins import bloom_semi_join

    left = pd.DataFrame({"key": [1, 2, 3]})
    right = pd.DataFrame({"key": pd.Series([], dtype="int64")})
    semi = bloom_semi_join(rd.from_pandas(left), rd.from_pandas(right),
                           on=["key"], how="left_semi").to_pandas()
    assert len(semi) == 0
    anti = bloom_semi_join(rd.from_pandas(left), rd.from_pandas(right),
                           on=["key"], how="left_anti").to_pandas()
    assert sorted(anti.key) == [1, 2, 3]


def test_grouped_string_agg_matches_pandas():
    from knowledge_graph_ray.functions.agg import grouped_string_agg

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 200),
        "o": rng.permutation(200).astype("int64"),
        "v": pd.Series(rng.choice(["x", "yy", None, "zzz"], 200)),
    })
    got = (
        grouped_string_agg(rd.from_pandas(df).repartition(4), ["k"], "v",
                           ["o"], sep="|", out_col="s")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = (
        df.sort_values(["k", "o"])
        .groupby("k")["v"]
        .agg(lambda s: "|".join(s.dropna()) if s.notna().any() else None)
        .rename("s").reset_index()
    )
    pd.testing.assert_frame_equal(got, exp)


def test_grouped_string_agg_all_null_group_and_empty():
    from knowledge_graph_ray.functions.agg import grouped_string_agg

    df = pd.DataFrame({
        "k": ["a", "a", "b"],
        "o": [1, 2, 1],
        "v": pd.Series([None, None, "only"], dtype="object"),
    })
    got = (
        grouped_string_agg(rd.from_pandas(df), ["k"], "v", ["o"])
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert pd.isna(got[got.k == "a"].iloc[0]["agg"])
    assert got[got.k == "b"].iloc[0]["agg"] == "only"


def test_intersect_except_distinct():
    from knowledge_graph_ray.functions.joins import (
        except_distinct,
        intersect_distinct,
    )

    left = pd.DataFrame({"x": [1, 1, 2, 3, 3, 4]})
    right = pd.DataFrame({"x": [2, 2, 4, 5]})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)
    inter = sorted(intersect_distinct(lds, rds, ["x"]).to_pandas().x)
    assert inter == [2, 4]
    exc = sorted(except_distinct(lds, rds, ["x"]).to_pandas().x)
    assert exc == [1, 3]


def test_histogram_agg_matches_numpy():
    from knowledge_graph_ray.functions.agg import histogram_agg

    rng = np.random.default_rng(31)
    df = pd.DataFrame({
        "g": rng.choice(["p", "q"], 500),
        "v": np.where(rng.random(500) < 0.05, np.nan,
                      rng.normal(0, 50, 500)),
    })
    got = (
        histogram_agg(rd.from_pandas(df).repartition(4), ["g"], "v", 10.0)
        .to_pandas().sort_values(["g", "bin"]).reset_index(drop=True)
    )
    clean = df.dropna(subset=["v"]).copy()
    clean["bin"] = np.floor(clean.v / 10.0).astype("int64")
    exp = (clean.groupby(["g", "bin"]).size().rename("n").reset_index()
           .sort_values(["g", "bin"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_frequent_items_exact_on_zipf():
    from knowledge_graph_ray.stages.sketches import frequent_items

    rng = np.random.default_rng(13)
    # Zipf-ish: two heavy values, long uniform tail
    vals = np.concatenate([
        np.repeat("heavy_a", 3000), np.repeat("heavy_b", 1500),
        rng.choice([f"tail{i}" for i in range(500)], 5500),
    ])
    rng.shuffle(vals)
    df = pd.DataFrame({"v": vals})
    got = (
        frequent_items(rd.from_pandas(df).repartition(16), ["v"],
                       min_share=0.10)
        .to_pandas().sort_values("v").reset_index(drop=True)
    )
    vc = df.v.value_counts()
    exp = (vc[vc > 0.10 * len(df)].rename("n").rename_axis("v")
           .reset_index().sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert set(got.v) == {"heavy_a", "heavy_b"}


def test_frequent_items_multicolumn_and_none_heavy():
    from knowledge_graph_ray.stages.sketches import frequent_items

    df = pd.DataFrame({
        "a": ["x", "x", "y", "y"] * 25,
        "b": [1, 2, 1, 2] * 25,
    })
    got = (
        frequent_items(rd.from_pandas(df).repartition(4), ["a", "b"],
                       min_share=0.2)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    # each (a, b) combo has share exactly 0.25 > 0.2
    assert len(got) == 4 and (got.n == 25).all()
    none = frequent_items(rd.from_pandas(df), ["a", "b"], min_share=0.5)
    assert none.count() == 0


def test_grouped_corr_matches_numpy_and_zero_variance():
    from knowledge_graph_ray.functions.agg import grouped_corr

    rng = np.random.default_rng(41)
    n = 400
    x = rng.integers(0, 24, n)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": x,
        # correlated-with-noise integer y
        "y": (x * 7 + rng.integers(-40, 40, n)).astype("int64"),
    })
    const = pd.DataFrame({"g": ["c"] * 5, "x": [3] * 5,
                          "y": [1, 2, 3, 4, 5]})
    ds = rd.from_pandas(pd.concat([df, const], ignore_index=True)) \
        .repartition(4)
    got = (grouped_corr(ds, ["g"], "x", "y").to_pandas()
           .sort_values("g").reset_index(drop=True))
    for grp in ("a", "b"):
        sub = df[df.g == grp]
        exp = np.corrcoef(sub.x, sub.y)[0, 1]
        assert abs(got[got.g == grp].r.iloc[0] - exp) < 1e-12
    # zero x-variance group -> NULL (SQL corr semantics)
    assert pd.isna(got[got.g == "c"].r.iloc[0])


def test_unpivot_melts_and_drops_nulls():
    from knowledge_graph_ray.functions.agg import unpivot

    df = pd.DataFrame({
        "id": [1, 2],
        "a": pd.array([10, None], dtype="Int64"),
        "b": [1.5, 2.5],
    })
    got = (
        unpivot(rd.from_pandas(df), ["id"], ["a", "b"],
                name_col="col", value_col="v")
        .to_pandas().sort_values(["id", "col"]).reset_index(drop=True)
    )
    # int + float value columns unify to float64; the null 'a' of id=2
    # is dropped (SQL UNPIVOT default)
    assert got[["id", "col", "v"]].values.tolist() == [
        [1, "a", 10.0], [1, "b", 1.5], [2, "b", 2.5]]


def test_vector_centroids_matches_numpy():
    from knowledge_graph_ray.stages.similarity import vector_centroids

    pdf = pd.read_parquet(f"{SF}/embeddings.parquet")
    got = (vector_centroids(rd.read_parquet(f"{SF}/embeddings.parquet")
                            .repartition(8), "label", "embedding")
           .to_pandas().sort_values("label").reset_index(drop=True))
    for _, row in got.iterrows():
        sub = pdf[pdf.label == row.label]
        exp = np.stack([np.asarray(v, dtype=np.float64)
                        for v in sub.embedding]).mean(axis=0)
        assert row.n_vectors == len(sub)
        np.testing.assert_allclose(np.asarray(row.centroid), exp,
                                   rtol=1e-12)
    assert len(got) == pdf.label.nunique()


def test_cross_join_pairs_and_guards():
    from knowledge_graph_ray.functions.joins import cross_join

    left = pd.DataFrame({"a": [1, 2, 3]})
    right = pd.DataFrame({"b": ["x", "y"]})
    got = (cross_join(rd.from_pandas(left).repartition(2),
                      rd.from_pandas(right))
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert len(got) == 6
    assert got.values.tolist() == [[1, "x"], [1, "y"], [2, "x"],
                                   [2, "y"], [3, "x"], [3, "y"]]
    # empty right -> empty product (Ray 2.49 drops schema from empty
    # datasets through to_pandas, so only the row count is assertable)
    er = rd.from_arrow(pa.table({"b": pa.array([], type=pa.string())}))
    out = cross_join(rd.from_pandas(left), er)
    assert out.count() == 0
    # oversized right raises
    big = rd.from_pandas(pd.DataFrame({"b": range(100)}))
    with pytest.raises(ValueError, match="broadcast_rows_max"):
        cross_join(rd.from_pandas(left), big, broadcast_rows_max=10)


def test_grouped_string_agg_nullable_int_key_keeps_type():
    from knowledge_graph_ray.functions.agg import grouped_string_agg

    tbl_in = pa.table({
        "k": pa.array([1, 1, None, 2], type=pa.int64()),
        "o": pa.array([1, 2, 1, 1], type=pa.int64()),
        "v": pa.array(["a", "b", "c", "d"], type=pa.string()),
    })
    got = (
        grouped_string_agg(rd.from_arrow(tbl_in), ["k"], "v", ["o"])
        .to_pandas()
    )
    # null key groups like SQL string_agg GROUP BY (one null group)
    assert len(got) == 3
    assert got[got.k.isna()]["agg"].iloc[0] == "c"
    assert got[got.k == 1]["agg"].iloc[0] == "a,b"
    # every output block carries the input's integer key type (a
    # null-key bucket must not flip to float64 via pandas inference)
    tbl = grouped_string_agg(rd.from_arrow(tbl_in), ["k"], "v", ["o"])
    for ref in tbl.to_arrow_refs():
        import ray

        blk = ray.get(ref)
        if len(blk):
            assert pa.types.is_integer(blk.schema.field("k").type), \
                blk.schema


def test_grouped_string_agg_int_key_above_2_53_exact():
    """A null-bearing bucket whose int64 keys exceed float64's exact
    range must come out bit-exact — the Arrow bucket body never does a
    pandas float round-trip (the old path raised here)."""
    from knowledge_graph_ray.functions.agg import grouped_string_agg

    big = 2 ** 60 + 1  # not representable in float64 (rounds to 2^60)
    tbl_in = pa.table({
        "k": pa.array([big, big, 2 ** 60, None], type=pa.int64()),
        "o": pa.array([2, 1, 1, 1], type=pa.int64()),
        "v": pa.array(["b", "a", "c", "d"], type=pa.string()),
    })
    import ray

    out = grouped_string_agg(rd.from_arrow(tbl_in), ["k"], "v", ["o"])
    tbl = pa.concat_tables(
        [t for t in ray.get(out.to_arrow_refs()) if t.num_rows],
        promote_options="default",
    )
    # compare in Arrow: a pandas round-trip would float64-coerce the
    # null-bearing int64 key and collapse 2^60+1 into 2^60
    assert pa.types.is_integer(tbl.schema.field("k").type)
    by_key = {k.as_py(): v.as_py()
              for k, v in zip(tbl.column("k"), tbl.column("agg"))}
    assert by_key == {big: "a,b", 2 ** 60: "c", None: "d"}


def test_minhash_batch_signatures_match_single_doc_path():
    """The vectorized batch signer must be bit-identical to the kept
    per-doc reference path on every edge shape: null/empty text, docs
    shorter than the ngram, unicode case folding, heavy repetition
    (unique-gather branch) and all-distinct shingles (direct branch)."""
    import numpy as np
    import pyarrow as pa

    from knowledge_graph_ray.stages.dedup import MinHasher

    m = MinHasher(num_perm=96, ngram=3)
    texts = [
        None,
        "",
        "one",
        "one two",
        "one two three",
        "the quick brown fox jumps over the lazy dog " * 20,
        "Héllo Wörld ünïcode ÇASE répéat répéat répéat",
        "日本語 の テキスト を 処理 する",
        "punct, should; be! stripped? yes—indeed (parens) [brackets]",
        "tab\tsep\nnewline\r\nmixed   spaces",
        "123 456 789 numbers_and_underscores mix_99",
        # Rust-vs-Python \w divergence chars (No category, combining
        # marks): both paths must tokenize identically (polars)
        "café latte x² measure the x² value here",
        "café NFD accent repeats café often enough here",
        "half ½ vulgar fraction and circled ① numbers mixed in",
    ]
    # heavy-sharing tail drives the unique-gather branch ...
    texts += ["shared tokens alpha beta gamma delta " * 10] * 40
    batch = m._signatures_batch(pa.array(texts, type=pa.string()))
    for i, t in enumerate(texts):
        assert (batch[i] == m.signature(t or "")).all(), (i, t)
    # ... and an all-distinct corpus drives the direct branch
    low = [" ".join(f"u{i}_{j}" for j in range(30)) for i in range(64)]
    bl = m._signatures_batch(pa.array(low))
    for i in range(64):
        assert (bl[i] == m.signature(low[i])).all(), i


def test_grouped_regression_matches_numpy_and_zero_variance():
    from knowledge_graph_ray.functions.agg import grouped_regression

    rng = np.random.default_rng(17)
    n = 500
    x = rng.integers(0, 24, n)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": x,
        "y": (x * 5 + rng.integers(-30, 30, n)).astype("int64"),
    })
    const = pd.DataFrame({"g": ["c"] * 4, "x": [7] * 4, "y": [1, 2, 3, 4]})
    ds = rd.from_pandas(pd.concat([df, const], ignore_index=True)) \
        .repartition(4)
    got = (grouped_regression(ds, ["g"], "x", "y").to_pandas()
           .sort_values("g").reset_index(drop=True))
    for grp in ("a", "b"):
        sub = df[df.g == grp]
        slope_exp, intercept_exp = np.polyfit(sub.x, sub.y, 1)
        row = got[got.g == grp].iloc[0]
        assert abs(row.slope - slope_exp) < 1e-9
        assert abs(row.intercept - intercept_exp) < 1e-9
    # zero x-variance group -> NULL slope AND intercept (REGR_SLOPE)
    crow = got[got.g == "c"].iloc[0]
    assert pd.isna(crow.slope) and pd.isna(crow.intercept)


def test_grouped_regression_overflow_guard():
    from knowledge_graph_ray.functions.agg import grouped_regression

    df = pd.DataFrame({"g": ["a"], "x": [2 ** 32], "y": [2 ** 32]})
    with pytest.raises(Exception, match="overflow|pre-scale"):
        grouped_regression(rd.from_pandas(df), ["g"], "x", "y").materialize()


def test_lsh_topk_recall_and_full_probe_exactness():
    # ds and the query matrix MUST come from the same corpus (the
    # queries are members of the searched set by design)
    emb = rd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
    pdf = pd.read_parquet("/root/testdata/sf0.01/embeddings.parquet")
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in pdf.embedding])
    planes = similarity.lsh_planes(dim=mat.shape[1], n_bits=4, seed=6969)
    assigned = similarity.lsh_assign(emb, planes).materialize()
    buckets = assigned.to_pandas()["lsh_bucket"]
    assert buckets.nunique() > 1
    assert buckets.between(0, 15).all()
    queries = mat[:3]
    exact = similarity.brute_force_topk(emb, queries, k=5).to_pandas()
    # probing ALL 16 buckets must equal brute force exactly
    full = similarity.lsh_topk(assigned, planes, queries, k=5,
                               nprobe=16).to_pandas()
    for qi in range(3):
        f = full[full.query_id == qi].sort_values("rk").vec_id.tolist()
        e = exact[exact.query_id == qi].sort_values("rk").vec_id.tolist()
        assert f == e, qi
    # multiprobe at 12/16 buckets keeps recall high
    approx = similarity.lsh_topk(assigned, planes, queries, k=5,
                                 nprobe=12).to_pandas()
    recalls = []
    for qi in range(3):
        a = set(approx[approx.query_id == qi].vec_id)
        e = set(exact[exact.query_id == qi].vec_id)
        recalls.append(len(a & e) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_lsh_probe_sets_margin_order():
    rng = np.random.default_rng(2)
    planes = similarity.lsh_planes(dim=8, n_bits=4, seed=1)
    q = rng.standard_normal((2, 8))
    sets = similarity.lsh_probe_sets(q, planes, nprobe=3)
    margins = np.abs(q @ planes.T)
    bits = (q @ planes.T) >= 0
    base = (bits << np.arange(4)).sum(axis=1)
    for qi in range(2):
        s = sets[qi]
        assert len(s) == 3 and int(base[qi]) in s
        # the two non-base probes are single flips of the two
        # smallest-margin planes (no double flip can be cheaper)
        cheap = np.argsort(margins[qi])[:2]
        expected = {int(base[qi]), int(base[qi]) ^ (1 << int(cheap[0])),
                    int(base[qi]) ^ (1 << int(cheap[1]))}
        assert s == expected, (s, expected)


def test_grouped_corr_and_regression_pairwise_complete_nulls():
    from knowledge_graph_ray.functions.agg import (
        grouped_corr,
        grouped_regression,
    )

    # the NULL-x row must leave ALL statistics (SQL pairwise-complete),
    # not just the sums — y=(1,2) over x=(1,2) is an exact slope-1 line
    df = pd.DataFrame({
        "g": ["a", "a", "a"],
        "x": pd.array([1, 2, None], dtype="Int64"),
        "y": pd.array([1, 2, 5], dtype="Int64"),
    })
    reg = grouped_regression(rd.from_pandas(df), ["g"], "x", "y") \
        .to_pandas()
    assert abs(reg.slope.iloc[0] - 1.0) < 1e-12
    assert abs(reg.intercept.iloc[0] - 0.0) < 1e-12
    r = grouped_corr(rd.from_pandas(df), ["g"], "x", "y").to_pandas()
    assert abs(r.r.iloc[0] - 1.0) < 1e-12


def test_grouped_quantiles_cont_matches_numpy_linear():
    from knowledge_graph_ray.stages.sketches import grouped_quantiles_cont

    rng = np.random.default_rng(23)
    # heavy duplication so the histogram weighting (cnt>1) is exercised
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], 800),
        "v": rng.integers(0, 25, 800).astype("float64"),
    })
    got = (grouped_quantiles_cont(rd.from_pandas(df).repartition(4),
                                  "g", "v", qs=[0.25, 0.5, 0.9])
           .to_pandas())
    for grp in ("a", "b"):
        vals = np.sort(df[df.g == grp].v.to_numpy())
        for q in (0.25, 0.5, 0.9):
            exp = np.percentile(vals, q * 100, method="linear")
            r = got[(got.g == grp) & (got.q == q)].v.iloc[0]
            assert abs(r - exp) < 1e-9, (grp, q, r, exp)


def test_grouped_quantiles_ignore_null_values():
    from knowledge_graph_ray.stages.sketches import (
        grouped_quantiles,
        grouped_quantiles_cont,
    )

    df = pd.DataFrame({
        "g": ["a"] * 6,
        "v": pd.array([1.0, 2.0, 3.0, 4.0, None, None], dtype="Float64"),
    })
    # SQL quantile_disc/cont ignore NULLs: n=4, not 6
    disc = grouped_quantiles(rd.from_pandas(df), "g", "v",
                             qs=[0.5, 1.0]).to_pandas()
    assert disc[disc.q == 0.5].v.iloc[0] == 2.0
    assert disc[disc.q == 1.0].v.iloc[0] == 4.0
    cont = grouped_quantiles_cont(rd.from_pandas(df), "g", "v",
                                  qs=[0.5, 0.99]).to_pandas()
    assert cont[cont.q == 0.5].v.iloc[0] == 2.5
    assert abs(cont[cont.q == 0.99].v.iloc[0] - 3.97) < 1e-9
    assert not cont.v.isna().any()


def test_kmeans_recovers_separated_blobs():
    """Three well-separated blobs, k=3: every blob maps to one cluster,
    recovered centroids land near the true means, inertia is
    non-increasing (Lloyd's invariant)."""
    rng = np.random.RandomState(7)
    means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.concatenate(
        [m + 0.1 * rng.randn(50, 2) for m in means]
    )
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(pts)), type=pa.int64()),
        "embedding": pa.array([list(map(float, p)) for p in pts],
                              type=pa.list_(pa.float64())),
    }))
    cents, inertia = similarity.kmeans_fit(ds, k=3, iters=5, seed=6969)
    assert len(cents) == 3 and np.isfinite(cents).all()
    assert all(b <= a * (1 + 1e-9) for a, b in zip(inertia, inertia[1:]))
    # each true mean has a recovered centroid within the blob radius
    for m in means:
        assert np.linalg.norm(cents - m, axis=1).min() < 1.0
    # blob members agree on their cluster, and the three labels differ
    assigned = similarity.kmeans_assign(ds, cents).to_pandas()
    labels = [assigned["cluster"][i * 50:(i + 1) * 50].unique()
              for i in range(3)]
    assert all(len(u) == 1 for u in labels)
    assert len({u[0] for u in labels}) == 3


def test_kmeans_assign_matches_numpy_argmin():
    rng = np.random.RandomState(11)
    pts = rng.randn(200, 8)
    cents = rng.randn(4, 8)
    ds = rd.from_arrow(pa.table({
        "embedding": pa.array([list(map(float, p)) for p in pts],
                              type=pa.list_(pa.float64())),
    }))
    got = similarity.kmeans_assign(ds, cents).to_pandas()["cluster"].to_numpy()
    want = np.argmin(
        ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    assert (got == want).all()


def test_grouped_stddev_matches_numpy():
    import numpy as np

    from knowledge_graph_ray.functions.agg import grouped_stddev

    rng = np.random.RandomState(5)
    keys = rng.randint(0, 3, size=500)
    vals = rng.randint(-1000, 1000, size=500)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, type=pa.int64()),
        "x": pa.array(vals, type=pa.int64()),
    }))
    got = grouped_stddev(ds, ["k"], "x").to_pandas().set_index("k")
    for k in range(3):
        member = vals[keys == k]
        assert got.loc[k, "n"] == len(member)
        assert abs(got.loc[k, "stddev"] - member.std(ddof=1)) < 1e-9


def test_grouped_stddev_single_row_group_is_null():
    from knowledge_graph_ray.functions.agg import grouped_stddev

    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2], type=pa.int64()),
        "x": pa.array([5, 1, 3], type=pa.int64()),
    }))
    got = grouped_stddev(ds, ["k"], "x").to_pandas().set_index("k")
    assert pd.isna(got.loc[1, "stddev"])
    assert abs(got.loc[2, "stddev"] - 2 ** 0.5) < 1e-12


def test_simhash_vectorized_matches_per_row_reference():
    """The batch __call__ (polars tokenize + factorized blake2b +
    reduceat) must stay bit-identical to the per-row simhash64
    reference, including empty/null/unicode/underscore rows."""
    h = dedup.SimHasher()
    texts = ["alpha beta alpha", "", None, "héllo wörld", "under_score 42",
             "spark table window " * 10]
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    got = h(batch).column("simhash").to_pylist()
    assert got == [h.simhash64(t or "") for t in texts]


def test_grouped_weighted_quantile_vs_brute_force():
    from knowledge_graph_ray.stages.sketches import grouped_weighted_quantile

    rng = np.random.RandomState(9)
    n = 300
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=n),
        "v": rng.randint(-50, 50, size=n).astype(np.int64),
        "w": rng.randint(1, 6, size=n).astype(np.int64),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    for q_num, q_den in [(1, 2), (1, 4), (9, 10)]:
        got = grouped_weighted_quantile(ds, "g", "v", "w",
                                        q_num=q_num, q_den=q_den) \
            .to_pandas().set_index("g")["v"]
        for g, grp in df.groupby("g"):
            grp = grp.sort_values("v")
            pair = grp.groupby("v")["w"].sum()
            cum = pair.cumsum()
            tot = int(cum.iloc[-1])
            want = pair.index[(cum * q_den >= q_num * tot)][0]
            assert got[g] == want, (g, q_num, q_den)


def test_kmv_quantile_sketch_rank_error_and_small_group_exactness():
    """Bottom-k quantile sketch: exact when the group fits in k; rank
    error within 5 points (3 sigma at k=1024) on a 20k-row skewed
    group."""
    import numpy as np

    from knowledge_graph_ray.stages.sketches import grouped_kmv_quantiles

    rng = np.random.RandomState(7)
    small_vals = np.sort(rng.lognormal(3.0, 1.0, 100))
    big_vals = rng.lognormal(3.0, 1.5, 20_000)
    df = pd.DataFrame({
        "g": ["small"] * 100 + ["big"] * 20_000,
        "rid": np.arange(20_100, dtype=np.int64),
        "v": np.concatenate([small_vals, big_vals]),
    })
    out = grouped_kmv_quantiles(
        rd.from_pandas(df).repartition(8), "g", "rid", "v",
        qs=[0.5, 0.9], k=1024,
    ).to_pandas()
    assert len(out) == 4
    for _, r in out.iterrows():
        grp = df[df["g"] == r["g"]]["v"].to_numpy()
        if r["g"] == "small":
            # complete sample -> exact discrete quantile
            idx = max(int(np.ceil(r["q"] * len(grp))) - 1, 0)
            assert r["est"] == np.sort(grp)[idx], r
        else:
            rank = (grp <= r["est"]).mean()
            assert abs(rank - r["q"]) < 0.05, (r["q"], rank)


def test_exact_kth_value_bracket_path_matches_numpy():
    """Selection with a tight bracket_cap so the sample-guided two-pass
    path (not the small-data collect) is what's exercised."""
    import numpy as np

    from knowledge_graph_ray.stages.sketches import exact_kth_value

    rng = np.random.RandomState(11)
    vals = rng.randint(-10**9, 10**9, 60_000).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    srt = np.sort(vals)
    for k in [1, 7, 30_000, 59_999, 60_000]:
        got = exact_kth_value(ds, "v", k, sample_k=2048, bracket_cap=5_000)
        assert got == srt[k - 1], (k, got, srt[k - 1])

    # heavy duplication still selects exactly
    dup = np.repeat(np.arange(50, dtype=np.int64), 1200)
    dds = rd.from_pandas(pd.DataFrame({"v": dup})).repartition(4)
    assert exact_kth_value(dds, "v", 30_000, sample_k=1024,
                           bracket_cap=5_000) == np.sort(dup)[29_999]

def test_joins_with_list_payload_take_pandas_body():
    """Acero rejects nested non-key fields; the type guard must route
    list-payload buckets/batches through the pandas body instead of
    crashing (regression: resolve_claims carries list<string> sources)."""
    from knowledge_graph_ray.functions.joins import hash_join, size_adaptive_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 2], type=pa.int64()),
        "tags": pa.array([["a"], ["b", "c"], [], ["d"]],
                         type=pa.large_list(pa.large_string())),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 4], type=pa.int64()),
        "w": pa.array([20, 30, 40], type=pa.int64()),
    }))

    def norm(df):
        df = df.copy()
        df["tags"] = df["tags"].map(lambda v: ",".join(v))
        return df.sort_values(["k", "tags"]).reset_index(drop=True)

    for how in ("inner", "left_outer"):
        got_h = norm(hash_join(left, right, on=["k"], how=how).to_pandas())
        got_b = norm(size_adaptive_join(left, right, on=["k"], how=how)
                     .to_pandas())
        exp_rows = {"inner": 3, "left_outer": 4}[how]
        assert len(got_h) == exp_rows and len(got_b) == exp_rows
        pd.testing.assert_frame_equal(got_h, got_b, check_dtype=False)
        assert got_h[got_h.k == 2].tags.tolist() == ["b,c", "d"]


def _brute_jaccard_pairs(df, ngram, threshold):
    sets = {str(r.doc_id): dedup._shingles(r.text, ngram) for r in df.itertuples()}
    ids = sorted(sets)
    out = set()
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            sx, sy = sets[ids[x]], sets[ids[y]]
            if not sx or not sy:
                continue
            ni = len(sx & sy)
            nu = len(sx | sy)
            if nu and ni / nu >= threshold:
                out.add((ids[x], ids[y], ni, nu))
    return out


def _ppjoin_corpus():
    rng = np.random.RandomState(42)
    vocab = [f"w{i}" for i in range(40)]
    rows = []
    for i in range(200):
        n = rng.randint(5, 40)
        rows.append({"doc_id": f"d{i:04d}", "text": " ".join(rng.choice(vocab, n))})
    for i in range(20):  # planted near-dups (one token swapped)
        base = rows[i]["text"].split()
        base[rng.randint(0, len(base))] = "w0"
        rows.append({"doc_id": f"p{i:04d}", "text": " ".join(base)})
    rows.append({"doc_id": "dupX", "text": rows[5]["text"]})  # exact dup
    rows.append({"doc_id": "emptyX", "text": ""})
    return pd.DataFrame(rows)


def test_prefix_filter_jaccard_matches_bruteforce():
    """Global exact set-similarity self-join (PPJoin-style prefix filter)
    vs an all-pairs brute force: exact pair set, counts, and no duplicate
    emissions, across thresholds/ngrams incl. the t=1.0 edge."""
    df = _ppjoin_corpus()
    ds = rd.from_pandas(df).repartition(4)
    for threshold, ngram in ((0.5, 3), (0.3, 2), (1.0, 2)):
        got = dedup.prefix_filter_jaccard_pairs(
            ds, threshold=threshold, ngram=ngram
        ).to_pandas()
        gset = set(zip(got.a, got.b, got.n_inter, got.n_union))
        assert len(got) == len(gset), "duplicate pair emitted"
        assert gset == _brute_jaccard_pairs(df, ngram, threshold)


def test_prefix_filter_jaccard_regimes_agree():
    """The partitioned-verify (hash_join) regime and the crc-only order
    fallback both produce the broadcast regime's exact result."""
    df = _ppjoin_corpus()
    ds = rd.from_pandas(df).repartition(4)
    expected = _brute_jaccard_pairs(df, 3, 0.5)
    joined = dedup.prefix_filter_jaccard_pairs(
        ds, threshold=0.5, ngram=3, sets_broadcast_max=0
    ).to_pandas()
    assert set(zip(joined.a, joined.b, joined.n_inter, joined.n_union)) == expected
    crc_order = dedup.prefix_filter_jaccard_pairs(
        ds, threshold=0.5, ngram=3, vocab_broadcast_max=0
    ).to_pandas()
    assert set(zip(crc_order.a, crc_order.b, crc_order.n_inter,
                   crc_order.n_union)) == expected


def test_prefix_filter_jaccard_empty_and_no_match():
    # Dataset-level schema is the stable contract (Ray 2.49's to_pandas
    # drops columns for any fully-empty dataset, repo-wide quirk)
    cols = ["a", "b", "jaccard", "n_inter", "n_union"]
    df = _ppjoin_corpus()
    empty = dedup.prefix_filter_jaccard_pairs(
        rd.from_pandas(df.head(0)), threshold=0.5
    )
    assert empty.schema().names == cols
    assert empty.count() == 0
    # all-texts-empty input: freq table is empty, stable schema holds
    blank = pd.DataFrame({"doc_id": ["x", "y"], "text": ["", ""]})
    out = dedup.prefix_filter_jaccard_pairs(rd.from_pandas(blank),
                                            threshold=0.5)
    assert out.schema().names == cols
    assert out.count() == 0


def _clustered_vectors(n_clusters=16, per=40, dim=64, seed=3):
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_clusters, dim) * 3
    rows = []
    for c in range(n_clusters):
        pts = centers[c] + rng.randn(per, dim) * 0.3
        for i, p in enumerate(pts):
            rows.append({"vec_id": c * per + i, "embedding": p.tolist()})
    return pd.DataFrame(rows)


def test_pq_encode_decode_and_topk_recall():
    """PQ codebooks quantize clustered vectors well enough that ADC
    top-k recovers the brute-force top-k (clustered data; the random
    driver embeddings are gated separately at a recall floor)."""
    df = _clustered_vectors()
    ds = rd.from_pandas(df).repartition(4)
    books = similarity.pq_train(ds, m=8, nbits=6, sample=640, seed=6969)
    assert books.shape == (8, 64, 8)
    codes = similarity.pq_encode(ds, books).to_pandas()
    assert len(codes) == len(df)
    assert all(len(c) == 8 for c in codes.pq_code)

    q = np.asarray(df.embedding.iloc[0], dtype=np.float64)[None, :]
    exact = similarity.brute_force_topk(ds, q, k=10).to_pandas()
    # ADC is a SHORTLIST stage (fine within-cluster ranking needs the
    # exact rerank): the top-40 shortlist must contain the true top-10
    shortlist = similarity.pq_topk(
        rd.from_pandas(codes), books, q, k=40
    ).to_pandas()
    overlap = len(set(exact.vec_id) & set(shortlist.vec_id))
    assert overlap >= 9, f"PQ shortlist recall too low: {overlap}/10"
    # and the whole query cluster should dominate the shortlist
    in_cluster = sum(1 for v in shortlist.vec_id if int(v) < 40)
    assert in_cluster >= 30


def test_pq_encode_deterministic():
    df = _clustered_vectors(n_clusters=4, per=10)
    ds = rd.from_pandas(df)
    books = similarity.pq_train(ds, m=4, nbits=4, seed=6969)
    c1 = similarity.pq_encode(ds, books).to_pandas().sort_values("vec_id")
    c2 = similarity.pq_encode(ds, books).to_pandas().sort_values("vec_id")
    assert [list(x) for x in c1.pq_code] == [list(x) for x in c2.pq_code]


def test_count_min_sketch_properties():
    """CMS never undercounts; distributed tree-fold merge equals one
    sequential sketch; estimates stay in the (e/w)*N envelope on a
    skewed stream."""
    from knowledge_graph_ray.stages.sketches import CountMinSketch, cms_sketch

    rng = np.random.RandomState(1)
    zipf = np.clip(rng.zipf(1.5, 20000), 1, 500)
    vals = pd.Series([f"k{v}" for v in zipf])
    seq = CountMinSketch(d=4, w=1024, seed=6969)
    seq.add_many(vals)
    truth = vals.value_counts()
    keys = pd.Series(truth.index)
    est = seq.query_many(keys)
    exact = truth.to_numpy()
    assert (est >= exact).all()
    # the (e/w)*N envelope holds per query with prob >= 1 - e^-d, not
    # for every key simultaneously: assert the 95th percentile and the
    # heavy head (which the driver gate relies on)
    within = est <= exact + np.ceil(np.e / 1024 * len(vals))
    assert within.mean() >= 0.95
    assert within[:10].all(), "a top-10 heavy key blew the envelope"

    # distributed fold over blocks == sequential
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    folded = cms_sketch(ds, "v", d=4, w=1024, seed=6969)
    assert np.array_equal(folded.table, seq.table)
    assert np.array_equal(folded.query_many(keys), est)


def test_ivfpq_topk_shortlist():
    """The IVF+PQ stack finds the query cluster without reading floats:
    coarse probes restrict the scan, ADC ranks codes; shortlist covers
    the brute-force top-10 on clustered data."""
    df = _clustered_vectors()
    ds = rd.from_pandas(df).repartition(4)
    cents = similarity.train_centroids(ds, num_centroids=16, sample=640,
                                       seed=6969)
    books = similarity.pq_train(ds, m=8, nbits=6, sample=640, seed=6969)
    codes = similarity.pq_encode(similarity.ivf_assign(ds, cents), books,
                                 keep_cols=["ivf_bucket"])
    q = np.asarray(df.embedding.iloc[0], dtype=np.float64)[None, :]
    exact = similarity.brute_force_topk(ds, q, k=10).to_pandas()
    short = similarity.ivfpq_topk(codes, books, cents, q,
                                  k=40, nprobe=4).to_pandas()
    overlap = len(set(exact.vec_id) & set(short.vec_id))
    assert overlap >= 8, f"IVF+PQ shortlist recall too low: {overlap}/10"


def test_mutual_nn_pairs_matches_brute_force():
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    pdf = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    mat = np.asarray([np.asarray(v, np.float64) for v in pdf.embedding])
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ids = pdf.vec_id.to_numpy()
    order = np.argsort(ids)
    unit, ids = unit[order], ids[order]
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    nn = np.argmax(sims, axis=1)              # first max = lowest id
    want = sorted(
        (int(ids[p]), int(ids[q])) for p, q in enumerate(nn)
        if nn[q] == p and p < q
    )
    got = similarity.mutual_nn_pairs(emb).to_pandas()
    assert sorted(zip(got.a.astype(int), got.b.astype(int))) == want
    assert len(want) > 0


def test_mutual_nn_pairs_hand_graph_and_degenerate():
    # v0/v1 point the same way (mutual); v2 nearer v0 than v3 is to it
    vecs = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.5]]
    t = pa.table({
        "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    })
    got = similarity.mutual_nn_pairs(rd.from_arrow(t)).to_pandas()
    assert sorted(zip(got.a.astype(int), got.b.astype(int))) == [(0, 1), (2, 3)]

    one = rd.from_arrow(t.slice(0, 1))
    assert similarity.mutual_nn_pairs(one).count() == 0
    with pytest.raises(ValueError, match="broadcast_max"):
        similarity.mutual_nn_pairs(rd.from_arrow(t), broadcast_max=2)


def test_mutual_nn_ivf_full_probe_equals_brute():
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = similarity.mutual_nn_pairs(emb).to_pandas()
    ep = sorted(zip(exact.a.astype(int), exact.b.astype(int)))
    full = similarity.mutual_nn_pairs_ivf(emb, num_centroids=8,
                                          nprobe=8).to_pandas()
    assert sorted(zip(full.a.astype(int), full.b.astype(int))) == ep


def test_mutual_nn_ivf_partial_probe_recall_floor():
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = similarity.mutual_nn_pairs(emb).to_pandas()
    ep = set(zip(exact.a.astype(int), exact.b.astype(int)))
    approx = similarity.mutual_nn_pairs_ivf(emb, num_centroids=8,
                                            nprobe=4).to_pandas()
    ap = set(zip(approx.a.astype(int), approx.b.astype(int)))
    # restricted scans both MISS true pairs and MINT pairs mutual only
    # within their probe sets — gate both directions, deterministic run
    assert len(ap & ep) / len(ep) >= 0.7              # recall (0.787)
    assert len(ap & ep) / len(ap) >= 0.7              # precision


def test_mutual_nn_ivf_auto_centroids_sqrt_n():
    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = similarity.mutual_nn_pairs(emb).to_pandas()
    ep = sorted(zip(exact.a.astype(int), exact.b.astype(int)))
    # auto: sqrt(500) ~ 22 centroids; nprobe clamps to the codebook, so
    # a large value = full probe coverage = exact
    auto = similarity.mutual_nn_pairs_ivf(emb, num_centroids=None,
                                          nprobe=64).to_pandas()
    assert sorted(zip(auto.a.astype(int), auto.b.astype(int))) == ep
