"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
with ``ray.put`` and read in every map_batches task (never re-shipped per
batch); each batch computes a numpy matmul against the broadcast matrix
and emits its LOCAL top-k per query, then the driver merges the local
top-ks (at most num_queries * k rows per block, independent of corpus
size) into the global top-k, with no exchange.

Scale paths: IVF — a coarse centroid codebook (seeded kmeans-lite
trained on a sample) assigns every vector to its nearest centroid in one
pass; queries probe only the ``nprobe`` nearest centroid buckets.  The
assignment column also serves as the bucket key for
dedup.embedding_near_dup_pairs.  And sign-LSH — training-free random
hyperplane buckets with margin-ordered multiprobe (lsh_assign/lsh_topk);
both share one probe-scan kernel (_probe_topk).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _as_matrix(vectors) -> np.ndarray:
    return np.asarray([np.asarray(v, dtype=np.float64) for v in vectors])


def _column_matrix(col) -> np.ndarray:
    """Arrow list<float> column -> (n, dim) float64 matrix WITHOUT the
    per-row Python conversion: when the lists are non-null and
    uniform-width (the embedding contract) the child values buffer
    reshapes zero-copy(+one cast); otherwise falls back to the per-row
    path.  This is the batch-side hot path of every vector operator
    (brute/IVF/LSH top-k, k-means fit/assign)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr.type, pa.ExtensionType):
        # Ray tensor extension arrays: to_numpy is already (n, dim)
        m = arr.to_numpy(zero_copy_only=False)
        if m.dtype != object:
            return np.ascontiguousarray(m, dtype=np.float64)
        return _as_matrix(m)
    if arr.null_count == 0 and len(arr):
        vals = np.asarray(arr.flatten())
        if vals.dtype != np.float64:
            vals = vals.astype(np.float64)
        if len(vals) % len(arr) == 0:
            dim = len(vals) // len(arr)
            if pa.types.is_fixed_size_list(arr.type):
                return vals.reshape(len(arr), dim)
            offs = np.asarray(arr.offsets, dtype=np.int64)
            if (np.diff(offs) == dim).all():
                return vals.reshape(len(arr), dim)
    return _as_matrix(arr.to_pylist())


def _id_sort_key(ids: list[str]) -> np.ndarray:
    """Numeric tie-break key when every id parses as an int (matches the
    SQL oracle's integer ORDER BY); lexicographic fallback otherwise.
    String sort would rank '10' < '2' and diverge from the oracle on
    cosine ties."""
    try:
        return np.asarray([int(s) for s in ids], dtype=np.int64)
    except ValueError:
        return np.asarray(ids)


def _tie_break_frame(group: pd.DataFrame) -> pd.Series:
    try:
        return group["vec_id"].astype(np.int64)
    except (ValueError, TypeError):
        return group["vec_id"]


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


_LOCAL_TOPK_SCHEMA = pa.schema([("query_id", pa.int64()),
                                ("vec_id", pa.string()),
                                ("cosine", pa.float64())])
_TOPK_SCHEMA = _LOCAL_TOPK_SCHEMA.append(pa.field("rk", pa.int64()))


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     vec_column: str = "embedding", id_column: str = "vec_id"):
    """-> Dataset[(query_id, vec_id, cosine, rk)] — global top-k per query.

    ``queries``: (Q, dim) array.  Broadcast via ray.put once.
    """
    import ray

    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q_unit)

    # task pool, not actor pool: ray.get of the broadcast matrix is
    # node-local cached, and a fresh actor pool costs ~2-4s startup
    def local_topk_batch(batch: pa.Table) -> pa.Table:
            q = ray.get(q_ref)
            ids = [str(i) for i in batch.column(id_column).to_pylist()]
            id_key = _id_sort_key(ids)
            mat = _unit(_column_matrix(batch.column(vec_column)))
            sims = q @ mat.T  # (Q, B)
            take = min(k, sims.shape[1])
            rows = []
            for qi in range(sims.shape[0]):
                # exact (-cosine, id) order so boundary ties keep the same
                # members the oracle would
                order = np.lexsort((id_key, -sims[qi]))[:take]
                for j in order:
                    rows.append(
                        {
                            "query_id": qi,
                            "vec_id": ids[j],
                            "cosine": float(sims[qi, j]),
                        }
                    )
            return pa.Table.from_pylist(rows, schema=_LOCAL_TOPK_SCHEMA)

    from knowledge_graph_ray.functions.grouping import (
        driver_arrow_table,
        driver_dataset,
    )

    local = ds.map_batches(local_topk_batch, batch_format="pyarrow",
                           batch_size=4096).materialize()
    # at most Q*k rows per block: merge them on the driver, not through
    # a groupby exchange
    table = driver_arrow_table(local)
    if table is None:
        return driver_dataset(_TOPK_SCHEMA.empty_table())
    qid = table.column("query_id").to_numpy()
    order = np.lexsort((_id_sort_key(table.column("vec_id").to_pylist()),
                        -table.column("cosine").to_numpy(), qid))
    qid = qid[order]
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    rk = np.arange(1, len(qid) + 1) - np.repeat(
        starts, np.diff(np.r_[starts, len(qid)]))
    keep = rk <= k
    top = table.take(order[keep]).append_column(
        "rk", pa.array(rk[keep], type=pa.int64()))
    return driver_dataset(top.combine_chunks())


def train_centroids(ds, num_centroids: int = 16, sample: int = 2048,
                    iters: int = 5, seed: int = 6969,
                    vec_column: str = "embedding") -> np.ndarray:
    """Seeded kmeans-lite on a driver-side sample (codebooks are tiny;
    the sample is bounded, not the corpus)."""
    frac = 1.0
    cnt = ds.count()
    if cnt > sample:
        frac = sample / cnt
    sampled = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    mat = _unit(_as_matrix(sampled.to_pandas()[vec_column]))
    rng = np.random.RandomState(seed)
    cents = mat[rng.choice(len(mat), size=min(num_centroids, len(mat)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(len(cents)):
            members = mat[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _unit(cents)
    return cents


def ivf_assign(ds, centroids: np.ndarray, vec_column: str = "embedding"):
    """Add an ``ivf_bucket`` column = nearest centroid (broadcast codebook)."""
    import ray

    c_ref = ray.put(_unit(np.asarray(centroids, dtype=np.float64)))

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)  # node-local cached
        mat = _unit(_column_matrix(batch.column(vec_column)))
        bucket = np.argmax(mat @ c.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(bucket, type=pa.int32()))

    return ds.map_batches(assign_batch, batch_format="pyarrow", batch_size=4096)


def ivf_topk(ds_assigned, centroids: np.ndarray, queries: np.ndarray,
             k: int = 10, nprobe: int = 4,
             vec_column: str = "embedding", id_column: str = "vec_id"):
    """Approximate top-k: search only the nprobe nearest buckets per query.

    The bucket filter is a vectorized predicate inside map_batches (rows
    outside every probed bucket are dropped at the scan), then the same
    local-topk + merge as the brute-force path.
    """
    q = _unit(np.asarray(queries, dtype=np.float64))
    c = _unit(np.asarray(centroids, dtype=np.float64))
    probes = np.argsort(-(q @ c.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    probe_sets = [set(int(b) for b in row) for row in probes]
    return _probe_topk(ds_assigned, "ivf_bucket", probe_sets, q, k,
                       vec_column, id_column)


def _probe_topk(ds_assigned, bucket_col: str, probe_sets: list,
                q: np.ndarray, k: int,
                vec_column: str = "embedding", id_column: str = "vec_id"):
    """Shared bucketed-ANN scan (IVF and LSH): drop rows outside every
    probed bucket at the scan, local top-k per batch restricted to each
    query's probe set, one small merge per query."""
    wanted = sorted({int(b) for s in probe_sets for b in s})
    filtered = ds_assigned.map_batches(
        lambda t: t.filter(pa.compute.is_in(t.column(bucket_col),
                                            value_set=pa.array(wanted, type=pa.int32()))),
        batch_format="pyarrow",
    )
    import ray

    q_ref = ray.put(q)
    probe_ref = ray.put(probe_sets)

    def local_topk_batch(batch: pa.Table) -> pa.Table:
        q_m = ray.get(q_ref)
        probe_s = ray.get(probe_ref)
        ids = [str(i) for i in batch.column(id_column).to_pylist()]
        id_key = _id_sort_key(ids)
        buckets = batch.column(bucket_col).to_pylist()
        mat = _unit(_column_matrix(batch.column(vec_column)))
        sims = q_m @ mat.T
        rows = []
        for qi in range(sims.shape[0]):
            allowed = probe_s[qi]
            order = np.lexsort((id_key, -sims[qi]))
            taken = 0
            for j in order:
                if buckets[j] in allowed:
                    rows.append({"query_id": qi, "vec_id": ids[j],
                                 "cosine": float(sims[qi, j])})
                    taken += 1
                    if taken >= k:
                        break
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("query_id", pa.int64()), ("vec_id", pa.string()),
                 ("cosine", pa.float64())]
            ),
        )

    local = filtered.map_batches(local_topk_batch, batch_format="pyarrow",
                                 batch_size=4096)

    def merge_topk(group: pd.DataFrame) -> pa.Table:
        top = (
            group.assign(_tb=_tie_break_frame(group))
            .sort_values(["cosine", "_tb"], ascending=[False, True])
            .drop(columns=["_tb"])
            .head(k)
        )
        top = top.assign(rk=np.arange(1, len(top) + 1))
        return pa.Table.from_pandas(top, preserve_index=False)

    return local.groupby("query_id").map_groups(merge_topk, batch_format="pandas")


def lsh_planes(dim: int, n_bits: int = 4, seed: int = 6969) -> np.ndarray:
    """Seeded random hyperplanes for sign-LSH: (n_bits, dim) gaussian
    rows.  Unlike the IVF codebook this needs NO training pass over the
    data — the planes are a pure function of (dim, seed), so every
    worker can regenerate them and incremental corpora bucket
    consistently forever (the classic LSH operational advantage)."""
    rng = np.random.RandomState(seed)
    return rng.standard_normal((n_bits, dim))


def lsh_assign(ds, planes: np.ndarray, vec_column: str = "embedding",
               bucket_col: str = "lsh_bucket"):
    """Add a sign-LSH bucket column: bit i of the bucket id is
    ``sign(v . plane_i)`` — one broadcast matmul per batch, int32
    buckets in [0, 2^n_bits)."""
    import ray

    p_ref = ray.put(np.asarray(planes, dtype=np.float64))

    def assign_batch(batch: pa.Table) -> pa.Table:
        p = ray.get(p_ref)  # node-local cached
        mat = _column_matrix(batch.column(vec_column))
        bits = (mat @ p.T) >= 0  # (B, n_bits)
        bucket = (bits << np.arange(p.shape[0])).sum(axis=1).astype(np.int32)
        return batch.append_column(bucket_col,
                                   pa.array(bucket, type=pa.int32()))

    return ds.map_batches(assign_batch, batch_format="pyarrow",
                          batch_size=4096)


def lsh_probe_sets(queries: np.ndarray, planes: np.ndarray,
                   nprobe: int = 4) -> list:
    """Multiprobe bucket sets per query: rank ALL bit-flip masks by the
    summed |margin| of the flipped hyperplanes (flipping a plane the
    query barely cleared is cheap; flipping a decisive one is
    expensive) and take the ``nprobe`` cheapest — the standard
    multiprobe-LSH perturbation order.  Enumerates 2^n_bits masks, so
    n_bits must stay small (<= 16); bucketed ANN wants few, fat buckets
    anyway."""
    p = np.asarray(planes, dtype=np.float64)
    n_bits = p.shape[0]
    assert n_bits <= 16, "enumerated multiprobe needs n_bits <= 16"
    q = np.asarray(queries, dtype=np.float64)
    margins = np.abs(q @ p.T)  # (Q, n_bits)
    bits = (q @ p.T) >= 0
    base = (bits << np.arange(n_bits)).sum(axis=1).astype(np.int64)
    masks = np.arange(2 ** n_bits, dtype=np.int64)
    # cost[mask] per query = sum of margins of the set bits in mask
    mask_bits = ((masks[:, None] >> np.arange(n_bits)) & 1).astype(bool)
    sets = []
    for qi in range(len(q)):
        costs = mask_bits @ margins[qi]
        order = np.argsort(costs, kind="stable")[:nprobe]
        sets.append({int(base[qi] ^ masks[m]) for m in order})
    return sets


def lsh_topk(ds_assigned, planes: np.ndarray, queries: np.ndarray,
             k: int = 10, nprobe: int = 4,
             vec_column: str = "embedding", id_column: str = "vec_id"):
    """Approximate top-k over sign-LSH buckets (the LSH-bucketed ANN
    variant next to IVF): multiprobe the ``nprobe`` cheapest bit-flip
    buckets per query, then the shared probe-scan + merge."""
    q = _unit(np.asarray(queries, dtype=np.float64))
    probe_sets = lsh_probe_sets(q, planes, nprobe=nprobe)
    return _probe_topk(ds_assigned, "lsh_bucket", probe_sets, q, k,
                       vec_column, id_column)


def vector_centroids(ds, group_col: str = "label",
                     vec_column: str = "embedding",
                     out_col: str = "centroid",
                     num_buckets: int = 16):
    """Per-group elementwise mean of a ``list<float>`` embedding column
    — the centroid computation behind IVF codebooks, class prototypes
    and k-means steps, as a proper combiner aggregate.

    Per batch: stack the vectors once and reduce to (groups-in-batch x
    dim) partial SUMS + counts with one vectorized pandas groupby — the
    shuffle then moves groups x batches partial rows of dim floats, not
    input vectors.  One bucket merge adds the partial matrices and
    divides.  Output: group_col + ``out_col`` (list<float64>) +
    ``n_vectors``.
    """
    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                group_col: b.column(group_col),
                "__sum": pa.array([], type=pa.list_(pa.float64())),
                "__n": pa.array([], type=pa.int64()),
            })
        df = b.select([group_col, vec_column]).to_pandas()
        mat = np.stack(
            [np.asarray(v, dtype=np.float64) for v in df[vec_column]]
        )
        sums = pd.DataFrame(mat).groupby(df[group_col], sort=False,
                                         dropna=False).sum()
        counts = df.groupby(df[group_col], sort=False,
                            dropna=False).size().reindex(sums.index)
        flat = sums.to_numpy().ravel()
        dim = mat.shape[1]
        return pa.table({
            group_col: pa.Array.from_pandas(sums.index.to_series()),
            "__sum": pa.FixedSizeListArray.from_arrays(
                pa.array(flat, type=pa.float64()), dim).cast(
                    pa.list_(pa.float64())),
            "__n": pa.array(counts.to_numpy(), type=pa.int64()),
        })

    partials = ds.select_columns([group_col, vec_column]).map_batches(
        partial, batch_format="pyarrow"
    )

    def merge(g: pd.DataFrame) -> pa.Table:
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in g["__sum"]])
        sums = pd.DataFrame(mat).groupby(g[group_col], sort=False,
                                         dropna=False).sum()
        ns = g.groupby(g[group_col], sort=False,
                       dropna=False)["__n"].sum().reindex(sums.index)
        cent = sums.to_numpy() / ns.to_numpy()[:, None]
        dim = mat.shape[1]
        return pa.table({
            group_col: pa.Array.from_pandas(sums.index.to_series()),
            out_col: pa.FixedSizeListArray.from_arrays(
                pa.array(cent.ravel(), type=pa.float64()), dim).cast(
                    pa.list_(pa.float64())),
            "n_vectors": pa.array(ns.to_numpy(), type=pa.int64()),
        })

    return bucketed_bucket_map(partials, [group_col], merge,
                               num_buckets=num_buckets)


def kmeans_fit(ds, k: int = 8, iters: int = 5, seed: int = 6969,
               vec_column: str = "embedding", sample: int = 2048):
    """Distributed Lloyd's k-means over a ``list<float>`` column —
    full-corpus document clustering (vs ``train_centroids``, which only
    fits a codebook on a bounded sample).

    Init: seeded choice of k distinct vectors from a bounded
    driver-side sample.  Each round then makes ONE streaming pass over
    the corpus: the current centroids broadcast via ``ray.put``, every
    batch assigns its vectors with a single (batch x k) matmul-argmin
    and emits at most k partial rows (sum vector, count, squared
    error); the driver reduce handles (blocks x k) tiny rows — vectors
    never shuffle and the corpus never materializes.  Empty clusters
    keep their previous centroid.  Euclidean geometry (un-normalized),
    so inertia is the standard within-cluster sum of squares.

    Returns ``(centroids (k, dim) float64, inertia_per_iter list)``;
    inertia[i] is measured against the iteration-i input centroids, so
    the sequence is non-increasing (Lloyd's monotonicity).
    """
    import ray

    frac = 1.0
    cnt = ds.count()
    if cnt > sample:
        frac = sample / cnt
    sampled = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    mat0 = _as_matrix(sampled.to_pandas()[vec_column])
    rng = np.random.RandomState(seed)
    k_eff = min(k, len(mat0))
    cents = mat0[rng.choice(len(mat0), size=k_eff, replace=False)].astype(
        np.float64
    )

    inertia_per_iter: list[float] = []
    vecs = ds.select_columns([vec_column])
    for _ in range(iters):
        c_ref = ray.put(cents)

        def partial(batch: pa.Table, _c_ref=c_ref) -> pa.Table:
            c = ray.get(_c_ref)  # node-local zero-copy fetch
            kk, dim = c.shape
            if len(batch) == 0:
                return pa.table({
                    "cluster": pa.array([], type=pa.int32()),
                    "__sum": pa.array([], type=pa.list_(pa.float64())),
                    "__n": pa.array([], type=pa.int64()),
                    "__sqerr": pa.array([], type=pa.float64()),
                })
            mat = _column_matrix(batch.column(vec_column))
            # argmin ||x-c||^2 == argmin(-2 x.c + ||c||^2)
            d2 = -2.0 * (mat @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = np.argmin(d2, axis=1)
            sq = d2[np.arange(len(mat)), assign] + (mat * mat).sum(axis=1)
            sums = np.zeros((kk, dim))
            np.add.at(sums, assign, mat)
            counts = np.bincount(assign, minlength=kk).astype(np.int64)
            errs = np.bincount(assign, weights=sq, minlength=kk)
            present = counts > 0
            idx = np.nonzero(present)[0]
            return pa.table({
                "cluster": pa.array(idx.astype(np.int32)),
                "__sum": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums[present].ravel(), type=pa.float64()), dim
                ).cast(pa.list_(pa.float64())),
                "__n": pa.array(counts[present], type=pa.int64()),
                "__sqerr": pa.array(errs[present], type=pa.float64()),
            })

        pdf = vecs.map_batches(partial, batch_format="pyarrow").to_pandas()
        new_cents = cents.copy()
        total_err = 0.0
        if len(pdf):
            pm = np.stack([np.asarray(v, dtype=np.float64)
                           for v in pdf["__sum"]])
            for c_id, grp in pdf.groupby("cluster", sort=True):
                n = int(grp["__n"].sum())
                if n > 0:
                    new_cents[c_id] = pm[grp.index].sum(axis=0) / n
                total_err += float(grp["__sqerr"].sum())
        inertia_per_iter.append(total_err)
        cents = new_cents
    return cents, inertia_per_iter


def kmeans_assign(ds, centroids: np.ndarray,
                  vec_column: str = "embedding",
                  out_col: str = "cluster"):
    """Add a nearest-centroid (Euclidean argmin) column — the broadcast
    scoring pass of ``kmeans_fit``, reusable on any corpus."""
    import ray

    c_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        mat = _column_matrix(batch.column(vec_column))
        d2 = -2.0 * (mat @ c.T) + (c * c).sum(axis=1)[None, :]
        assign = np.argmin(d2, axis=1).astype(np.int32)
        return batch.append_column(out_col, pa.array(assign, type=pa.int32()))

    return ds.map_batches(assign_batch, batch_format="pyarrow",
                          batch_size=4096)


# ------------------------------------------------- product quantization (PQ)


def pq_train(ds, m: int = 8, nbits: int = 8, sample: int = 4096,
             iters: int = 10, seed: int = 6969,
             vec_column: str = "embedding") -> np.ndarray:
    """Train product-quantization codebooks (Jégou et al. 2011, public
    literature): unit-normalize, split the dimension into ``m``
    subspaces, run seeded L2 k-means with ``2^nbits`` centroids per
    subspace on a bounded driver-side sample (codebooks are tiny; the
    sample is bounded, not the corpus — the train_centroids pattern).

    Returns ``(m, k_eff, dsub)`` float64; ``k_eff = min(2^nbits, n)``
    so zero-padded phantom centroids can never win an argmin."""
    cnt = ds.count()
    frac = sample / cnt if cnt > sample else 1.0
    sampled = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    mat = _unit(_as_matrix(sampled.to_pandas()[vec_column]))
    n, d = mat.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    k_eff = min(1 << nbits, n)
    rng = np.random.RandomState(seed)
    books = np.zeros((m, k_eff, dsub))
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        cents = sub[rng.choice(n, size=k_eff, replace=False)].copy()
        for _ in range(iters):
            d2 = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
            assign = d2.argmin(1)
            for c in range(k_eff):
                members = sub[assign == c]
                if len(members):
                    cents[c] = members.mean(0)
        books[j] = cents
    return books


def pq_encode(ds, codebooks: np.ndarray, vec_column: str = "embedding",
              id_column: str = "vec_id",
              keep_cols: "list[str] | None" = None):
    """-> Dataset[(vec_id, pq_code: list<uint8>) + keep_cols] — each
    unit-normalized vector compressed to ``m`` bytes (argmin-L2 per
    subspace, vectorized via the expanded |x|^2 - 2 x.c + |c|^2 form;
    |x|^2 drops out of the argmin).  32x smaller than raw float32 at
    m=8 over 64 dims — the shape that lets a 100-TB embedding column
    live in cluster memory.  ``keep_cols`` pass through unchanged
    (e.g. an ``ivf_bucket`` column for the IVF+PQ composition)."""
    import ray

    if codebooks.shape[1] > 256:
        raise ValueError("nbits > 8 does not fit the uint8 code layout")
    books_ref = ray.put(np.ascontiguousarray(codebooks))
    passthrough = keep_cols or []

    def encode_batch(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        m, _, dsub = books.shape
        ids = [str(i) for i in batch.column(id_column).to_pylist()]
        mat = _unit(_column_matrix(batch.column(vec_column)))
        n = len(ids)
        codes = np.zeros((n, m), dtype=np.uint8)
        for j in range(m):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            scores = sub @ books[j].T - 0.5 * (books[j] ** 2).sum(1)[None, :]
            codes[:, j] = scores.argmax(1)  # argmin L2 == argmax this form
        offsets = pa.array(np.arange(n + 1, dtype=np.int32) * m)
        cols = {
            "vec_id": pa.array(ids, type=pa.string()),
            "pq_code": pa.ListArray.from_arrays(
                offsets, pa.array(codes.reshape(-1), type=pa.uint8())
            ),
        }
        for c in passthrough:
            cols[c] = batch.column(c)
        return pa.Table.from_pydict(cols)

    return ds.map_batches(encode_batch, batch_format="pyarrow")


def pq_topk(codes_ds, codebooks: np.ndarray, queries: np.ndarray,
            k: int = 10, id_column: str = "vec_id"):
    """ADC (asymmetric distance computation) top-k over PQ codes:
    per query, a ``(m, k_eff)`` inner-product lookup table against the
    broadcast codebooks; each batch scores its codes with m table
    gathers — no float vectors move.  Returns
    ``(query_id, vec_id, adc, rk)``; use it as a shortlist for an exact
    rerank over the shortlisted raw vectors (recall gate pattern)."""
    import ray

    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    m, _, dsub = codebooks.shape
    # lut[q, j, c] = <q_sub_j, codebook[j][c]>; approx cosine = sum_j lut
    lut = np.einsum("qjd,jcd->qjc",
                    q_unit.reshape(len(q_unit), m, dsub), codebooks)
    lut_ref = ray.put(np.ascontiguousarray(lut))

    def local_topk_batch(batch: pa.Table) -> pa.Table:
        tbl = ray.get(lut_ref)
        ids = [str(i) for i in batch.column(id_column).to_pylist()]
        id_key = _id_sort_key(ids)
        col = batch.column("pq_code").combine_chunks()
        if isinstance(col.type, pa.ExtensionType):
            # Ray tensor extension (a pandas round-trip of uniform lists)
            codes = np.asarray(col.to_numpy(zero_copy_only=False))
            codes = np.stack(codes) if codes.dtype == object else codes
        else:
            codes = np.asarray(col.flatten()).reshape(len(ids), m)
        codes = codes.astype(np.int64, copy=False)
        scores = np.zeros((tbl.shape[0], len(ids)))
        for j in range(m):
            scores += tbl[:, j, :][:, codes[:, j]]
        take = min(k, scores.shape[1])
        rows = []
        for qi in range(scores.shape[0]):
            order = np.lexsort((id_key, -scores[qi]))[:take]
            for i in order:
                rows.append({"query_id": qi, "vec_id": ids[i],
                             "adc": float(scores[qi, i])})
        return pa.Table.from_pylist(rows, schema=pa.schema(
            [("query_id", pa.int64()), ("vec_id", pa.string()),
             ("adc", pa.float64())]
        ))

    local = codes_ds.map_batches(local_topk_batch, batch_format="pyarrow",
                                 batch_size=4096)

    def merge_topk(group: pd.DataFrame) -> pa.Table:
        top = (
            group.assign(_tb=_tie_break_frame(group))
            .sort_values(["adc", "_tb"], ascending=[False, True])
            .drop(columns=["_tb"])
            .head(k)
        )
        top = top.assign(rk=np.arange(1, len(top) + 1))
        return pa.Table.from_pandas(top, preserve_index=False)

    return local.groupby("query_id").map_groups(merge_topk,
                                                batch_format="pandas")


def ivfpq_topk(codes_assigned, codebooks: np.ndarray,
               centroids: np.ndarray, queries: np.ndarray,
               k: int = 10, nprobe: int = 4,
               id_column: str = "vec_id"):
    """The production ANN stack (IVF + PQ): restrict the scan to each
    query's ``nprobe`` nearest IVF buckets, then rank the surviving
    8-byte PQ codes by ADC — no float vector is read anywhere in the
    search path.  ``codes_assigned`` is ``pq_encode(ivf_assign(...),
    keep_cols=["ivf_bucket"])``.  Returns (query_id, vec_id, adc, rk)
    shortlists for exact rerank."""
    q = _unit(np.asarray(queries, dtype=np.float64))
    c = _unit(np.asarray(centroids, dtype=np.float64))
    probes = np.argsort(-(q @ c.T), axis=1)[:, :nprobe]
    wanted = sorted({int(b) for row in probes for b in row})
    filtered = codes_assigned.map_batches(
        lambda t: t.filter(pa.compute.is_in(
            t.column("ivf_bucket"),
            value_set=pa.array(wanted, type=pa.int32()),
        )),
        batch_format="pyarrow",
    )
    # NOTE: with multiple queries this ranks every query against the
    # UNION of probed buckets; exactness of the shortlist-then-rerank
    # contract is unaffected (a superset scan only raises recall)
    return pq_topk(filtered, codebooks, queries, k=k, id_column=id_column)


def mutual_nn_pairs(ds, vec_column: str = "embedding",
                    id_column: str = "vec_id",
                    broadcast_max: int = 1_000_000):
    """Dataset[{a, b}] — pairs of vectors that are each other's single
    nearest neighbor by cosine (mutual-NN), the high-precision seed of
    embedding near-dup mining and mutual-kNN graph clustering.  Ties
    break to the lowest id (the oracle's ORDER BY c DESC, id).

    Baseline brute path: the id-sorted unit matrix broadcasts once
    (ray.put; ``broadcast_max`` caps rows with a raise, the same
    contract as triangle_count's degree table) and each batch computes
    its rows' argmax neighbor in one matmul — the id-sorted layout
    makes np.argmax's first-max rule IS the lowest-id tie-break.  The
    (position, neighbor) table (2 int64s per vector) then mutual-checks
    itself with one semi hash-join; pairs reach the driver only when
    few enough for the join's driver regime.  The
    100-TB path replaces the broadcast with IVF bucketing (ivf_assign)
    and runs the same per-bucket argmax + global semi-join.
    """
    import ray

    from knowledge_graph_ray.functions.joins import hash_join, project

    full = ds.select_columns([id_column, vec_column]) \
        .limit(broadcast_max + 1).to_pandas()
    if len(full) > broadcast_max:
        raise ValueError(
            "mutual_nn_pairs: vector count exceeds broadcast_max; "
            "use the IVF-bucketed path (ivf_assign + per-bucket argmax)"
        )
    if len(full) < 2:
        import ray.data as rd

        return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                       "b": pa.array([], pa.int64())}))
    ids_raw = [str(i) for i in full[id_column]]
    order = np.argsort(_id_sort_key(ids_raw), kind="stable")
    ids_sorted = full[id_column].to_numpy()[order]
    mat = _unit(_as_matrix(full[vec_column].to_numpy()[order]))
    sort_key_sorted = _id_sort_key([str(i) for i in ids_sorted])
    mat_ref = ray.put((sort_key_sorted, mat))
    ids_ref = ray.put(ids_sorted)

    def nn_batch(batch: pa.Table) -> pa.Table:
        keys, m = ray.get(mat_ref)
        bm = _unit(_column_matrix(batch.column(vec_column)))
        bkeys = _id_sort_key(
            [str(i) for i in batch.column(id_column).to_pylist()])
        pos = np.searchsorted(keys, bkeys)
        brange = np.arange(len(pos))
        # tile the scan over the broadcast matrix so the sims buffer
        # stays ~128 MB however many vectors are broadcast (a single
        # (B, N) matrix is 6.5 GB per task at N=200k, B=4096 — the
        # 200k scale check caught exactly that); ascending-id tiles +
        # strict > keep argmax's first-max (= lowest-id) tie-break
        tile = max(1, (16 << 20) // max(len(pos), 1))
        best = np.full(len(pos), -np.inf)
        nn = np.zeros(len(pos), np.int64)
        for c0 in range(0, m.shape[0], tile):
            c1 = min(c0 + tile, m.shape[0])
            sims = bm @ m[c0:c1].T            # (B, tile)
            inside = (pos >= c0) & (pos < c1)
            sims[brange[inside], pos[inside] - c0] = -np.inf
            loc = np.argmax(sims, axis=1)
            val = sims[brange, loc]
            upd = val > best
            best[upd] = val[upd]
            nn[upd] = loc[upd] + c0
        return pa.table({"p": pa.array(pos.astype(np.int64)),
                         "q": pa.array(nn)})

    nn = ds.map_batches(nn_batch, batch_format="pyarrow",
                        batch_size=4096).materialize()
    mutual = hash_join(nn, project(nn, {"p": "q", "q": "p"}),
                       on=["p", "q"], how="left_semi") \
        .filter(expr="p < q")

    def back(t: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        return pa.table({
            "a": pa.array(ids[t.column("p").to_numpy()]),
            "b": pa.array(ids[t.column("q").to_numpy()]),
        })

    return mutual.map_batches(back, batch_format="pyarrow")


def mutual_nn_pairs_ivf(ds, num_centroids: "int | None" = 16,
                        nprobe: int = 4,
                        sample: int = 2048, seed: int = 6969,
                        vec_column: str = "embedding",
                        id_column: str = "vec_id",
                        num_buckets: int = 32):
    """Bucketed (IVF) mutual-NN — the 100-TB path of mutual_nn_pairs:
    NO broadcast of the corpus matrix.  Each vector's candidate scan is
    restricted to its ``nprobe`` nearest IVF buckets; with nprobe >=
    num_centroids every pair is scanned and the result is exactly the
    brute path's, below that it is the standard IVF recall tradeoff.

    Pipeline: centroids train on a bounded driver sample (tiny); one
    map_batches duplicates each vector into its probe buckets as a
    query row and into its own bucket as a candidate row (vectors ship
    nprobe+1 times — the only data amplification); ONE bucket shuffle
    whose body runs a queries x candidates matmul and emits per-query
    partial bests; one qid shuffle takes the global best by
    (cosine desc, id asc); one semi hash-join checks mutuality.
    """
    import ray

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map
    from knowledge_graph_ray.functions.joins import hash_join, project

    n = ds.count()
    if n < 2:
        import ray.data as rd

        return rd.from_arrow(pa.table({"a": pa.array([], pa.string()),
                                       "b": pa.array([], pa.string())}))
    if num_centroids is None:
        # sqrt(n) keeps per-bucket candidate sets ~sqrt(n)-sized, the
        # standard IVF sizing as the corpus grows (train sample scales
        # to 32x the codebook so each centroid still sees data)
        num_centroids = max(16, int(np.sqrt(n)))
        sample = max(sample, 32 * num_centroids)
    cents = train_centroids(ds, num_centroids=num_centroids, sample=sample,
                            seed=seed, vec_column=vec_column)
    nprobe_eff = min(nprobe, len(cents))
    c_ref = ray.put(_unit(np.asarray(cents, dtype=np.float64)))

    def emit(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        mat = _unit(_column_matrix(batch.column(vec_column)))
        sims = mat @ c.T                           # (B, C)
        probes = np.argsort(-sims, axis=1)[:, :nprobe_eff]  # own bucket first
        ids = batch.column(id_column).cast(pa.string())
        vecs = batch.column(vec_column)
        n = len(batch)
        # candidate rows: own bucket (= probes[:, 0], the argmax)
        cand = pa.table({
            "bucket": pa.array(probes[:, 0].astype(np.int32)),
            "role": pa.array(np.zeros(n, np.int8)),
            "vid": ids,
            "vec": vecs,
        })
        # query rows: one per probed bucket
        take = np.repeat(np.arange(n), nprobe_eff)
        qry = pa.table({
            "bucket": pa.array(probes.reshape(-1).astype(np.int32)),
            "role": pa.array(np.ones(len(take), np.int8)),
            "vid": ids.take(pa.array(take)),
            "vec": vecs.take(pa.array(take)),
        })
        return pa.concat_tables([cand, qry])

    staged = ds.select_columns([id_column, vec_column]) \
        .map_batches(emit, batch_format="pyarrow")

    def bucket_body(t: pa.Table) -> pa.Table:
        cand = t.filter(pa.compute.equal(t.column("role"), 0))
        qry = t.filter(pa.compute.equal(t.column("role"), 1))
        if len(cand) == 0 or len(qry) == 0:
            return pa.table({"qid": pa.array([], pa.string()),
                             "cos": pa.array([], pa.float64()),
                             "nid": pa.array([], pa.string())})
        ckeys_raw = cand.column("vid").to_pylist()
        order = np.argsort(_id_sort_key(ckeys_raw), kind="stable")
        cmat = _unit(_column_matrix(cand.column("vec")))[order]
        ckeys = _id_sort_key(ckeys_raw)[order]
        cids = np.asarray(ckeys_raw, dtype=object)[order]
        qids_raw = qry.column("vid").to_pylist()
        qkeys = _id_sort_key(qids_raw)
        qmat = _unit(_column_matrix(qry.column("vec")))
        # self-exclusion: the query's own id, when present in this bucket
        pos = np.searchsorted(ckeys, qkeys)
        pos_c = np.clip(pos, 0, len(ckeys) - 1)
        selfmask = ckeys[pos_c] == qkeys
        # tile the queries x candidates matmul over query rows so the
        # sims buffer stays ~128 MB whatever the bucket sizes (the
        # same discipline as nn_batch's broadcast tiling)
        band = max(1, (16 << 20) // max(len(cmat), 1))
        bests, bcs = [], []
        for q0 in range(0, len(qmat), band):
            q1 = min(q0 + band, len(qmat))
            sims = qmat[q0:q1] @ cmat.T           # (band, Nc)
            sm = selfmask[q0:q1]
            sims[np.flatnonzero(sm), pos_c[q0:q1][sm]] = -np.inf
            loc = np.argmax(sims, axis=1)         # first max = lowest id
            bests.append(loc)
            bcs.append(sims[np.arange(len(loc)), loc])
        best = np.concatenate(bests)
        bc = np.concatenate(bcs)
        keep = np.isfinite(bc)
        return pa.table({
            "qid": pa.array(np.asarray(qids_raw, dtype=object)[keep],
                            type=pa.string()),
            "cos": pa.array(bc[keep], type=pa.float64()),
            "nid": pa.array(cids[best[keep]], type=pa.string()),
        })

    partials = bucketed_bucket_map(
        staged, ["bucket"], bucket_body, num_buckets=num_buckets,
        body_format="pyarrow",
        empty_schema=pa.schema([("qid", pa.string()), ("cos", pa.float64()),
                                ("nid", pa.string())]),
    )

    def best_body(g: pd.DataFrame) -> pa.Table:
        g = g.assign(_nk=_id_sort_key([str(x) for x in g["nid"]]))
        g = g.sort_values(["qid", "cos", "_nk"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("qid", keep="first")
        return pa.table({"p": pa.array(top["qid"], type=pa.string()),
                         "q": pa.array(top["nid"], type=pa.string())})

    nn = bucketed_bucket_map(
        partials, ["qid"], best_body, num_buckets=num_buckets,
        empty_schema=pa.schema([("p", pa.string()), ("q", pa.string())]),
    ).materialize()

    mutual = hash_join(nn, project(nn, {"p": "q", "q": "p"}),
                       on=["p", "q"], how="left_semi")

    def canon(t: pa.Table) -> pa.Table:
        pk = _id_sort_key(t.column("p").to_pylist())
        qk = _id_sort_key(t.column("q").to_pylist())
        keep = pk < qk
        return pa.table({"a": t.column("p").filter(pa.array(keep)),
                         "b": t.column("q").filter(pa.array(keep))})

    return mutual.map_batches(canon, batch_format="pyarrow")
