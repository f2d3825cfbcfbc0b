"""Canonicalization shuffles: mentions -> entities / relationships.

This replaces the reference's single in-memory ``nx.Graph`` merge
(/root/reference/graph/extractors/graph_extractor.py:203-290) with a
two-phase distributed aggregation (SURVEY.md G1/G2):

1. **partial combine** inside ``map_batches`` — one partial row per key
   per batch (associative/commutative state), which is what bounds the
   shuffle volume for hub entities (skew axis of the north rule: a key
   appearing in 10% of all chunks contributes one row per batch, not one
   row per mention);
2. **final merge** via ``functions.grouping.bucketed_bucket_map``: the
   partials shuffle once on a hash bucket of the key, and
   ``merge_entity_partials`` / ``merge_edge_partials`` merge every key of
   a bucket in one pass into one contiguous Arrow table.

Reference semantics reproduced exactly (validated by the differential
oracle in tests/test_differential.py):

* entity key = ``clean_str(name.upper())`` (graph_extractor.py:205);
* description = set-union of mention descriptions joined "\\n"
  (graph_extractor.py:212-218; set order is nondeterministic there — we
  sort, justified by the reference itself sorting before summarize,
  verbs/entities/summarization/description_summarize.py:34);
* source_id = set-union of chunk ids joined ", " (graph_extractor.py:222-227);
* type = LAST non-empty type in processing order (graph_extractor.py:228-230),
  replayed via the total ``order_key``;
* relationship endpoints auto-create stub nodes with empty type/description
  and the creating edge's source id (graph_extractor.py:253-266) — a stub's
  extra description ""/source id survives later entity mentions only when
  the stub creation came FIRST in processing order, which we replay with
  min/max order bookkeeping instead of sequential mutation;
* edge key is undirected ``(min(src,dst), max(src,dst))`` (nx.Graph),
  weight SUMMED across mentions (graph_extractor.py:267-270).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from knowledge_graph_ray.functions.grouping import DRIVER_THRESHOLD

# partial-row set columns are packed as delimiter-joined strings, not
# Arrow lists: the groupby shuffle sorts partial rows, and sorting
# list-typed columns is disproportionately slow in Ray's sort path.
# Safe: descriptions can never contain "\n" (the reference itself
# round-trips them through "\n".join/split, graph_extractor.py:212-218)
# and chunk ids never contain ", ".
ENTITY_PARTIAL_SCHEMA = pa.schema(
    [
        ("name", pa.string()),
        ("descs", pa.large_string()),
        ("ent_chunks", pa.large_string()),
        ("type_order", pa.string()),
        ("type_val", pa.string()),
        ("min_ent_order", pa.string()),
        ("min_touch_order", pa.string()),
        ("min_touch_chunk", pa.string()),
        ("n_mentions", pa.int64()),
    ]
)

EDGE_PARTIAL_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("weight", pa.float64()),
        ("descs", pa.large_string()),
        ("chunks", pa.large_string()),
        ("n_mentions", pa.int64()),
    ]
)

_HI = "￿"  # sorts after any real order_key

ENTITY_SCHEMA = pa.schema(
    [
        ("name", pa.string()),
        ("type", pa.string()),
        ("description", pa.large_string()),
        ("source_id", pa.large_string()),
        ("n_mentions", pa.int64()),
    ]
)

RELATIONSHIP_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("weight", pa.float64()),
        ("description", pa.large_string()),
        ("source_id", pa.large_string()),
        ("n_mentions", pa.int64()),
    ]
)


def entity_partials_batch(batch: pa.Table, max_descriptions: int | None = None,
                          max_sources: int | None = None) -> pa.Table:
    """Per-batch combiner: mention rows -> one partial row per entity name.

    Consumes BOTH mention kinds: 'entity' rows carry descriptions/types,
    'rel' rows contribute endpoint *touches* (stub bookkeeping).

    ``max_descriptions`` / ``max_sources`` bound per-key state (SURVEY §4
    hub-entity rule): keep the lexicographically smallest N — min-N is
    associative (min-N of unioned min-N partials == min-N of the full
    union), so partial and final truncation compose exactly.  None =
    faithful unbounded reference semantics (differential-test mode).

    Vectorized (pandas C groupbys; ~2x the row-loop at 32k batches) —
    the order-sensitive rules map to stable sorts:

    * type = last non-empty type in (order_key, row-position) order
      (the loop's ``>=`` update)  -> stable sort + groupby.last();
    * min_touch = FIRST strictly-smaller order (loop's ``<``), src
      visited before dst within a row -> src-then-dst concat + stable
      sort + groupby.first().
    """
    df = batch.select(
        ["kind", "name", "type", "description", "chunk_id", "order_key",
         "src", "dst"]
    ).to_pandas()
    ent = df[df["kind"] == "entity"]
    rel = df[df["kind"] == "rel"]  # 'error' rows skip both branches

    pieces: dict[str, pd.Series] = {}
    if len(ent):
        d = ent[["name", "description"]].drop_duplicates().sort_values(
            ["name", "description"]
        )
        if max_descriptions is not None:
            d = d[d.groupby("name").cumcount() < max_descriptions]
        pieces["descs"] = d.groupby("name")["description"].agg("\x1e".join)
        c = ent[["name", "chunk_id"]].drop_duplicates().sort_values(
            ["name", "chunk_id"]
        )
        if max_sources is not None:
            c = c[c.groupby("name").cumcount() < max_sources]
        pieces["ent_chunks"] = c.groupby("name")["chunk_id"].agg("\x1e".join)
        pieces["n_mentions"] = ent.groupby("name").size()
        pieces["min_ent_order"] = ent.groupby("name")["order_key"].min()
        t = ent[ent["type"] != ""].sort_values(["name", "order_key"], kind="stable")
        if len(t):
            last = t.groupby("name")[["order_key", "type"]].last()
            pieces["type_order"] = last["order_key"]
            pieces["type_val"] = last["type"]
    if len(rel):
        touch = pd.concat(
            [
                rel[["src", "order_key", "chunk_id"]].rename(columns={"src": "name"}),
                rel[["dst", "order_key", "chunk_id"]].rename(columns={"dst": "name"}),
            ]
        ).sort_values(["name", "order_key"], kind="stable")
        firsts = touch.groupby("name")[["order_key", "chunk_id"]].first()
        pieces["min_touch_order"] = firsts["order_key"]
        pieces["min_touch_chunk"] = firsts["chunk_id"]

    if not pieces:
        return ENTITY_PARTIAL_SCHEMA.empty_table()
    idx = pd.Index(
        sorted(set().union(*[p.index for p in pieces.values()])), name="name"
    )

    def col(key: str, fill):
        s = pieces.get(key)
        return s.reindex(idx, fill_value=fill) if s is not None else pd.Series(
            fill, index=idx
        )

    out = pd.DataFrame(
        {
            "name": idx,
            "descs": col("descs", ""),
            "ent_chunks": col("ent_chunks", ""),
            "type_order": col("type_order", ""),
            "type_val": col("type_val", ""),
            "min_ent_order": col("min_ent_order", _HI),
            "min_touch_order": col("min_touch_order", _HI),
            "min_touch_chunk": col("min_touch_chunk", ""),
            "n_mentions": col("n_mentions", 0).astype("int64"),
        }
    ).reset_index(drop=True)
    return pa.Table.from_pandas(out, schema=ENTITY_PARTIAL_SCHEMA,
                                preserve_index=False)


class _EntityAcc:
    """Per-name merge state of ``merge_entity_partials``."""

    __slots__ = ("descs", "chunks", "type_order", "type_val", "min_ent",
                 "min_touch", "touch_chunk", "n_mentions")

    def __init__(self, min_ent: str, min_touch: str, touch_chunk: str):
        self.descs: set[str] = set()
        self.chunks: set[str] = set()
        self.type_order = ""
        self.type_val = ""
        self.min_ent = min_ent
        self.min_touch = min_touch
        self.touch_chunk = touch_chunk
        self.n_mentions = 0


def _smallest(values: set[str], cap: int | None) -> set[str]:
    return values if cap is None else set(sorted(values)[:cap])


def merge_entity_partials(bucket: pd.DataFrame, max_descriptions: int | None = None,
                          max_sources: int | None = None) -> pa.Table:
    """Final merge of entity partial rows, any number of names at once:
    one pass over the rows with per-name accumulators, then one
    contiguous output table, names in first-appearance order."""
    acc: dict[str, _EntityAcc] = {}
    rows = zip(*(bucket[c].tolist() for c in ENTITY_PARTIAL_SCHEMA.names))
    for name, d, c, to, tv, mo, mt, tc, n in rows:
        a = acc.get(name)
        if a is None:
            a = acc[name] = _EntityAcc(mo, mt, tc)
        else:
            if mo < a.min_ent:
                a.min_ent = mo
            if mt < a.min_touch:  # the FIRST strictly-smaller touch wins
                a.min_touch, a.touch_chunk = mt, tc
        # packed \x1e-joined sets; a partial whose min_ent_order is the _HI
        # sentinel saw no entity mention, so its packed "" means the EMPTY
        # set (otherwise "" is a legitimate single empty description —
        # clean_str strips \x00-\x1f so \x1e can never occur in members)
        if mo != _HI:
            a.descs.update(d.split("\x1e"))
            if c:
                a.chunks.update(c.split("\x1e"))
        if tv and to >= a.type_order:  # last non-empty type, ties to later rows
            a.type_order, a.type_val = to, tv
        a.n_mentions += n

    out: dict[str, list] = {f: [] for f in ENTITY_SCHEMA.names}
    for name, a in acc.items():
        if a.min_ent == _HI:  # pure stub: only ever an edge endpoint
            description, sources = "", {a.touch_chunk}
        else:
            descs = _smallest(a.descs, max_descriptions)
            sources = _smallest(a.chunks, max_sources)
            if a.min_touch < a.min_ent:
                # stub node created before any entity record — reference:
                # entity desc merges into the stub's "" description and
                # the stub's source id stays in the set
                # (graph_extractor.py:212-227)
                descs = descs | {""}
                sources = sources | {a.touch_chunk}
            description = "\n".join(sorted(descs))
        out["name"].append(name)
        out["type"].append(a.type_val)
        out["description"].append(description)
        out["source_id"].append(", ".join(sorted(sources)))
        out["n_mentions"].append(int(a.n_mentions))
    return pa.Table.from_pydict(out, schema=ENTITY_SCHEMA)


# the per-key merge is the whole-bucket merge applied to one key's rows
_merge_entity_group = merge_entity_partials


def canonicalize_entities(mentions, batch_size: int = 32768, num_buckets: int = 64,
                          max_descriptions: int | None = None,
                          max_sources: int | None = None,
                          driver_threshold: int = DRIVER_THRESHOLD,
                          size_hint: int | None = None):
    """Dataset[mention] -> Dataset[entity] (the G1 shuffle).

    Final merge runs via bucketed_bucket_map: one Ray task per key-hash
    bucket, and one ``merge_entity_partials`` pass over each bucket, not
    one Python call per entity (high-cardinality keys).

    ``size_hint``: cheap upper bound on the partial-row count (the
    mention count is always one — combiners only compress); when it
    already exceeds ``driver_threshold`` the size probe's materialize
    barrier is skipped and the merge streams."""
    import functools

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    partials = mentions.map_batches(
        functools.partial(
            entity_partials_batch,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return bucketed_bucket_map(
        partials,
        ["name"],
        functools.partial(
            merge_entity_partials,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        num_buckets=num_buckets,
        driver_threshold=driver_threshold,
        size_hint=size_hint,
        empty_schema=ENTITY_SCHEMA,
    )


def edge_partials_batch(batch: pa.Table, max_descriptions: int | None = None,
                        max_sources: int | None = None) -> pa.Table:
    """Per-batch combiner for relationship mentions, undirected key
    (vectorized; see entity_partials_batch)."""
    df = batch.select(
        ["kind", "src", "dst", "description", "chunk_id", "weight"]
    ).to_pandas()
    rel = df[df["kind"] == "rel"]
    if not len(rel):
        return EDGE_PARTIAL_SCHEMA.empty_table()
    swap = rel["src"] > rel["dst"]
    rel = pd.DataFrame(
        {
            "src": np.where(swap, rel["dst"], rel["src"]),
            "dst": np.where(swap, rel["src"], rel["dst"]),
            "description": rel["description"].to_numpy(),
            "chunk_id": rel["chunk_id"].to_numpy(),
            "weight": rel["weight"].to_numpy(),
        }
    )
    key = ["src", "dst"]
    agg = rel.groupby(key).agg(
        weight=("weight", "sum"), n_mentions=("weight", "size")
    )
    d = rel[key + ["description"]].drop_duplicates().sort_values(
        key + ["description"]
    )
    if max_descriptions is not None:
        d = d[d.groupby(key).cumcount() < max_descriptions]
    descs = d.groupby(key)["description"].agg("\x1e".join)
    c = rel[key + ["chunk_id"]].drop_duplicates().sort_values(key + ["chunk_id"])
    if max_sources is not None:
        c = c[c.groupby(key).cumcount() < max_sources]
    chunks = c.groupby(key)["chunk_id"].agg("\x1e".join)
    out = agg.assign(descs=descs, chunks=chunks).reset_index()
    out = out[["src", "dst", "weight", "descs", "chunks", "n_mentions"]]
    out["n_mentions"] = out["n_mentions"].astype("int64")
    return pa.Table.from_pandas(out, schema=EDGE_PARTIAL_SCHEMA,
                                preserve_index=False)


def _segment_sums(values: np.ndarray, codes: np.ndarray, n_keys: int) -> np.ndarray:
    """Per-code float64 sums, each bit-identical to
    ``pd.Series(values[codes == k]).sum()`` over the code's rows in order.

    pandas zeroes NaNs and calls numpy's sum, which folds fewer than 8
    terms left to right from 0.0 and sums longer runs pairwise: the
    short segments (nearly all) are folded here column by column, the
    long ones call numpy's sum on their own slice."""
    values = np.where(np.isnan(values), 0.0, values)
    order = np.argsort(codes, kind="stable")
    v = values[order]
    counts = np.bincount(codes, minlength=n_keys)
    starts = np.cumsum(counts) - counts
    sums = np.zeros(n_keys)
    for k in range(min(int(counts.max(initial=0)), 7)):
        live = np.flatnonzero((counts > k) & (counts < 8))
        sums[live] += v[starts[live] + k]
    for i in np.flatnonzero(counts >= 8):
        sums[i] = v[starts[i]:starts[i] + counts[i]].sum()
    return sums


def merge_edge_partials(bucket: pd.DataFrame, max_descriptions: int | None = None,
                        max_sources: int | None = None) -> pa.Table:
    """Final merge of edge partial rows, any number of (src, dst) keys at
    once (see merge_entity_partials); ``weight`` is each key's
    ``Series.sum()`` bit for bit."""
    index: dict[tuple[str, str], int] = {}
    codes, descs, chunks, n_mentions = [], [], [], []
    rows = zip(bucket["src"].tolist(), bucket["dst"].tolist(),
               bucket["descs"].tolist(), bucket["chunks"].tolist(),
               bucket["n_mentions"].tolist())
    for src, dst, d, c, n in rows:
        i = index.setdefault((src, dst), len(index))
        if i == len(descs):
            descs.append(set())
            chunks.append(set())
            n_mentions.append(0)
        codes.append(i)
        descs[i].update(d.split("\x1e"))
        if c:
            chunks[i].update(c.split("\x1e"))
        n_mentions[i] += n
    weights = _segment_sums(bucket["weight"].to_numpy(dtype=np.float64),
                            np.asarray(codes, dtype=np.intp), len(index))
    return pa.Table.from_pydict(
        {
            "src": [k[0] for k in index],
            "dst": [k[1] for k in index],
            "weight": weights,
            "description": ["\n".join(sorted(_smallest(d, max_descriptions)))
                            for d in descs],
            "source_id": [", ".join(sorted(_smallest(c, max_sources)))
                          for c in chunks],
            "n_mentions": [int(n) for n in n_mentions],
        },
        schema=RELATIONSHIP_SCHEMA,
    )


# the per-key merge is the whole-bucket merge applied to one key's rows
_merge_edge_group = merge_edge_partials


def canonicalize_relationships(mentions, batch_size: int = 32768, num_buckets: int = 64,
                               max_descriptions: int | None = None,
                               max_sources: int | None = None,
                               driver_threshold: int = DRIVER_THRESHOLD,
                               size_hint: int | None = None):
    """Dataset[mention] -> Dataset[relationship] (the G2 shuffle).
    ``size_hint``: see canonicalize_entities."""
    import functools

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    partials = mentions.map_batches(
        functools.partial(
            edge_partials_batch,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return bucketed_bucket_map(
        partials,
        ["src", "dst"],
        functools.partial(
            merge_edge_partials,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        num_buckets=num_buckets,
        driver_threshold=driver_threshold,
        size_hint=size_hint,
        empty_schema=RELATIONSHIP_SCHEMA,
    )


# --------------------------------------------------------- incremental (G8)


def _repack_sets(values: "pd.Series", sep: str) -> "pd.Series":
    """Vectorized per-row ``sep``-split -> set -> sorted -> \\x1e-join.

    Explode + drop_duplicates + groupby over the row position — the
    same pandas shape as the mention combiners, no Python row loop.
    An empty/None input row packs to "" (the empty set, matching the
    row-loop form this replaces)."""
    idx = np.arange(len(values))
    e = pd.DataFrame({
        "i": idx, "part": values.fillna("").str.split(sep)
    }).explode("part")
    e = e.drop_duplicates().sort_values(["i", "part"], kind="stable")
    return e.groupby("i")["part"].agg("\x1e".join).reindex(idx).fillna("")


def entities_to_partials(batch: pa.Table) -> pa.Table:
    """Canonical entity rows -> partial rows, for incremental re-merge.

    Reference incremental mode string-concatenates old/new descriptions
    ("Old Information---\\n...", utils/graph.py:68-115); our merge is an
    associative set union, so a previous run's canonical table converts
    back to partials and re-merges exactly (SURVEY.md G8).  Old rows get
    the lowest order sentinel "" so a NEW non-empty type wins, matching
    the reference's dict.update(new-over-old) semantics.
    """
    names = [c for c in ("name", "type", "description", "source_id",
                         "n_mentions") if c in batch.column_names]
    df = batch.select(names).to_pandas()
    if len(df) == 0:
        return ENTITY_PARTIAL_SCHEMA.empty_table()
    nm = (df["n_mentions"].fillna(0) if "n_mentions" in df.columns
          else pd.Series(0, index=df.index))
    out = pd.DataFrame({
        "name": df["name"],
        "descs": _repack_sets(df["description"], "\n").to_numpy(),
        "ent_chunks": _repack_sets(df["source_id"], ", ").to_numpy(),
        "type_order": "",
        "type_val": df["type"].fillna(""),
        "min_ent_order": "",
        "min_touch_order": _HI,
        "min_touch_chunk": "",
        "n_mentions": nm.astype("int64"),
    })
    return pa.Table.from_pandas(out, schema=ENTITY_PARTIAL_SCHEMA,
                                preserve_index=False)


def relationships_to_partials(batch: pa.Table) -> pa.Table:
    """Canonical relationship rows -> partial rows (weights re-sum)."""
    names = [c for c in ("src", "dst", "weight", "description",
                         "source_id", "n_mentions") if c in batch.column_names]
    df = batch.select(names).to_pandas()
    if len(df) == 0:
        return EDGE_PARTIAL_SCHEMA.empty_table()
    nm = (df["n_mentions"].fillna(0) if "n_mentions" in df.columns
          else pd.Series(0, index=df.index))
    out = pd.DataFrame({
        "src": df["src"],
        "dst": df["dst"],
        "weight": df["weight"].astype("float64"),
        "descs": _repack_sets(df["description"], "\n").to_numpy(),
        "chunks": _repack_sets(df["source_id"], ", ").to_numpy(),
        "n_mentions": nm.astype("int64"),
    })
    return pa.Table.from_pandas(out, schema=EDGE_PARTIAL_SCHEMA,
                                preserve_index=False)


def incremental_canonicalize_entities(prev_entities, new_mentions,
                                      batch_size: int = 32768, num_buckets: int = 64,
                                      max_descriptions: int | None = None,
                                      max_sources: int | None = None):
    """Union a previous run's canonical entities with new mentions and
    re-merge — the incremental path (reference cluster_graph.py:32-36 /
    utils/graph.py:68-115, associative here so no special-case strings)."""
    import functools

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    prev_partials = prev_entities.map_batches(
        entities_to_partials, batch_format="pyarrow"
    )
    new_partials = new_mentions.map_batches(
        functools.partial(
            entity_partials_batch,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return bucketed_bucket_map(
        prev_partials.union(new_partials),
        ["name"],
        functools.partial(
            merge_entity_partials,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        num_buckets=num_buckets,
    )


def incremental_canonicalize_relationships(prev_relationships, new_mentions,
                                           batch_size: int = 32768, num_buckets: int = 64,
                                           max_descriptions: int | None = None,
                                           max_sources: int | None = None):
    import functools

    from knowledge_graph_ray.functions.grouping import bucketed_bucket_map

    prev_partials = prev_relationships.map_batches(
        relationships_to_partials, batch_format="pyarrow"
    )
    new_partials = new_mentions.map_batches(
        functools.partial(
            edge_partials_batch,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return bucketed_bucket_map(
        prev_partials.union(new_partials),
        ["src", "dst"],
        functools.partial(
            merge_edge_partials,
            max_descriptions=max_descriptions,
            max_sources=max_sources,
        ),
        num_buckets=num_buckets,
    )
