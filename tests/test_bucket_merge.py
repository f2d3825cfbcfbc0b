"""Whole-bucket canonicalize merge (hypothesis): ``merge_entity_partials``
/ ``merge_edge_partials`` over a bucket of many keys, rows in any order,
equal the per-key merge of each key's rows, byte for byte — and
canonicalize hands Ray contiguous blocks.

The per-key reference below is the row loop the whole-bucket merge
replaced, kept here as the oracle for the order-sensitive rules: the
``_HI``-sentinel empty set, last non-empty type by ``type_order`` (ties
to the later row), first strictly-smaller touch, the stub-first ``""``
description and touch chunk, smallest-N caps and the ``Series.sum()``
weight.
"""

import struct

import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from knowledge_graph_ray.stages.canonicalize import (
    _HI,
    EDGE_PARTIAL_SCHEMA,
    ENTITY_PARTIAL_SCHEMA,
    ENTITY_SCHEMA,
    RELATIONSHIP_SCHEMA,
    merge_edge_partials,
    merge_entity_partials,
)


def _reference_entity_group(group, max_descriptions=None, max_sources=None):
    descs, ent_chunks = set(), set()
    for d, c, mo in zip(group["descs"], group["ent_chunks"], group["min_ent_order"]):
        if mo != _HI:
            descs.update(d.split("\x1e"))
            if c:
                ent_chunks.update(c.split("\x1e"))
    if max_descriptions is not None:
        descs = set(sorted(descs)[:max_descriptions])
    if max_sources is not None:
        ent_chunks = set(sorted(ent_chunks)[:max_sources])
    type_order, type_val = "", ""
    for to, tv in zip(group["type_order"], group["type_val"]):
        if tv and to >= type_order:
            type_order, type_val = to, tv
    min_ent = min(group["min_ent_order"])
    touch = group["min_touch_order"].reset_index(drop=True)
    touch_idx = touch.idxmin()
    min_touch = touch[touch_idx]
    touch_chunk = group["min_touch_chunk"].iloc[touch_idx]
    if min_ent == _HI:
        description, sources = "", {touch_chunk}
    else:
        if min_touch < min_ent:
            descs.add("")
            sources = ent_chunks | {touch_chunk}
        else:
            sources = ent_chunks
        description = "\n".join(sorted(descs)) if len(descs) > 1 else next(iter(descs))
    return {"name": group["name"].iloc[0], "type": type_val,
            "description": description, "source_id": ", ".join(sorted(sources)),
            "n_mentions": int(group["n_mentions"].sum())}


def _reference_edge_group(group, max_descriptions=None, max_sources=None):
    descs, chunks = set(), set()
    for d in group["descs"]:
        descs.update(d.split("\x1e"))
    for c in group["chunks"]:
        if c:
            chunks.update(c.split("\x1e"))
    if max_descriptions is not None:
        descs = set(sorted(descs)[:max_descriptions])
    if max_sources is not None:
        chunks = set(sorted(chunks)[:max_sources])
    description = "\n".join(sorted(descs)) if len(descs) > 1 else next(iter(descs))
    return {"src": group["src"].iloc[0], "dst": group["dst"].iloc[0],
            "weight": float(group["weight"].sum()), "description": description,
            "source_id": ", ".join(sorted(chunks)),
            "n_mentions": int(group["n_mentions"].sum())}


def _exact(rows):
    """Floats compared by their bits (signed zeros, last digit)."""
    return [{k: struct.pack("<d", v) if isinstance(v, float) else v
             for k, v in r.items()} for r in rows]


ORDERS = ["d:01", "d:02", "d:03"]  # few values, so ties happen
CHUNKS = ["c1", "c2", "c3", "c4"]
DESCS = ["", "d1", "d2", "a longer description"]
packed = st.lists(st.sampled_from(DESCS), min_size=1, max_size=3, unique=True).map(
    lambda xs: "\x1e".join(sorted(xs)))
packed_chunks = st.lists(st.sampled_from(CHUNKS), max_size=3, unique=True).map(
    lambda xs: "\x1e".join(sorted(xs)))


@st.composite
def entity_partial(draw):
    # STUB is only ever an edge endpoint (pure stub); LATE's entity
    # records never come first, so its stub is often created first
    name = draw(st.sampled_from(["ALPHA", "BETA", "STUB", "LATE"]))
    shapes = ["touch"] if name == "STUB" else ["entity", "touch", "both", "previous"]
    shape = draw(st.sampled_from(shapes))
    orders = ORDERS[1:] if name == "LATE" else ORDERS
    row = {"name": name, "descs": "", "ent_chunks": "", "type_order": "",
           "type_val": "", "min_ent_order": _HI, "min_touch_order": _HI,
           "min_touch_chunk": "", "n_mentions": 0}
    if shape in ("entity", "both", "previous"):
        row["descs"] = draw(packed)
        row["ent_chunks"] = draw(packed_chunks)
        row["type_val"] = draw(st.sampled_from(["", "PERSON", "ORGANIZATION"]))
        row["n_mentions"] = draw(st.integers(1, 5))
        if shape == "previous":  # a canonical row re-entering the merge
            row["min_ent_order"] = ""
        else:
            row["min_ent_order"] = draw(st.sampled_from(orders))
            if row["type_val"]:
                row["type_order"] = draw(st.sampled_from(orders))
    if shape in ("touch", "both"):
        # equal touch orders with different chunks: the first row wins
        row["min_touch_order"] = draw(st.sampled_from(ORDERS))
        row["min_touch_chunk"] = draw(st.sampled_from(CHUNKS))
    return row


edge_partial = st.fixed_dictionaries({
    "src": st.sampled_from(["ALPHA", "BETA"]),
    "dst": st.sampled_from(["GAMMA", "DELTA"]),
    "weight": st.sampled_from([1.0, 0.1, 0.2, 0.3, 1 / 3, 2.5e-3, 7.0, -0.0]),
    "descs": packed,
    "chunks": packed_chunks,
    "n_mentions": st.integers(1, 5),
})
caps = st.sampled_from([None, 1, 2])


def _check(rows, schema, keys, merge, reference, max_descriptions, max_sources):
    bucket = pa.Table.from_pylist(rows, schema=schema).to_pandas()
    whole = merge(bucket, max_descriptions=max_descriptions, max_sources=max_sources)
    want = [reference(g, max_descriptions, max_sources)
            for _, g in bucket.groupby(keys, sort=False)]
    assert _exact(whole.to_pylist()) == _exact(want)
    assert all(c.num_chunks == 1 for c in whole.columns)
    per_group = [merge(g, max_descriptions=max_descriptions,
                       max_sources=max_sources).to_pylist()[0]
                 for _, g in bucket.groupby(keys, sort=False)]
    assert _exact(per_group) == _exact(want)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(entity_partial(), min_size=1, max_size=40),
       max_descriptions=caps, max_sources=caps)
def test_entity_bucket_merge_equals_per_key_merge(rows, max_descriptions, max_sources):
    _check(rows, ENTITY_PARTIAL_SCHEMA, "name", merge_entity_partials,
           _reference_entity_group, max_descriptions, max_sources)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(edge_partial, min_size=1, max_size=60),
       max_descriptions=caps, max_sources=caps)
def test_edge_bucket_merge_equals_per_key_merge(rows, max_descriptions, max_sources):
    """Up to 60 rows over 4 keys: segments of 8+ rows take numpy's
    pairwise sum, shorter ones the left fold."""
    _check(rows, EDGE_PARTIAL_SCHEMA, ["src", "dst"], merge_edge_partials,
           _reference_edge_group, max_descriptions, max_sources)


def _max_chunks(ds) -> int:
    """Largest per-column chunk count over the dataset's blocks."""
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    assert blocks
    return max(c.num_chunks for b in blocks for c in b.columns)


def test_canonicalize_blocks_are_contiguous():
    """One chunk per column on the driver path; at most one per bucket
    (``map_groups`` concatenates a block's buckets) on the distributed
    path — never one per key."""
    from knowledge_graph_ray.corpus import read_corpus
    from knowledge_graph_ray.stages.canonicalize import (
        canonicalize_entities,
        canonicalize_relationships,
    )
    from knowledge_graph_ray.stages.chunk import chunk_documents
    from knowledge_graph_ray.stages.extract import extract_mentions

    mentions = extract_mentions(
        chunk_documents(read_corpus(300, seed=11, shard_size=50), 64, 16),
        use_actor_pool=False,
    ).materialize()
    for canon, schema in ((canonicalize_entities, ENTITY_SCHEMA),
                          (canonicalize_relationships, RELATIONSHIP_SCHEMA)):
        driver = canon(mentions, num_buckets=4)
        assert driver.count() > 20
        assert driver.schema().names == schema.names
        assert _max_chunks(driver) == 1, canon.__name__
        assert _max_chunks(canon(mentions, num_buckets=4, driver_threshold=0)) <= 4


def test_bucketed_group_map_blocks_are_contiguous():
    """One output table per group still leaves one chunk per column per
    bucket, not one per group."""
    import ray.data as rd

    from knowledge_graph_ray.functions.grouping import bucketed_group_map

    ds = rd.from_pandas(pd.DataFrame({"k": [i % 50 for i in range(200)],
                                      "v": range(200)}))
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def one_row(group):
        return pa.Table.from_pylist([{"k": int(group["k"].iloc[0]), "n": len(group)}],
                                    schema=schema)

    for threshold, most in ((10_000, 1), (None, 4)):
        out = bucketed_group_map(ds, ["k"], one_row, num_buckets=4,
                                 driver_threshold=threshold)
        assert out.count() == 50
        assert _max_chunks(out) <= most, threshold
