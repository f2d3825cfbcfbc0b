"""Property tests (hypothesis): the canonicalization partial merge is
associative/commutative and batch-split-invariant — i.e. ANY partition of
the mention stream into batches, in any order, merges to the same
canonical result as the sequential reference oracle.

Pure-python (no Ray): drives entity_partials_batch/_merge_entity_group
and the edge twins directly over generated mention tables.
"""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from knowledge_graph_ray import oracle
from knowledge_graph_ray.functions.records import (
    format_entity_record,
    format_relationship_record,
    join_records,
)
from knowledge_graph_ray.stages.canonicalize import (
    _merge_edge_group,
    _merge_entity_group,
    edge_partials_batch,
    entity_partials_batch,
)
from knowledge_graph_ray.stages.extract import MENTION_SCHEMA

NAMES = ["Alpha", "Beta", "Gamma", "Delta & Co"]
TYPES = ["organization", "person", ""]
DESCS = ["d1", "d2", "a longer description", ""]

entity_mention = st.fixed_dictionaries(
    {
        "kind": st.just("entity"),
        "name": st.sampled_from(NAMES),
        "type": st.sampled_from(TYPES),
        "description": st.sampled_from(DESCS),
    }
)
rel_mention = st.fixed_dictionaries(
    {
        "kind": st.just("rel"),
        "src": st.sampled_from(NAMES),
        "dst": st.sampled_from(NAMES),
        "description": st.sampled_from(DESCS),
        "weight": st.sampled_from([1.0, 2.5, 7.0]),
    }
)
mentions_strategy = st.lists(st.one_of(entity_mention, rel_mention), min_size=1, max_size=30)


def _mention_rows(raw_mentions):
    """Assign chunk ids / order keys the way the extractor does."""
    rows = []
    for i, m in enumerate(raw_mentions):
        chunk = f"c{i // 3}"  # several mentions share a chunk
        base = {
            "chunk_id": chunk,
            "doc_id": "d",
            "order_key": f"d:{i // 3:08d}:{i % 3:08d}",
            "kind": m["kind"],
            "name": "",
            "type": "",
            "description": m["description"],
            "src": "",
            "dst": "",
            "weight": 0.0,
        }
        if m["kind"] == "entity":
            base["name"] = m["name"].upper()
            base["type"] = m["type"].upper()
        else:
            base["src"] = m["src"].upper()
            base["dst"] = m["dst"].upper()
            base["weight"] = m["weight"]
        rows.append(base)
    return rows


def _oracle_tables(raw_mentions):
    """Feed the same mentions through the sequential reference oracle."""
    by_chunk: dict[str, list[str]] = {}
    for i, m in enumerate(raw_mentions):
        chunk = f"c{i // 3}"
        if m["kind"] == "entity":
            rec = format_entity_record(m["name"], m["type"], m["description"])
        else:
            rec = format_relationship_record(m["src"], m["dst"], m["description"], m["weight"])
        by_chunk.setdefault(chunk, []).append(rec)
    results = {c: join_records(rs) for c, rs in by_chunk.items()}
    return oracle.graph_to_tables(oracle.process_results(results))


def _merge_with_split(rows, split_points):
    """Partition rows into batches at split points, partial-merge each,
    then final-merge — mimicking arbitrary Ray batch boundaries."""
    batches = []
    prev = 0
    for sp in sorted(set(split_points)):
        if prev < sp < len(rows):
            batches.append(rows[prev:sp])
            prev = sp
    batches.append(rows[prev:])
    ent_partials, edge_partials = [], []
    for b in batches:
        if not b:
            continue
        t = pa.Table.from_pylist(b, schema=MENTION_SCHEMA)
        ent_partials.append(entity_partials_batch(t))
        edge_partials.append(edge_partials_batch(t))
    ents = {}
    ep = pa.concat_tables(ent_partials).to_pandas()
    for name, grp in ep.groupby("name"):
        ents[name] = _merge_entity_group(grp).to_pylist()[0]
    rels = {}
    gp = pa.concat_tables(edge_partials).to_pandas()
    if not gp.empty:
        for key, grp in gp.groupby(["src", "dst"]):
            rels[key] = _merge_edge_group(grp).to_pylist()[0]
    return ents, rels


@settings(max_examples=60, deadline=None)
@given(mentions=mentions_strategy, splits=st.lists(st.integers(1, 29), max_size=5))
def test_partial_merge_matches_oracle_under_any_batching(mentions, splits):
    mentions = [
        m for m in mentions if m["kind"] == "entity" or m["src"] != m["dst"]
    ]
    if not mentions:
        return
    rows = _mention_rows(mentions)
    o_ents, o_rels = _oracle_tables(mentions)
    g_ents, g_rels = _merge_with_split(rows, splits)

    assert set(g_ents) == set(o_ents)
    for name, o in o_ents.items():
        g = g_ents[name]
        assert g["type"] == o["type"], name
        # EXACT string equality (sorted, deduped) — frozenset comparison
        # masked a partial-pack delimiter bug that duplicated chunk ids
        assert g["description"] == "\n".join(sorted(o["descriptions"])), name
        assert g["source_id"] == ", ".join(sorted(o["sources"])), name

    assert set(g_rels) == set(o_rels)
    for key, o in o_rels.items():
        g = g_rels[key]
        assert abs(g["weight"] - o["weight"]) < 1e-9, key
        assert g["description"] == "\n".join(sorted(o["descriptions"])), key
        assert g["source_id"] == ", ".join(sorted(o["sources"])), key
