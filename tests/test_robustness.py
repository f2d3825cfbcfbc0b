"""Edge-case robustness: unicode, empty/degenerate docs, huge docs,
duplicate mentions in one sentence (self-loop semantics vs oracle)."""

import pyarrow as pa
import ray.data as rd

from knowledge_graph_ray import oracle
from knowledge_graph_ray.config import PipelineConfig
from knowledge_graph_ray.corpus import CORPUS_SCHEMA
from knowledge_graph_ray.pipelines.build import build_graph
from knowledge_graph_ray.stages.chunk import chunk_spans_batch
from knowledge_graph_ray.stages.extract import PatternExtractor

CFG = PipelineConfig(chunk_size=64, chunk_overlap=16, extract_concurrency=1)


def _doc(doc_id, text):
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "text", "text": text, "media_ref": "", "offset": 0}],
    }


def _run(docs_rows, **extractor_kwargs):
    tbl = pa.Table.from_pylist(docs_rows, schema=CORPUS_SCHEMA)
    return build_graph(rd.from_arrow(tbl), CFG, **extractor_kwargs)


def test_unicode_names_and_text():
    vocab = [("Café Münchner", "organization"), ("東京商事", "organization")]
    t = _run(
        [
            _doc("u1", "Café Münchner partnered with 東京商事."),
            _doc("u2", "News about CAFÉ MÜNCHNER today."),
        ],
        vocabulary=vocab,
    )
    ents = t.entities.to_pandas().set_index("name")
    assert "CAFÉ MÜNCHNER" in ents.index
    assert "東京商事" in ents.index
    assert ents.loc["CAFÉ MÜNCHNER", "n_mentions"] == 2
    rels = t.relationships.to_pandas()
    assert len(rels) == 1 and rels.weight.iloc[0] == 2.0


def test_degenerate_docs():
    t = _run(
        [
            _doc("e1", ""),
            _doc("e2", "... !!! ???"),
            {"doc_id": "e3", "spans": []},
            _doc("e4", "Ada Winter visited Port Aurora."),
        ]
    )
    ents = t.entities.to_pandas()
    assert set(ents.name) == {"ADA WINTER", "PORT AURORA"}


def test_huge_doc_many_chunks():
    sentence = "Ada Winter partnered with Boris Chen. "
    text = sentence * 2000  # ~14k tokens -> many 64-token windows
    t = _run([_doc("big", text)])
    ents = t.entities.to_pandas().set_index("name")
    rels = t.relationships.to_pandas()
    assert len(rels) == 1
    # mention counts scale with chunk coverage (overlap duplicates expected)
    assert ents.loc["ADA WINTER", "n_mentions"] > 2000
    n_chunks = t.text_units.count()
    assert n_chunks > 200


def test_self_loop_matches_oracle():
    """'A ... with A' sentences: reference nx.Graph keeps a self-loop."""
    text = "Ada Winter partnered with Ada Winter."
    chunks = chunk_spans_batch(
        pa.Table.from_pylist([_doc("s", text)], schema=CORPUS_SCHEMA), 64, 16
    ).to_pylist()
    ex = PatternExtractor()
    graph = oracle.process_results({c["chunk_id"]: ex._extract_raw(c["text"]) for c in chunks})
    o_ents, o_rels = oracle.graph_to_tables(graph)

    t = _run([_doc("s", text)])
    rels = t.relationships.to_pandas()
    got = {(r.src, r.dst) for r in rels.itertuples()}
    assert got == set(o_rels)
    assert ("ADA WINTER", "ADA WINTER") in got


def test_coda2_operators_handle_empty_inputs():
    """Every operator added in the round-5 coda-2 session must stream
    an EMPTY input through without crashing (a 100TB run will hit
    empty partitions and empty filter results constantly)."""
    import numpy as np
    import pyarrow as pa

    from knowledge_graph_ray.functions.joins import (
        except_all,
        hash_join,
        intersect_all,
    )
    from knowledge_graph_ray.sources.io import union_by_name

    empty_k = rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64())}))
    one_k = rd.from_items([{"k": 1}])

    assert intersect_all(empty_k, one_k, ["k"]).count() == 0
    assert intersect_all(one_k, empty_k, ["k"]).count() == 0
    assert except_all(empty_k, one_k, ["k"]).count() == 0
    assert except_all(one_k, empty_k, ["k"]).count() == 1

    fo = hash_join(
        rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64()),
                                "x": pa.array([], type=pa.float64())})),
        rd.from_items([{"k": 2, "y": 5}]),
        on=["k"], how="full_outer",
    ).to_pandas()
    assert len(fo) == 1 and fo["x"].isna().all()

    ub = union_by_name(
        rd.from_arrow(pa.table({"a": pa.array([], type=pa.int64())})),
        rd.from_items([{"b": "x"}]),
    ).to_pandas()
    assert sorted(ub.columns) == ["a", "b"] and len(ub) == 1


def test_coda5_operators_handle_empty_inputs():
    """The coda-5 operators (PQ, Z-order key path via its query body,
    CMS) must stream empty inputs through without crashing."""
    import numpy as np
    import pyarrow as pa

    from knowledge_graph_ray.stages.similarity import (
        pq_encode,
        pq_topk,
        pq_train,
    )
    from knowledge_graph_ray.stages.sketches import CountMinSketch, cms_sketch

    # PQ: train on a tiny corpus, encode/search an EMPTY one
    vecs = rd.from_items(
        [{"vec_id": i, "embedding": list(np.arange(8) + i)} for i in range(6)]
    )
    books = pq_train(vecs, m=4, nbits=2, seed=6969)
    empty_vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float64())),
    }))
    codes = pq_encode(empty_vecs, books)
    assert codes.count() == 0
    q = np.ones((1, 8))
    assert pq_topk(pq_encode(vecs, books), books, q, k=3).count() == 3

    # CMS over an empty column: a zero sketch that answers zero
    empty_t = rd.from_arrow(pa.table({"v": pa.array([], type=pa.string())}))
    cms = cms_sketch(empty_t, "v", d=2, w=64)
    assert isinstance(cms, CountMinSketch)
    assert cms.table.sum() == 0
    assert list(cms.query_many(["a", "b"])) == [0, 0]


def test_coda8_operators_handle_empty_inputs():
    """Empty/degenerate inputs through every coda-8 operator (100-TB
    runs hit empty partitions and empty filter results constantly)."""
    import numpy as np
    import pyarrow as pa

    from knowledge_graph_ray.functions.agg import grouped_chi2_gof
    from knowledge_graph_ray.stages.similarity import (
        mutual_nn_pairs,
        mutual_nn_pairs_ivf,
    )

    empty_vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    assert mutual_nn_pairs(empty_vecs).count() == 0
    assert mutual_nn_pairs_ivf(empty_vecs).count() == 0

    empty_gc = rd.from_arrow(pa.table({
        "g": pa.array([], pa.string()),
        "c": pa.array([], pa.int64()),
    }))
    assert grouped_chi2_gof(empty_gc, "g", "c").count() == 0

    # single-category degenerate: dof 0, chi2 exactly 0 for all groups
    one_cat = rd.from_arrow(pa.table({
        "g": pa.array(["a", "a", "b"]),
        "c": pa.array([7, 7, 7], pa.int64()),
    }))
    out = grouped_chi2_gof(one_cat, "g", "c").to_pandas()
    assert sorted(out.dof) == [0, 0] and sorted(out.chi2_e6) == [0, 0]


def test_coda9_operators_handle_empty_inputs():
    """Empty/degenerate inputs through every coda-9 stage operator
    (100-TB runs hit empty partitions and empty filter results
    constantly)."""
    import pyarrow as pa

    from knowledge_graph_ray.stages.graphops import multi_source_bfs

    empty_edges = rd.from_arrow(pa.table({
        "src": pa.array([], pa.string()),
        "dst": pa.array([], pa.string()),
    }))
    # BFS from seeds absent in an empty graph: nothing reached
    assert multi_source_bfs(empty_edges, ["x"], hops=2).count() == 0
    # single-node self-loop-free degenerate: one edge
    one = rd.from_arrow(pa.table({
        "src": pa.array(["a"]), "dst": pa.array(["b"]),
    }))
    d = multi_source_bfs(one, ["a", "b"], hops=1).to_pandas()
    assert len(d) == 4  # both seeds reach both nodes at dist <= 1
