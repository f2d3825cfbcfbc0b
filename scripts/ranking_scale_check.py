"""Round-3 ranking/vocab families at scale (evidence script; ~1-2 min).

Drives the ranking windows (rank/percent_rank, running totals,
lag-gap aggregates) over a 10M-row synthetic event log with 100k keys,
and document-frequency + PMI co-occurrence over a 200k-doc corpus,
printing rows/sec per stage.  Shows the shapes that matter at 100 TB:
every ranking operator pays exactly ONE hash shuffle on its partition
key then vectorizes per bucket; df/PMI shuffle partial counts only
(terms x batches rows, never token occurrences).

Usage (from the repository root): PYTHONPATH=. python scripts/ranking_scale_check.py
"""
import time

import ray

ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR")
import numpy as np
import pyarrow as pa
import ray.data as rd

rd.DataContext.get_current().enable_progress_bars = False

from knowledge_graph_ray.stages.ranking import (
    ordered_gaps,
    running_sum,
    window_rank,
)
from knowledge_graph_ray.stages.vocab import (
    document_frequency,
    term_cooccurrence_pmi,
)

N = 10_000_000
KEYS = 100_000


def synth(block: pa.Table) -> pa.Table:
    ids = block.column("id").to_numpy()
    rng = np.random.RandomState(int(ids[0]) % (1 << 31))
    return pa.table({
        "event_id": pa.array(ids, type=pa.int64()),
        "user_id": pa.array(rng.randint(0, KEYS, len(ids)),
                            type=pa.int64()),
        "ts_s": pa.array(rng.randint(0, 30 * 86400, len(ids)),
                         type=pa.int64()),
        "cents": pa.array(rng.randint(1, 10_000, len(ids)),
                          type=pa.int64()),
    })


events = rd.range(N).map_batches(synth, batch_format="pyarrow").materialize()

t0 = time.time()
n = window_rank(events, key="user_id", order_col="cents",
                id_cols=["event_id"]).count()
t = time.time() - t0
print(f"window_rank     : {N/t:12,.0f} rows/s ({t:.1f}s, {n:,} rows)")

t0 = time.time()
n = running_sum(events, key="user_id", order_cols=["ts_s", "event_id"],
                value_col="cents", out_col="running_cents").count()
t = time.time() - t0
print(f"running_sum     : {N/t:12,.0f} rows/s ({t:.1f}s, {n:,} rows)")


def to_ts(b: pa.Table) -> pa.Table:
    return pa.table({
        "user_id": b.column("user_id"),
        "ts": pa.compute.multiply(b.column("ts_s"), 1_000_000).cast(
            pa.timestamp("us")),
    })


ev_ts = events.map_batches(to_ts, batch_format="pyarrow")
t0 = time.time()
n = ordered_gaps(ev_ts, key="user_id", ts_col="ts").count()
t = time.time() - t0
print(f"ordered_gaps    : {N/t:12,.0f} rows/s ({t:.1f}s, {n:,} keys)")

from knowledge_graph_ray.corpus import read_corpus

NDOCS = 200_000


def flatten_spans(batch: pa.Table) -> pa.Table:
    texts = [
        " ".join(s["text"] for s in spans if s["kind"] == "text")
        for spans in batch.column("spans").to_pylist()
    ]
    return pa.table({"doc_id": batch.column("doc_id"),
                     "text": pa.array(texts, type=pa.string())})


docs = read_corpus(NDOCS, seed=6969, shard_size=12_500).map_batches(
    flatten_spans, batch_format="pyarrow").materialize()

t0 = time.time()
n = document_frequency(docs).count()
t = time.time() - t0
print(f"document_freq   : {NDOCS/t:12,.0f} docs/s ({t:.1f}s, {n:,} terms)")

t0 = time.time()
n = term_cooccurrence_pmi(docs, n_docs=NDOCS, vocab_k=100).count()
t = time.time() - t0
print(f"pmi_cooccur     : {NDOCS/t:12,.0f} docs/s ({t:.1f}s, {n:,} pairs)")

ray.shutdown()
