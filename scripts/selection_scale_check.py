"""Round-3 selection family at scale (evidence script; ~1-2 min).

Drives split -> sample -> upsample -> pack over a 10M-row synthetic
corpus table and decontamination over a 200k-doc text corpus, printing
rows/sec per stage.  Shows the shapes that matter at 100 TB: the
stateless stages (split/upsample/decontaminate) stream with zero
shuffle; sample bounds its shuffle to n/group/batch; pack pays exactly
one sort.

Usage (from the repository root): PYTHONPATH=. python scripts/selection_scale_check.py
"""
import time

import ray

ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR")
import numpy as np
import pyarrow as pa
import ray.data as rd

rd.DataContext.get_current().enable_progress_bars = False

from knowledge_graph_ray.corpus import read_corpus
from knowledge_graph_ray.stages.decontaminate import drop_contaminated
from knowledge_graph_ray.stages.packing import pack_by_offset
from knowledge_graph_ray.stages.sampling import (
    grouped_sample,
    hash_split,
    weighted_repeat,
)

N = 10_000_000


def synth(block: pa.Table) -> pa.Table:
    ids = block.column("id").to_numpy()
    rng = np.random.RandomState(int(ids[0]) % (1 << 31))
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "grp": pa.array(ids % 1000, type=pa.int64()),
        "w": pa.array(rng.choice([0.25, 1.0, 2.5], len(ids))),
        "n_chars": pa.array(rng.randint(200, 8000, len(ids)),
                            type=pa.int64()),
    })


rows = rd.range(N).map_batches(synth, batch_format="pyarrow")

t0 = time.time()
n = hash_split(rows, "doc_id", {"train": 0.9, "val": 0.1}, seed=1).count()
t_split = time.time() - t0
print(f"hash_split      : {N/t_split:12,.0f} rows/s ({t_split:.1f}s, {n:,} rows)")

t0 = time.time()
n = grouped_sample(rows, ["grp"], "doc_id", 100, seed=1,
                   size_hint=N).count()
t_sample = time.time() - t0
print(f"grouped_sample  : {N/t_sample:12,.0f} rows/s ({t_sample:.1f}s, {n:,} kept)")

t0 = time.time()
n = weighted_repeat(rows, "w", "doc_id", seed=1).count()
t_ups = time.time() - t0
print(f"weighted_repeat : {N/t_ups:12,.0f} rows/s ({t_ups:.1f}s, {n:,} copies)")

t0 = time.time()
n = pack_by_offset(rows, "n_chars", 1 << 20, "doc_id").count()
t_pack = time.time() - t0
print(f"pack_by_offset  : {N/t_pack:12,.0f} rows/s ({t_pack:.1f}s, {n:,} rows)")

def flatten_spans(batch: pa.Table) -> pa.Table:
    texts = [
        " ".join(s["text"] for s in spans if s["kind"] == "text")
        for spans in batch.column("spans").to_pylist()
    ]
    return pa.table({"doc_id": batch.column("doc_id"),
                     "text": pa.array(texts, type=pa.string())})


docs = read_corpus(200_000, seed=6969, shard_size=12_500).map_batches(
    flatten_spans, batch_format="pyarrow")
bench = read_corpus(500, seed=1234, shard_size=500).map_batches(
    flatten_spans, batch_format="pyarrow")
t0 = time.time()
n = drop_contaminated(docs, bench, n=8).count()
t_dec = time.time() - t0
print(f"decontaminate   : {200_000/t_dec:12,.0f} docs/s ({t_dec:.1f}s, {n:,} clean)")

ray.shutdown()
