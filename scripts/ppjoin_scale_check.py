"""Prefix-filter set-similarity self-join at scale (evidence script).

Synthetic corpus: N base docs over an OPEN vocabulary (50k words, Zipf
mix) plus a planted near-dup per 100 docs (one token swapped).  Checks:
recall of planted pairs is exact (every planted pair has trigram
J >= threshold by construction margin), wall time, and candidate
efficiency.  The open vocabulary is the regime the prefix filter is
built for (rare tokens exist), unlike the driver corpus's closed
31-word soup — both are exercised; this script pins the open one.

Usage (from the repository root): PYTHONPATH=. python scripts/ppjoin_scale_check.py [n_docs] [cpus]
"""
import sys
import time

import ray

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
CPUS = int(sys.argv[2]) if len(sys.argv) > 2 else 16

ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
         logging_level="ERROR")
import numpy as np
import pyarrow as pa
import ray.data as rd

rd.DataContext.get_current().enable_progress_bars = False

from knowledge_graph_ray.stages.dedup import prefix_filter_jaccard_pairs

rng = np.random.RandomState(6969)
VOCAB = np.array([f"w{i:05d}" for i in range(50_000)])
# Zipf-ish: half the tokens drawn from a hot 500-word head, half uniform
def make_docs(n):
    head = VOCAB[:500]
    texts, planted = [], []
    for i in range(n):
        ln = rng.randint(30, 80)
        toks = np.where(rng.rand(ln) < 0.5,
                        head[rng.randint(0, len(head), ln)],
                        VOCAB[rng.randint(0, len(VOCAB), ln)])
        texts.append(" ".join(toks))
        if i % 100 == 0:
            dup = toks.copy()
            dup[rng.randint(0, ln)] = head[rng.randint(0, len(head))]
            planted.append((f"d{i:07d}", f"p{i:07d}", " ".join(dup)))
    rows = {"doc_id": [f"d{i:07d}" for i in range(n)], "text": texts}
    rows["doc_id"] += [p[1] for p in planted]
    rows["text"] += [p[2] for p in planted]
    return pa.Table.from_pydict(rows), {(a, b) for a, b, _ in planted}

tbl, planted = make_docs(N_DOCS)
ds = rd.from_arrow(tbl).repartition(CPUS * 2).materialize()
print(f"corpus: {ds.count()} docs ({N_DOCS} base + {len(planted)} planted dups)")

t0 = time.time()
pairs = prefix_filter_jaccard_pairs(ds, threshold=0.6, ngram=3)
pdf = pairs.to_pandas()
wall = time.time() - t0
got = set(zip(pdf.a, pdf.b))
hit = sum(1 for p in planted if p in got)
print(f"wall: {wall:.1f}s  ({ds.count() / wall:,.0f} docs/s at {CPUS} cpus)")
print(f"pairs found: {len(pdf)}  planted recall: {hit}/{len(planted)}")
assert hit == len(planted), "planted near-dup missed — exactness violated"
ray.shutdown()
