"""knowledge_graph_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch reimplementation of the capabilities of the reference
GraphRAG-style indexer (DucHungGithub/knowledge_graph) as streaming
``ray.data.Dataset`` pipelines: span-aware chunking, actor-pool triple
extraction, groupby-aggregate entity/edge canonicalization, distributed
connected components (iterative groupby-min label propagation),
hierarchical community detection + report generation, and materialized,
adjacency-sharded triple tables with per-partition lineage manifests.

Never calls ``ray.init()`` — sessions are owned by the caller
(kgbench / scripts / tests / the driver).
"""

import os as _os

# Polars initializes its GLOBAL thread pool at first import; inside Ray
# workers (ncpu concurrent tasks per node) the default ncpu-sized pool
# oversubscribes the host ncpu x ncpu.  Must be set before the FIRST
# polars import anywhere in the process — any module of this package
# triggers this __init__ first (including cloudpickle-shipped functions
# in Ray workers, whose defining module import lands here), so this is
# the one reliable place.
_os.environ.setdefault("POLARS_MAX_THREADS", "1")

__version__ = "0.1.0"
