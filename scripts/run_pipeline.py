"""Production entry point: run the full KG construction pipeline.

Designed for ``ray job submit -- python scripts/run_pipeline.py ...`` on
a cluster (the driver owns the session; on a cluster ``ray.init()``
attaches to the running cluster via RAY_ADDRESS) or standalone local
runs.  Resumable: re-running with the same --fingerprint skips complete
stages and completed doc partitions.

Example:
    python scripts/run_pipeline.py \
        --input /data/docs_interleaved --output /data/kg_out \
        --checkpoint-dir /data/kg_ckpt --fingerprint run-42 \
        --max-descriptions 32 --claims
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="interleaved docs (lance/parquet)")
    ap.add_argument("--output", required=True)
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--fingerprint", default="default")
    ap.add_argument("--chunk-size", type=int, default=1200)
    ap.add_argument("--chunk-overlap", type=int, default=100)
    ap.add_argument("--extractor", default="pattern",
                    help="strategy name from knowledge_graph_ray.registry")
    ap.add_argument("--max-descriptions", type=int, default=64)
    ap.add_argument("--max-sources", type=int, default=1024)
    ap.add_argument("--claims", action="store_true")
    ap.add_argument("--reference-layout", action="store_true",
                    help="also export node/ and entity/ tables with the "
                         "reference's 6-CSV column sets")
    ap.add_argument("--media-features", action="store_true",
                    help="decode media spans (BMP/WAV/KGV1 stdlib codecs)")
    ap.add_argument("--num-partitions", type=int, default=64)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode only; on a cluster omit and attach")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        init_kwargs = dict(include_dashboard=False, ignore_reinit_error=True)
        if args.num_cpus:
            init_kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**init_kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray import registry
    from knowledge_graph_ray.config import PipelineConfig
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph, export_tables
    from knowledge_graph_ray.sources.io import read_documents

    t0 = time.time()
    docs = read_documents(args.input)
    cfg = PipelineConfig(
        chunk_size=args.chunk_size,
        chunk_overlap=args.chunk_overlap,
        extract_claims=args.claims,
        media_features=args.media_features,
        max_descriptions_per_key=args.max_descriptions,
        max_sources_per_key=args.max_sources,
    )
    tables = build_knowledge_graph(
        docs,
        cfg,
        extractor_cls=registry.get_extractor(args.extractor),
        num_partitions=args.num_partitions,
        checkpoint_dir=args.checkpoint_dir,
        fingerprint=args.fingerprint,
    )
    manifests = export_tables(tables, args.output, fingerprint=args.fingerprint,
                              reference_layout=args.reference_layout)
    from ray.data.dataset import MaterializedDataset

    quarantined = None
    if isinstance(tables.mentions, MaterializedDataset):
        # on a resumed run mentions is lazy (extraction was skipped);
        # counting it would re-run extraction, so report only when fresh
        quarantined = int(tables.mentions.filter(expr="kind == 'error'").count())
    summary = {
        "seconds": round(time.time() - t0, 1),
        "tables": {k: m["rows"] for k, m in manifests.items()},
        # which regime wrote each table: "driver" (pyarrow) or
        # "distributed" (a Ray write)
        "regimes": {k: m["regime"] for k, m in manifests.items()},
        "quarantined": quarantined,
    }
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
