"""Prompt-tuning entry point (reference cli.py:14-43 shape).

Generates the three indexing prompts (entity extraction, entity
summarization, community report) from a document sample and writes them
under --output with the reference's filenames.  Uses the live
OpenAI-compatible endpoint when KG_RAY_LLM_BASE_URL is set, else the
deterministic offline model.

Example:
    python scripts/prompt_tune.py \
        --input /data/docs.parquet --output /data/prompts \
        --domain "maritime logistics" --sample-size 15
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="documents parquet (doc_id, text) or interleaved")
    ap.add_argument("--output", default="output_prompts")
    ap.add_argument("--domain", default=None)
    ap.add_argument("--language", default=None)
    ap.add_argument("--skip-entity-types", action="store_true")
    ap.add_argument("--chunk-size", type=int, default=1200)
    ap.add_argument("--chunk-overlap", type=int, default=100)
    ap.add_argument("--sample-size", type=int, default=15)
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)
    rd.DataContext.get_current().enable_progress_bars = False

    from knowledge_graph_ray.corpus import docs_table_to_interleaved
    from knowledge_graph_ray.pipelines.prompt_tune import prompt_tune

    docs = rd.read_parquet(args.input)
    if "spans" not in (docs.schema().names or []):
        docs = docs.map_batches(docs_table_to_interleaved,
                                batch_format="pyarrow")
    paths = prompt_tune(
        docs, output=args.output, domain=args.domain,
        language=args.language, skip_entity_types=args.skip_entity_types,
        chunk_size=args.chunk_size, chunk_overlap=args.chunk_overlap,
        sample_size=args.sample_size,
    )
    print(json.dumps(paths))
    ray.shutdown()


if __name__ == "__main__":
    main()
