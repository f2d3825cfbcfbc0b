"""Stage-boundary checkpoints with per-partition lineage manifests.

Replaces the reference's ad-hoc persistence — ``checkpoint.txt`` file
lists (/root/reference/verbs/documents/load_documents/run.py:13-22),
GraphML snapshots + JSON diffs (utils/graph.py:180-248,
checkpoints/file.py:7-51) — with the batch-pipeline form of resumability
(north rule): each stage writes a Parquet directory plus a
``_manifest.json`` recording per-file row counts, the input fingerprint,
and stage metrics.  A rerun with the same fingerprint skips the stage and
reads the checkpoint; a changed fingerprint invalidates it.

Writes are atomic: data lands in ``<path>.tmp-<pid>`` and is renamed into
place after the manifest is written, so a killed run never leaves a
half-complete checkpoint that a resume would trust.

Regime rule (``DRIVER_THRESHOLD``, ``functions/grouping.py``): every Ray
Dataset execution has a fixed cost whatever its rows, so a checkpoint
of at most the threshold's rows skips Ray.  A materialized input that
small is fetched to the driver and written as one Parquet file with
pyarrow; a checkpoint whose manifest records that few rows is read back
with pyarrow and handed out as one in-memory dataset that every
consumer shares.  A lazy input is never executed just to learn its
size: it streams through ``write_parquet``, and a large checkpoint is
read lazily.  Either regime writes the same rows under the same Parquet
schema; the manifest records which one ran (``regime``).
"""

from __future__ import annotations

import json
import os
import shutil
import time

from knowledge_graph_ray.functions.grouping import DRIVER_THRESHOLD

MANIFEST_NAME = "_manifest.json"


def _read_manifest(path: str) -> dict:
    """The stage's manifest, or {} when it is missing or unreadable."""
    try:
        with open(os.path.join(path, MANIFEST_NAME)) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return {}


def checkpoint_complete(path: str, fingerprint: str | None = None) -> bool:
    manifest = _read_manifest(path)
    if fingerprint is not None and manifest.get("fingerprint") != fingerprint:
        return False
    return manifest.get("status") == "complete"


def _empty_table(ds):
    """A zero-row table with ``ds``'s schema, without executing ``ds``
    when its plan knows the schema (an executed handle does)."""
    import pyarrow as pa

    from knowledge_graph_ray.functions.dsschema import _to_arrow, plan_schema

    sch = plan_schema(ds)
    if sch is None:
        sch = _to_arrow(ds.schema())
    return (sch or pa.schema([])).empty_table()


def write_checkpoint(
    ds,
    path: str,
    fingerprint: str | None = None,
    stage: str | None = None,
    metrics: dict | None = None,
    driver_threshold: int = DRIVER_THRESHOLD,
):
    """Write ``ds`` as Parquet + per-file lineage manifest, atomically.

    A materialized input of at most ``driver_threshold`` rows is written
    as one file from the driver; anything else goes through Ray's
    ``write_parquet``."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from ray.data.dataset import MaterializedDataset

    from knowledge_graph_ray.functions.grouping import driver_arrow_table

    tmp = f"{path}.tmp-{os.getpid()}"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    t0 = time.time()
    # count() is metadata-only on a materialized handle; a lazy input is
    # never executed just to learn its size
    n = ds.count() if isinstance(ds, MaterializedDataset) else None
    if n is not None and n <= driver_threshold:
        regime = "driver"
        # runs no task on a materialized handle, and caches its blocks
        # and schema (a zero-row in-memory handle has none before)
        ds = ds.materialize()
        os.makedirs(tmp)
        if n:
            pq.write_table(driver_arrow_table(ds),
                           os.path.join(tmp, "part-0.parquet"))
    else:
        regime = "distributed"
        ds.write_parquet(tmp)
    wall = time.time() - t0

    # an empty dataset writes no files (possibly not even the directory):
    # persist one zero-row file so the checkpoint keeps its schema and a
    # resume read works
    os.makedirs(tmp, exist_ok=True)
    if not any(p.endswith(".parquet") for p in os.listdir(tmp)):
        pq.write_table(_empty_table(ds), os.path.join(tmp, "empty-0.parquet"))

    dataset = pads.dataset(tmp, format="parquet")
    partitions = []
    total_rows = 0
    for fragment in dataset.get_fragments():
        rows = fragment.count_rows()
        total_rows += rows
        partitions.append(
            {"file": os.path.basename(fragment.path), "rows": rows}
        )
    manifest = {
        "status": "complete",
        "stage": stage,
        "fingerprint": fingerprint,
        "rows": total_rows,
        "write_seconds": round(wall, 3),
        "regime": regime,
        "partitions": partitions,
        "metrics": metrics or {},
        "written_at": time.time(),
    }
    with open(os.path.join(tmp, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=1)
    if os.path.exists(path):
        shutil.rmtree(path)
    os.rename(tmp, path)
    return manifest


def read_checkpoint(path: str, driver_threshold: int = DRIVER_THRESHOLD):
    """Checkpointed stage output -> Dataset.  A checkpoint of at most
    ``driver_threshold`` rows is read on the driver into one in-memory
    dataset; a larger one is a lazy parquet read."""
    import ray.data

    parts = [
        os.path.join(path, p)
        for p in sorted(os.listdir(path))
        if p.endswith(".parquet")
    ]
    rows = _read_manifest(path).get("rows")
    if rows is not None and rows <= driver_threshold:
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledge_graph_ray.functions.grouping import driver_dataset

        table = pa.concat_tables([pq.read_table(p) for p in parts],
                                 promote_options="permissive")
        # every consumer shares the in-memory handle's cached blocks and
        # schema (a zero-row handle reports no schema before materialize)
        return driver_dataset(table)
    return ray.data.read_parquet(parts)


def checkpoint_or_compute(make_ds, path: str, fingerprint: str, stage: str):
    """Resume helper: reuse a complete checkpoint with a matching input
    fingerprint, else compute + write it.  Returns a Dataset either way."""
    if checkpoint_complete(path, fingerprint):
        return read_checkpoint(path)
    ds = make_ds()
    write_checkpoint(ds, path, fingerprint=fingerprint, stage=stage)
    return read_checkpoint(path)
