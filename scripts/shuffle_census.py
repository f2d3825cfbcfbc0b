"""Shuffle census: run every queries() entry at sf0.001 and count the
all-to-all exchanges (Sort/Aggregate/shuffle operators) in its executed
Ray Data plan — the repo's 'minimize shuffles' discipline, measured.

Usage: python scripts/shuffle_census.py [sf_dir] > SHUFFLES.md
"""
from __future__ import annotations

import os
import re
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# Ray workers do not inherit this process's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count() or 1, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entrymod

    rows = []
    for name, fn in entrymod.queries().items():
        t0 = time.time()
        try:
            res = fn(sf_dir)
        except Exception as e:  # pragma: no cover
            rows.append((name, -1, 0.0, f"ERROR {e}"))
            continue
        if isinstance(res, ray.data.Dataset):
            ds = res.materialize()
            stats = ds.stats()
            # each AllToAll stage reports as 'Sort' / 'Aggregate' /
            # 'RandomShuffle' / 'Repartition' operator blocks
            n_shuffles = len(re.findall(
                r"Operator \d+ (Sort|Aggregate|RandomShuffle|"
                r"Repartition)\b", stats))
            kind = "dataset"
        else:
            n_shuffles = -1  # composed on the driver from bounded parts
            kind = "driver-composed"
        rows.append((name, n_shuffles, time.time() - t0, kind))

    print(f"# Shuffle census ({sf_dir}, executed plans)\n")
    print("Exchanges counted from ds.stats() operator blocks "
          "(Sort/Aggregate/RandomShuffle/Repartition). 'driver-composed' "
          "results are built from bounded sub-aggregates whose exchanges "
          "are counted inside their own Dataset runs.\n")
    print("Caveats: (1) counts reflect the FINAL dataset's lineage — "
          "intermediate .materialize() stages inside a query count only "
          "their own lineage; (2) a low count at small scale is the "
          "size-adaptive design working (combiner partials collapse on "
          "the driver below thresholds; the distributed exchange regimes "
          "engage above them and are pytest-pinned separately).\n")
    print("| query | exchanges | sec | kind |")
    print("|---|---|---|---|")
    for name, n, dt, kind in sorted(rows, key=lambda r: (-r[1], r[0])):
        n_s = str(n) if n >= 0 else "—"
        print(f"| {name} | {n_s} | {dt:.2f} | {kind} |")
    counts = [n for _, n, _, k in rows if n >= 0]
    if counts:
        import statistics
        print(f"\nDataset queries: {len(counts)}; median exchanges "
              f"{statistics.median(counts):.0f}; max {max(counts)}.")
    ray.shutdown()


if __name__ == "__main__":
    main()
