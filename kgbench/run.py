"""KG-construction benchmark: one named workload per run.

    python3 kgbench/run.py --workload closed_vocab --seed 1 --seconds 5 --trace 0

The benchmark generates its corpus from ``--seed``, writes it once as
Parquet, and times passes of ``read_documents`` -> ``build_knowledge_graph``
-> ``export_tables``, the path ``scripts/run_pipeline.py`` takes, for
``--seconds`` (at least one pass).  Every pass's exported tables are
checked against the benchmark's own replay of the corpus.  ``--trace 1``
instead runs the stages one by one (see traced.py) and prints the
per-layer metrics.  The last line of standard output is one JSON object;
see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
# Ray workers do not inherit the driver's sys.path; PYTHONPATH reaches them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
sys.path.insert(0, REPO)

import corpora  # noqa: E402
from checks import check_outputs, check_resumed  # noqa: E402

OBJECT_STORE_BYTES = 384 * 1024 * 1024


@dataclass
class Workload:
    """One workload: corpus sizes and logical CPUs."""

    name: str
    docs: int
    warm_docs: int
    llm: bool = False
    min_cpus: int = 1


WORKLOADS = {
    # per-document work (chunking, regex extraction) and the fixed cost of
    # each Ray stage dominate; the graph stages see only 27 keys
    "closed_vocab": Workload("closed_vocab", docs=1500, warm_docs=50),
    # per-key work dominates: G1/G2 final merge, summarize, components,
    # communities and reports over about two thousand keys
    "high_card": Workload("high_card", docs=200, warm_docs=30),
    # I/O-bound actor-pool extraction against a local endpoint, checkpoint
    # writes (set-up), then resumes from complete checkpoints.  The default
    # extract pool holds two actors of one CPU each while read tasks still
    # need a CPU: with fewer than three logical CPUs the build deadlocks
    "llm_resume": Workload("llm_resume", docs=40, warm_docs=0, llm=True, min_cpus=3),
}


def process_start_epoch() -> float:
    """Wall-clock time at which this process started."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
    return btime + start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """(stolen, demanded) CPU ticks of this machine since boot, from
    /proc/stat: ticks the hypervisor stole, and ticks the CPUs ran or
    wanted to run (everything but idle and I/O wait)."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in f.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


class Stopwatch:
    """Wall time of a section, and the same time less the share of the
    CPU time the machine wanted meanwhile that the hypervisor stole
    (``run_s``): other guests on the host stretch every pass by that
    share, and it is not the program's time."""

    def __init__(self, t0: float | None = None):
        self.t0 = time.time() if t0 is None else t0
        self.ticks0 = cpu_ticks()

    def stop(self) -> tuple[float, float, float]:
        """-> (wall_s, stolen share, run_s)."""
        wall = time.time() - self.t0
        stolen, demanded = (b - a for a, b in zip(self.ticks0, cpu_ticks()))
        share = stolen / demanded if demanded > 0 else 0.0
        return wall, share, wall * (1.0 - share)


def descendants(root: int) -> set[int]:
    """Pids of every live process below ``root``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = set(), [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.add(child)
            todo.append(child)
    return out


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def rss_bytes(pids) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            pass
    return total


class PeakRss:
    """Samples the summed resident memory of this process and its
    descendants (the session's Ray processes) while running."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        me = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, rss_bytes({me} | descendants(me)))
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Session:
    """A Ray session rooted in a scratch directory of the checkout.

    ``close`` shuts Ray down, waits for every process the session started
    and removes the scratch directory."""

    def __init__(self, workdir: str, min_cpus: int = 1):
        import ray

        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.ray_tmp = workdir + "r"
        # Ray's socket paths (~64 characters below the temp dir) must stay
        # within the 107-byte AF_UNIX limit; past it Ray's default is used
        kwargs = {"_temp_dir": self.ray_tmp} if len(self.ray_tmp) <= 43 else {}
        ray.init(
            address="local",
            num_cpus=max(min_cpus, int(subprocess.check_output(["nproc"]))),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kwargs,
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def close(self):
        import ray

        started = descendants(os.getpid())
        ray.shutdown()
        deadline = time.time() + 30
        while started and time.time() < deadline:
            started = {p for p in started if alive(p)}
            time.sleep(0.1)
        for pid in started:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        shutil.rmtree(self.workdir, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)


def write_docs(docs: list[dict], path: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledge_graph_ray.corpus import CORPUS_SCHEMA

    os.makedirs(path, exist_ok=True)
    pq.write_table(pa.Table.from_pylist(docs, schema=CORPUS_SCHEMA),
                   os.path.join(path, "docs.parquet"))


def read_exported(out_dir: str) -> dict[str, list[dict]]:
    import pyarrow.parquet as pq

    tables = {}
    for name in sorted(os.listdir(out_dir)):
        part = os.path.join(out_dir, name)
        files = sorted(os.path.join(part, f) for f in os.listdir(part)
                       if f.endswith(".parquet"))
        tables[name] = [r for f in files for r in pq.read_table(f).to_pylist()]
    return tables


class Corpus:
    """Inputs and expected graph of one workload (timed and warm-up)."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        from knowledge_graph_ray.config import PipelineConfig
        from knowledge_graph_ray.stages.extract import (
            CooccurrenceExtractor,
            PatternExtractor,
        )

        self.cfg = PipelineConfig(chunk_size=corpora.CHUNK_SIZE,
                                  chunk_overlap=corpora.CHUNK_OVERLAP)
        self.mock = None
        if wl.name == "closed_vocab":
            def make(n, variant):
                return corpora.closed_vocab_docs(n, seed, variant)

            rule = corpora.closed_vocab_records
            self.cfg.extract_use_actor_pool = False
            self.extractor_cls = PatternExtractor
            self.extractor_kwargs = {"vocabulary": corpora.CLOSED_NAMES,
                                     "rel_verbs": corpora.CLOSED_VERBS}
        else:
            zipf = corpora.ZipfCorpus(seed, "hc" if wl.name == "high_card" else "llm")
            vocab = zipf.vocabulary()
            names = {n for n, _ in vocab}
            dup = corpora.LLM_DUPLICATE_SHARE if wl.llm else 0.0

            def make(n, variant):
                return zipf.docs(n, dup, variant)

            def rule(text):
                return corpora.cooccurrence_records(text, names)

            if wl.llm:
                from knowledge_graph_ray.stages.llm import OpenAICompatGraphExtractor
                from mock_llm import MockLLM

                self.mock = MockLLM(names)
                self.extractor_cls = OpenAICompatGraphExtractor
                self.extractor_kwargs = {"base_url": self.mock.base_url}
            else:
                self.cfg.extract_use_actor_pool = False
                self.cfg.max_descriptions_per_key = 16
                self.cfg.max_sources_per_key = 64
                self.extractor_cls = CooccurrenceExtractor
                self.extractor_kwargs = {"vocabulary": vocab}
        self.docs = make(wl.docs, "")
        self.expected = corpora.replay(self.docs, rule)
        self.input = os.path.join(workdir, "input")
        write_docs(self.docs, self.input)
        # the warm-up corpus has the same shape but other docs
        self.warm_input = os.path.join(workdir, "warm_input")
        if wl.warm_docs:
            write_docs(make(wl.warm_docs, "w"), self.warm_input)

    def calls(self) -> int:
        return self.mock.calls if self.mock is not None else 0

    def close(self):
        if self.mock is not None:
            self.mock.close()


def build_and_export(corpus: Corpus, input_path: str, out_dir: str,
                     checkpoint_dir: str | None = None):
    """The timed pass: read, build, export.  Returns (tables, Stopwatch.stop())."""
    from knowledge_graph_ray.pipelines.build import build_knowledge_graph, export_tables
    from knowledge_graph_ray.sources.io import read_documents

    watch = Stopwatch()
    tables = build_knowledge_graph(
        read_documents(input_path), corpus.cfg,
        extractor_cls=corpus.extractor_cls, checkpoint_dir=checkpoint_dir,
        fingerprint="kgbench", **corpus.extractor_kwargs)
    export_tables(tables, out_dir, fingerprint="kgbench")
    return tables, watch.stop()


def quarantined(tables) -> int:
    """kind='error' mention rows of a fresh build (0 on a resumed one,
    whose mentions are never extracted)."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(tables.mentions, MaterializedDataset):
        return 0
    return int(tables.mentions.filter(expr="kind == 'error'").count())


def run_pass(corpus: Corpus, out: str, checkpoint_dir: str | None = None,
             first: dict | None = None) -> tuple[dict, dict]:
    """One timed read + build + export of the corpus, then the checks of
    its exported tables (and, given the ``first`` run's tables, the resume
    check).  Returns (stats, exported tables); ``out`` is removed."""
    calls0 = corpus.calls()
    try:
        tables, (wall, stolen, run_s) = build_and_export(
            corpus, corpus.input, out, checkpoint_dir)
        stats = {"wall_s": wall, "stolen": stolen, "run_s": run_s,
                 "calls": corpus.calls() - calls0,
                 "chunks": corpus.expected.chunks, "quarantined": quarantined(tables)}
        exported = read_exported(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    stats["errors"] = check_outputs(exported, corpus.expected)
    if first is not None:
        stats["errors"] += check_resumed(first, exported)
    return stats, exported


def log(started: float, what: str):
    print(f"[{time.time() - started:7.2f}s] {what}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = process_start_epoch()
    setup = Stopwatch(started)
    # fails here, before any process starts, when the engine is absent
    import knowledge_graph_ray.pipelines.build  # noqa: F401

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(REPO, ".kgb", str(os.getpid()))
    log(started, "imports done")
    session = corpus = None
    try:
        session = Session(workdir, wl.min_cpus)
        log(started, "ray.init done")
        corpus = Corpus(wl, args.seed, workdir)
        log(started, "inputs written")
        if args.trace:
            from traced import traced_run

            metrics, correct, attempted, failed = traced_run(
                wl, corpus, workdir, args.seconds, started)
        else:
            metrics, correct, attempted, failed = timed_run(
                wl, corpus, workdir, args.seconds, started, setup)
    finally:
        if corpus is not None:
            corpus.close()
        if session is not None:
            session.close()
        shutil.rmtree(workdir, ignore_errors=True)
        log(started, "session closed")
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(f"chunks sent to extraction: {attempted}, quarantined: {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def timed_run(wl, corpus, workdir, seconds, started, setup):
    """closed_vocab, high_card: untimed warm-up on the warm-up corpus, then
    timed in-memory builds.  llm_resume: one checkpointed build as set-up
    (it is also the warm-up), then timed resumes from its checkpoints."""
    ckpt = first = None
    errors = []
    if wl.llm:
        ckpt = os.path.join(workdir, "ckpt")
        stats, first = run_pass(corpus, os.path.join(workdir, "first"), ckpt)
        errors += stats["errors"]
    else:
        build_and_export(corpus, corpus.warm_input, os.path.join(workdir, "warm"))
    _, stolen, setup_s = setup.stop()
    log(started, f"set-up done: {setup_s:.2f}s less {stolen:.1%} stolen")
    rounds = []
    with PeakRss() as rss:
        t_end = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < t_end:
            stats, _ = run_pass(corpus, os.path.join(workdir, f"out{len(rounds)}"),
                                ckpt, first)
            rounds.append(stats)
            log(started, f"pass {len(rounds)}: {stats['wall_s']:.2f}s wall, "
                         f"{stats['stolen']:.1%} stolen, {stats['calls']} endpoint calls")
    errors += [e for r in rounds for e in r["errors"]]
    for e in errors[:10]:
        print("CHECK FAILED:", e, file=sys.stderr)
    metrics = {
        "docs_per_s": {"unit": "docs/s", "value": len(corpus.docs)
                       / statistics.median(r["run_s"] for r in rounds)},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss.peak / 2 ** 20, "unit": "MB"},
    }
    return (metrics, not errors, sum(r["chunks"] for r in rounds),
            sum(r["quarantined"] for r in rounds))


if __name__ == "__main__":
    sys.exit(main())
