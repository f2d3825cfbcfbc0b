"""Task-pool map_batches with a per-worker-process callable cache.

For stages whose callable state is CHEAP to build (compiled regexes,
hash-permutation params) an actor pool is the wrong shape: a fresh pool
costs ~2-4s startup latency that can dominate a sub-second stage.  A
plain task pool with the callable constructed once per worker PROCESS
(not per batch) keeps the state-reuse property and scales elastically.

Keep real actor pools for stages whose setup is genuinely expensive
(model weights, external clients) — see stages/extract.extract_mentions.
"""

from __future__ import annotations

# (module, qualname) -> (constructor-kwargs key, instance): one slot per
# class, so a worker keeps one warm callable per stage across builds
# while a new configuration (or a fresh ObjectRef argument) replaces the
# old instance instead of pinning it for the life of the process
_PROCESS_CACHE: dict = {}


def _process_instance(cls, kwargs_key: str, ctor_kwargs: dict):
    """This worker process's ``cls(**ctor_kwargs)``, built on first use.

    Must stay a module-level function: cloudpickle pickles it by
    reference, so every task reaches the one ``_PROCESS_CACHE`` of its
    process.  A closure reading ``_PROCESS_CACHE`` directly would be
    pickled by value together with its own copy of the (empty) dict,
    and each dataset execution would construct the callable again."""
    slot = (cls.__module__, cls.__qualname__)
    hit = _PROCESS_CACHE.get(slot)
    if hit is None or hit[0] != kwargs_key:
        hit = _PROCESS_CACHE[slot] = (kwargs_key, cls(**ctor_kwargs))
    return hit[1]


def cached_class_map(ds, cls, batch_size: int = 1024, **ctor_kwargs):
    """map_batches(cls(**ctor_kwargs)) as a task pool, constructing the
    callable once per worker process (across builds too)."""
    kwargs_key = repr(sorted(ctor_kwargs.items()))

    def body(batch):
        return _process_instance(cls, kwargs_key, ctor_kwargs)(batch)

    return ds.map_batches(body, batch_format="pyarrow", batch_size=batch_size)


def run_concurrently(thunks: list):
    """Run independent dataset-producing thunks in parallel driver
    threads (each thunk typically builds a pipeline and materializes
    it).  Ray Data executes one streaming DAG per materialize() call, so
    driving independent DAGs from separate threads overlaps their
    shuffles and driver-side probes (size gates, to_pandas pulls)
    instead of idling the cluster between barriers.  A single thunk
    runs on the calling thread."""
    import concurrent.futures

    if len(thunks) < 2:
        return [f() for f in thunks]
    with concurrent.futures.ThreadPoolExecutor(len(thunks)) as ex:
        return list(ex.map(lambda f: f(), thunks))
