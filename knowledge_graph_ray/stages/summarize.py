"""Description summarization over canonical entities/relationships.

Reference: per node/edge async LLM fold
(/root/reference/graph/summarization/graph_summarization.py:19-122) with
shortcut rules — 0 descriptions -> "", 1 -> identity, >1 -> summarize —
and the description list is ``sorted(set(desc.split("\n")))``
(verbs/entities/summarization/description_summarize.py:34).

Here: an actor-pool ``map_batches`` stage; the >1 branch routes through a
pluggable strategy (the deterministic default folds the sorted list into
a token-budgeted digest; an LLM strategy would override ``_summarize``).
The <=1 shortcut never calls the strategy, so at scale only the merged
multi-mention rows (a small minority) pay summarization cost — exactly
the reference's short-circuit, but batched.
"""

from __future__ import annotations

import pyarrow as pa

from knowledge_graph_ray.config import MAX_SUMMARY_INPUT_TOKENS, MAX_SUMMARY_LENGTH
from knowledge_graph_ray.functions.text import token_spans


class DescriptionSummarizer:
    """Callable class -> Ray actor pool; state built once per actor."""

    def __init__(
        self,
        max_input_tokens: int = MAX_SUMMARY_INPUT_TOKENS,
        max_summary_length: int = MAX_SUMMARY_LENGTH,
        column: str = "description",
    ):
        self.max_input_tokens = max_input_tokens
        self.max_summary_length = max_summary_length
        self.column = column

    # strategy hook (LLM subclasses override)
    def _summarize(self, descriptions: list[str]) -> str:
        """Deterministic fold: join sorted distinct descriptions, truncated
        to the summary token budget (stand-in for the reference's iterative
        LLM fold within a 4000-token input window)."""
        text = " ".join(descriptions)
        spans = token_spans(text)
        if len(spans) > self.max_summary_length:
            text = text[: spans[self.max_summary_length - 1][1]]
        return text

    def summarize_one(self, description: str | None) -> str:
        if not description:
            return ""
        parts = sorted(set(description.split("\n")))
        parts = [p for p in parts if p] or [""]
        if len(parts) == 1:
            return parts[0]
        return self._summarize(parts)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column).to_pylist()
        out = pa.array([self.summarize_one(d) for d in col], type=pa.large_string())
        return batch.set_column(
            batch.schema.get_field_index(self.column), self.column, out
        )


def summarize_descriptions(ds, concurrency=(1, 4), batch_size: int = 1024,
                           summarizer_cls=DescriptionSummarizer,
                           use_actor_pool: bool = False, **kwargs):
    """Dataset[entity|relationship] -> same with summarized description.

    The deterministic default summarizer is trivial to construct, so the
    stage runs as a task pool with a per-worker-process cache (actor-pool
    startup is ~1-2s of pure overhead per stage).  LLM summarizer
    strategies pass ``use_actor_pool=True`` to hold the warm client per
    actor instead.
    """
    from knowledge_graph_ray.functions import grouping

    empty = grouping.empty_tables([ds])
    if empty is not None:
        return grouping.driver_dataset(summarizer_cls(**kwargs)(*empty))
    if use_actor_pool:
        return ds.map_batches(
            summarizer_cls,
            fn_constructor_kwargs=kwargs,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    from knowledge_graph_ray.functions.poolcache import cached_class_map

    return cached_class_map(ds, summarizer_cls, batch_size=batch_size, **kwargs)
