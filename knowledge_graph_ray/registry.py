"""Strategy registry — the reference's user-extension surface (SURVEY §2.10).

The reference exposes per-verb strategy enums + ``load_strategy`` match
statements (entity extraction ``graph_intelligence | graph_intelligence_json
| nltk``, verbs/entities/extraction/entity_extract.py:15-54; summarization
description_summarize.py:15-72; claims extract_covariates.py:139-145;
clustering cluster_graph.py:90-97).  Here the extraction hook is a
table of name-registered extractor strategies (callable classes for the
actor pool); summarizers, report composers and claim extractors are
passed as classes.
"""

from __future__ import annotations

from knowledge_graph_ray.stages.extract import CooccurrenceExtractor, PatternExtractor


class LLMGraphExtractor:
    """Seam for the reference's ``graph_intelligence`` strategy (LLM
    delimited-record extraction with gleaning, graph_extractor.py:80-176).
    No LLM endpoint exists in this environment."""

    def __init__(self, *args, **kwargs):
        raise NotImplementedError(
            "graph_intelligence requires an LLM endpoint (the reference uses "
            "ChatOpenAI gpt-4o-mini); use the 'openai_compat' strategy with "
            "KG_RAY_LLM_BASE_URL set, or subclass PatternExtractor and "
            "override _extract_raw(text) -> wire-format records"
        )


from knowledge_graph_ray.stages.llm import OpenAICompatGraphExtractor  # noqa: E402

EXTRACTORS = {
    "pattern": PatternExtractor,  # gazetteer + relation verbs (nltk-strategy shape)
    "cooccurrence": CooccurrenceExtractor,  # verb-free co-occurrence cliques
    "graph_intelligence": LLMGraphExtractor,  # LLM seam (needs an endpoint)
    "openai_compat": OpenAICompatGraphExtractor,  # live seam (stages/llm.py)
}


def register_extractor(name: str, cls) -> None:
    EXTRACTORS[name] = cls


def get_extractor(name: str):
    try:
        return EXTRACTORS[name]
    except KeyError as err:
        raise ValueError(
            f"unknown extractor strategy {name!r}; known: {sorted(EXTRACTORS)}"
        ) from err
