"""Engine defaults, mirroring the reference's config surface.

Reference: /root/reference/config.py:1-68 (CHUNK_SIZE=1200, CHUNK_OVERLAP=100,
ENTITY_EXTRACTION_MAX_GLEANINGS=1, CLAIM_MAX_GLEANINGS=1, SEED=6969, LEVEL=0,
EXTRACT_COVARIATES=False, max_cluster_size=10 in
verbs/community_detection/clustering/leiden.py:13).

All values are overridable per-pipeline via ``PipelineConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- chunking (reference config.py:17-19) ---
CHUNK_SIZE = 1200  # tokens per text unit
CHUNK_OVERLAP = 100  # token overlap between consecutive units

# --- extraction protocol (reference graph/extractors/graph_extractor.py:17-20) ---
TUPLE_DELIMITER = "<|>"
RECORD_DELIMITER = "##"
COMPLETION_DELIMITER = "<|COMPLETE|>"
DEFAULT_ENTITY_TYPES = ["organization", "person", "geo", "event"]

# --- determinism (reference config.py:48) ---
SEED = 6969

# --- community detection (reference leiden.py:13, config.py:47) ---
MAX_CLUSTER_SIZE = 10
COMMUNITY_LEVEL = 0
USE_LCC = True  # reference clusters only the largest connected component

# --- summarization budgets (reference graph/summarization/graph_summarization.py:13-15) ---
MAX_SUMMARY_INPUT_TOKENS = 4_000
MAX_SUMMARY_LENGTH = 500

# --- community report budget (reference config.py:50) ---
COMMUNITY_REPORT_MAX_INPUT_LENGTH = 8_000

# --- optional stages (reference config.py:53) ---
EXTRACT_COVARIATES = False


@dataclass
class PipelineConfig:
    """Tunable knobs for one pipeline run.

    Batch sizes / concurrency are per-stage physical knobs; the defaults
    are sized for a 32-CPU node and scale with the cluster because every
    stage is a Ray Data operator (streaming executor handles placement).
    """

    chunk_size: int = CHUNK_SIZE
    chunk_overlap: int = CHUNK_OVERLAP
    entity_types: list[str] = field(default_factory=lambda: list(DEFAULT_ENTITY_TYPES))
    seed: int = SEED
    max_cluster_size: int = MAX_CLUSTER_SIZE
    use_lcc: bool = USE_LCC
    # "louvain" (networkx, pinned default) or "leiden" (the reference's
    # actual algorithm, functions/leiden.py — connected-community
    # guarantee, 3-5x faster at leaf scale)
    clustering_algorithm: str = "louvain"
    extract_claims: bool = EXTRACT_COVARIATES
    # decode media spans into a feature table (codecs are stubbed in this
    # environment — stages/multimodal.py; the plumbing is real)
    media_features: bool = False
    max_summary_input_tokens: int = MAX_SUMMARY_INPUT_TOKENS
    max_summary_length: int = MAX_SUMMARY_LENGTH

    # per-key state bounds (SURVEY §4 hub-entity rule): lexicographically
    # smallest-N description/source sets, exact under partial aggregation.
    # None = faithful unbounded reference semantics.
    max_descriptions_per_key: int | None = None
    max_sources_per_key: int | None = None

    # physical knobs
    chunk_batch_size: int = 256
    extract_batch_size: int = 256
    extract_concurrency: int | tuple[int, int] = (2, 8)
    # actor pool for expensive extractor state (LLM); task pool + per-
    # process cache for cheap pattern extractors (see stages/extract.py)
    extract_use_actor_pool: bool = True
