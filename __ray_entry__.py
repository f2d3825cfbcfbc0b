"""Driver contract for the Ray-Data KG construction engine.

``entry()`` runs the flagship KG pipeline on sf0.001; ``queries()`` /
``oracle_sql()`` expose the KG queries of
knowledge_graph_ray.pipelines.queries: the SQL-checkable gates with
their DuckDB oracles first, then the rows-only stages.

Ray is initialised by the driver BEFORE this module is imported — no
ray.init()/shutdown() here or in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: full KG construction over /root/testdata/sf0.001 documents
    (wrapped as interleaved single-span docs) — chunk, extract (actor
    pool), canonicalize (G1/G2), summarize, degrees, components,
    communities, reports.  Returns the canonical entity table."""
    from knowledge_graph_ray.pipelines.queries import kg_pipeline_entities

    return kg_pipeline_entities("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from knowledge_graph_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from knowledge_graph_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
