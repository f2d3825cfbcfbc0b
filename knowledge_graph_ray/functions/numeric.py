"""Rounding that matches DuckDB.

DuckDB ``round()`` rounds half AWAY FROM ZERO; Python ``round()`` and
pyarrow's default round mode are half-to-even — a one-ulp landmine for
the scaled-integer oracle outputs (observed: jaccard_e6 70312 vs 70313
at a .5 boundary).  Every query that hash-compares a rounded value with
a DuckDB oracle must round through these helpers.
"""

from __future__ import annotations

import math


def round_half_away(x: float) -> int:
    """round-half-away-from-zero to int (DuckDB round() semantics)."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))
