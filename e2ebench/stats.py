"""Latency statistics with an explicit sample-count rule.

A percentile is only reported when at least ``MIN_TAIL`` samples lie
beyond its rank, so that it is more than one outlier: p50 needs 20
samples and p90 needs 100.  Failed or refused operations enter the
sample set as ``+inf`` — they miss every latency limit — and
nearest-rank selection keeps the arithmetic finite-safe.
"""

from __future__ import annotations

import math

MIN_TAIL = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples`` (``+inf`` allowed).

    Raises ``ValueError`` when fewer than ``MIN_TAIL`` samples lie beyond
    the rank: a run too short for its percentile is an error, not a
    number.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    values = sorted(samples)
    rank = max(1, math.ceil(q * len(values) / 100.0))
    if len(values) - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL} samples beyond its rank, "
            f"got {len(values) - rank} of {len(values)}"
        )
    return values[rank - 1]

