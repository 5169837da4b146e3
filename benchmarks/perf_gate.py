"""Shared helpers for the benchmark scripts.

The speed benchmarks guard a set of gated hot-path timings against their
committed ``BENCH_*.json`` trajectory file; the regression check, the
old-vs-new comparison table and the best-of-N timer live here so the
scripts cannot drift.  The correctness-gated benchmarks share the
bit-identity check and the latency percentile from here too.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["best_of", "check_gate", "gate_table", "percentile", "results_identical"]


def best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()`` (after warmup)."""
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def results_identical(a, b) -> bool:
    """Bit-identity of two SLAM results: poses, losses, keyframes, map sizes."""
    if len(a.frames) != len(b.frames):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if not np.array_equal(fa.estimated_pose.quat, fb.estimated_pose.quat):
            return False
        if not np.array_equal(fa.estimated_pose.trans, fb.estimated_pose.trans):
            return False
        if (
            fa.tracking_loss != fb.tracking_loss
            or fa.mapping_loss != fb.mapping_loss
            or fa.is_keyframe != fb.is_keyframe
            or fa.num_gaussians != fb.num_gaussians
        ):
            return False
    return True


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ascending ``sorted_values`` (0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def check_gate(previous: dict, current: dict, max_regression: float, gated_keys) -> list[str]:
    """Return regression messages for gated timings (empty = pass)."""
    failures = []
    old = previous.get("timings_seconds", {})
    new = current["timings_seconds"]
    for key in gated_keys:
        if key not in old or key not in new:
            continue
        limit = old[key] * (1.0 + max_regression)
        if new[key] > limit:
            failures.append(
                f"{key}: {new[key]:.4f}s vs previous {old[key]:.4f}s "
                f"(+{100.0 * (new[key] / old[key] - 1.0):.1f}% > {100.0 * max_regression:.0f}%)"
            )
    return failures


def gate_table(previous: dict, current: dict, gated_keys) -> str:
    """Format the gated timings, previous vs new, as a comparison table."""
    old = previous.get("timings_seconds", {})
    new = current["timings_seconds"]
    lines = [f"  {'gated timing':<38}{'previous':>12}{'new':>12}{'delta':>9}"]
    for key in gated_keys:
        if key not in new:
            continue
        if key in old:
            delta = 100.0 * (new[key] / old[key] - 1.0)
            lines.append(
                f"  {key:<38}{old[key] * 1e3:>10.2f}ms{new[key] * 1e3:>10.2f}ms{delta:>+8.1f}%"
            )
        else:
            lines.append(f"  {key:<38}{'-':>12}{new[key] * 1e3:>10.2f}ms{'new':>9}")
    return "\n".join(lines)
