"""Backward-pass micro-benchmark: fused vs reference rasterizer gradients.

Times ``render_backward`` — the inner loop of tracking and mapping — in
three configurations at each scene scale:

* ``reference``: the per-tile executable spec that re-runs ``tile_forward``
  for every tile;
* ``bucketed``: the bucketed accumulator rebuilding the forward
  intermediates once (no retained cache);
* ``fused``: the bucketed accumulator consuming the ``ForwardCache``
  retained by the forward render — the path the SLAM optimizers run
  (one forward per iteration, backward reuses its cache);

plus ``iteration.fused``: one full optimizer iteration (forward render
retaining the cache + fused backward), the end-to-end quantity tracking
and mapping pay per iteration.

Results (with speedups) go to the ``BENCH_backward.json`` perf-trajectory
file at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed_backward.py           # write
    PYTHONPATH=src python benchmarks/bench_speed_backward.py --gate    # guard

``--gate`` refuses to overwrite an existing ``BENCH_backward.json`` when
any gated timing regressed by more than ``--max-regression`` (default
20 %), exiting non-zero — run it from ``scripts/bench_speed.sh``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_gate import best_of, check_gate, gate_table  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402

from repro.gaussians import (  # noqa: E402
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    render,
    render_backward,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_backward.json"

# (height, width, gaussians): a small tracking-scale scene and the paper's
# full 480x640 frame size at two map densities.
SCENES = [(120, 160, 200), (480, 640, 200), (480, 640, 500)]

# Timings gated by --gate: the bucketed/fused hot paths (the quantities
# this repo promises to keep fast).  Reference timings are informational.
GATED_KEYS = [
    "backward.120x160.n200.fused",
    "backward.480x640.n200.bucketed",
    "backward.480x640.n200.fused",
    "backward.480x640.n500.fused",
    "iteration.480x640.n200.fused",
]


def _scene(height: int, width: int, count: int):
    model = GaussianModel.random(count, extent=1.0, seed=3)
    model.means[:, 2] += 3.0
    camera = Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=(height, width, 3))
    grad_depth = rng.normal(size=(height, width))
    return model, camera, grad_color, grad_depth


def bench_backward(repeats: int) -> dict[str, float]:
    timings: dict[str, float] = {}
    for height, width, count in SCENES:
        label = f"{height}x{width}.n{count}"
        model, camera, grad_color, grad_depth = _scene(height, width, count)

        cache = ForwardCache()
        fused_result = render(
            model, camera, record_workloads=False, record_contributions=False, cache=cache
        )
        plain_result = render(model, camera, record_workloads=False, record_contributions=False)

        timings[f"backward.{label}.reference"] = best_of(
            lambda: render_backward(
                model, camera, plain_result, grad_color, grad_depth,
                compute_pose_gradient=True, backend="reference",
            ),
            1,
        )
        # No retained cache: the bucketed backward rebuilds the forward
        # intermediates itself.
        timings[f"backward.{label}.bucketed"] = best_of(
            lambda: render_backward(
                model, camera, plain_result, grad_color, grad_depth,
                compute_pose_gradient=True,
            ),
            repeats,
        )
        # Fused: forward already retained the cache; backward only consumes.
        timings[f"backward.{label}.fused"] = best_of(
            lambda: render_backward(
                model, camera, fused_result, grad_color, grad_depth,
                compute_pose_gradient=True,
            ),
            repeats,
        )

        def one_iteration():
            result = render(
                model, camera, record_workloads=False, record_contributions=False, cache=cache
            )
            render_backward(
                model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
            )

        timings[f"iteration.{label}.fused"] = best_of(one_iteration, repeats)
    return timings


def build_results(repeats: int) -> dict:
    timings = bench_backward(repeats)

    speedups = {}
    for height, width, count in SCENES:
        label = f"{height}x{width}.n{count}"
        reference = timings[f"backward.{label}.reference"]
        speedups[f"backward.{label}.bucketed"] = reference / timings[f"backward.{label}.bucketed"]
        speedups[f"backward.{label}.fused"] = reference / timings[f"backward.{label}.fused"]

    targets = {
        # Tentpole target: >=3x on the fused backward at the paper's frame
        # size with a 200-Gaussian map.
        "backward.480x640.n200.fused >= 3x": speedups["backward.480x640.n200.fused"] >= 3.0,
    }
    return {
        "benchmark": "backward",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "scenes": [list(scene) for scene in SCENES],
            "repeats": repeats,
        },
        "timings_seconds": {key: timings[key] for key in sorted(timings)},
        "speedups": {key: round(value, 2) for key, value in sorted(speedups.items())},
        "targets_met": targets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (and keep the old file) on a hot-path regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional slowdown per gated timing (default 0.20)",
    )
    args = parser.parse_args(argv)

    results = build_results(args.repeats)
    print(f"backward benchmark ({args.repeats} repeats, best-of):")
    for key, value in results["timings_seconds"].items():
        print(f"  {key:<38}{value * 1e3:>10.2f} ms")
    print("speedups:")
    for key, value in results["speedups"].items():
        print(f"  {key:<38}{value:>9.1f}x")
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        failures = check_gate(previous, results, args.max_regression, GATED_KEYS)
        print("\ngated timings vs previous BENCH_backward.json:")
        print(gate_table(previous, results, GATED_KEYS))
        if failures:
            print("\nPERF GATE FAILED — keeping previous BENCH_backward.json:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("perf gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
