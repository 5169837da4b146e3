"""Pair-culling micro-benchmark: exact sparse tables vs the legacy AABB.

Times the forward render and the fused forward/backward iteration — the
inner loops of tracking and mapping — under the legacy tile assignment
(``radius="sigma"``, ``cull="aabb"``) and the exact sparse configuration
(``radius="opacity"``, ``cull="precise"``, the defaults), on a SLAM-like
Gaussian population in which roughly half the splats are weak (the
post-densification, pre-pruning regime AGS's contribution statistics
target).  Before timing anything, the two configurations are verified
bit-identical — images, contribution statistics and fused backward
gradients — so the recorded speedup is provably a pure win.

The pixel-reduction table records the second, sub-tile culling stage:
the share of the retained pairs' (pair, pixel) entries that lie outside
their active-pixel intervals (computed by workload-recording renders).
That is the workload reduction the hardware models consume as sub-tile
skipping; the NumPy engine itself computes the dense lattice.

The results (timings, speedups and the per-scene pair- and
pixel-reduction tables) go to the ``BENCH_culling.json`` perf-trajectory
file at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed_culling.py           # write
    PYTHONPATH=src python benchmarks/bench_speed_culling.py --gate    # guard

``--gate`` refuses to overwrite an existing ``BENCH_culling.json`` when
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

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_culling.json"

IMAGE = (120, 160)  # (height, width), matching the hot-path render bench
MODEL_SIZES = [200, 800]
LEGACY = dict(radius="sigma", cull="aabb")
PRECISE = dict(radius="opacity", cull="precise")

# Timings gated by --gate: the culled hot paths (the quantities this repo
# promises to keep fast).  Legacy timings are informational.
GATED_KEYS = [
    "culling.n200.iteration.precise",
    "culling.n800.render.precise",
    "culling.n800.iteration.precise",
]


def _scene(count: int):
    """A SLAM-like map: half the splats weak (near/below the alpha cut-off)."""
    height, width = IMAGE
    model = GaussianModel.random(count, extent=1.0, seed=3)
    model.means[:, 2] += 3.0
    rng = np.random.default_rng(7)
    weak = rng.random(count) < 0.5
    model.opacities[weak] -= rng.uniform(4.0, 10.0, size=int(weak.sum()))
    camera = Camera(Intrinsics.from_fov(width, height, 60.0), Pose.identity())
    rng = np.random.default_rng(0)
    grad_color = rng.normal(size=(height, width, 3))
    grad_depth = rng.normal(size=(height, width))
    return model, camera, grad_color, grad_depth


def _verify_bit_identity(model, camera, grad_color, grad_depth) -> None:
    """Abort the benchmark if culling is not a pure (bit-exact) speedup."""
    legacy = render(model, camera, cache=ForwardCache(), **LEGACY)
    precise = render(model, camera, cache=ForwardCache(), **PRECISE)
    for name in ("color", "depth", "silhouette", "final_transmittance"):
        if not np.array_equal(getattr(legacy, name), getattr(precise, name)):
            raise SystemExit(f"bit-identity violated on {name}")
    for name in (
        "gaussian_pixels_touched",
        "gaussian_noncontrib_pixels",
        "gaussian_max_alpha",
    ):
        if not np.array_equal(getattr(legacy, name), getattr(precise, name)):
            raise SystemExit(f"bit-identity violated on {name}")
    grads_legacy, _ = render_backward(model, camera, legacy, grad_color, grad_depth)
    grads_precise, _ = render_backward(model, camera, precise, grad_color, grad_depth)
    for name, value in grads_legacy.as_dict().items():
        if not np.array_equal(value, grads_precise.as_dict()[name]):
            raise SystemExit(f"bit-identity violated on gradient {name}")


def bench_culling(repeats: int) -> tuple[dict[str, float], dict[str, dict], dict[str, dict]]:
    timings: dict[str, float] = {}
    reductions: dict[str, dict] = {}
    pixel_reductions: dict[str, dict] = {}
    for count in MODEL_SIZES:
        label = f"n{count}"
        model, camera, grad_color, grad_depth = _scene(count)
        _verify_bit_identity(model, camera, grad_color, grad_depth)

        grid = render(model, camera, **PRECISE).tile_grid
        reductions[label] = {
            "pairs_total": grid.pairs_total,
            "pairs_culled": grid.pairs_culled,
            "pairs_kept": grid.pairs_total - grid.pairs_culled,
            "culled_fraction": round(grid.pairs_culled / max(grid.pairs_total, 1), 4),
        }
        pixel_reductions[label] = {
            "pixels_total": grid.pixels_total,
            "pixels_culled": grid.pixels_culled,
            "pixels_kept": grid.pixels_total - grid.pixels_culled,
            "culled_fraction": round(grid.pixels_culled / max(grid.pixels_total, 1), 4),
        }

        for tag, modes in (("aabb", LEGACY), ("precise", PRECISE)):
            timings[f"culling.{label}.render.{tag}"] = best_of(
                lambda m=modes: render(
                    model, camera, record_workloads=False,
                    record_contributions=False, **m,
                ),
                repeats,
            )
            cache = ForwardCache()

            def one_iteration(m=modes, c=cache):
                result = render(
                    model, camera, record_workloads=False,
                    record_contributions=False, cache=c, **m,
                )
                render_backward(
                    model, camera, result, grad_color, grad_depth,
                    compute_pose_gradient=True,
                )

            timings[f"culling.{label}.iteration.{tag}"] = best_of(one_iteration, repeats)
    return timings, reductions, pixel_reductions


def build_results(repeats: int) -> dict:
    timings, reductions, pixel_reductions = bench_culling(repeats)

    speedups = {}
    for count in MODEL_SIZES:
        label = f"n{count}"
        for quantity in ("render", "iteration"):
            speedups[f"culling.{label}.{quantity}"] = (
                timings[f"culling.{label}.{quantity}.aabb"]
                / timings[f"culling.{label}.{quantity}.precise"]
            )

    targets = {
        # Tentpole target: culling buys >= 1.2x on the fused render +
        # backward iteration at the densest bench scene.
        "culling.n800.iteration >= 1.2x": speedups["culling.n800.iteration"] >= 1.2,
        "culling.n800 culls >= 25% of pairs": reductions["n800"]["culled_fraction"] >= 0.25,
        # The sub-tile intervals remove a large share of the retained
        # pairs' pixel entries on the mixed-opacity scene.
        "culling.n800 culls >= 40% of sub-tile pixels": (
            pixel_reductions["n800"]["culled_fraction"] >= 0.40
        ),
    }
    return {
        "benchmark": "culling",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "image": list(IMAGE),
            "model_sizes": MODEL_SIZES,
            "repeats": repeats,
            "bit_identity_verified": True,
        },
        "timings_seconds": {key: timings[key] for key in sorted(timings)},
        "speedups": {key: round(value, 2) for key, value in sorted(speedups.items())},
        "pair_reduction": reductions,
        "pixel_reduction": pixel_reductions,
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
    print(f"pair-culling benchmark ({args.repeats} repeats, best-of, bit-identity verified):")
    for key, value in results["timings_seconds"].items():
        print(f"  {key:<38}{value * 1e3:>10.2f} ms")
    print("speedups (aabb -> precise):")
    for key, value in results["speedups"].items():
        print(f"  {key:<38}{value:>9.2f}x")
    print("pair reduction:")
    header = f"  {'scene':<8}{'pairs (sigma/aabb)':>20}{'kept':>10}{'culled':>10}{'fraction':>10}"
    print(header)
    for label, row in results["pair_reduction"].items():
        print(
            f"  {label:<8}{row['pairs_total']:>20}{row['pairs_kept']:>10}"
            f"{row['pairs_culled']:>10}{row['culled_fraction']:>9.1%}"
        )
    print("pixel reduction (sub-tile intervals of the retained pairs):")
    header = f"  {'scene':<8}{'pair pixels':>14}{'kept':>10}{'culled':>10}{'fraction':>10}"
    print(header)
    for label, row in results["pixel_reduction"].items():
        print(
            f"  {label:<8}{row['pixels_total']:>14}{row['pixels_kept']:>10}"
            f"{row['pixels_culled']:>10}{row['culled_fraction']:>9.1%}"
        )
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        failures = check_gate(previous, results, args.max_regression, GATED_KEYS)
        print("\ngated timings vs previous BENCH_culling.json:")
        print(gate_table(previous, results, GATED_KEYS))
        if failures:
            print("\nPERF GATE FAILED — keeping previous BENCH_culling.json:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("perf gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
