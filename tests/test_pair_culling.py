"""Exactness tests for sparse pair culling (opacity radii + precise tiles).

The culling knobs — ``render(..., radius="opacity", cull="precise")``, the
defaults — must be *pure* speedups: relative to the legacy
``radius="sigma"`` / ``cull="aabb"`` tables they may only drop
(tile, Gaussian) pairs whose alpha is below ``ALPHA_MIN`` at every pixel
center of the tile.  These tests pin that down at full strength:

* dropped pairs are verified zero-alpha by evaluating their conics over
  the tile's pixels;
* the bucketed forward render and the fused backward are *bit-identical*
  across all four radius/cull combinations, with and without
  ``record_workloads`` (which also attaches the sub-tile intervals);
* the integer contribution statistics (touched / non-contributory pixel
  counts, per-Gaussian alpha maxima) are exactly equal across modes (the
  culled pairs are added back), so AGS's contribution-aware decisions are
  unchanged;
* the bucketed-vs-reference statistics equality of PR 2 holds on culled
  grids, and the new ``raster.pairs_*`` counters and ``TileGrid``
  accounting are consistent.

The ``-m slow`` entry sweeps randomized opacities / scales / poses.
"""

import numpy as np
import pytest

from repro.gaussians import (
    Camera,
    ForwardCache,
    GaussianModel,
    Intrinsics,
    Pose,
    render,
    render_backward,
)
from repro.gaussians.projection import ALPHA_MIN, RADIUS_MODES, project_gaussians
from repro.gaussians.rasterizer import DEFAULT_CULL_MODE, DEFAULT_RADIUS_MODE
from repro.gaussians.tiles import CULL_MODES, assign_tiles
from repro.perf import PerfRecorder

MODES = [(radius, cull) for radius in RADIUS_MODES for cull in CULL_MODES]


def _scene(count=120, seed=3, width=72, height=56, fov=60.0, opacity_shift=0.0,
           scale_shift=0.0, pose=None):
    model = GaussianModel.random(count, extent=1.0, seed=seed)
    model.means[:, 2] += 3.0
    if opacity_shift:
        model.opacities = model.opacities + opacity_shift
    if scale_shift:
        model.log_scales = model.log_scales + scale_shift
    camera = Camera(Intrinsics.from_fov(width, height, fov), pose or Pose.identity())
    return model, camera


def _mixed_opacity_scene(**kwargs):
    """A SLAM-like population: many weak splats below/near the cut-off."""
    model, camera = _scene(**kwargs)
    rng = np.random.default_rng(7)
    low = rng.random(len(model)) < 0.5
    model.opacities[low] -= rng.uniform(4.0, 10.0, size=int(low.sum()))
    return model, camera


def _assert_renders_bit_identical(a, b):
    np.testing.assert_array_equal(a.color, b.color)
    np.testing.assert_array_equal(a.depth, b.depth)
    np.testing.assert_array_equal(a.silhouette, b.silhouette)
    np.testing.assert_array_equal(a.final_transmittance, b.final_transmittance)


def _assert_contrib_stats_equal(a, b):
    np.testing.assert_array_equal(a.gaussian_pixels_touched, b.gaussian_pixels_touched)
    np.testing.assert_array_equal(
        a.gaussian_noncontrib_pixels, b.gaussian_noncontrib_pixels
    )
    np.testing.assert_array_equal(a.gaussian_max_alpha, b.gaussian_max_alpha)


# ----------------------------------------------------------------------
# The cull drops only provably zero-alpha pairs
# ----------------------------------------------------------------------
def test_culled_tables_are_subsets_dropping_only_zero_alpha_pairs():
    model, camera = _mixed_opacity_scene()
    legacy = render(model, camera, radius="sigma", cull="aabb")
    culled = render(model, camera)
    grid_legacy, grid_culled = legacy.tile_grid, culled.tile_grid
    projection = legacy.projection
    opac = model.alphas

    assert grid_culled.pairs_culled > 0
    dropped_pairs = 0
    for table_l, table_c in zip(grid_legacy.tables, grid_culled.tables):
        kept = set(table_c.gaussian_ids.tolist())
        assert kept <= set(table_l.gaussian_ids.tolist())
        dropped = [g for g in table_l.gaussian_ids.tolist() if g not in kept]
        if not dropped:
            continue
        dropped_pairs += len(dropped)
        pixels = grid_legacy.pixel_centers(table_l)
        for gid in dropped:
            d = pixels - projection.means2d[gid]
            conic = projection.conics[gid]
            q = (
                conic[0, 0] * d[:, 0] ** 2
                + 2.0 * conic[0, 1] * d[:, 0] * d[:, 1]
                + conic[1, 1] * d[:, 1] ** 2
            )
            alpha = opac[gid] * np.exp(np.minimum(-0.5 * q, 0.0))
            assert alpha.max() < ALPHA_MIN
    assert dropped_pairs == grid_culled.pairs_culled


def test_tile_grid_pair_accounting_consistent():
    model, camera = _mixed_opacity_scene()
    result = render(model, camera)
    grid = result.tile_grid
    assert grid.pairs_total - grid.pairs_culled == grid.total_assignments()
    assert grid.cull == DEFAULT_CULL_MODE
    assert grid.radius_mode == DEFAULT_RADIUS_MODE
    assert grid.mode_tag == f"{DEFAULT_RADIUS_MODE}:{DEFAULT_CULL_MODE}"
    # The legacy configuration reports its own pair count and no culling.
    legacy_grid = render(model, camera, radius="sigma", cull="aabb").tile_grid
    assert legacy_grid.pairs_culled == 0
    assert legacy_grid.culled_pixels is None
    assert legacy_grid.pairs_total == legacy_grid.total_assignments()
    assert legacy_grid.pairs_total == grid.pairs_total


# ----------------------------------------------------------------------
# Bit-identical rendering and statistics across every mode combination
# ----------------------------------------------------------------------
@pytest.mark.parametrize("radius,cull", MODES)
def test_render_bit_identical_across_modes(radius, cull):
    model, camera = _mixed_opacity_scene()
    legacy = render(model, camera, radius="sigma", cull="aabb")
    for record_workloads in (True, False):
        other = render(
            model, camera, radius=radius, cull=cull, record_workloads=record_workloads
        )
        _assert_renders_bit_identical(legacy, other)
        _assert_contrib_stats_equal(legacy, other)
        if record_workloads:
            assert other.total_pairs_blended == legacy.total_pairs_blended


def test_stats_render_integer_equality_bucketed_vs_reference_on_culled_grid():
    model, camera = _mixed_opacity_scene()
    reference = render(model, camera, backend="reference")
    bucketed = render(model, camera, backend="bucketed")
    _assert_contrib_stats_equal(reference, bucketed)
    np.testing.assert_allclose(bucketed.color, reference.color, atol=1e-9, rtol=0)
    for ref_tile, fast_tile in zip(reference.tile_workloads, bucketed.tile_workloads):
        assert fast_tile.pairs_computed == ref_tile.pairs_computed
        assert fast_tile.pairs_blended == ref_tile.pairs_blended
        assert fast_tile.num_gaussians == ref_tile.num_gaussians


def test_reference_backend_stats_invariant_across_modes():
    model, camera = _mixed_opacity_scene()
    legacy = render(model, camera, backend="reference", radius="sigma", cull="aabb")
    culled = render(model, camera, backend="reference")
    _assert_contrib_stats_equal(legacy, culled)
    # The per-tile reference loop sums each pixel over its own table, so
    # removing exact-zero entries leaves the images equal to round-off.
    np.testing.assert_allclose(culled.color, legacy.color, atol=1e-12, rtol=0)
    np.testing.assert_allclose(culled.silhouette, legacy.silhouette, atol=1e-12, rtol=0)


def test_workload_shrinks_but_blended_pairs_invariant():
    model, camera = _mixed_opacity_scene()

    def tile_granular(radius, cull):
        # Pair culling is measured on grids without sub-tile intervals
        # (the intervals would equalize the computed-pair counts, since
        # they already exclude every inactive pixel of the extra legacy
        # pairs).
        projection = project_gaussians(model, camera, radius=radius)
        grid = assign_tiles(
            projection, camera.width, camera.height, cull=cull, intervals=False
        )
        return render(model, camera, projection=projection, tile_grid=grid)

    legacy = tile_granular("sigma", "aabb")
    culled = tile_granular(DEFAULT_RADIUS_MODE, DEFAULT_CULL_MODE)
    assert culled.total_pairs_computed < legacy.total_pairs_computed
    assert culled.total_pairs_blended == legacy.total_pairs_blended
    # The intervals shrink the computed pairs further, blending invariant.
    pixel = render(model, camera)
    assert pixel.total_pairs_computed < culled.total_pairs_computed
    assert pixel.total_pairs_blended == culled.total_pairs_blended


def test_active_mask_culling_bit_identical():
    model, camera = _mixed_opacity_scene()
    mask = np.zeros(len(model), dtype=bool)
    mask[::2] = True
    legacy = render(model, camera, active_mask=mask, radius="sigma", cull="aabb")
    culled = render(model, camera, active_mask=mask)
    _assert_renders_bit_identical(legacy, culled)
    _assert_contrib_stats_equal(legacy, culled)


# ----------------------------------------------------------------------
# Fused backward: bit-identical gradients across modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_cache", [True, False])
def test_fused_backward_bit_identical_across_modes(use_cache):
    model, camera = _mixed_opacity_scene()
    rng = np.random.default_rng(0)
    grad_color = grad_depth = None
    legacy_grads = legacy_pose = None
    for radius, cull in [("sigma", "aabb")] + MODES:
        for record_workloads in (False, True):
            cache = ForwardCache() if use_cache else None
            result = render(
                model, camera, record_workloads=record_workloads,
                record_contributions=False, cache=cache, radius=radius, cull=cull,
            )
            if grad_color is None:
                grad_color = rng.normal(size=result.color.shape)
                grad_depth = rng.normal(size=result.depth.shape)
            grads, pose = render_backward(
                model, camera, result, grad_color, grad_depth, compute_pose_gradient=True
            )
            if legacy_grads is None:
                legacy_grads, legacy_pose = grads, pose
                continue
            for name, value in legacy_grads.as_dict().items():
                np.testing.assert_array_equal(grads.as_dict()[name], value, err_msg=name)
            np.testing.assert_array_equal(pose.vector, legacy_pose.vector)


def test_fused_backward_matches_reference_on_culled_grid():
    model, camera = _mixed_opacity_scene()
    rng = np.random.default_rng(1)
    cache = ForwardCache()
    result = render(model, camera, cache=cache)
    grad_color = rng.normal(size=result.color.shape)
    reference = render_backward(model, camera, result, grad_color, backend="reference")
    bucketed = render_backward(model, camera, result, grad_color, backend="bucketed")
    for name, value in reference[0].as_dict().items():
        np.testing.assert_allclose(
            bucketed[0].as_dict()[name], value, rtol=1e-9, atol=1e-9, err_msg=name
        )


def test_cache_mode_stamp_recorded():
    model, camera = _scene()
    cache = ForwardCache()
    result = render(model, camera, cache=cache)
    assert result.forward_cache_mode == f"{DEFAULT_RADIUS_MODE}:{DEFAULT_CULL_MODE}"
    assert cache.mode == result.forward_cache_mode


# ----------------------------------------------------------------------
# Projection radii and tile assignment knobs
# ----------------------------------------------------------------------
def test_opacity_radii_never_exceed_sigma_radii():
    model, camera = _mixed_opacity_scene()
    projection = project_gaussians(model, camera, radius="opacity")
    assert (projection.radii <= projection.radii_sigma).all()
    # Weak splats get strictly tighter radii.
    weak = model.alphas < 0.1
    assert (projection.radii[weak] < projection.radii_sigma[weak]).any()


def test_visibility_mask_mode_invariant():
    model, camera = _mixed_opacity_scene()
    sigma = project_gaussians(model, camera, radius="sigma")
    opacity = project_gaussians(model, camera, radius="opacity")
    np.testing.assert_array_equal(sigma.visible, opacity.visible)


def test_sub_alpha_min_opacity_gaussians_fully_culled():
    model, camera = _scene(count=8)
    model.opacities[:] = -8.0  # sigmoid ~3.4e-4 < 1/255: invisible everywhere
    result = render(model, camera)
    assert result.tile_grid.total_assignments() == 0
    assert np.array_equal(result.color, np.zeros_like(result.color))


def test_unknown_modes_rejected():
    model, camera = _scene(count=8)
    with pytest.raises(ValueError):
        render(model, camera, radius="circle")
    with pytest.raises(ValueError):
        render(model, camera, cull="octree")
    with pytest.raises(ValueError):
        project_gaussians(model, camera, radius="circle")
    with pytest.raises(ValueError):
        assign_tiles(project_gaussians(model, camera), camera.width, camera.height,
                     cull="octree")


def test_pair_counters_recorded():
    model, camera = _mixed_opacity_scene()
    perf = PerfRecorder()
    result = render(model, camera, perf=perf)
    counters = perf.counters.as_dict()
    assert counters["raster.pairs_total"] == result.tile_grid.pairs_total
    assert counters["raster.pairs_culled"] == result.tile_grid.pairs_culled
    assert counters["raster.pairs_culled"] > 0


# ----------------------------------------------------------------------
# Slow randomized sweeps
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_culling_exactness_sweep_randomized_scenes(seed):
    """Random opacities, scales, poses and image sizes: culled == legacy."""
    rng = np.random.default_rng(4000 + seed)
    count = int(rng.integers(10, 250))
    width = int(rng.integers(24, 96))
    height = int(rng.integers(24, 96))
    fov = float(rng.uniform(40.0, 90.0))
    opacity_shift = float(rng.uniform(-6.0, 4.0))
    scale_shift = float(rng.uniform(-0.5, 0.8))
    pose = Pose.identity().perturbed(rng.normal(scale=0.03, size=6))
    model, camera = _scene(
        count=count, seed=seed, width=width, height=height, fov=fov,
        opacity_shift=opacity_shift, scale_shift=scale_shift, pose=pose,
    )
    legacy = render(model, camera, radius="sigma", cull="aabb", cache=ForwardCache())
    for radius, cull in MODES:
        other = render(model, camera, radius=radius, cull=cull, cache=ForwardCache())
        _assert_renders_bit_identical(legacy, other)
        _assert_contrib_stats_equal(legacy, other)
        grad_color = np.random.default_rng(seed).normal(size=legacy.color.shape)
        legacy_grads, _ = render_backward(model, camera, legacy, grad_color)
        other_grads, _ = render_backward(model, camera, other, grad_color)
        for name, value in legacy_grads.as_dict().items():
            np.testing.assert_array_equal(other_grads.as_dict()[name], value, err_msg=name)
