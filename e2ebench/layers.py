"""The AGS layer map: which calls each layer's spans wrap, and the
per-layer metrics computed from spans and the session's own counters.

Layer names follow the program's modules (see README.md for the
layer -> metric -> workload map).
"""

from __future__ import annotations

from e2ebench.tracing import LayerTime, Target, summarize


def _session_request(tracer, args):
    return tracer.session_request(args[0])


def _named_request(tracer, args):
    # Methods whose first argument after ``self`` is a session id / name.
    return (args[1], None)


def _submit_request(tracer, args):
    return (args[0].session_id, getattr(args[1], "index", None))


TARGETS = (
    Target("session", "repro.slam.session:SessionRunner", "feed", request=_session_request),
    Target("codec", "repro.codec.encoder:StreamingEncoder", "encode"),
    Target("codec", "repro.codec.encoder:StreamingEncoder", "encode_pair"),
    Target("codec", "repro.codec.motion_estimation", "motion_estimate"),
    Target("covisibility", "repro.core.covisibility:FrameCovisibilityDetector", "observe"),
    Target(
        "covisibility",
        "repro.core.covisibility:FrameCovisibilityDetector",
        "compare_with_keyframe",
    ),
    Target("tracking", "repro.core.tracking:MovementAdaptiveTracker", "track"),
    Target("tracking.coarse", "repro.slam.droid:DroidLiteTracker", "track"),
    Target("tracking.fine", "repro.slam.tracker:GaussianPoseTracker", "track"),
    Target("health", "repro.slam.health:TrackingHealthMonitor", "moderate"),
    Target("health", "repro.slam.health:TrackingHealthMonitor", "feature_pose"),
    Target("mapping", "repro.core.mapping:ContributionAwareMapper", "map_frame"),
    Target("mapping", "repro.slam.mapper:GaussianMapper", "map_frame"),
    Target(
        "densify",
        "repro.gaussians.densify",
        "densify_from_frame",
        count=("densify.gaussians_added", lambda result: result[1].num_added),
    ),
    Target("optimizer", "repro.gaussians.optimizer:Adam", "step"),
    Target("raster.project", "repro.gaussians.projection", "project_gaussians"),
    Target("raster.assign", "repro.gaussians.tiles", "assign_tiles"),
    Target("raster.render", "repro.gaussians.rasterizer", "render"),
    Target("raster.backward", "repro.gaussians.gradients", "render_backward"),
    Target("serve.decode", "repro.serve.api", "decode_frame"),
    Target("serve.ingest", "repro.serve.api:SlamServer", "ingest_frame", request=_named_request),
    Target("serve.submit", "repro.serve.ingest:AsyncSessionHandle", "submit", request=_submit_request),
    Target("serve.park", "repro.serve.registry:ParkingLot", "park", request=_named_request),
    Target("serve.resume", "repro.serve.registry:ParkingLot", "resume", request=_named_request),
    Target("serve.result", "repro.serve.registry:SessionRegistry", "result", request=_named_request),
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("session.self_s", "s"),
    ("session.child_coverage", "ratio"),
    ("codec.busy_s", "s"),
    ("codec.calls", "count"),
    ("codec.sad_evaluations", "count"),
    ("covisibility.busy_s", "s"),
    ("covisibility.coarse_only_frac", "ratio"),
    ("tracking.child_coverage", "ratio"),
    ("tracking.coarse.busy_s", "s"),
    ("tracking.fine.busy_s", "s"),
    ("tracking.fine.calls", "count"),
    ("tracking.fine.iterations", "count"),
    ("health.self_s", "s"),
    ("health.fallbacks", "count"),
    ("mapping.self_s", "s"),
    ("mapping.child_coverage", "ratio"),
    ("mapping.iterations", "count"),
    ("mapping.skip_frac", "ratio"),
    ("mapping.map_gaussians", "count"),
    ("densify.busy_s", "s"),
    ("densify.gaussians_added", "count"),
    ("optimizer.busy_s", "s"),
    ("optimizer.calls", "count"),
    ("raster.project.busy_s", "s"),
    ("raster.assign.busy_s", "s"),
    ("raster.render.self_s", "s"),
    ("raster.render.child_coverage", "ratio"),
    ("raster.backward.busy_s", "s"),
    ("raster.render.calls", "count"),
    ("raster.pairs_culled_frac", "ratio"),
    ("raster.pixels_culled_frac", "ratio"),
    ("raster.backward.cache_hit_frac", "ratio"),
    ("serve.ingest.child_coverage", "ratio"),
    ("serve.decode.busy_s", "s"),
    ("serve.submit.wait_s", "s"),
    ("serve.backpressure_waits", "count"),
    ("serve.park.busy_s", "s"),
    ("serve.park.calls", "count"),
    ("serve.resume.busy_s", "s"),
    ("serve.resume.calls", "count"),
    ("serve.result.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    spans,
    counters: dict,
    span_counts: dict,
    sessions: list[list[dict]],
    overhead_frac: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``spans`` are the tracer's spans, ``counters`` the sessions' own
    ``PerfRecorder`` counters, ``span_counts`` the counts taken from
    wrapped return values, ``sessions`` the per-frame result payloads of
    each traced session (:func:`repro.serve.api.result_to_payload`
    ``"frames"``), ``overhead_frac`` traced over untraced time, minus one.
    """
    layers = summarize(spans)

    def layer(name: str) -> LayerTime:
        return layers.get(name, LayerTime())

    frames = [frame for session in sessions for frame in session]
    tracked = [frame for frame in frames if frame["frame_index"] > 0]
    gaussian_iterations = sum(f["num_gaussians"] * f["mapping_iterations"] for f in frames)
    skipped_iterations = sum(f["gaussians_skipped"] * f["mapping_iterations"] for f in frames)
    final_maps = [session[-1]["num_gaussians"] for session in sessions if session]
    count = counters.get

    metrics = {
        "session.self_s": layer("session").self_s,
        "session.child_coverage": layer("session").child_coverage,
        "codec.busy_s": layer("codec").busy_s,
        "codec.calls": layer("codec").calls,
        "codec.sad_evaluations": count("codec.sad_evaluations", 0),
        "covisibility.busy_s": layer("covisibility").busy_s,
        "covisibility.coarse_only_frac": _ratio(
            sum(f["used_coarse_only"] for f in tracked), len(tracked)
        ),
        "tracking.child_coverage": layer("tracking").child_coverage,
        "tracking.coarse.busy_s": layer("tracking.coarse").busy_s,
        "tracking.fine.busy_s": layer("tracking.fine").busy_s,
        "tracking.fine.calls": layer("tracking.fine").calls,
        "tracking.fine.iterations": count("tracking.refine_iterations", 0),
        "health.self_s": layer("health").self_s,
        "health.fallbacks": count("session.tracking_fallbacks", 0),
        "mapping.self_s": layer("mapping").self_s,
        "mapping.child_coverage": layer("mapping").child_coverage,
        "mapping.iterations": count("mapping.iterations", 0),
        "mapping.skip_frac": _ratio(skipped_iterations, gaussian_iterations),
        "mapping.map_gaussians": _ratio(sum(final_maps), len(final_maps)),
        "densify.busy_s": layer("densify").busy_s,
        "densify.gaussians_added": span_counts.get("densify.gaussians_added", 0),
        "optimizer.busy_s": layer("optimizer").busy_s,
        "optimizer.calls": layer("optimizer").calls,
        "raster.project.busy_s": layer("raster.project").busy_s,
        "raster.assign.busy_s": layer("raster.assign").busy_s,
        "raster.render.self_s": layer("raster.render").self_s,
        "raster.render.child_coverage": layer("raster.render").child_coverage,
        "raster.backward.busy_s": layer("raster.backward").busy_s,
        "raster.render.calls": layer("raster.render").calls,
        "raster.pairs_culled_frac": _ratio(
            count("raster.pairs_culled", 0), count("raster.pairs_total", 0)
        ),
        "raster.pixels_culled_frac": _ratio(
            count("raster.pixels_culled", 0), count("raster.pixels_total", 0)
        ),
        "raster.backward.cache_hit_frac": _ratio(
            count("raster.backward_cache_hits", 0), count("raster.backward_calls", 0)
        ),
        "serve.ingest.child_coverage": layer("serve.ingest").child_coverage,
        "serve.decode.busy_s": layer("serve.decode").busy_s,
        "serve.submit.wait_s": layer("serve.submit").busy_s,
        "serve.backpressure_waits": count("serve.backpressure_waits", 0),
        "serve.park.busy_s": layer("serve.park").busy_s,
        "serve.park.calls": layer("serve.park").calls,
        "serve.resume.busy_s": layer("serve.resume").busy_s,
        "serve.resume.calls": layer("serve.resume").calls,
        "serve.result.busy_s": layer("serve.result").busy_s,
        "trace.overhead_frac": overhead_frac,
        "trace.spans": sum(1 for span in spans if span is not None),
    }
    return {name: float(value) for name, value in metrics.items()}
