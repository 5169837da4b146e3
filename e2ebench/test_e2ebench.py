"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

import pytest

from e2ebench import bench
from e2ebench.bench import END_TO_END, feed_pass
from e2ebench.inputs import WORKLOADS, frames_digest, make_stream, predicted_refine_frac
from e2ebench.layers import PER_LAYER, TARGETS, per_layer_metrics
from e2ebench.stats import percentile
from e2ebench.tracing import Span, Target, Tracer, summarize

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(reversed(samples)), 90) == 90


def test_percentile_needs_ten_samples_beyond_its_rank():
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError, match="p90"):
        percentile(range(99), 90)
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError, match="p50"):
        percentile(range(19), 50)


def test_failures_count_as_infinite_latency():
    samples = [1.0] * 85 + [math.inf] * 15
    assert percentile(samples, 50) == 1.0
    assert percentile(samples, 90) == math.inf
    assert percentile([math.inf] * 100, 90) == math.inf


# ----------------------------------------------------------------------
# Span aggregation
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None, 0)


def test_self_time_subtracts_direct_children():
    # session [0, 100) > mapping [10, 90) > render [20, 50), render [60, 80)
    spans = [
        _span("session", 0, 100),
        _span("mapping", 10, 90, parent=0),
        _span("raster.render", 20, 50, parent=1),
        _span("raster.render", 60, 80, parent=1),
    ]
    layers = summarize(spans)
    assert layers["session"].self_s == pytest.approx(20e-9)
    assert layers["mapping"].self_s == pytest.approx(30e-9)
    assert layers["mapping"].busy_s == pytest.approx(80e-9)
    assert layers["mapping"].child_coverage == pytest.approx(50 / 80)
    assert layers["raster.render"].busy_s == pytest.approx(50e-9)
    assert layers["raster.render"].calls == 2


def test_nested_spans_of_one_layer_count_busy_time_once():
    # codec encode_pair [0, 10) calls motion_estimate [2, 9)
    spans = [_span("codec", 0, 10), _span("codec", 2, 9, parent=0)]
    layers = summarize(spans)
    assert layers["codec"].busy_s == pytest.approx(10e-9)
    assert layers["codec"].self_s == pytest.approx(10e-9)
    assert layers["codec"].calls == 1
    assert layers["codec"].child_coverage == pytest.approx(0.0)


def test_open_spans_are_skipped():
    spans = [_span("session", 0, 100), None, _span("mapping", 10, 20, parent=1)]
    layers = summarize(spans)
    assert layers["session"].self_s == pytest.approx(100e-9)
    assert layers["mapping"].calls == 1


# ----------------------------------------------------------------------
# Wrapper install / uninstall at every import site
# ----------------------------------------------------------------------
def _bindings(original):
    return [
        (name, attr)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(module).items())
        if value is original
    ]


def test_install_wraps_every_import_site_and_uninstall_restores_them():
    import repro.gaussians
    import repro.gaussians.rasterizer as rasterizer
    import repro.gaussians.tiles as tiles
    import repro.slam.mapper as mapper
    import repro.slam.tracker as tracker
    from repro.slam.session import SessionRunner

    render = rasterizer.render
    assign_tiles = tiles.assign_tiles
    feed = SessionRunner.__dict__["feed"]
    render_sites = _bindings(render)
    assert {("repro.slam.mapper", "render"), ("repro.slam.tracker", "render")} <= set(render_sites)

    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        assert _bindings(render) == []
        assert _bindings(assign_tiles) == []
        for module in (mapper, tracker, rasterizer, repro.gaussians):
            assert module.render is not render
            assert module.render.__wrapped__ is render
        assert rasterizer.assign_tiles is not assign_tiles
        assert SessionRunner.__dict__["feed"] is not feed
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert _bindings(render) == render_sites
    assert rasterizer.assign_tiles is assign_tiles
    assert SessionRunner.__dict__["feed"] is feed
    tracer.uninstall()  # idempotent


def test_wrapper_records_parent_request_and_counts():
    import types

    module = types.ModuleType("repro.tracedtest")
    sys.modules["repro.tracedtest"] = module
    try:
        exec(
            "def inner(x):\n    return (x, 3)\n"
            "def outer(x):\n    return inner(x + 1)\n",
            module.__dict__,
        )
        tracer = Tracer(
            [
                Target("outer", "repro.tracedtest", "outer", request=lambda t, a: ("s", a[0])),
                Target("inner", "repro.tracedtest", "inner", count=("things", lambda r: r[1])),
            ]
        )
        tracer.install()
        try:
            assert module.outer(1) == (2, 3)
        finally:
            tracer.uninstall()
        outer, inner = tracer.snapshot()
        assert outer.parent is None and inner.parent == 0
        assert outer.request == inner.request == ("s", 1)
        assert tracer.counts["things"] == 3
    finally:
        del sys.modules["repro.tracedtest"]


# ----------------------------------------------------------------------
# Bit-identity with tracing on and off
# ----------------------------------------------------------------------
def test_results_bit_identical_with_tracing_on_and_off():
    spec = dataclasses.replace(WORKLOADS["hover"], frames=6)
    sequence = make_stream(spec, seed=3)
    untraced = feed_pass(sequence)
    tracer = Tracer(TARGETS)
    traced = feed_pass(sequence, tracer=tracer, traced=lambda index: True)
    assert not tracer.installed
    assert json.dumps(traced.payload) == json.dumps(untraced.payload)
    spans = tracer.snapshot()
    names = {span.name for span in spans}
    assert {"session", "covisibility", "codec", "tracking", "mapping", "raster.render"} <= names
    sessions = [span for span in spans if span.name == "session"]
    assert [span.request for span in sessions] == [("stream", i) for i in range(6)]
    # Every render ran inside a session span (none escaped).
    by_index = dict(enumerate(spans))
    for span in spans:
        if span.name == "raster.render":
            ancestor = span.parent
            while by_index[ancestor].name != "session":
                ancestor = by_index[ancestor].parent
            assert by_index[ancestor].request == span.request


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_failing_frame_fails_the_run_and_counts_every_unsent_frame(monkeypatch):
    frames, fail_at = 6, 2
    monkeypatch.setitem(WORKLOADS, "hover", dataclasses.replace(WORKLOADS["hover"], frames=frames))
    monkeypatch.setattr(bench, "measure_in_child", bench.measure_inprocess)
    new_session = bench.new_session

    def failing_session(intrinsics, perf=None):
        session = new_session(intrinsics, perf)
        feed = session.feed

        def feed_or_fail(frame):
            if frame.index == fail_at:
                raise RuntimeError("injected failure")
            return feed(frame)

        session.feed = feed_or_fail
        return session

    monkeypatch.setattr(bench, "new_session", failing_session)
    result = bench.run("hover", seed=1, seconds=0.0, trace=False).result()
    assert result["correct"] is False
    # One pass: each frame is a feed plus a read; the failed frame and
    # every later one count as failed, reads included.
    assert result["attempted"] == 2 * frames
    assert result["failed"] == 2 * (frames - fail_at)
    metrics = result["metrics"]
    assert metrics["completed_frac"]["value"] == pytest.approx(fail_at / frames)
    assert "frame_ms_p90" not in metrics  # too few samples: a failed check, not a number
    json.loads(json.dumps(result))


# ----------------------------------------------------------------------
# Seeded generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["hover", "fastpan"])
def test_same_seed_gives_byte_identical_frames(workload):
    spec = dataclasses.replace(WORKLOADS[workload], frames=5)
    first = frames_digest(make_stream(spec, seed=7))
    assert frames_digest(make_stream(spec, seed=7)) == first
    assert frames_digest(make_stream(spec, seed=8)) != first


def test_fastpan_character_is_fixed_by_its_schedule():
    spec = dataclasses.replace(WORKLOADS["fastpan"], frames=48)
    for seed in (1, 2):
        assert predicted_refine_frac(make_stream(spec, seed)) >= 1.0 / 3.0


# ----------------------------------------------------------------------
# Metric names agree with BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    metrics = per_layer_metrics([], {}, {}, [], 0.0)
    assert list(metrics) == [name for name, _ in PER_LAYER]
