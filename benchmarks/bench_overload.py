"""Overload benchmark: admission storms, graceful drain, disarmed parity.

Hammers a deliberately under-provisioned :class:`~repro.serve.api.SlamServer`
with the :mod:`repro.serve.chaos` storm driver and gates the PR 10
headline invariant before writing ``BENCH_overload.json``:

* **Storm cell** — 8 concurrent clients against a 2-slot in-flight
  budget (4x over capacity) on the ``serve-chaos`` misbehavior plan
  (deterministic stalls + torn uploads).  The server must not crash,
  must shed loudly (at least one 429), and every *admitted* frame must
  land exactly once: all 8 final trajectories bit-identical to an
  in-process synchronous feed of the same frames.  Admitted-POST p95
  latency must stay under a generous bound — overload slows clients
  down (back-off), it never wedges them.
* **Disarmed cell** — no admission controller, no deadlines, a single
  polite client: the served result must be bit-identical to the
  synchronous reference, i.e. the PR 10 machinery is invisible when
  switched off.
* **Drain cell** — a half-streamed session survives
  ``stop(drain_timeout=)`` as a parked checkpoint; a fresh server on the
  same parking root resumes it and the stitched run is bit-identical to
  an uninterrupted one.

Usage::

    PYTHONPATH=src python benchmarks/bench_overload.py            # write
    PYTHONPATH=src python benchmarks/bench_overload.py --gate     # guard
    PYTHONPATH=src python benchmarks/bench_overload.py --smoke    # CI smoke

``--gate`` refuses to overwrite an existing ``BENCH_overload.json`` when
a previously met target is now missed.  ``--smoke`` runs one storm
client against a one-slot budget (bit-identity only) and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_gate import percentile  # noqa: E402
from repro.datasets import load_sequence  # noqa: E402
from repro.eval.service import build_session  # noqa: E402
from repro.faults import get_serving_fault_plan  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionController,
    SlamClient,
    SlamServer,
    run_storm,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_overload.json"

SEQUENCE = "desk"
NUM_FRAMES = 6
ALGORITHM = "orb"
SESSION_SPEC = dict(tracking_iterations=4, mapping_iterations=2)
STORM_CLIENTS = 8
MAX_IN_FLIGHT = 2  # 8 clients / 2 slots = 4x over capacity
NUM_SHARDS = 2
MAX_LIVE = 2  # per shard — the storm also churns the parking lot
POOL_WORKERS = 2
STORM_PLAN = "serve-chaos"
ADMITTED_P95_BOUND_S = 60.0  # admitted posts back off, they never wedge


def _load_frames():
    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    return sequence.intrinsics, list(sequence.frames())


def _sync_reference(intrinsics, frames):
    session = build_session(ALGORITHM, intrinsics, **SESSION_SPEC)
    session.begin("bench")
    for frame in frames:
        session.feed(frame)
    return session.finalize()


def _payload_matches(reference, payload) -> bool:
    """Served JSON result vs an in-process SlamResult, bit-exactly."""
    if payload is None or payload["num_frames"] != len(reference.frames):
        return False
    for got, ref in zip(payload["frames"], reference.frames):
        if got["frame_index"] != ref.frame_index:
            return False
        if got["estimated_pose"] != ref.estimated_pose.as_vector().tolist():
            return False
        if got["tracking_loss"] != ref.tracking_loss:
            return False
        if got["mapping_loss"] != ref.mapping_loss:
            return False
        if got["num_gaussians"] != ref.num_gaussians:
            return False
    return True


def _run_storm_cell(intrinsics, frames, reference) -> dict:
    admission = AdmissionController(max_in_flight=MAX_IN_FLIGHT)
    with SlamServer(
        num_shards=NUM_SHARDS,
        max_live=MAX_LIVE,
        pool_workers=POOL_WORKERS,
        admission=admission,
    ) as server:
        start = time.perf_counter()
        report = run_storm(
            server.address,
            frames,
            num_clients=STORM_CLIENTS,
            algorithm=ALGORITHM,
            session_spec=SESSION_SPEC,
            plan=get_serving_fault_plan(STORM_PLAN),
        )
        elapsed = time.perf_counter() - start
        health = SlamClient(server.address).healthz()

    errors = [f"{c.client_id}: {c.error}" for c in report.clients if c.error]
    mismatched = [
        c.client_id for c in report.clients if not _payload_matches(reference, c.result)
    ]
    latencies = sorted(report.admitted_latencies())
    p95 = percentile(latencies, 0.95)
    return {
        "clients": STORM_CLIENTS,
        "max_in_flight": MAX_IN_FLIGHT,
        "plan": STORM_PLAN,
        "elapsed_seconds": round(elapsed, 3),
        "survivors": len(report.survivors),
        "total_sheds": report.total_sheds,
        "total_disconnects": report.total_disconnects,
        "admitted_post_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "admitted_post_p95_ms": round(p95 * 1e3, 3),
        "in_flight_after": health["admission"]["in_flight"],
        "server_shed_total": health["admission"]["shed_total"],
        "errors": errors,
        "mismatched_clients": mismatched,
        "p95_bounded": p95 <= ADMITTED_P95_BOUND_S,
    }


def _run_disarmed_cell(intrinsics, frames, reference) -> dict:
    with SlamServer(num_shards=1, pool_workers=1) as server:
        client = SlamClient(server.address, client_id="polite")
        height, width = frames[0].color.shape[:2]
        client.create_session("cam", ALGORITHM, width, height, **SESSION_SPEC)
        for frame in frames:
            client.post_frame("cam", frame)
        payload = client.result("cam")
        health = client.healthz()
    return {
        "identical": _payload_matches(reference, payload),
        "admission": health["admission"],  # None: the machinery is off
        "deadline_rejections": health["deadline_rejections"],
    }


def _run_drain_cell(intrinsics, frames, reference) -> dict:
    split = len(frames) // 2
    with tempfile.TemporaryDirectory(prefix="bench-overload-drain-") as park_root:
        server = SlamServer(num_shards=1, pool_workers=1, park_root=park_root)
        url = server.start()
        client = SlamClient(url)
        height, width = frames[0].color.shape[:2]
        client.create_session("cam", ALGORITHM, width, height, **SESSION_SPEC)
        for frame in frames[:split]:
            client.post_frame("cam", frame)
        report = server.stop(drain_timeout=60.0)

        with SlamServer(
            num_shards=1, pool_workers=1, park_root=park_root
        ) as second:
            client = SlamClient(second.address)
            created = client.create_session(
                "cam", ALGORITHM, width, height, **SESSION_SPEC
            )
            for frame in frames[split:]:
                client.post_frame("cam", frame)
            payload = client.result("cam")
    return {
        "frames_before_drain": split,
        "drain_report": report,
        "resumed": bool(created.get("resumed")),
        "identical_after_resume": _payload_matches(reference, payload),
    }


def build_results() -> dict:
    start = time.perf_counter()
    intrinsics, frames = _load_frames()
    reference = _sync_reference(intrinsics, frames)

    storm = _run_storm_cell(intrinsics, frames, reference)
    disarmed = _run_disarmed_cell(intrinsics, frames, reference)
    drain = _run_drain_cell(intrinsics, frames, reference)

    targets = {
        f"storm {STORM_CLIENTS} clients / {MAX_IN_FLIGHT} slots: no client errors": (
            not storm["errors"]
        ),
        "storm: every admitted stream bit-identical to sync feed": (
            storm["survivors"] == STORM_CLIENTS and not storm["mismatched_clients"]
        ),
        "storm: overload shed loudly (>=1 429)": storm["total_sheds"] >= 1,
        f"storm: admitted-POST p95 under {ADMITTED_P95_BOUND_S:g}s": storm[
            "p95_bounded"
        ],
        "storm: every admission slot released": storm["in_flight_after"] == 0,
        "disarmed server bit-identical to sync feed (PR 9 parity)": (
            disarmed["identical"] and disarmed["admission"] is None
        ),
        "graceful drain parks and resumes bit-exactly": (
            drain["drain_report"]["parked_sessions"] >= 1
            and drain["drain_report"]["shed_frames"] == 0
            and drain["resumed"]
            and drain["identical_after_resume"]
        ),
    }

    return {
        "benchmark": "overload",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "sequence": SEQUENCE,
            "num_frames": NUM_FRAMES,
            "algorithm": ALGORITHM,
            "session_spec": SESSION_SPEC,
            "storm_clients": STORM_CLIENTS,
            "max_in_flight": MAX_IN_FLIGHT,
            "num_shards": NUM_SHARDS,
            "max_live": MAX_LIVE,
            "pool_workers": POOL_WORKERS,
            "storm_plan": STORM_PLAN,
            "admitted_p95_bound_s": ADMITTED_P95_BOUND_S,
        },
        "elapsed_seconds": round(time.perf_counter() - start, 2),
        "cells": {"storm": storm, "disarmed": disarmed, "drain": drain},
        "targets_met": targets,
    }


def run_smoke() -> int:
    """One storm client vs a one-slot budget, bit-identity only — CI lane."""
    intrinsics, frames = _load_frames()
    reference = _sync_reference(intrinsics, frames)
    admission = AdmissionController(max_in_flight=1)
    with SlamServer(num_shards=1, pool_workers=1, admission=admission) as server:
        report = run_storm(
            server.address,
            frames,
            num_clients=1,
            algorithm=ALGORITHM,
            session_spec=SESSION_SPEC,
            plan=get_serving_fault_plan(STORM_PLAN),
        )
        health = SlamClient(server.address).healthz()
    client = report.clients[0]
    if client.error is not None:
        print(f"overload smoke FAILED: {client.error}", file=sys.stderr)
        return 1
    if not _payload_matches(reference, client.result):
        print("overload smoke FAILED: served stream != sync feed", file=sys.stderr)
        return 1
    if health["admission"]["in_flight"] != 0:
        print("overload smoke FAILED: admission slot leaked", file=sys.stderr)
        return 1
    print(
        f"overload smoke: sheds={report.total_sheds} "
        f"disconnects={report.total_disconnects} in_flight_after=0"
    )
    print("overload smoke passed: storm client bit-identical to sync feed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (and keep the old file) when a previously met target is missed",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one storm client against a one-slot budget and write nothing",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    results = build_results()
    storm = results["cells"]["storm"]
    print(
        f"  storm: {storm['survivors']}/{storm['clients']} survivors  "
        f"sheds={storm['total_sheds']}  tears={storm['total_disconnects']}  "
        f"p50 {storm['admitted_post_p50_ms']:8.3f}ms  "
        f"p95 {storm['admitted_post_p95_ms']:8.3f}ms"
    )
    drain = results["cells"]["drain"]
    print(f"  drain: {drain['drain_report']}")
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    missed = [target for target, met in results["targets_met"].items() if not met]
    if missed:
        print(
            "\nOVERLOAD INVARIANT VIOLATED — refusing to write results",
            file=sys.stderr,
        )
        for target in missed:
            print(f"  missed: {target}", file=sys.stderr)
        return 1

    if args.gate and args.output.exists():
        previous = json.loads(args.output.read_text())
        regressions = [
            target
            for target, met in previous.get("targets_met", {}).items()
            if met and not results["targets_met"].get(target, False)
        ]
        if regressions:
            print(
                "\nOVERLOAD GATE FAILED — keeping previous BENCH_overload.json:",
                file=sys.stderr,
            )
            for target in regressions:
                print(f"  previously met, now missed: {target}", file=sys.stderr)
            return 1
        print("overload gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
