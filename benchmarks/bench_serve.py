"""Serving-tier benchmark: ingest throughput/latency under parking churn.

Drives 1 / 4 / 16 concurrent camera streams through the full serving
stack — :class:`~repro.serve.shard.ShardedRegistry` with a deliberately
tiny live budget (``max_live=2`` per shard, forcing checkpoint-parking
churn), a shared :class:`~repro.serve.ingest.IngestPool` and one
:class:`~repro.serve.ingest.AsyncSessionHandle` per stream — and records
sustained frames/sec plus p50/p95 ingest latency (submit to
``on_result``) into ``BENCH_serve.json`` at the repo root.

Correctness is gated before anything is written:

* **Async == sync bit-identity** — every stream's result, at every
  concurrency level, is bit-identical to a synchronous ``feed`` loop on
  a standalone session, even though sessions beyond the live budget
  were transparently parked to disk and resumed mid-stream.
* **Parking churn actually happened** — at 16 sessions over a budget of
  2x2 the registry must report parks and resumes, or the level silently
  stopped exercising eviction.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # write
    PYTHONPATH=src python benchmarks/bench_serve.py --gate     # guard
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI smoke

``--gate`` refuses to overwrite an existing ``BENCH_serve.json`` when a
previously met target is now missed.  ``--smoke`` runs two streams over
a one-slot registry (bit-identity only) and writes nothing — the tier-1
CI lane.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import sys
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_gate import percentile, results_identical  # noqa: E402
from repro.datasets import load_sequence  # noqa: E402
from repro.eval.service import build_session  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.perf import PerfRecorder  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncSessionHandle,
    IngestPool,
    SessionRegistry,
    ShardedRegistry,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serve.json"

SEQUENCE = "desk"
NUM_FRAMES = 6
ALGORITHM = "orb"
TRACKING_ITERATIONS = 4
MAPPING_ITERATIONS = 2
SESSION_COUNTS = (1, 4, 16)
NUM_SHARDS = 2
MAX_LIVE = 2  # per shard — far below 16 sessions, forcing parking churn
QUEUE_DEPTH = 4
POOL_WORKERS = 4
CHURN_LEVEL = 16  # the level whose parking churn is gated


def _load_frames():
    sequence = load_sequence(SEQUENCE, num_frames=NUM_FRAMES)
    return sequence.intrinsics, list(sequence.frames())


def _factory(intrinsics):
    return lambda: build_session(
        ALGORITHM,
        intrinsics,
        tracking_iterations=TRACKING_ITERATIONS,
        mapping_iterations=MAPPING_ITERATIONS,
    )


def _sync_reference(intrinsics, frames):
    """The synchronous feed loop every served stream is compared to."""
    session = _factory(intrinsics)()
    session.begin("bench")
    for frame in frames:
        session.feed(frame)
    return session.finalize()


def _run_level(num_sessions: int, intrinsics, frames, reference) -> dict:
    """One concurrency level: N producer threads over a shared shard set."""
    perf = PerfRecorder()
    registry = ShardedRegistry(
        num_shards=NUM_SHARDS, max_live=MAX_LIVE, perf=perf
    )
    pool = IngestPool(workers=POOL_WORKERS)
    latencies: list[float] = []
    latency_lock = threading.Lock()
    mismatches: list[str] = []
    errors: list[str] = []

    def stream(session_id: str) -> None:
        # Submit timestamps queue up FIFO; frames complete strictly in
        # submission order, so on_result pops the matching timestamp.
        submitted: collections.deque[float] = collections.deque()

        def on_result(_frame_result) -> None:
            latency = time.perf_counter() - submitted.popleft()
            with latency_lock:
                latencies.append(latency)

        try:
            registry.open(session_id, _factory(intrinsics), sequence_name=session_id)
            handle = AsyncSessionHandle(
                registry,
                session_id,
                pool=pool,
                queue_depth=QUEUE_DEPTH,
                perf=perf,
                on_result=on_result,
            )
            for frame in frames:
                submitted.append(time.perf_counter())
                handle.submit(frame)
            result = handle.result()
            handle.close()
            if not results_identical(reference, result):
                mismatches.append(session_id)
        except Exception as exc:  # noqa: BLE001 - recorded, fails the target
            errors.append(f"{session_id}: {exc!r}")

    threads = [
        threading.Thread(target=stream, args=(f"cam-{i:02d}",), name=f"producer-{i}")
        for i in range(num_sessions)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    stats = registry.stats()
    counters = perf.counters.as_dict()
    pool.shutdown()
    registry.shutdown()

    total_frames = num_sessions * len(frames)
    ordered = sorted(latencies)
    return {
        "sessions": num_sessions,
        "frames": total_frames,
        "elapsed_seconds": round(elapsed, 3),
        "frames_per_second": round(total_frames / elapsed, 2) if elapsed else 0.0,
        "ingest_latency_p50_ms": round(percentile(ordered, 0.50) * 1e3, 3),
        "ingest_latency_p95_ms": round(percentile(ordered, 0.95) * 1e3, 3),
        "parks": stats["parks"],
        "resumes": stats["resumes"],
        "queue_depth_high_water": int(counters.get("serve.queue_depth", 0)),
        "backpressure_waits": int(counters.get("serve.backpressure_waits", 0)),
        "identical": not mismatches and not errors,
        "mismatched_sessions": mismatches,
        "errors": errors,
    }


def build_results() -> dict:
    start = time.perf_counter()
    intrinsics, frames = _load_frames()
    reference = _sync_reference(intrinsics, frames)

    targets: dict[str, bool] = {}
    levels: dict[str, dict] = {}
    for num_sessions in SESSION_COUNTS:
        level = _run_level(num_sessions, intrinsics, frames, reference)
        levels[str(num_sessions)] = level
        targets[f"served streams bit-identical to sync feed ({num_sessions} sessions)"] = (
            level["identical"]
        )
        if num_sessions == CHURN_LEVEL:
            targets[
                f"parking churn forced at max_live={MAX_LIVE}x{NUM_SHARDS} "
                f"({num_sessions} sessions)"
            ] = bool(level["parks"] >= 1 and level["resumes"] >= 1)

    return {
        "benchmark": "serve",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "sequence": SEQUENCE,
            "num_frames": NUM_FRAMES,
            "algorithm": ALGORITHM,
            "tracking_iterations": TRACKING_ITERATIONS,
            "mapping_iterations": MAPPING_ITERATIONS,
            "session_counts": list(SESSION_COUNTS),
            "num_shards": NUM_SHARDS,
            "max_live": MAX_LIVE,
            "queue_depth": QUEUE_DEPTH,
            "pool_workers": POOL_WORKERS,
        },
        "elapsed_seconds": round(time.perf_counter() - start, 2),
        "levels": levels,
        "targets_met": targets,
    }


def run_smoke() -> int:
    """2 streams over a 1-slot registry, bit-identity only — the CI lane."""
    intrinsics, frames = _load_frames()
    reference = _sync_reference(intrinsics, frames)
    perf = PerfRecorder()
    registry = SessionRegistry(max_live=1, perf=perf)
    failures = []
    with IngestPool(workers=2) as pool:
        handles = {}
        for session_id in ("cam-a", "cam-b"):
            registry.open(session_id, _factory(intrinsics), sequence_name=session_id)
            handles[session_id] = AsyncSessionHandle(
                registry, session_id, pool=pool, queue_depth=QUEUE_DEPTH, perf=perf
            )
        # Interleave the two streams so the 1-slot budget parks and
        # resumes each session repeatedly mid-stream.
        for frame in frames:
            for handle in handles.values():
                handle.submit(frame)
        for session_id, handle in handles.items():
            result = handle.result()
            status = "ok" if results_identical(reference, result) else "MISMATCH"
            print(f"serve smoke {session_id}: {status}")
            if status != "ok":
                failures.append(session_id)
    stats = registry.stats()
    registry.shutdown()
    print(f"serve smoke parking churn: parks={stats['parks']} resumes={stats['resumes']}")
    if failures:
        print(f"serve smoke FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    if stats["parks"] < 1:
        print("serve smoke FAILED: 1-slot registry never parked", file=sys.stderr)
        return 1
    print("serve smoke passed: interleaved streams over a 1-slot registry are bit-identical")
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
        help="run the 2-stream / 1-slot bit-identity smoke and write nothing",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    results = build_results()
    for name, level in results["levels"].items():
        print(
            f"  {name:>2} sessions: {level['frames_per_second']:7.2f} frames/s  "
            f"p50 {level['ingest_latency_p50_ms']:8.3f}ms  "
            f"p95 {level['ingest_latency_p95_ms']:8.3f}ms  "
            f"parks={level['parks']} resumes={level['resumes']}"
        )
    for target, met in results["targets_met"].items():
        print(f"  target {target}: {'MET' if met else 'MISSED'}")

    missed = [target for target, met in results["targets_met"].items() if not met]
    if missed:
        print(
            "\nSERVING INVARIANT VIOLATED — refusing to write results",
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
                "\nSERVE GATE FAILED — keeping previous BENCH_serve.json:",
                file=sys.stderr,
            )
            for target in regressions:
                print(f"  previously met, now missed: {target}", file=sys.stderr)
            return 1
        print("serve gate PASSED")

    atomic_write_text(args.output, json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
