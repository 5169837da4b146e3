"""Workload runners: closed-loop passes, metrics and correctness checks.

A *pass* feeds a workload's whole pre-rendered input once, through fresh
sessions.  A run measures passes until ``--seconds`` would be exceeded
(always at least one); every pass of a run sees the same frames, so all
passes must produce bit-identical results.

Every workload is a closed loop in which a client sends a frame, then
reads the result before it sends the next one, so every second request
is a read:

* In-process workloads (``hover``, ``fastpan``) feed one
  :class:`~repro.core.pipeline.AgsSlam` session with ``feed()`` and read
  the result snapshot (``finalize()`` as the wire payload) after each.
  The timed passes run in a child process (``inprocess_proc.py``), so
  that its peak memory is the system's alone.
* ``serve`` runs a :class:`~repro.serve.api.SlamServer` in its own
  process (``serve_proc.py``), driven over HTTP by ``CLIENTS`` client
  threads, each owning a share of the sessions and visiting them
  round-robin: ``POST /sessions/<id>/frames`` with a pre-encoded frame
  (answered once the frame is queued), then ``GET
  /sessions/<id>/result`` (answered once it is processed).

With ``trace=True`` a run reports per-layer metrics instead (see
:mod:`e2ebench.layers`).  In-process, two passes each trace alternate
frames, so every frame is traced once and untraced once and the tracing
overhead is a paired comparison; ``serve`` compares an untraced pass
with a traced one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.eval.service import build_session
from repro.gaussians.camera import Pose
from repro.perf import PerfRecorder
from repro.serve.api import SlamClient, SlamClientError, encode_frame, result_to_payload
from repro.slam.quality import evaluate_mapping_quality
from repro.slam.trajectory_eval import ate_rmse

from e2ebench.inputs import (
    WORKLOADS,
    check_predicted_character,
    frames_digest,
    make_stream,
    predicted_refine_frac,
)
from e2ebench.layers import PER_LAYER, TARGETS, per_layer_metrics
from e2ebench.stats import percentile
from e2ebench.tracing import Span, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".e2ebench"  # run-time files (ignored by git)

END_TO_END = (
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("read_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("psnr_db", "dB"),
    ("completed_frac", "ratio"),
)

SETUP_REPEATS = 9  # extra in-process constructions timed for setup_s
SERVE_SETUPS = 3  # server starts timed for setup_s (the last one serves)
CLIENTS = 2
PSNR_STRIDE = 4
SERVER_REPLY_TIMEOUT_S = 120.0
HTTP_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Report:
    """Everything one run prints."""

    metrics: dict = dataclasses.field(default_factory=dict)  # name -> (value, unit)
    lines: list = dataclasses.field(default_factory=list)  # human-readable notes
    failures: list = dataclasses.field(default_factory=list)  # failed checks
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.lines.append(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())

    def check(self, ok: bool, message: str) -> None:
        self.lines.append(f"  check {'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            self.failures.append(message)

    def result(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def environment() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}"
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    spec = WORKLOADS[workload]
    if spec.sessions > 1:
        run_serve(spec, seed, seconds, trace, report)
    else:
        run_inprocess(spec, seed, seconds, trace, report)
    expected = {name for name, _ in (PER_LAYER if trace else END_TO_END)}
    report.check(set(report.metrics) == expected, f"all {len(expected)} metrics reported")
    return report


# ----------------------------------------------------------------------
# Shared checks
# ----------------------------------------------------------------------
def check_inputs(spec, seed: int, sequence, report: Report) -> None:
    """Record the input digest; check the predicted character on the
    run's seed and on one other seed (outside every timed window)."""
    report.lines.append(f"  inputs sha256 {frames_digest(sequence)[:16]} (stream 0)")
    for label, stream in (("run seed", sequence), ("seed+1", make_stream(spec, seed + 1))):
        refine = predicted_refine_frac(stream)
        problem = check_predicted_character(spec.name, refine)
        report.check(
            problem is None,
            problem or f"character ({label}): {refine:.2f} of frames predicted refined",
        )


def check_trajectory(report: Report, label: str, payload: dict | None, sequence) -> float | None:
    """Frame count and finite poses; returns the ATE (cm) when complete."""
    frames = [] if payload is None else payload["frames"]
    report.check(
        len(frames) == len(sequence),
        f"{label}: {len(frames)} of {len(sequence)} frames completed",
    )
    if len(frames) != len(sequence):
        return None
    poses = np.array([frame["estimated_pose"] for frame in frames], dtype=np.float64)
    finite = bool(np.isfinite(poses).all())
    report.check(finite, f"{label}: all estimated poses finite")
    if not finite:
        return None
    estimated = [Pose.from_vector(row) for row in poses]
    return ate_rmse(estimated, [sequence[i].gt_pose for i in range(len(sequence))])


def check_outcome_character(report: Report, workload: str, frames: list) -> None:
    tracked = [frame for frame in frames if frame["frame_index"] > 0]
    coarse = sum(frame["used_coarse_only"] for frame in tracked) / max(1, len(tracked))
    fallbacks = sum(frame["fallbacks_used"] for frame in frames)
    if workload == "hover":
        report.check(coarse >= 0.9, f"character: {coarse:.2f} of tracked frames coarse-only (>= 0.90)")
    elif workload == "fastpan":
        report.check(
            1.0 - coarse >= 1.0 / 3.0,
            f"character: {1.0 - coarse:.2f} of tracked frames refined (>= 1/3)",
        )
        report.check(fallbacks > 0, f"character: {fallbacks} fallbacks (> 0)")


def latency_metrics(report: Report, frame_s: list, read_s: list) -> None:
    """The latency percentiles; a run too short for one fails a check."""
    for name, q, samples in (
        ("frame_ms_p50", 50, frame_s),
        ("frame_ms_p90", 90, frame_s),
        ("read_ms_p50", 50, read_s),
    ):
        try:
            value = percentile([v * 1e3 for v in samples], q)
        except ValueError as exc:
            report.check(False, f"{name}: {exc}")
            continue
        report.metric(name, value, "ms", f"n={len(samples)}")


def completed_metrics(report: Report, frame_s: list, wall_s: float, passes: int) -> None:
    done = sum(math.isfinite(v) for v in frame_s)
    report.metric("frames_per_s", done / wall_s, "1/s", f"{done} frames in {wall_s:.2f} s, {passes} pass(es)")
    report.metric("completed_frac", 1.0 - report.failed / report.attempted, "ratio")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Pass:
    frame_s: list  # per-frame latency, one per frame (inf: failed or never sent)
    read_s: list  # per-frame result read, likewise
    wall_s: float
    setup_s: float
    failed: int
    payload: dict | None  # result_to_payload of the final result (None: finalize failed)
    result: object  # the final SlamResult (None: finalize failed)

    @property
    def attempted(self) -> int:
        return len(self.frame_s) + len(self.read_s)


def new_session(intrinsics, perf=None):
    session = build_session("ags", intrinsics, perf=perf)
    session.begin("stream")
    return session


def feed_pass(
    sequence, perf=None, tracer: Tracer | None = None, traced=None, setups: list | None = None
) -> Pass:
    """Feed every frame of ``sequence`` into a fresh session.

    With a tracer, frames for which ``traced(index)`` holds are fed with
    the tracer installed (installing and removing it is not timed).  With
    ``setups``, one more session set-up is timed after each frame's read
    and appended to it, outside the frame, read and wall times, so that
    the set-up samples spread over the whole pass (and over the host's
    speed swings) like the frame samples do.  The first exception ends
    the pass: that frame and every later one count as failed, each with
    its read, at +inf latency.
    """
    start = time.perf_counter()
    session = new_session(sequence.intrinsics, perf)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.label(session, "stream")
    frames = [sequence[index] for index in range(len(sequence))]
    frame_s: list = []
    read_s: list = []
    setup_extra_s = 0.0
    start = time.perf_counter()
    for index, frame in enumerate(frames):
        on = tracer is not None and traced(index)
        try:
            if on:
                tracer.install()
            try:
                began = time.perf_counter()
                session.feed(frame)
                elapsed = time.perf_counter() - began
            finally:
                if on:
                    tracer.uninstall()
            frame_s.append(elapsed)
            began = time.perf_counter()
            result_to_payload(session.finalize())
            read_s.append(time.perf_counter() - began)
        except Exception as exc:  # counted and reported; the pass ends
            print(f"frame {index} failed: {exc!r}", file=sys.stderr)
            break
        if setups is not None:
            began = time.perf_counter()
            new_session(sequence.intrinsics)
            setups.append(time.perf_counter() - began)
            setup_extra_s += setups[-1]
    wall_s = time.perf_counter() - start - setup_extra_s
    for samples in (frame_s, read_s):
        samples += [math.inf] * (len(frames) - len(samples))
    try:
        result = session.finalize()
        payload = result_to_payload(result)
    except Exception as exc:
        print(f"final result failed: {exc!r}", file=sys.stderr)
        result = payload = None
    return Pass(
        frame_s=frame_s,
        read_s=read_s,
        wall_s=wall_s,
        setup_s=setup_s,
        failed=sum(math.isinf(v) for v in frame_s + read_s),
        payload=payload,
        result=result,
    )


def measure_in_child(spec, seed: int, seconds: float) -> dict:
    """``measure_inprocess`` in a fresh process (``inprocess_proc.py``),
    so that its peak memory is the system's alone.

    The child's stdin stays open while it runs; the child exits at end of
    input, so it cannot outlive this process.  Waits until it has ended,
    on every path out.
    """
    command = [
        sys.executable,
        str(pathlib.Path(__file__).with_name("inprocess_proc.py")),
        "--workload",
        spec.name,
        "--seed",
        str(seed),
        "--seconds",
        repr(float(seconds)),
    ]
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"measuring process failed (exit code {code})")
    return json.loads(lines[-1])


def measure_inprocess(spec, seed: int, seconds: float) -> dict:
    """An untraced in-process run's timed part (runs in a child process).

    Keeps only the first pass's result; later passes are compared with
    it and dropped, so the peak memory does not grow with the number of
    passes that fit into ``seconds``.
    """
    sequence = make_stream(spec, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        new_session(sequence.intrinsics)
        setups.append(time.perf_counter() - start)
    first = None
    frame_s, read_s, wall_s = [], [], 0.0
    passes = failed = 0
    identical = True
    start = time.perf_counter()
    while True:
        current = feed_pass(sequence, setups=setups)
        if first is None:
            first = current
        identical &= json.dumps(current.payload) == json.dumps(first.payload)
        frame_s += current.frame_s
        read_s += current.read_s
        wall_s += current.wall_s
        setups.append(current.setup_s)
        failed += current.failed
        passes += 1
        if time.perf_counter() - start + current.wall_s > seconds:
            break
    peak = peak_rss_mb()
    complete = first.failed == 0 and first.result is not None
    return {
        "frame_s": frame_s,
        "read_s": read_s,
        "wall_s": wall_s,
        "setups": setups,
        "passes": passes,
        "failed": failed,
        "identical": identical,
        "payload": first.payload,
        "peak_rss_mb": peak,
        "psnr_db": (
            evaluate_mapping_quality(first.result, sequence, frame_stride=PSNR_STRIDE).mean_psnr
            if complete
            else None
        ),
    }


def run_inprocess(spec, seed: int, seconds: float, trace: bool, report: Report) -> None:
    sequence = make_stream(spec, seed)
    check_inputs(spec, seed, sequence, report)
    if trace:
        run_inprocess_traced(spec, seed, sequence, report)
        return

    measured = measure_in_child(spec, seed, seconds)
    report.attempted = len(measured["frame_s"]) + len(measured["read_s"])
    report.failed = measured["failed"]
    completed_metrics(report, measured["frame_s"], measured["wall_s"], measured["passes"])
    latency_metrics(report, measured["frame_s"], measured["read_s"])
    setups = measured["setups"]
    report.metric("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups")
    report.metric("peak_rss_mb", measured["peak_rss_mb"], "MB", "child process running the session")
    complete = check_inprocess(
        spec, measured["payload"], measured["identical"], measured["passes"], sequence, report
    )
    if complete and measured["psnr_db"] is not None:
        report.metric("psnr_db", measured["psnr_db"], "dB", f"final map, every {PSNR_STRIDE}th frame")


def check_inprocess(spec, payload, identical: bool, passes: int, sequence, report: Report) -> bool:
    """Check an in-process run by its first pass's payload; returns
    whether that pass completed with finite poses."""
    ate = check_trajectory(report, "pass 0", payload, sequence)
    report.check(identical, f"all {passes} passes bit-identical")
    if ate is None:
        return False
    report.check(ate <= spec.ate_ceiling_cm, f"ate_cm {ate:.3f} <= {spec.ate_ceiling_cm}")
    report.lines.append(f"  ate_cm {ate:.4f} cm (aligned RMSE, checked, not a bounded metric)")
    check_outcome_character(report, spec.name, payload["frames"])
    return True


def run_inprocess_traced(spec, seed: int, sequence, report: Report) -> None:
    tracer = Tracer(TARGETS)
    recorder = PerfRecorder()
    even = feed_pass(sequence, perf=recorder, tracer=tracer, traced=lambda i: i % 2 == 0)
    odd = feed_pass(sequence, perf=PerfRecorder(), tracer=tracer, traced=lambda i: i % 2 == 1)
    report.attempted = even.attempted + odd.attempted
    report.failed = even.failed + odd.failed
    identical = json.dumps(even.payload) == json.dumps(odd.payload)
    check_inprocess(spec, even.payload, identical, 2, sequence, report)
    pairs = [
        (even.frame_s[i], odd.frame_s[i]) if i % 2 == 0 else (odd.frame_s[i], even.frame_s[i])
        for i in range(len(sequence))
    ]
    pairs = [(on, off) for on, off in pairs if math.isfinite(on) and math.isfinite(off)]
    overhead = (
        sum(on for on, _ in pairs) / sum(off for _, off in pairs) - 1.0 if pairs else math.nan
    )
    report.lines.append(
        f"  tracing overhead {overhead * 100:+.2f} % ({len(pairs)} frames, each traced once and untraced once)"
    )
    spans = tracer.snapshot()
    path = trace_path(spec.name, seed)
    tracer.write(path)
    report.lines.append(f"  {len(spans)} spans written to {path.relative_to(ROOT)}")
    layer_report(
        report,
        per_layer_metrics(
            spans,
            recorder.counters.as_dict(),
            dict(tracer.counts),
            [even.payload["frames"]] if even.payload else [],
            overhead,
        ),
    )


def trace_path(workload: str, seed: int) -> pathlib.Path:
    path = STATE_DIR / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def layer_report(report: Report, metrics: dict) -> None:
    for name, unit in PER_LAYER:
        report.metric(name, metrics[name], unit)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServerProcess:
    """``serve_proc.py`` in a child process, driven over stdin/stdout."""

    def __init__(self, park_root: pathlib.Path, trace_out: pathlib.Path, counters: bool) -> None:
        command = [
            sys.executable,
            str(pathlib.Path(__file__).with_name("serve_proc.py")),
            "--park-root",
            str(park_root),
            "--trace-out",
            str(trace_out),
        ]
        if counters:
            command.append("--counters")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        ready = self._reply()
        if not ready.startswith("READY "):
            raise RuntimeError(f"server did not start: {ready!r}")
        self.url = ready.split()[1]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _reply(self) -> str:
        try:
            line = self._lines.get(timeout=SERVER_REPLY_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server process stopped answering") from None
        if line is None:
            raise RuntimeError(f"server process exited (code {self.proc.wait()})")
        return line

    def command(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if reply != "OK":
            raise RuntimeError(f"server answered {reply!r} to {command!r}")

    def stop(self) -> dict:
        """Stop the server; returns its peak memory and registry stats."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        summary = json.loads(self._reply())
        self.proc.stdin.close()
        self.proc.wait(timeout=SERVER_REPLY_TIMEOUT_S)
        self._reader.join(timeout=SERVER_REPLY_TIMEOUT_S)
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=SERVER_REPLY_TIMEOUT_S)


def open_sessions(url: str, ids: list[str], spec, sequence) -> None:
    client = SlamClient(url, timeout=HTTP_TIMEOUT_S)
    for session_id in ids:
        client.create_session(
            session_id, "ags", spec.width, spec.height, fov_x_deg=sequence.spec.fov_x_deg
        )


@dataclasses.dataclass
class ServePass:
    frame_s: list
    read_s: list
    wall_s: float
    failed: int
    payloads: dict  # session id -> final result payload (None if the read failed)

    @property
    def attempted(self) -> int:
        return len(self.frame_s) + len(self.read_s)


def serve_pass(url: str, ids: list[str], bodies: list[list[bytes]]) -> ServePass:
    """One closed-loop pass: every session receives its stream once.

    Exceptions, non-200 replies and 429s count as failed operations with
    +inf latency.  Frame bodies are pre-encoded, so they go through
    ``SlamClient._request`` (``post_frame`` would encode inside the timed
    window).
    """
    http = SlamClient(url, timeout=HTTP_TIMEOUT_S)
    lock = threading.Lock()
    frame_s: list = []
    read_s: list = []
    payloads: dict = {}
    barrier = threading.Barrier(CLIENTS + 1)

    def timed(call, into: list):
        began = time.perf_counter()
        try:
            payload = call()
            elapsed = time.perf_counter() - began
        except (SlamClientError, OSError, ValueError) as exc:
            print(f"request failed: {exc!r}", file=sys.stderr)
            payload, elapsed = None, math.inf
        with lock:
            into.append(elapsed)
        return payload

    def client(mine: list[int]) -> None:
        barrier.wait()
        for frame in range(len(bodies[0])):
            for number in mine:
                session_id = ids[number]
                stream = bodies[number % len(bodies)]
                path = f"/sessions/{session_id}/frames"
                timed(
                    lambda: http._request("POST", path, stream[frame], "application/x-npz"),
                    frame_s,
                )
                payload = timed(lambda: http.result(session_id), read_s)
                with lock:
                    payloads[session_id] = payload

    threads = [
        threading.Thread(target=client, args=(list(range(c, len(ids), CLIENTS)),))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    failed = sum(math.isinf(v) for v in frame_s + read_s)
    return ServePass(frame_s, read_s, wall_s, failed, payloads)


def run_serve(spec, seed: int, seconds: float, trace: bool, report: Report) -> None:
    streams = [make_stream(spec, seed, stream) for stream in range(spec.streams)]
    check_inputs(spec, seed, streams[0], report)
    bodies = [[encode_frame(s[i]) for i in range(len(s))] for s in streams]
    work = STATE_DIR / f"work-{os.getpid()}"
    trace_out = trace_path(spec.name, seed)
    server = None
    setups = []
    passes: list[ServePass] = []
    session_ids: list[list[str]] = []
    try:
        for attempt in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = ServerProcess(work / f"park-{attempt}", trace_out, counters=trace)
            ids = [f"p0-s{j}" for j in range(spec.sessions)]
            open_sessions(server.url, ids, spec, streams[0])
            setups.append(time.perf_counter() - start)
        session_ids.append(ids)
        if trace:
            passes.append(serve_pass(server.url, ids, bodies))
            ids = [f"p1-s{j}" for j in range(spec.sessions)]
            open_sessions(server.url, ids, spec, streams[0])
            session_ids.append(ids)
            server.command("trace-on")
            passes.append(serve_pass(server.url, ids, bodies))
            server.command("trace-off")
        else:
            start = time.perf_counter()
            while True:
                passes.append(serve_pass(server.url, session_ids[-1], bodies))
                if time.perf_counter() - start + passes[-1].wall_s > seconds:
                    break
                ids = [f"p{len(passes)}-s{j}" for j in range(spec.sessions)]
                open_sessions(server.url, ids, spec, streams[0])
                session_ids.append(ids)
        summary = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    report.attempted = sum(p.attempted for p in passes)
    report.failed = sum(p.failed for p in passes)
    registry = summary["registry"]
    report.lines.append(
        f"  server: {registry['parks']} parks, {registry['resumes']} resumes, "
        f"{spec.sessions} sessions x {spec.frames} frames per pass, {CLIENTS} clients"
    )
    report.check(
        registry["parks"] > 0 and registry["resumes"] > 0,
        "character: parked sessions were resumed (parks > 0, resumes > 0)",
    )

    # Reference: the same frames fed in-process, outside every timed window.
    references = []
    for sequence in streams:
        session = new_session(sequence.intrinsics)
        for index in range(len(sequence)):
            session.feed(sequence[index])
        references.append(session.finalize())
    reference_frames = [json.dumps(result_to_payload(r)["frames"]) for r in references]
    ates = []
    for p, ids in zip(passes, session_ids):
        for number, session_id in enumerate(ids):
            payload = p.payloads.get(session_id)
            sequence = streams[number % len(streams)]
            ate = check_trajectory(report, f"session {session_id}", payload, sequence)
            if ate is None:
                continue
            ates.append(ate)
            report.check(
                json.dumps(payload["frames"]) == reference_frames[number % len(streams)],
                f"session {session_id}: served trajectory bit-identical to in-process feed",
            )
    if ates:
        mean_ate = float(np.mean(ates))
        report.check(mean_ate <= spec.ate_ceiling_cm, f"ate_cm {mean_ate:.3f} <= {spec.ate_ceiling_cm}")
        report.lines.append(f"  ate_cm {mean_ate:.4f} cm (mean over sessions, checked, not a bounded metric)")

    if trace:
        untraced, traced = passes
        overhead = traced.wall_s / untraced.wall_s - 1.0
        report.lines.append(f"  tracing overhead {overhead * 100:+.2f} % (traced pass vs untraced pass wall time)")
        with open(trace_out, encoding="utf-8") as handle:
            raw = json.load(handle)["spans"]
        with open(str(trace_out) + ".counts", encoding="utf-8") as handle:
            counts = json.load(handle)
        spans = [None if s is None else Span(*s) for s in raw]
        report.lines.append(f"  {len(raw)} spans written to {trace_out.relative_to(ROOT)}")
        sessions = [traced.payloads[i]["frames"] for i in session_ids[1] if traced.payloads.get(i)]
        layer_report(
            report,
            per_layer_metrics(spans, counts["counters"], counts["span_counts"], sessions, overhead),
        )
        return

    frame_s = [v for p in passes for v in p.frame_s]
    completed_metrics(report, frame_s, sum(p.wall_s for p in passes), len(passes))
    latency_metrics(report, frame_s, [v for p in passes for v in p.read_s])
    report.metric("setup_s", statistics.median(setups), "s", f"median of {len(setups)} server starts + {spec.sessions} session opens")
    report.metric("peak_rss_mb", summary["peak_rss_mb"], "MB", "server process")
    psnrs = [
        evaluate_mapping_quality(result, sequence, frame_stride=PSNR_STRIDE).mean_psnr
        for result, sequence in zip(references, streams)
    ]
    report.metric("psnr_db", float(np.mean(psnrs)), "dB", "final maps of the in-process references")
