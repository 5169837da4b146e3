"""Seeded input generation and the workload-character checks.

Every workload's frames are a pure function of ``--seed``: the seed
(through :func:`stream_seed`) is the trajectory seed of each stream over
a fixed registry scene, and the frames are rendered by the program's own
:class:`~repro.datasets.sequences.SyntheticSequence` before any clock
starts.  The scene stays fixed because the scene seed changes the map
size by about 30 % (measured 631-820 Gaussians over five seeds), which
moves every timing with it; the trajectory seed varies the observations
while the work per frame stays comparable.  The hover streams (``hover``
and ``serve``) also drop the registry trajectory's rare random bursts:
with them, ``hover``'s peak memory spread 11 % and its PSNR 4.5 % over
ten seeds (4 % and 1.5 % without).

``fastpan`` uses its own orbit instead of the registry's random bursts,
which made the refined-frame and fallback counts — and with them
frames/s (1.97-4.11 over eight seeds) — depend on the seed.  Its path is
fixed: every 12th frame starts a 4-frame burst at 4x speed (covisibility
drops below the skip threshold, so the fine tracker refines), and every
40th frame is a single 0.2 rad jump that the tracking-health monitor
catches with its fallback ladder.  The seed sets the per-frame position
and look-at jitter, so inputs differ per seed while the work stays put.
Stronger random bursts fired the ladder 42-54 times per 100 frames, but
the count moved frames/s by 11 % between two seeds.

The character checks make sure a seed cannot silently change what a
workload exercises.  :func:`predicted_refine_frac` predicts from the
inputs alone, with the program's CODEC covisibility detector and the
AGS skip threshold, which share of frames the fine tracker will refine;
the run checks it on its own seed and on one other seed, and checks the
outcome of its own run (coarse-only share, fallbacks, parks).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core import AGSConfig
from repro.core.covisibility import CovisibilityConfig, FrameCovisibilityDetector
from repro.datasets.registry import SEQUENCE_SPECS
from repro.datasets.sequences import SyntheticSequence
from repro.gaussians.camera import Pose


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload's inputs and the limits its run is checked against."""

    name: str
    sequence: str  # registry scene the frames are rendered from
    frames: int  # frames per stream
    width: int
    height: int
    streams: int = 1  # distinct streams (serve: shared round-robin by sessions)
    sessions: int = 1
    ate_ceiling_cm: float = 10.0


WORKLOADS = {
    "hover": Workload("hover", "xyz", frames=120, width=64, height=48, ate_ceiling_cm=5.0),
    "fastpan": Workload("fastpan", "desk", frames=100, width=64, height=48, ate_ceiling_cm=15.0),
    "serve": Workload(
        "serve", "xyz", frames=13, width=160, height=120, streams=2, sessions=8, ate_ceiling_cm=5.0
    ),
}

# fastpan's orbit: per-frame angular step (radians), bursts and jumps.
FASTPAN_BASE_SPEED = 0.02
FASTPAN_BURST_PERIOD = 12
FASTPAN_BURST_LENGTH = 4
FASTPAN_BURST_SCALE = 4.0
FASTPAN_WHIP_EVERY = 40  # frames between single large jumps
FASTPAN_WHIP_STEP = 0.2  # radians


def stream_seed(seed: int, workload: str, stream: int) -> int:
    """The trajectory seed of one stream (distinct per workload/stream)."""
    entropy = [seed, sorted(WORKLOADS).index(workload), stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def make_stream(workload: Workload, seed: int, stream: int = 0) -> SyntheticSequence:
    """Render one stream of ``workload`` (all frames materialized)."""
    base = SEQUENCE_SPECS[workload.sequence]
    trajectory = dataclasses.replace(
        base.trajectory,
        num_frames=workload.frames,
        seed=stream_seed(seed, workload.name, stream),
        burst_probability=0.0,  # fastpan replaces the poses; see the module doc
    )
    spec = dataclasses.replace(
        base, trajectory=trajectory, width=workload.width, height=workload.height
    )
    sequence = SyntheticSequence(spec)
    if workload.name == "fastpan":
        sequence.poses = fastpan_poses(trajectory)
    for index in range(len(sequence)):
        sequence[index]  # render now, before any timed window
    return sequence


def fastpan_poses(trajectory) -> list[Pose]:
    """fastpan's orbit: fixed bursts and jumps; the seed sets the jitter."""
    rng = np.random.default_rng(trajectory.seed)
    count = trajectory.num_frames
    burst = np.arange(count) % FASTPAN_BURST_PERIOD < FASTPAN_BURST_LENGTH
    speeds = np.where(burst, FASTPAN_BURST_SCALE, 1.0) * FASTPAN_BASE_SPEED
    speeds[FASTPAN_WHIP_EVERY - 1 :: FASTPAN_WHIP_EVERY] = FASTPAN_WHIP_STEP
    angles = np.concatenate([[0.0], speeds[:-1]]).cumsum()
    center = np.asarray(trajectory.center, dtype=np.float64)
    positions = np.stack(
        [
            center[0] + trajectory.radius * np.cos(angles),
            center[1] + trajectory.radius * np.sin(angles),
            np.full(count, trajectory.height),
        ],
        axis=1,
    )
    positions += rng.normal(scale=trajectory.jitter, size=positions.shape)
    targets = center + rng.normal(scale=trajectory.jitter, size=positions.shape)
    up = np.array([0.0, 0.0, 1.0])
    return [Pose.look_at(eye=positions[i], target=targets[i], up=up) for i in range(count)]


def frames_digest(sequence: SyntheticSequence) -> str:
    """SHA-256 over every frame's color, depth and ground-truth pose bytes."""
    digest = hashlib.sha256()
    for index in range(len(sequence)):
        frame = sequence[index]
        for array in (frame.color, frame.depth, frame.gt_pose.as_vector()):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def predicted_refine_frac(sequence: SyntheticSequence) -> float:
    """Share of tracked frames whose covisibility falls below AGS's skip
    threshold, i.e. that the fine tracker will refine."""
    config = AGSConfig()
    detector = FrameCovisibilityDetector(
        CovisibilityConfig(sad_scale=config.covisibility_sad_scale)
    )
    refined = 0
    for index in range(len(sequence)):
        measurement = detector.observe(index, sequence[index].gray)
        if index > 0 and (measurement is None or measurement.value < config.thresh_t):
            refined += 1
    return refined / max(1, len(sequence) - 1)


def check_predicted_character(workload: str, refine_frac: float) -> str | None:
    """Input-side character check; returns a failure message or None."""
    if workload in ("hover", "serve") and refine_frac > 0.10:
        return f"{workload}: {refine_frac:.2f} of frames predicted refined (> 0.10)"
    if workload == "fastpan" and refine_frac < 1.0 / 3.0:
        return f"fastpan: {refine_frac:.2f} of frames predicted refined (< 1/3)"
    return None
