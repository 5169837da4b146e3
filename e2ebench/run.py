"""End-to-end AGS frame benchmark — the one command.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload hover --seed 1 --seconds 20 --trace 0

Runs one workload (``hover``, ``fastpan`` or ``serve``; see README.md),
checks its outputs, prints every metric by name and unit with its sample
count, and prints as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  Exits 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hover", "fastpan", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the finally blocks that stop
    # the child processes still run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from e2ebench import bench

    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {bench.environment()}")
    for line in report.lines:
        print(line)
    result = report.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
