"""The ``hover`` and ``fastpan`` workloads' measuring process.

Runs the timed part of an untraced in-process run
(:func:`e2ebench.bench.measure_inprocess`: the set-ups and the timed
passes) in a process of its own, so that its peak memory is the system's
alone, and prints the measurement as one JSON line on stdout.  Exits at
end of stdin, so it never outlives the process that started it.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from e2ebench.bench import measure_inprocess  # noqa: E402
from e2ebench.inputs import WORKLOADS  # noqa: E402


def exit_with_parent() -> None:
    """Wait for end of stdin (the parent closed it or has gone), then exit."""
    sys.stdin.read()
    os._exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("hover", "fastpan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    measured = measure_inprocess(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(measured), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
