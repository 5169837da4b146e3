"""The ``serve`` workload's server process.

Runs one :class:`repro.serve.api.SlamServer` hosting AGS sessions and
takes line commands on stdin, answering each with one line on stdout:

* (start-up) prints ``READY <base url>`` once the server accepts requests;
* ``trace-on`` — reset the session counters and install the span tracer;
* ``trace-off`` — uninstall it and write spans and counters to
  ``--trace-out``;
* ``stop`` (or end of input) — stop the server and print one JSON line
  with the process's peak resident memory and the registry statistics.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.eval.service import build_session  # noqa: E402
from repro.gaussians.camera import Intrinsics  # noqa: E402
from repro.perf import PerfRecorder  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.api import SlamServer  # noqa: E402

from e2ebench.layers import TARGETS  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402

# Two shards with one live session each serve eight sessions, so nearly
# every frame resumes a parked session.  queue_depth=1 bounds each
# session to one queued frame; the admission budget is armed but above
# anything the two closed-loop clients can reach.
SHARDS = 2
MAX_LIVE = 1
POOL_WORKERS = 2
MAX_IN_FLIGHT = 16


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--park-root", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument(
        "--counters", action="store_true", help="give sessions a PerfRecorder (traced runs)"
    )
    args = parser.parse_args(argv)

    recorder = PerfRecorder()
    session_perf = recorder if args.counters else None
    tracer = Tracer(TARGETS)

    def session_factory(spec: dict):
        session_id = spec["session_id"]
        intrinsics = Intrinsics.from_fov(
            int(spec["width"]), int(spec["height"]), float(spec["fov_x_deg"])
        )

        def make():
            session = build_session("ags", intrinsics, perf=session_perf)
            tracer.label(session, session_id)
            return session

        return make

    server = SlamServer(
        num_shards=SHARDS,
        max_live=MAX_LIVE,
        park_root=args.park_root,
        session_factory=session_factory,
        queue_depth=1,
        pool_workers=POOL_WORKERS,
        perf=recorder,
        admission=AdmissionController(max_in_flight=MAX_IN_FLIGHT),
    )
    try:
        print("READY", server.start(), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace-on":
                recorder.reset()
                tracer.reset()
                tracer.install()
            elif command == "trace-off":
                tracer.uninstall()
                tracer.write(args.trace_out)
                with open(args.trace_out + ".counts", "w", encoding="utf-8") as handle:
                    json.dump(
                        {"counters": recorder.counters.as_dict(), "span_counts": dict(tracer.counts)},
                        handle,
                    )
            elif command == "stop":
                break
            else:
                print(f"ERROR unknown command {command!r}", flush=True)
                continue
            print("OK", flush=True)
        stats = server.registry.stats()
        stats.pop("shards", None)
    finally:
        tracer.uninstall()
        server.stop()
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "registry": stats}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
