"""One benchmark repetition, in a fresh process.

Usage (from ``run.py``, never by hand)::

    python bench/child.py '<job json>'

The job names the workload, the inputs file, a working directory, whether
to trace and whether to run the serial baseline.  The child times set-up
(import ``repro``, validate the config, construct the solver) and the
solve separately, then prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _check_origin(module: object) -> None:
    """Refuse to benchmark a ``repro`` that is not this checkout's ``src/``."""
    origin = Path(getattr(module, "__file__", "") or "").resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not from {SRC_DIR}")


def main(job: dict) -> dict:
    import workloads

    workload = workloads.BY_NAME[job["workload"]]
    if job["smoke"]:
        workload = workload.shrunk()
    payload = workloads.engine_payload(workload, serial=job["serial"], workdir=job["workdir"])
    sys.path.insert(0, str(SRC_DIR))

    t0 = time.perf_counter()
    import repro

    solver = workloads.build_solver(workload, payload)
    setup_s = time.perf_counter() - t0
    _check_origin(repro)

    args = (workload, solver, workloads.load_inputs(job["inputs"]), job["workdir"])
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracer.install()
    t1 = time.perf_counter()
    if tracer is None:
        out = workloads.solve(*args)
    else:
        out = tracer.call(tracing.ROOT_SPAN, workloads.solve, args, {})
    wall_s = time.perf_counter() - t1

    rows = [list(o.as_tuple()) for o in out["orientations"]]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "orientations": rows,
        "finite": all(math.isfinite(v) for row in rows for v in row)
        and all(math.isfinite(v) for v in out["scores"]),
        "digest": workloads.orientation_digest(rows),
        "symmetry_group": out["symmetry_group"],
        "symmetry_order": out["symmetry_order"],
        "iterations_run": out["iterations_run"],
        "resolutions": out["resolutions"],
    }
    if tracer is not None:
        spans = tracer.spans()
        result["spans"] = spans
        result["layers"] = tracing.layer_metrics(
            spans,
            tracer.notes,
            out["perf"],
            symmetry_order=out["symmetry_order"],
            iterations_run=out["iterations_run"],
            worker_peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
