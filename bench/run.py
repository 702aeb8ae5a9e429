"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds T | --reps R]
                         [--trace 0|1] [--out results.json] [--trace-out trace.jsonl]

The parent generates each workload's inputs once from ``--seed`` and saves
them to a temporary ``.npz``.  Every repetition is a fresh child process
(``child.py``) that loads the file, sets up and solves; data generation
never counts toward any metric.  One client runs one job at a time (a
closed loop), and repetitions go round-robin across workloads.

``--trace 0`` runs untraced repetitions and reports the end-to-end
metrics.  ``--trace 1`` interleaves traced and untraced repetitions (plus
a traced serial baseline where a workload has one) and reports the
per-layer metrics; the untraced ones give the tracing overhead.  Without
``--trace`` it does the latter and reports both sets.

Outputs are checked: every view must come back finite, the orientation
digest must be identical across all repetitions (traced, untraced and
serial), and each workload must meet its accuracy bounds.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
(views) and ``metrics``; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"

# One BLAS thread per process: the process backends supply the parallelism.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Timed end-to-end metrics, measured untraced; BENCHMARK.json bounds them.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "views_per_s": "views/s",
    "peak_rss_mb": "MB",
}

#: Accuracy of the result.  It repeats exactly for a seed but varies
#: widely between seeds, so it is gated by each workload's pinned bounds
#: (a failed bound fails the run), not by a bound relative to the parent.
ACCURACY_UNITS = {
    "median_angular_error_deg": "deg",
    "p90_angular_error_deg": "deg",
    "fsc_crossing_A": "A",
}

LAYER_UNITS = {
    "align.match_window_s": "s",
    "align.match_window_pruned_s": "s",
    "align.window_calls": "count",
    "align.candidates": "count",
    "align.gathers": "count",
    "align.evaluated": "count",
    "align.pruned": "count",
    "align.prune_ratio": "ratio",
    "align.memo_hit_rate": "ratio",
    "align.candidates_per_s": "1/s",
    "align.gather_bytes_computed": "B",
    "refine.detect_symmetry_s": "s",
    "refine.detect_symmetry_self_s": "s",
    "refine.symmetry_order": "count",
    "refine.polish_s": "s",
    "refine.polish_iters": "count",
    "refine.prepare_views_s": "s",
    "fourier.volume_fft_s": "s",
    "fourier.volume_fft_calls": "count",
    "reconstruct.push_s": "s",
    "reconstruct.push_calls": "count",
    "reconstruct.full_map_s": "s",
    "reconstruct.fsc_s": "s",
    "reconstruct.initial_map_s": "s",
    "reconstruct.iterations_run": "count",
    "faults.checkpoint_s": "s",
    "faults.checkpoint_calls": "count",
    "faults.checkpoint_bytes": "B",
    "faults.loop_checkpoint_s": "s",
    "engine.run_level_s": "s",
    "engine.run_level_self_s": "s",
    "engine.run_tasks_s": "s",
    "engine.backend_close_s": "s",
    "parallel.shared_volume_s": "s",
    "parallel.shared_volume_bytes": "B",
    "parallel.shared_volume_calls": "count",
    "parallel.fault_events": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "parallel.speedup_vs_serial": "x",
    "parallel.scaling_efficiency": "ratio",
    "parallel.host_cpus": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Fewest rounds an end-to-end run makes under ``--seconds``, so every
#: median (set-up included) has more than one sample.  Traced runs settle
#: for one round: per-layer metrics carry no bound.
MIN_ROUNDS = 2
#: A child still running after this long has hung; it fails its views.
CHILD_TIMEOUT_S = 150.0

UNTRACED, TRACED, SERIAL = "untraced", "traced", "serial"


# -- repetitions ------------------------------------------------------------------

def run_child(job: dict[str, Any]) -> dict[str, Any]:
    """One repetition in a fresh process group; returns its result or the failure."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    out = err = None
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # the child's session also holds any pool workers it left behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        if out is None:
            proc.communicate()
    if out is None:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "error": tail[0]}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "error": "no result line"}
    result["ok"] = bool(result["finite"])
    if not result["ok"]:
        result["error"] = "non-finite orientation or distance"
    return result


def variants(workload: workloads.Workload, mode: str) -> list[str]:
    """The repetitions one round of a workload makes."""
    if mode == "e2e":
        return [UNTRACED]
    return [UNTRACED, TRACED] + ([SERIAL] if workload.serial_baseline else [])


class Session:
    """One benchmark invocation: inputs on disk, repetitions collected."""

    def __init__(self, chosen: list[workloads.Workload], seed: int, smoke: bool, tmp: str) -> None:
        self.chosen = chosen
        self.smoke = smoke
        self.tmp = tmp
        self.inputs: dict[str, workloads.Inputs] = {}
        self.paths: dict[str, str] = {}
        self.reps: dict[str, list[dict[str, Any]]] = {w.name: [] for w in chosen}
        for w in chosen:
            self.inputs[w.name] = workloads.make_inputs(w, seed)
            self.paths[w.name] = os.path.join(tmp, f"{w.name}.npz")
            self.inputs[w.name].save(self.paths[w.name])

    def run_round(self, index: int, mode: str) -> None:
        for w in self.chosen:
            kinds = variants(w, mode)
            shift = index % len(kinds)  # alternate which variant goes first
            for kind in kinds[shift:] + kinds[:shift]:
                workdir = tempfile.mkdtemp(dir=self.tmp)
                job = {
                    "workload": w.name,
                    "smoke": self.smoke,
                    "inputs": self.paths[w.name],
                    "workdir": workdir,
                    "trace": kind != UNTRACED,
                    "serial": kind == SERIAL,
                    "run_id": f"{w.name}/{kind}/{index}",
                }
                try:
                    rep = run_child(job)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                rep["kind"] = kind
                rep["run_id"] = job["run_id"]
                self.reps[w.name].append(rep)


# -- aggregation and checks --------------------------------------------------------

def summarize(samples: list[float], unit: str) -> dict[str, Any]:
    """Median and quartiles with the sample count.

    Quartiles use the inclusive method, which stays inside the samples at
    the small counts one run has.
    """
    med = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = med
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def evaluate(
    w: workloads.Workload, inputs: workloads.Inputs, reps: list[dict[str, Any]]
) -> dict[str, Any]:
    """Check one workload's repetitions and reduce them to metrics."""
    ok = [r for r in reps if r["ok"]]
    checks = [f"{r['run_id']}: {r['error']}" for r in reps if not r["ok"]]
    digests = sorted({r["digest"] for r in ok})
    if len(digests) > 1:
        by_kind = {r["kind"]: r["digest"][:12] for r in ok}
        checks.append(f"orientation digests differ across repetitions: {by_kind}")

    e2e: dict[str, Any] = {}
    accuracy: dict[str, Any] = {}
    layers: dict[str, Any] = {}
    if ok:
        first = ok[0]
        order = workloads.group_order(w.symmetry)
        for r in ok:
            if w.symmetry != "C1" and (r["symmetry_group"], r["symmetry_order"]) != (
                w.symmetry, order
            ):
                checks.append(
                    f"{r['run_id']}: detected {r['symmetry_group']} (|G|={r['symmetry_order']}), "
                    f"expected {w.symmetry} (|G|={order})"
                )
            if r["iterations_run"] != w.loop_iterations:
                checks.append(
                    f"{r['run_id']}: {r['iterations_run']} loop iterations, "
                    f"expected {w.loop_iterations}"
                )
        # Every repetition returned the same orientations (digest check), so
        # the first one stands for all.
        acc = workloads.accuracy(w, inputs, first["orientations"])
        acc["fsc_crossing_A"] = (
            first["resolutions"][-1]
            if w.loop_iterations
            else workloads.refined_fsc_crossing(w, inputs, first["orientations"])
        )
        for name, unit in ACCURACY_UNITS.items():
            bound = w.bounds.get(name, math.inf)
            accuracy[name] = {**summarize([acc[name]], unit), "bound": bound}
            if not acc[name] <= bound:
                checks.append(f"{name} = {acc[name]:.6g} exceeds its bound {bound:.6g}")

        plain = [r for r in ok if r["kind"] == UNTRACED]
        traced = [r for r in ok if r["kind"] == TRACED]
        serial = [r for r in ok if r["kind"] == SERIAL]
        if plain:
            samples = {
                # set-up ends before tracing starts, so every child measures it alike
                "setup_s": [r["setup_s"] for r in ok],
                "wall_s": [r["wall_s"] for r in plain],
                "views_per_s": [w.n_views * w.passes / r["wall_s"] for r in plain],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            }
            e2e = {name: summarize(samples[name], unit) for name, unit in E2E_UNITS.items()}
        if traced:
            per_layer = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
            wall = statistics.median(r["wall_s"] for r in traced)
            per_layer["trace.overhead_frac"] = (
                [wall / statistics.median(r["wall_s"] for r in plain) - 1.0] if plain else [0.0]
            )
            speedup = statistics.median(r["wall_s"] for r in serial) / wall if serial else 0.0
            per_layer["parallel.speedup_vs_serial"] = [speedup]
            per_layer["parallel.scaling_efficiency"] = [speedup / w.workers if serial else 0.0]
            per_layer["parallel.host_cpus"] = [float(len(os.sched_getaffinity(0)))]
            layers = {name: summarize(per_layer[name], unit) for name, unit in LAYER_UNITS.items()}

    # A crashed, timed-out or check-failing run fails all its views.
    attempted = w.n_views * len(reps)
    return {
        "attempted": attempted,
        "failed": attempted if checks else 0,
        "checks": checks,
        "digest": digests[0] if len(digests) == 1 else None,
        "e2e": e2e,
        "accuracy": accuracy,
        "layers": layers,
    }


# -- output ---------------------------------------------------------------------------

def print_table(name: str, report: dict[str, Any]) -> None:
    print(f"== {name}: {report['attempted'] - report['failed']}/{report['attempted']} views ok")
    for section in ("e2e", "accuracy", "layers"):
        for metric, s in report[section].items():
            extra = f"bound {s['bound']:.6g}" if "bound" in s else (
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]"
            )
            print(f"  {metric:32s} {s['median']:14.6g} {s['unit']:8s} {extra}")
    for check in report["checks"]:
        print(f"  CHECK FAILED: {check}")


def summary_line(reports: dict[str, dict[str, Any]], mode: str) -> dict[str, Any]:
    sections = {"e2e": ("e2e",), "layers": ("layers",), "both": ("e2e", "layers")}[mode]
    prefix = len(reports) > 1
    metrics: dict[str, Any] = {}
    for name, report in reports.items():
        for section in sections:
            for metric, s in report[section].items():
                key = f"{name}/{metric}" if prefix else metric
                metrics[key] = {"value": s["median"], "unit": s["unit"]}
    return {
        "correct": all(not r["checks"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


# -- entry point -------------------------------------------------------------------------

def import_repro() -> None:
    """Put this checkout's ``src/`` first on the path and prove it is used."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {SRC_DIR}; run from a full checkout")
    sys.path.insert(0, str(SRC_DIR))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"bench: repro imported from {origin}, not from {SRC_DIR}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    timing = p.add_mutually_exclusive_group()
    timing.add_argument("--seconds", type=float,
                        help="keep starting rounds while one more fits in this budget")
    timing.add_argument("--reps", type=int, default=5, help="rounds to run (default 5)")
    p.add_argument("--trace", choices=("0", "1"),
                   help="0: end-to-end metrics only; 1: per-layer only; default: both")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, no accuracy bounds")
    p.add_argument("--out", help="write every sample and check to this JSON file")
    p.add_argument("--trace-out", help="write every span of the traced repetitions as JSONL")
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads; children inherit it
    import_repro()
    mode = {None: "both", "0": "e2e", "1": "layers"}[args.trace]
    names = dict.fromkeys(args.workload or [w.name for w in workloads.WORKLOADS])
    chosen = [workloads.BY_NAME[n].shrunk() if args.smoke else workloads.BY_NAME[n] for n in names]

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        session = Session(chosen, args.seed, args.smoke, tmp)
        min_rounds = MIN_ROUNDS if mode == "e2e" else 1
        start = time.monotonic()
        rounds = 0
        while True:
            if args.seconds is None:
                if rounds >= args.reps:
                    break
            elif rounds >= min_rounds:
                # stop unless one more round of the mean length still fits
                elapsed = time.monotonic() - start
                if elapsed * (rounds + 1) / rounds > args.seconds:
                    break
            session.run_round(rounds, mode)
            rounds += 1
        reports = {
            w.name: evaluate(w, session.inputs[w.name], session.reps[w.name]) for w in chosen
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another invocation is using it

    for name, report in reports.items():
        print_table(name, report)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seed": args.seed, "smoke": args.smoke, "rounds": rounds,
                        "workloads": reports}, indent=1) + "\n"
        )
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            for w in chosen:
                for rep in session.reps[w.name]:
                    for span in rep.get("spans", ()):
                        fh.write(json.dumps(span) + "\n")
    line = summary_line(reports, mode)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
