"""Smoke test of the benchmark itself; run with ``python -m pytest bench/``.

Every workload runs once at its tiny ``--smoke`` size, untraced and
traced (plus the serial baseline), in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_emits_every_metric_and_checks_pass(tmp_path):
    out = tmp_path / "results.json"
    proc = run_bench("--smoke", "--reps", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads(out.read_text())["workloads"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0

    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, report in results.items():
        assert report["checks"] == [], name
        # one digest across the untraced, traced and serial repetitions
        assert report["digest"], name
        for m in spec["end_to_end"]:
            assert report["e2e"][m["name"]]["unit"] == m["unit"], (name, m["name"])
            assert line["metrics"][f"{name}/{m['name']}"]["unit"] == m["unit"]
        for m in spec["per_layer"]:
            assert report["layers"][m["name"]]["unit"] == m["unit"], (name, m["name"])
        assert report["layers"]["trace.coverage"]["median"] >= 0.95, name
    assert results["fanout_l24_w2"]["layers"]["parallel.speedup_vs_serial"]["median"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "refine_l24_ctf", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
