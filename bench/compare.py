"""Compare two benchmark result files: the parent's (A) and the change's (B).

Usage, from the repository root::

    python3 bench/compare.py A.json B.json

Both files come from ``bench/run.py --out`` with the same seed and
settings.  For every workload × end-to-end metric it prints each side's
median and quartiles, the change Δ of the medians, and a verdict, using
the direction and bound ``BENCHMARK.json`` fixes for that metric:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's quartile spread exceeds the bound, so
  the medians cannot be told apart at that bound (unless every sample of
  B beats every sample of A, which reads ``better``);
* ``better`` — B's median is better by more than A's own quartile spread
  and B wins at least nine tenths of at least ten paired repetitions;
* ``unchanged`` — otherwise.

Accuracy repeats exactly for a seed and is gated by each run's own
pinned bounds, so it is printed as ``same`` or ``changed``.  Per-layer
metrics have no bound; their medians and Δ are printed for attribution
only.  The exit code is 1 when any metric is ``worse`` or B failed more
views than A, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: A gain needs at least this many paired repetitions (``run.py --reps``).
MIN_PAIRS = 10


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """Classify one metric's change from sample summaries ``a`` → ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    spread_a = (a["q3"] - a["q1"]) / base
    spread_b = (b["q3"] - b["q1"]) / (abs(b["median"]) or 1.0)
    b_always_better = all(
        sign * (vb - va) < 0 for va in a["samples"] for vb in b["samples"]
    )
    if max(spread_a, spread_b) > bound:
        return "better" if b_always_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a["samples"], b["samples"]))
    wins = sum(1 for va, vb in pairs if sign * (vb - va) < 0)
    if -worse_by > spread_a and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def fmt(s: dict[str, Any]) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> int:
    regressions = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"== {name}: missing from B")
            regressions += 1
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}  (failed views: A {ra['failed']}/{ra['attempted']}, "
              f"B {rb['failed']}/{rb['attempted']})")
        if rb["failed"] / rb["attempted"] > ra["failed"] / ra["attempted"]:
            print("  B failed more views than A")
            regressions += 1
        for m in spec["end_to_end"]:
            sa, sb = ra["e2e"].get(m["name"]), rb["e2e"].get(m["name"])
            if sa is None or sb is None:
                continue
            v = verdict(sa, sb, m["better"], m["bound"])
            regressions += v == "worse"
            delta = (sb["median"] - sa["median"]) / (abs(sa["median"]) or 1.0)
            print(f"  {m['name']:26s} {m['unit']:8s} A {fmt(sa):40s} B {fmt(sb):40s} "
                  f"Δ {delta:+8.2%}  bound {m['bound']:.0%}  {v}")
        for metric, sa in ra.get("accuracy", {}).items():
            sb = rb.get("accuracy", {}).get(metric)
            if sb is None:
                continue
            same = "same" if sb["median"] == sa["median"] else "changed"
            print(f"  {metric:26s} {sa['unit']:8s} A {sa['median']:.6g}  B {sb['median']:.6g}  "
                  f"(bound {sb['bound']:.6g})  {same}")
        for m in spec["per_layer"]:
            sa, sb = ra["layers"].get(m["name"]), rb["layers"].get(m["name"])
            if sa is None or sb is None:
                continue
            delta = sb["median"] - sa["median"]
            print(f"  {m['name']:32s} {m['unit']:6s} A {sa['median']:12.5g}  "
                  f"B {sb['median']:12.5g}  Δ {delta:+.5g}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="results of the parent (bench/run.py --out)")
    p.add_argument("b", help="results of the change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    if (a.get("seed"), a.get("smoke")) != (b.get("seed"), b.get("smoke")):
        print("warning: A and B were run with different seeds or sizes", file=sys.stderr)
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
