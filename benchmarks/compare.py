#!/usr/bin/env python
"""Gate benchmark regressions against a checked-in baseline.

Compares a fresh benchmark JSON against ``benchmarks/baseline.json`` and
exits non-zero when any benchmark's mean time regressed beyond the
tolerance (default 30 %).  Both pytest-benchmark documents
(``{"benchmarks": [{"name", "stats": {"mean"}}]}``) and the
``repro-bench/1`` schema (``{"benchmarks": [{"name", "mean_s"}]}``) are
accepted on either side.

Usage::

    python benchmarks/compare.py bench.json benchmarks/baseline.json
    python benchmarks/compare.py bench.json baseline.json --tolerance 0.5
    python benchmarks/compare.py bench.json baseline.json --update

``--update`` rewrites the baseline from the current run (use after an
intentional performance change) instead of comparing.

Stdlib-only on purpose: CI can run it before any project install.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict


def load_means(path: str) -> Dict[str, float]:
    """``{benchmark name: mean seconds}`` from either supported schema."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(f"{path}: no 'benchmarks' list (not a benchmark JSON?)")
    means: Dict[str, float] = {}
    for entry in benchmarks:
        name = entry.get("name")
        if name is None:
            raise SystemExit(f"{path}: benchmark entry without a name")
        if "mean_s" in entry:  # repro-bench/1
            means[name] = float(entry["mean_s"])
        elif "stats" in entry:  # pytest-benchmark
            means[name] = float(entry["stats"]["mean"])
        else:
            raise SystemExit(f"{path}: {name!r} has neither mean_s nor stats.mean")
    return means


def write_baseline(path: str, means: Dict[str, float]) -> None:
    document = {
        "schema": "repro-bench/1",
        "benchmarks": [
            {"name": name, "mean_s": mean} for name, mean in sorted(means.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def compare(current: Dict[str, float], baseline: Dict[str, float],
            tolerance: float) -> int:
    regressions = []
    width = max((len(n) for n in current), default=10)
    for name in sorted(current):
        mean = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"  {name:<{width}}  {mean * 1000:9.1f}ms  (new, no baseline)")
            continue
        ratio = mean / base if base > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + tolerance:
            marker = "  REGRESSION"
            regressions.append((name, base, mean, ratio))
        print(f"  {name:<{width}}  {mean * 1000:9.1f}ms  "
              f"baseline {base * 1000:9.1f}ms  x{ratio:.2f}{marker}")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:<{width}}  MISSING from current run")
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{tolerance:.0%} over baseline:")
        for name, base, mean, ratio in regressions:
            print(f"  {name}: {base * 1000:.1f}ms -> {mean * 1000:.1f}ms "
                  f"(x{ratio:.2f})")
        return 1
    print(f"\nno regression beyond {tolerance:.0%} tolerance "
          f"({len(current)} benchmark(s) checked)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh benchmark JSON")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed mean-time growth (default 0.30 = 30%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be non-negative")
    current = load_means(args.current)
    if args.update:
        write_baseline(args.baseline, current)
        print(f"wrote {args.baseline} ({len(current)} benchmark(s))")
        return 0
    baseline = load_means(args.baseline)
    return compare(current, baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
