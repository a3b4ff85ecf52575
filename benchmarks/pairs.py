#!/usr/bin/env python
"""Run alternating parent/change pairs of the repo benchmark; write a BENCH file.

Each of the two git revisions (anything ``git archive`` accepts: a
commit, a branch, a tree id) is exported once into a work directory.
Pair ``k`` of a workload runs ``perfbench/run.py`` at seed
``first_seed + k`` for the ``run_seconds`` of ``BENCHMARK.json`` from
both exports, the parent first in even pairs and the change first in odd
ones, and the summary is written in the ``repro-bench-stage/1`` shape of
the committed ``BENCH_*.json`` files::

    python benchmarks/pairs.py PARENT CHANGE \\
        --workload paper_pipeline:10:3001 --workload model_sweep:3:3101 \\
        --traced paper_pipeline:4:3301 \\
        --claim paper_pipeline:wall_s --expected "about -15 %" \\
        --stage simulator --previous BENCH_2026-10-17c.json \\
        --change "what the change does" --out BENCH_2026-10-18.json

``--workload NAME:PAIRS:FIRST_SEED`` adds untraced pairs (end-to-end
metrics, failed and attempted counts); ``--traced`` adds traced pairs of
one workload (per-layer metrics).  Per metric the document records each
side's median, quartiles (linear interpolation) and runs by seed, the
change against the parent in percent, the pairs the change won (strictly
better) and the pairs with equal values, and for end-to-end metrics the
bound of ``BENCHMARK.json`` and whether the change median stays within
it.  ``--claim`` applies the gain rule: the change wins at least nine
tenths of the pairs, and its median is better by more than the
distance between the parent's quartiles.  ``--extra FILE`` merges a
JSON object of further top-level keys (notes, side measurements).

``--journal FILE`` appends every finished run as a JSON line and skips
the runs already in it, so an interrupted invocation can be resumed.

Stdlib-only, like ``compare.py``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro-bench-stage/1"
SIDES = ("parent", "change")
#: A change claims a gain only when it wins at least this share of pairs.
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = math.floor(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def summary(runs: Dict[str, float]) -> Dict:
    q1, median, q3 = quartiles(list(runs.values()))
    return {"median": median, "q1": q1, "q3": q3, "runs": dict(runs)}


def is_better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def compare_metric(
    parent: Dict[str, float],
    change: Dict[str, float],
    unit: str,
    better: str,
    bound: Optional[float] = None,
) -> Dict:
    """One metric of both sides; ``parent`` and ``change`` map seed -> value."""
    seeds = [seed for seed in parent if seed in change]
    entry = {"parent": summary(parent), "change": summary(change)}
    base = entry["parent"]["median"]
    moved = entry["change"]["median"]
    entry["change_vs_parent_pct"] = (moved - base) / base * 100.0 if base else None
    entry["unit"] = unit
    entry["better"] = better
    won = sum(is_better(change[s], parent[s], better) for s in seeds)
    same = sum(change[s] == parent[s] for s in seeds)
    entry["pairs_won"] = f"{won}/{len(seeds)}"
    entry["pairs_identical"] = f"{same}/{len(seeds)}"
    if bound is not None:
        entry["bound_pct"] = bound * 100.0
        limit = base * (1.0 + bound) if better == "lower" else base * (1.0 - bound)
        entry["within_bound"] = moved <= limit if better == "lower" else moved >= limit
    return entry


def claim_verdict(entry: Dict) -> Dict:
    """The gain rule applied to one ``compare_metric`` entry."""
    won, pairs = (int(part) for part in entry["pairs_won"].split("/"))
    parent, change = entry["parent"], entry["change"]
    difference = abs(change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    met = (
        pairs > 0
        and won >= math.ceil(WIN_SHARE * pairs)
        and is_better(change["median"], parent["median"], entry["better"])
        and difference > iqr
    )
    return {
        "pairs_won": entry["pairs_won"],
        "median_difference": difference,
        "parent_iqr": iqr,
        "met": met,
    }


def first_side(pair_index: int) -> Tuple[str, str]:
    """Run order of one pair: the parent first in even pairs."""
    return SIDES if pair_index % 2 == 0 else SIDES[::-1]


def parse_spec(text: str) -> Tuple[str, int, int]:
    """``NAME:PAIRS:FIRST_SEED`` -> (name, pairs, first seed)."""
    name, pairs, seed = text.split(":")
    if int(pairs) < 1:
        raise ValueError(f"{text}: need at least one pair")
    return name, int(pairs), int(seed)


def last_json_line(stdout: str) -> Dict:
    """The result object ``perfbench/run.py`` prints as its last line."""
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the output")


def collect(
    runs: Iterable[Dict], workload: str, trace: int, declared: List[Dict],
    bounds: bool,
) -> Dict:
    """Per-metric comparison of the journal entries of one workload."""
    values: Dict[str, Dict[str, Dict[str, float]]] = {}
    counts = {key: {side: [] for side in SIDES} for key in ("failed", "attempted")}
    seeds = set()
    for run in sorted(runs, key=lambda r: r["seed"]):
        if run["workload"] != workload or run["trace"] != trace:
            continue
        seeds.add(run["seed"])
        result = run["result"]
        for key in counts:
            counts[key][run["side"]].append(result[key])
        for name, metric in result["metrics"].items():
            side = values.setdefault(name, {s: {} for s in SIDES})[run["side"]]
            side[str(run["seed"])] = metric["value"]
    metrics = {}
    for spec in declared:
        sides = values.get(spec["name"])
        if not sides or not sides["parent"] or not sides["change"]:
            continue
        metrics[spec["name"]] = compare_metric(
            sides["parent"], sides["change"], spec["unit"], spec["better"],
            spec.get("bound") if bounds else None,
        )
    section = {"seeds": sorted(seeds), "metrics": metrics}
    if not trace:
        section.update(counts)
    return section


def export(revision: str, target: Path) -> str:
    """Write ``revision``'s files to ``target``; return its resolved id."""
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", revision], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    marker = target / ".pairs-revision"
    if not (marker.is_file() and marker.read_text() == resolved):
        # A kept export of the same revision keeps its benchmark build.
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", resolved], cwd=ROOT, check=True,
            capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
        marker.write_text(resolved)
    return resolved


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {checkout} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return last_json_line(done.stdout)


def host_line() -> str:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            pass
    return ", ".join(
        [f"{os.cpu_count()}-vCPU {model}", platform.system(),
         f"{platform.python_implementation()} {platform.python_version()}"]
        + versions
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change_revision", metavar="change")
    parser.add_argument("--workload", action="append", default=[], type=parse_spec,
                        help="NAME:PAIRS:FIRST_SEED, untraced pairs")
    parser.add_argument("--traced", type=parse_spec, help="NAME:PAIRS:FIRST_SEED, traced pairs")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--expected", default="", help="the claimed gain, in words")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--previous", required=True)
    parser.add_argument("--change", dest="description", required=True,
                        help="what the change does")
    parser.add_argument("--extra", type=Path, help="JSON object of further top-level keys")
    parser.add_argument("--journal", type=Path, help="JSON lines of finished runs")
    parser.add_argument("--workdir", type=Path, help="where the exports live (kept)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    revisions = dict(zip(SIDES, (args.parent, args.change_revision)))
    resolved = {side: export(rev, workdir / side) for side, rev in revisions.items()}

    done: List[Dict] = []
    if args.journal and args.journal.is_file():
        entries = [json.loads(line) for line in args.journal.read_text().splitlines() if line]
        done = [run for run in entries if run["revision"] == resolved[run["side"]]]
    plan = [(name, pairs, seed, 0) for name, pairs, seed in args.workload]
    if args.traced:
        plan.append(args.traced + (1,))
    try:
        for name, pairs, first_seed, trace in plan:
            for index in range(pairs):
                seed = first_seed + index
                for side in first_side(index):
                    key = (side, name, seed, trace)
                    if any((r["side"], r["workload"], r["seed"], r["trace"]) == key
                           for r in done):
                        continue
                    result = run_once(workdir / side, name, seed, seconds, trace)
                    run = {"side": side, "workload": name, "seed": seed,
                           "trace": trace, "revision": resolved[side], "result": result}
                    done.append(run)
                    if args.journal:
                        with args.journal.open("a") as journal:
                            journal.write(json.dumps(run) + "\n")
                    print(f"{name} seed {seed} trace {trace} {side}: "
                          f"failed {result['failed']} of {result['attempted']}",
                          file=sys.stderr, flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    document = {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "stage": args.stage,
        "change": args.description,
        "previous": args.previous,
        "compared_against": "parent commit, identical benchmark code and settings",
        "revisions": resolved,
        "host": host_line(),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "method": (
            "alternating parent/change pairs (the parent first in even pairs, "
            "the change first in odd ones), one git-archive export per side, "
            "written by benchmarks/pairs.py; medians and quartiles (linear "
            "interpolation) over the runs listed; pairs_won counts pairs where "
            "the change is strictly better, pairs_identical those with equal "
            "values; within_bound compares the change median against the parent "
            "median with the bound of BENCHMARK.json."
        ),
        "end_to_end": {
            name: collect(done, name, 0, declared["end_to_end"], bounds=True)
            for name, _, _ in args.workload
        },
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        entry = document["end_to_end"][workload]["metrics"][metric]
        document["claim"] = dict(
            {"metric": f"{workload} {metric}", "expected": args.expected,
             "measured_pct": entry["change_vs_parent_pct"]},
            **claim_verdict(entry),
        )
    if args.traced:
        name = args.traced[0]
        document["traced"] = dict(
            {"workload": name}, **collect(done, name, 1, declared["per_layer"], bounds=False)
        )
    if args.extra:
        document.update(json.loads(args.extra.read_text()))
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
