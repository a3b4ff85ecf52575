"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds the repro sources under
``src/``.  The first run after the sources change builds: it byte-compiles
``src`` and fills the artifact cache under ``perfbench/.work`` with the
quick-preset dataset the warm workloads load.  Every measured piece of
work then runs in a fresh worker process (``perfbench/worker.py``):

* set-up probes: ``PROBES`` workers that only set up, so ``setup_s`` is a
  median over several fresh set-ups;
* job workers: set up, then the timed job.  A batch workload starts
  another job while the last one would still end within ``--seconds``;
* with ``--trace 1``, one more job worker with spans recorded around
  every call into the program's layers (``perfbench/tracing.py``).  Only
  per-layer metrics come from it; end-to-end metrics come from untraced
  workers only.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``).  Exits non-zero without a result when the
program cannot be built or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, stats  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
WORKLOADS = ("paper_pipeline", "model_sweep", "serve_mixed")
BATCH = ("paper_pipeline", "model_sweep")
PROBES = 2
RUN_BUDGET_S = 175.0
BUILD_BUDGET_S = 700.0


class BenchError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    """The program's defaults: no REPRO_* settings, caches inside WORK."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(WORK / "home")
    return env


def source_stamp() -> str:
    """Digest of every source file under ``src`` and ``perfbench``."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and ".work" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


class Worker:
    """One finished worker: set-up time, READY and RESULT documents, rusage."""

    def __init__(self, ready_s: Optional[float], ready: Dict, result: Dict, usage) -> None:
        self.ready_s = ready_s
        self.ready = ready
        self.result = result
        self.usage = usage

    @property
    def peak_rss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(spec: Dict, env: Dict[str, str], deadline: float) -> Worker:
    """Run one worker to completion (killing its process group at the
    deadline) and collect what it printed."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, [proc.pid])
    watchdog.start()
    ready_s, ready, result = None, {}, None
    try:
        for line in proc.stdout:
            tag, _, document = line.rstrip("\n").partition(" ")
            if tag == "READY":
                ready_s = time.perf_counter() - started
                ready = json.loads(document)
            elif tag == "RESULT":
                result = json.loads(document)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # Nothing the worker started may outlive it.
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} worker ({spec['mode']}) exited {proc.returncode}")
    if ready_s is None and spec["mode"] != "fill" or result is None:
        raise BenchError(f"{spec['workload']} worker ({spec['mode']}) printed no result")
    return Worker(ready_s, ready, result, usage)


def build(env: Dict[str, str]) -> None:
    """Byte-compile and fill the artifact cache once per source state."""
    stamp_path = WORK / "build.stamp"
    stamp = source_stamp()
    if stamp_path.is_file() and stamp_path.read_text() == stamp:
        return
    deadline = time.monotonic() + BUILD_BUDGET_S
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=BUILD_BUDGET_S,
    )
    spawn({"workload": "build", "mode": "fill", "work": str(WORK), "trace": 0,
           "seed": 0, "seconds": 0}, env, deadline)
    stamp_path.write_text(stamp)


def run_workload(args, env: Dict[str, str], deadline: float) -> Tuple[List[Worker], List[Worker], Optional[Worker]]:
    """Set-up probes, untraced job workers, and the traced one if asked."""
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "work": str(WORK), "trace": 0}
    probes = [spawn(dict(base, mode="setup"), env, deadline) for _ in range(PROBES)]
    jobs: List[Worker] = []
    started = time.perf_counter()
    while True:
        jobs.append(spawn(dict(base, mode="job"), env, deadline))
        if args.workload not in BATCH:
            break
        last = jobs[-1].result["wall_s"]
        if time.perf_counter() - started + last > args.seconds:
            break
    traced = spawn(dict(base, mode="job", trace=1), env, deadline) if args.trace else None
    return probes, jobs, traced


def end_to_end(workload: str, probes: List[Worker], jobs: List[Worker]) -> Dict[str, float]:
    """End-to-end metrics; CPU-bound times are at the reference host speed."""
    first = jobs[0].result
    metrics = {
        "setup_s": stats.median([
            hostspeed.at_reference_speed(w.ready_s, w.result["reference_s"])
            for w in probes + jobs
        ]),
        "cv_corr": first["cv_corr"],
        "cv_rae_pct": first["cv_rae_pct"],
    }
    if workload in BATCH:
        # A batch workload's request is its whole job.
        walls = [
            hostspeed.at_reference_speed(
                w.result["wall_s"], w.result["job_unit_cpu_s"], hostspeed.NOMINAL_UNIT_S
            )
            for w in jobs
        ]
        metrics.update(
            wall_s=stats.median(walls),
            p50_ms=stats.median(walls) * 1e3,
            tail_ms=stats.tail(walls)[1] * 1e3,
            max_rps=1.0 / stats.median(walls),
            peak_rss_mb=max(w.peak_rss_mb for w in jobs),
        )
    else:
        metrics.update(
            {key: first[key] for key in ("wall_s", "p50_ms", "tail_ms", "max_rps")},
            peak_rss_mb=first["server_peak_rss_mb"],
        )
    return metrics


def per_layer(workload: str, probes: List[Worker], jobs: List[Worker], traced: Worker) -> Dict[str, float]:
    metrics = dict(traced.result["layers"])
    untraced = jobs[0].result
    metrics["setup.import_s"] = stats.median([w.ready["import_s"] for w in probes + jobs])
    metrics["trace.overhead_s"] = traced.result["wall_s"] - untraced["wall_s"]
    if workload == "paper_pipeline":
        metrics["simulator.sim_minst_per_s"] = untraced["sim_minst_per_s"]
    if workload == "serve_mixed":
        metrics.update({k: v for k, v in traced.result.items() if k.startswith("serve.")})
    return metrics


def select(values: Dict[str, float], declared: List[Dict]) -> Dict[str, Dict]:
    """Every declared metric with its unit; undeclared values are a bug."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    infinite = sorted(name for name, value in values.items() if not math.isfinite(value))
    if infinite:
        # Failed requests at the reference rung leave no latency figure.
        raise BenchError(f"no finite value for {infinite}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def report(args, probes: List[Worker], jobs: List[Worker], traced: Optional[Worker],
           metrics: Dict[str, Dict]) -> None:
    workers = jobs + ([traced] if traced else [])
    attempted = sum(w.result["attempted"] for w in workers)
    failed = sum(w.result["failed"] for w in workers)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    setups = " ".join(f"{w.ready_s:.3f}" for w in probes + jobs)
    walls = " ".join(f"{w.result['wall_s']:.3f}" for w in jobs)
    references = " ".join(f"{w.result['reference_s']:.4f}" for w in probes + jobs)
    print(f"  raw set-up seconds {setups}; raw job wall seconds {walls}")
    print(f"  host reference round seconds {references} "
          f"(nominal {hostspeed.NOMINAL_S})")
    if "job_unit_cpu_s" in jobs[0].result:
        units = " ".join(f"{w.result['job_unit_cpu_s']:.5f}" for w in jobs)
        print(f"  host monitor unit CPU seconds during jobs {units} "
              f"(nominal {hostspeed.NOMINAL_UNIT_S})")
    first = jobs[0].result
    if "rungs" in first:
        print(f"  reference rung {first['reference_n']} requests, tail is "
              f"p{first['tail_percent']:.1f}")
        for rung in first["rungs"]:
            print(f"  rung {rung['rate']:g}/s  n {rung['n']}  achieved {rung['achieved_rps']:.2f}/s"
                  f"  p90 {rung['p90_ms']:.2f} ms"
                  f"  lag grows {rung['lag_grows']}")
    if "sim_minst_per_s" in first:
        print(f"  sim_minst_per_s {first['sim_minst_per_s']:.4f} M inst/s (collection leg)")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac {failed / max(attempted, 1):.4g} ({failed} of {attempted})")
    for w in workers:
        for note in w.result["notes"]:
            print(f"  FAILED {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so every worker's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    try:
        build(env)
        probes, jobs, traced = run_workload(args, env, time.monotonic() + RUN_BUDGET_S)
        if traced is None:
            values = end_to_end(args.workload, probes, jobs)
            metrics = select(values, declared["end_to_end"])
        else:
            values = per_layer(args.workload, probes, jobs, traced)
            metrics = select(values, declared["per_layer"])
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args, probes, jobs, traced, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
