"""The three workloads, run inside a fresh worker process.

Each workload has a set-up (everything before its first timed call) and
a job (the timed work), and checks the program's outputs as it goes:
every failed check is one failed operation.  The program is driven only
through its public API and its ``repro serve`` command, with its default
settings (``REPRO_JOBS`` unset: serial).  Calls are made through module
attributes (``data.suite_dataset``, ``crossval.cross_validate``) so a
:class:`~perfbench.tracing.Tracer` installed by the worker sees them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.analysis import report
from repro.core.tree import m5
from repro.counters.invariants import METRIC_INVARIANTS, check_dataset
from repro.evaluation import crossval
from repro.experiments import data
from repro.experiments.config import ExperimentConfig
from repro.serve.registry import ModelRegistry

from perfbench import loadgen, stats

#: The quick preset's shape: 11 SPEC-like profiles, 120 sections x 2048
#: instructions, suite seed 2007, simulated by the trace engine.
SHAPE = ExperimentConfig.quick()
MIN_INSTANCES = 25
N_FOLDS = 10
SWEEP = (6, 12, 25, 50, 100)
MIN_CV_CORR = 0.95

#: Serving: the reference rung lasts the whole measuring budget; higher
#: rungs last RUNG_S each and the climb stops at the first rung that fails.  The
#: ladder skips 40 and 50/s: there the keep-alive stall of the parent
#: server engages at random, so a rung would pass or fail by chance.
REF_RATE = 20.0
LADDER = (30.0, 60.0, 90.0, 120.0, 180.0, 240.0)
RUNG_S = 4.0
RULE_PERCENT = 90.0
#: The reported tail: p90 of the reference rung's 400 requests.  Its
#: highest supported percentile (p97.5) moves by half between runs on a
#: shared host, where a few scheduling stalls land in the top 3 %.
TAIL_PERCENT = 90.0
LIMIT_MS = 25.0
LAG_TOLERANCE_MS = 10.0
CONNECTIONS = 2
#: Share of single-section /predict, 64-section /predict and /explain.
MIX = (0.8, 0.1, 0.1)
BATCH_ROWS = 64
SCORING_REQUESTS = 64
SCORING_REPEATS = 3
MODEL_NAME = "cpi"
HOST = "127.0.0.1"


class Checks:
    """Counts correctness checks and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def cv_metrics(cv) -> Dict[str, float]:
    """The paper's headline numbers: means over the 10 folds."""
    return {
        "cv_corr": float(cv.mean.correlation),
        "cv_rae_pct": float(cv.mean.rae) * 100.0,
    }


def run_cv(dataset, min_instances: int, seed: int):
    return crossval.cross_validate(
        functools.partial(m5.M5Prime, min_instances=min_instances),
        dataset,
        n_folds=N_FOLDS,
        rng=np.random.default_rng(seed),
    )


def warm_dataset(cache_dir: Path):
    """The quick-preset dataset from the artifact cache the build filled."""
    cache = data.artifact_cache(cache_dir)
    if not cache.has("dataset", data.experiment_fingerprint(SHAPE)):
        raise RuntimeError(
            f"no warm dataset in {cache_dir}; run.py fills it before any run"
        )
    return data.suite_dataset(SHAPE, cache_dir=cache_dir)


def fill_cache(cache_dir: Path) -> None:
    data.suite_dataset(SHAPE, cache_dir=cache_dir)


class Workload:
    """Set-up, job and checks of one workload in one worker process.

    Args:
        seed: Workload seed; all generated inputs derive from it.
        seconds: Measuring budget of the run.
        scratch: Empty directory this worker owns.
        cache_dir: Artifact cache the build filled with the warm dataset.
        stage: ``stage(name)`` context manager timing the benchmark's own
            calls into the program (a span when tracing).
    """

    def __init__(self, seed: int, seconds: float, scratch: Path, cache_dir: Path,
                 stage) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.cache_dir = cache_dir
        self.stage = stage
        self.checks = Checks()

    #: Whether the job is CPU-bound work on one CPU, timed against a
    #: :class:`~perfbench.hostspeed.Monitor`.
    monitor_job = False

    def setup(self) -> None:
        """Everything before the first timed call."""

    def job(self) -> Dict:
        """The timed work; returns end-to-end numbers."""
        raise NotImplementedError

    def finish(self, traced: bool) -> Dict:
        """Untimed work after the job (checks, model quality)."""
        return {}

    def teardown(self) -> Dict:
        return {}


class PaperPipeline(Workload):
    """One cold reproduction: simulate, fit, 10-fold CV, explain."""

    monitor_job = True

    def job(self) -> Dict:
        started = time.perf_counter()
        with self.stage("bench.collect") as collect:
            dataset = data.suite_dataset(SHAPE, cache_dir=self.scratch / "artifacts")
        with self.stage("bench.fit"):
            model = m5.M5Prime(min_instances=MIN_INSTANCES).fit(dataset)
        with self.stage("bench.cv"):
            cv = run_cv(dataset, MIN_INSTANCES, self.seed)
        with self.stage("bench.analyze"):
            grouped = report.PerformanceAnalyzer(model).analyze_dataset(dataset)
        wall = time.perf_counter() - started

        columns = {name: dataset.column(name) for name in dataset.attributes}
        violations = check_dataset(columns, METRIC_INVARIANTS)
        self.checks.check(not violations, f"{len(violations)} dataset invariant violations")
        self.checks.check(
            bool(np.all(np.isfinite(cv.predictions))), "non-finite CV prediction"
        )
        self.checks.check(
            cv.mean.correlation >= MIN_CV_CORR,
            f"cv_corr {cv.mean.correlation:.4f} < {MIN_CV_CORR}",
        )
        analyzed = sum(len(sections) for sections in grouped.values())
        self.checks.check(
            analyzed == dataset.n_instances,
            f"analyzed {analyzed} of {dataset.n_instances} sections",
        )
        instructions = dataset.n_instances * SHAPE.instructions_per_section
        return dict(
            cv_metrics(cv),
            wall_s=wall,
            instructions=instructions,
            sim_minst_per_s=instructions / 1e6 / collect.seconds,
        )


class ModelSweep(Workload):
    """The A2 ablation: 10-fold CV plus a full fit per min_instances."""

    monitor_job = True

    def setup(self) -> None:
        self.dataset = warm_dataset(self.cache_dir)

    def job(self) -> Dict:
        results = {}
        started = time.perf_counter()
        for min_instances in SWEEP:
            with self.stage(f"bench.sweep.m{min_instances}"):
                cv = run_cv(self.dataset, min_instances, self.seed)
                m5.M5Prime(min_instances=min_instances).fit(self.dataset)
            results[min_instances] = cv
        wall = time.perf_counter() - started

        for min_instances, cv in results.items():
            self.checks.check(
                bool(np.all(np.isfinite(cv.predictions))),
                f"non-finite CV prediction at min_instances {min_instances}",
            )
        largest, paper = results[SWEEP[-1]].mean.rae, results[MIN_INSTANCES].mean.rae
        self.checks.check(
            largest >= paper,
            f"RAE at min_instances {SWEEP[-1]} ({largest:.4f}) below RAE at "
            f"{MIN_INSTANCES} ({paper:.4f})",
        )
        return dict(cv_metrics(results[MIN_INSTANCES]), wall_s=wall)


class ServeMixed(Workload):
    """``repro serve`` in a child process under an open-loop request mix."""

    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        self.dataset = warm_dataset(self.cache_dir)
        model = m5.M5Prime(min_instances=MIN_INSTANCES).fit(self.dataset)
        registry_dir = self.scratch / "registry"
        with self.stage("bench.publish") as publish:
            self.record = ModelRegistry(registry_dir).publish(MODEL_NAME, model)
        self.publish_s = publish.seconds
        with self.stage("bench.ready") as ready:
            self.port = self._start_server(registry_dir)
        self.ready_s = ready.seconds
        self.registry_dir = registry_dir

    def _start_server(self, registry_dir: Path) -> int:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--registry", str(registry_dir), "--model", self.record.spec,
             "--host", HOST, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        for line in self.server.stdout:
            if line.startswith("listening on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
        else:
            raise RuntimeError("repro serve exited before listening")
        status, _ = loadgen.get(HOST, port, "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return port

    # -- inputs --------------------------------------------------------
    def _requests(self, rng: np.random.Generator, count: int) -> List[loadgen.Request]:
        X = self.dataset.X
        kinds = rng.choice(len(MIX), size=count, p=MIX)
        requests = []
        for kind in kinds:
            if kind == 1:
                rows = X[rng.integers(len(X), size=BATCH_ROWS)]
                payload = {"sections": rows.tolist()}
            else:
                payload = {"section": X[rng.integers(len(X))].tolist()}
            path = "/explain" if kind == 2 else "/predict"
            requests.append(loadgen.Request(path, json.dumps(payload).encode()))
        return requests

    def _scrape(self) -> Dict:
        status, body = loadgen.get(HOST, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return loadgen.parse_metrics(body.decode("utf-8"))

    # -- the job -------------------------------------------------------
    def job(self) -> Dict:
        rng = np.random.default_rng(self.seed)
        rungs = [(REF_RATE, self.seconds)] + [(rate, RUNG_S) for rate in LADDER]
        self.steps: List[stats.StepResult] = []
        self.sent: List[loadgen.Request] = []
        self.outcomes: List[loadgen.Outcome] = []
        self.shed = 0.0
        for rate, duration in rungs:
            requests = self._requests(rng, int(round(rate * duration)))
            before = self._scrape()
            outcomes = loadgen.open_loop(HOST, self.port, requests, rate, CONNECTIONS)
            moved = loadgen.delta(before, self._scrape())
            self.shed += loadgen.counter_total(moved, "repro_shed_total")
            if not self.steps:
                self.reference, self.reference_moved = outcomes, moved
            self.sent += requests
            self.outcomes += outcomes
            step = stats.StepResult(
                rate,
                [o.latency_ms if o.ok else float("inf") for o in outcomes],
                [o.backlog_ms for o in outcomes],
                loadgen.completion_rate(outcomes),
            )
            self.steps.append(step)
            if not step.passes(RULE_PERCENT, LIMIT_MS, LAG_TOLERANCE_MS):
                break

        scoring = self._requests(rng, SCORING_REQUESTS)
        walls = []
        for _ in range(SCORING_REPEATS):
            with self.stage("bench.scoring"):
                wall, outcomes = loadgen.closed_loop(HOST, self.port, scoring, CONNECTIONS)
            walls.append(wall)
            self.sent += scoring
            self.outcomes += outcomes

        latencies = [o.latency_ms if o.ok else float("inf") for o in self.reference]
        return {
            "wall_s": stats.median(walls),
            "p50_ms": stats.median(latencies),
            "tail_ms": stats.nearest_rank(latencies, TAIL_PERCENT),
            "tail_percent": TAIL_PERCENT,
            "reference_n": len(latencies),
            "max_rps": stats.max_rps(self.steps, RULE_PERCENT, LIMIT_MS, LAG_TOLERANCE_MS),
            "rungs": [
                {"rate": s.rate, "n": len(s.latencies_ms), "achieved_rps": s.achieved_rps,
                 "p90_ms": stats.nearest_rank(s.latencies_ms, RULE_PERCENT),
                 "lag_grows": stats.lag_grows(s.lags_ms, LAG_TOLERANCE_MS)}
                for s in self.steps
            ],
        }

    def teardown(self) -> Dict:
        """Drain the server and read its peak RSS from its rusage."""
        server, self.server = self.server, None
        if server is None:
            return {}
        server.send_signal(signal.SIGTERM)
        try:
            _, status, usage = _wait4(server.pid, timeout=15.0)
        except TimeoutError:
            server.kill()
            _, status, usage = _wait4(server.pid, timeout=15.0)
        server.returncode = os.waitstatus_to_exitcode(status)
        server.stdout.close()
        return {"server_peak_rss_mb": usage.ru_maxrss / 1024.0}

    def finish(self, traced: bool) -> Dict:
        self._verify()
        result = self._layer_numbers()
        if not traced:
            result.update(cv_metrics(run_cv(self.dataset, MIN_INSTANCES, self.seed)))
        return result

    def _verify(self) -> None:
        """Every reply must be a 200 equal, bit for bit, to what the
        registry record computes here."""
        model, _ = ModelRegistry(self.registry_dir).resolve(self.record.spec)
        for request, outcome in zip(self.sent, self.outcomes):
            if not outcome.ok:
                self.checks.check(False, f"{request.path} answered {outcome.status}")
                continue
            payload = json.loads(request.body)
            reply = json.loads(outcome.body)
            if request.path == "/explain":
                x = np.asarray(payload["section"], dtype=np.float64)
                expected = {
                    "leaf": int(model.leaf_for(x).leaf_id),
                    "prediction": float(model.predict(x.reshape(1, -1))[0]),
                }
                got = {key: reply.get(key) for key in expected}
            else:
                X = np.atleast_2d(np.asarray(
                    payload.get("sections", [payload.get("section")]), dtype=np.float64
                ))
                expected = {
                    "predictions": [float(p) for p in model.predict(X)],
                    "leaf_ids": [int(i) for i in model.leaf_ids(X)],
                }
                got = {key: reply.get(key) for key in expected}
            self.checks.check(got == expected, f"{request.path} reply differs")

    def _layer_numbers(self) -> Dict:
        moved = self.reference_moved
        server = loadgen.histogram_by(moved, "repro_request_seconds", "endpoint")
        rows_sum, batches = loadgen.histogram_by(moved, "repro_batch_rows").get("", (0.0, 0.0))
        work = [server.get(path, (0.0, 0.0)) for path in ("/predict", "/explain")]
        served_s = sum(total for total, _ in work)
        served_n = sum(count for _, count in work)
        client_ms = [o.client_ms for o in self.reference if o.ok]

        def mean_ms(path: str) -> float:
            total, count = server.get(path, (0.0, 0.0))
            return total / count * 1e3 if count else 0.0

        return {
            "serve.publish_s": self.publish_s,
            "serve.ready_s": self.ready_s,
            "serve.server_ms.predict": mean_ms("/predict"),
            "serve.server_ms.explain": mean_ms("/explain"),
            "serve.transport_ms": (
                sum(client_ms) / len(client_ms) - served_s / served_n * 1e3
                if client_ms and served_n else 0.0
            ),
            "serve.batches": batches,
            "serve.batch_rows_mean": rows_sum / batches if batches else 0.0,
            "serve.shed": self.shed,
            "serve.gen_lag_ms": stats.tail([o.gen_lag_ms for o in self.reference])[1],
        }


def _wait4(pid: int, timeout: float):
    """``os.wait4`` with a deadline (polls, since wait4 cannot time out)."""
    deadline = time.monotonic() + timeout
    while True:
        waited, status, usage = os.wait4(pid, os.WNOHANG)
        if waited == pid:
            return waited, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"process {pid} did not exit")
        time.sleep(0.02)


WORKLOADS = {
    "paper_pipeline": PaperPipeline,
    "model_sweep": ModelSweep,
    "serve_mixed": ServeMixed,
}


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A fresh directory under ``root``, removed afterwards."""
    path = root / f"w{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
