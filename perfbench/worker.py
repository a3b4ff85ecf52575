"""One worker process: a workload's set-up and, unless probing, its job.

Started by ``run.py`` as ``python3 -m perfbench.worker '<json spec>'``
with ``src`` and the checkout root on ``PYTHONPATH``.  Prints
``READY <json>`` once set up and ``RESULT <json>`` at the end, both on
stdout; the spec's ``mode`` is ``setup`` (probe: stop after READY),
``job``, or ``fill`` (fill the artifact cache, nothing else).  Set-up
and job workers time the host speed reference (``hostspeed``) right
after set-up; a batch job runs under a ``hostspeed.Monitor``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from perfbench import hostspeed, tracing

_STARTED = time.perf_counter()


class _Timing:
    seconds = 0.0


def _emit(tag: str, document) -> None:
    print(tag + " " + json.dumps(document), flush=True)


class _SimulatedStatistics:
    """Modelled totals taken from every ``run_block`` return value."""

    def __init__(self, instruction_event: str) -> None:
        self.instruction_event = instruction_event
        self.cycles = 0.0
        self.instructions = 0.0
        self.causes = defaultdict(float)

    def __call__(self, result) -> None:
        self.cycles += result.cycles
        self.instructions += result.counts[self.instruction_event]
        for cause, cycles in result.breakdown.as_dict().items():
            self.causes[cause] += cycles


class _CacheOutcomes:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def __call__(self, dataset) -> None:
        if dataset is None:
            self.misses += 1
        else:
            self.hits += 1


def _layer_metrics(tracer, window_s, simulated, cache, causes):
    summary = tracing.summarize(tracer.spans)

    def total(name, field="s"):
        return float(summary.get(name, {}).get(field, 0.0))

    metrics = {
        "trace.spans": len(tracer.spans),
        "parallel.cache.hits": cache.hits,
        "parallel.cache.misses": cache.misses,
        "simulator.run_block.share": total("simulator.run_block") / window_s,
        "simulator.host_us_per_inst": (
            total("simulator.run_block") / simulated.instructions * 1e6
            if simulated.instructions else 0.0
        ),
        "simulator.sim_cpi": (
            simulated.cycles / simulated.instructions if simulated.instructions else 0.0
        ),
        "evaluation.cross_validate.self_s": total("evaluation.cross_validate", "self_s"),
    }
    for cause in causes:
        metrics[f"simulator.cpi.{cause}"] = (
            simulated.causes[cause] / simulated.instructions
            if simulated.instructions else 0.0
        )
    for name in (
        "workloads.synthesize_block", "simulator.run_block", "core.tree.fit",
        "core.tree.find_best_split", "core.tree.fit_linear_model", "serve.compile_tree",
    ):
        metrics[f"{name}.calls"] = int(total(name, "calls"))
    for name in {span_name for _, _, span_name in tracing.PLAN}:
        metrics[f"{name}.s"] = total(name)
    for layer, seconds in tracing.layer_self_times(tracer.spans).items():
        label = "other" if layer == "bench" else layer
        metrics[f"layer_share.{label}"] = seconds / window_s
    return metrics


def main(argv) -> int:
    spec = json.loads(argv[1])
    from perfbench import workloads

    import_s = time.perf_counter() - _STARTED
    work = Path(spec["work"])
    cache_dir = work / "cache"
    if spec["mode"] == "fill":
        workloads.fill_cache(cache_dir)
        _emit("RESULT", {})
        return 0

    tracer = tracing.Tracer() if spec["trace"] else None

    @contextlib.contextmanager
    def stage(name):
        timing = _Timing()
        index = tracer.open(name) if tracer is not None else None
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - start
            if index is not None:
                tracer.close(index)

    from repro.counters import events
    from repro.simulator.pipeline import CycleBreakdown

    causes = list(CycleBreakdown().as_dict())
    simulated = _SimulatedStatistics(events.INST_RETIRED_ANY.name)
    cache = _CacheOutcomes()
    with workloads.scratch_dir(work / "scratch") as scratch:
        workload = workloads.WORKLOADS[spec["workload"]](
            spec["seed"], spec["seconds"], scratch, cache_dir, stage
        )
        result = {}
        try:
            window_start = time.perf_counter()
            if tracer is not None:
                tracer.install(hooks={
                    "simulator.run_block": simulated,
                    "parallel.cache.load_dataset": cache,
                })
            workload.setup()
            setup_window_s = time.perf_counter() - window_start
            _emit("READY", {"import_s": import_s})
            reference = hostspeed.reference_s()
            if spec["mode"] == "setup":
                _emit("RESULT", {"reference_s": reference})
                return 0
            job_start = time.perf_counter()
            if workload.monitor_job:
                with hostspeed.Monitor(scratch / "hostspeed.json") as monitor:
                    started = time.monotonic()
                    result = workload.job()
                    ended = time.monotonic()
                result["job_unit_cpu_s"] = hostspeed.unit_cpu_s(monitor.samples, started, ended)
            else:
                result = workload.job()
            window_s = setup_window_s + time.perf_counter() - job_start
            result["reference_s"] = reference
        finally:
            if tracer is not None:
                tracer.uninstall()
            result.update(workload.teardown())
        result.update(workload.finish(traced=tracer is not None))
        result.update(
            attempted=workload.checks.attempted,
            failed=workload.checks.failed,
            notes=workload.checks.notes[:10],
            import_s=import_s,
        )
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer, window_s, simulated, cache, causes)
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write_jsonl(traces / f"{spec['workload']}-seed{spec['seed']}.jsonl")
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
