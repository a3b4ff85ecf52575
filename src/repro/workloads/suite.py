"""Suite runner: workload profiles -> section dataset.

This is the reproduction of the paper's data-collection campaign: run
every workload, cut its execution into equal-instruction sections, and
record the Table I counters per section.  Everything is seeded, so the
same call always yields bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters.derive import sections_to_dataset
from repro.datasets.dataset import Dataset
from repro.errors import ConfigError, RetryExhaustedError
from repro.resilience import RunPolicy, TaskFailure
from repro.resilience.faults import maybe_inject
from repro.simulator.config import MachineConfig
from repro.simulator.core import SimulatedCore
from repro.workloads.phases import perturbed
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec import spec_like_suite
from repro.workloads.stream import synthesize_block

ProgressCallback = Callable[[str, int, int], None]

#: Fraction of a cache's capacity prewarm fills with a phase's working set,
#: leaving room for the conflict misses a real warm execution still has.
_PREWARM_FILL = 0.8


def prewarm(core: SimulatedCore, params) -> None:
    """Bring the memory hierarchy to a steady state for a phase.

    The paper's counters come from long-running executions whose caches
    and TLBs are warm; replaying only a sampled slice per section would
    otherwise overstate compulsory misses.  Prewarming fills each
    structure with the phase's working set (or an evenly spaced sample of
    it when the set exceeds capacity — future uniform accesses hit with
    the same probability either way), cold regions first so the hot set
    ends up most-recently used.  Each cache takes its fills in one
    :meth:`~repro.simulator.cache.SetAssociativeCache.fill_many` call.
    """
    config = core.config

    # Each structure is filled at its own granularity: the L1I line size
    # need not match the data side's, nor the ITLB page the DTLB's.
    def lines(cache, base: int, span: int, budget: int) -> np.ndarray:
        line = cache.config.line_bytes
        total = max(span // line, 1)
        step = max(total // max(budget, 1), 1)
        return base + np.arange(0, total, step, dtype=np.int64) * line

    def fill_pages(tlb, base: int, span: int, budget: int) -> None:
        page = tlb.config.page_bytes
        total = max(span // page, 1)
        step = max(total // max(budget, 1), 1)
        for index in range(0, total, step):
            tlb.access(base + index * page)

    l2_budget = int(config.l2.size_bytes // config.l2.line_bytes * _PREWARM_FILL)
    l1d_budget = int(config.l1d.size_bytes // config.l1d.line_bytes * _PREWARM_FILL)
    l1i_budget = int(config.l1i.size_bytes // config.l1i.line_bytes * _PREWARM_FILL)

    from repro.simulator.isa import CODE_REGION_BASE

    # Cold data into L2 (sampled to capacity), then hot code, then the hot
    # data set last so it sits at the MRU end of both levels.
    core.l2.fill_many(
        np.concatenate(
            [
                lines(core.l2, 0, params.data_footprint, int(l2_budget * 0.75)),
                lines(
                    core.l2,
                    CODE_REGION_BASE,
                    params.code_footprint,
                    int(l2_budget * 0.25),
                ),
                lines(core.l2, 0, params.hot_set_bytes, l2_budget),
            ]
        )
    )
    core.l1i.fill_many(
        lines(core.l1i, CODE_REGION_BASE, params.code_hot_bytes, l1i_budget)
    )
    core.l1d.fill_many(lines(core.l1d, 0, params.hot_set_bytes, l1d_budget))

    fill_pages(core.dtlb.level1, 0, params.data_footprint, config.dtlb.entries)
    fill_pages(core.dtlb.level1, 0, params.hot_set_bytes, config.dtlb.entries)
    fill_pages(core.dtlb.level0, 0, params.hot_set_bytes, config.dtlb0.entries)
    fill_pages(
        core.itlb, CODE_REGION_BASE, params.code_footprint, config.itlb.entries
    )
    fill_pages(
        core.itlb, CODE_REGION_BASE, params.code_hot_bytes, config.itlb.entries
    )
    core.dtlb.level1.reset_stats()
    core.dtlb.level0.reset_stats()
    core.itlb.reset_stats()


@dataclass
class SuiteResult:
    """Output of a suite simulation run.

    Attributes:
        dataset: One row per section, Table I attributes, CPI target,
            metadata columns ``workload``, ``section`` and ``phase``.
        cpi_by_workload: Mean measured CPI per workload, a quick sanity
            panel for calibration.
        failures: Workloads that exhausted their retries under a
            capturing failure policy; their sections are absent from
            ``dataset``.  Empty on a clean or policy-free run.
    """

    dataset: Dataset
    cpi_by_workload: Dict[str, float]
    failures: List[TaskFailure] = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable per-workload CPI panel."""
        lines = ["workload          sections  mean CPI"]
        labels = self.dataset.meta["workload"]
        for name, cpi in sorted(self.cpi_by_workload.items()):
            count = int(np.count_nonzero(labels == name))
            lines.append(f"{name:<18}{count:>8}  {cpi:8.3f}")
        for failure in self.failures:
            lines.append(f"FAILED {failure.render()}")
        return "\n".join(lines)


def workload_fingerprint(profiles: Optional[Sequence[WorkloadProfile]] = None) -> str:
    """A stable digest of the profile definitions (for dataset caching).

    Any change to a phase parameter or schedule weight changes the
    fingerprint, so cached datasets can never silently outlive the
    workloads that produced them.
    """
    from repro._util import stable_hash

    parts = []
    for profile in profiles if profiles is not None else spec_like_suite():
        parts.append(profile.name)
        for params, weight in zip(profile.schedule.phases, profile.schedule.weights):
            parts.append(f"{weight:.6f}")
            parts.append(repr(params))
    return stable_hash(parts)


class _ProfileRun:
    """One workload's full simulation, self-contained for any executor.

    Each profile draws only from its own pre-spawned seed sequence, so
    profile runs are order- and worker-independent: a parallel suite is
    bit-identical to a serial one.
    """

    def __init__(
        self,
        machine: MachineConfig,
        sections_per_workload: int,
        instructions_per_section: int,
        jitter: float,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.machine = machine
        self.sections_per_workload = sections_per_workload
        self.instructions_per_section = instructions_per_section
        self.jitter = jitter
        self.progress = progress

    def __call__(self, job):
        profile, seq = job
        maybe_inject("sim", profile.name)
        rng = np.random.default_rng(seq)
        core = SimulatedCore(self.machine, rng=rng)
        counts = []
        section_ids: List[int] = []
        phase_ids: List[int] = []
        cycles_total = 0.0
        previous_params = None
        for index in range(self.sections_per_workload):
            params = profile.section_params(index, self.sections_per_workload)
            if params is not previous_params:
                prewarm(core, params)
                previous_params = params
            section_params = perturbed(params, rng, self.jitter)
            block = synthesize_block(
                section_params, self.instructions_per_section, rng
            )
            result = core.run_block(block)
            counts.append(result.counts)
            section_ids.append(index)
            phase_ids.append(
                profile.phase_index(index, self.sections_per_workload)
            )
            cycles_total += result.cycles
            if self.progress is not None:
                progress = self.progress
                progress(profile.name, index + 1, self.sections_per_workload)
        cpi = cycles_total / (
            self.sections_per_workload * self.instructions_per_section
        )
        return counts, section_ids, phase_ids, cpi


class _CheckpointedProfileRun:
    """A profile run that persists its outcome as soon as it succeeds.

    Writing from inside the task makes a killed suite run resumable:
    every workload simulated before the kill is already durable, and a
    ``--resume`` run recomputes only the missing ones.
    """

    def __init__(self, inner: _ProfileRun, store, run_key: str) -> None:
        self.inner = inner
        self.store = store
        self.run_key = run_key

    def __call__(self, job):
        profile, _seq = job
        counts, section_ids, phase_ids, cpi = self.inner(job)
        self.store.store(
            self.run_key,
            f"wl-{profile.name}",
            {
                "counts": counts,
                "sections": section_ids,
                "phases": phase_ids,
                "cpi": cpi,
            },
        )
        return counts, section_ids, phase_ids, cpi


def _payload_to_outcome(payload) -> Tuple[list, list, list, float]:
    """Reconstruct a profile run outcome from its checkpoint payload."""
    return (
        list(payload["counts"]),
        [int(s) for s in payload["sections"]],
        [int(p) for p in payload["phases"]],
        float(payload["cpi"]),
    )


def simulate_suite(
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    sections_per_workload: int = 120,
    instructions_per_section: int = 2048,
    config: Optional[MachineConfig] = None,
    seed: int = 2007,
    jitter: float = 0.08,
    progress: Optional[ProgressCallback] = None,
    n_jobs: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
    engine: str = "trace",
    calibration=None,
) -> SuiteResult:
    """Simulate every profile and assemble the section dataset.

    Args:
        profiles: Workloads to run (defaults to the SPEC-like suite).
        sections_per_workload: Sections collected per workload.
        instructions_per_section: Instructions replayed per section.  Real
            sections span millions of instructions; replaying a sampled
            slice of this length per section yields the same per-
            instruction ratios with realistic sampling noise.
        config: Machine model (defaults to the Core 2 Duo configuration).
        seed: Master seed; all randomness derives from it.
        jitter: Section-to-section lognormal spread of phase parameters.
        progress: Optional callback ``(workload, done_sections, total)``.
            Fires per section only on the serial, policy-free trace
            path; in every other mode (``n_jobs > 1``, a ``policy``, or
            the fast engine) it fires in the parent once per workload
            that actually produced sections — a workload a policy
            skipped after exhausting retries gets no callback in any
            mode.
        n_jobs: Workload-level parallelism — ``1`` serial, ``N`` workers,
            ``-1`` all cores, ``None`` defers to ``REPRO_JOBS``.  The
            dataset is bit-identical at any worker count because every
            profile simulates from its own pre-spawned seed.  Trace
            engine only (the fast engine is a single vectorized pass).
        policy: Optional :class:`~repro.resilience.RunPolicy`: per-
            workload retries/timeouts, failure-policy handling, and —
            with a checkpoint store — durable per-workload results a
            resumed run reuses.  Since each profile simulates from its
            own pre-spawned seed, a resumed or retried run that
            completes is bit-identical to an uninterrupted one.
            ``None`` keeps the historical behavior exactly.  Trace
            engine only.
        engine: ``"trace"`` replays synthesized instruction blocks
            (the oracle, historical behavior); ``"fast"`` predicts the
            dataset from the analytical layer plus the calibrated
            residual model (:func:`repro.fastsim.fast_suite`) without
            touching a trace.
        calibration: Fast engine only — a
            :class:`~repro.fastsim.Calibration` to use (fit or loaded
            elsewhere).  ``None`` fits one on the fly.

    Returns:
        A :class:`SuiteResult` with the dataset, per-workload CPI, and
        any per-workload failures the policy captured.
    """
    from repro.parallel import parallel_map, resolve_jobs

    if engine not in ("trace", "fast"):
        raise ConfigError(
            f"engine must be 'trace' or 'fast', got {engine!r}"
        )
    if engine == "fast":
        if policy is not None:
            raise ConfigError(
                "the fast engine does not replay per-workload tasks; "
                "run policies apply to the trace engine only"
            )
        from repro.fastsim.engine import fast_suite

        return fast_suite(
            profiles,
            sections_per_workload=sections_per_workload,
            instructions_per_section=instructions_per_section,
            config=config,
            seed=seed,
            jitter=jitter,
            calibration=calibration,
            progress=progress,
        )
    if calibration is not None:
        raise ConfigError(
            "calibration only applies to the fast engine; "
            "pass engine='fast' or drop it"
        )

    if profiles is None:
        profiles = spec_like_suite()
    if not profiles:
        raise ConfigError("need at least one workload profile")
    if sections_per_workload < 1:
        raise ConfigError("sections_per_workload must be at least 1")
    if instructions_per_section < 64:
        raise ConfigError("instructions_per_section must be at least 64")
    machine = config or MachineConfig()

    jobs = resolve_jobs(n_jobs)
    seeds = np.random.SeedSequence(seed).spawn(len(profiles))
    # Per-section callbacks cannot cross a process boundary, and under a
    # policy a workload may fail after some sections already fired —
    # both of those modes report in the parent instead, once per
    # workload that produced sections.
    per_section_progress = jobs <= 1 and policy is None
    run = _ProfileRun(
        machine,
        sections_per_workload,
        instructions_per_section,
        jitter,
        progress=progress if per_section_progress else None,
    )
    all_jobs = list(zip(profiles, seeds))
    unit_names = [f"wl-{profile.name}" for profile in profiles]
    outcomes: List[Optional[tuple]] = [None] * len(profiles)
    failures: List[TaskFailure] = []

    if policy is None:
        outcomes = list(parallel_map(run, all_jobs, n_jobs=jobs))
    else:
        task = run
        if policy.checkpointing:
            assert policy.checkpoint is not None
            run_key = policy.require_run_key()
            if policy.resume:
                for index, unit in enumerate(unit_names):
                    payload = policy.checkpoint.load(run_key, unit)
                    if payload is not None:
                        outcomes[index] = _payload_to_outcome(payload)
            task = _CheckpointedProfileRun(run, policy.checkpoint, run_key)
        pending = [i for i in range(len(profiles)) if outcomes[i] is None]
        mapped = parallel_map(
            task,
            [all_jobs[i] for i in pending],
            n_jobs=jobs,
            retry=policy.retry,
            fail_policy=policy.fail_policy,
            task_timeout=policy.task_timeout,
            keys=[unit_names[i] for i in pending],
        )
        for index, outcome in zip(pending, mapped):
            if isinstance(outcome, TaskFailure):
                failures.append(outcome)
            else:
                outcomes[index] = outcome

    all_counts = []
    labels: List[str] = []
    section_ids: List[int] = []
    phase_ids: List[int] = []
    cpi_by_workload: Dict[str, float] = {}
    for profile, outcome in zip(profiles, outcomes):
        if outcome is None:
            continue
        counts, sections, phases, cpi = outcome
        all_counts.extend(counts)
        labels.extend([profile.name] * len(counts))
        section_ids.extend(sections)
        phase_ids.extend(phases)
        cpi_by_workload[profile.name] = cpi
        if progress is not None and not per_section_progress:
            progress(profile.name, sections_per_workload, sections_per_workload)

    if not all_counts:
        raise RetryExhaustedError(
            f"all {len(profiles)} workload simulations failed; "
            "no dataset can be assembled"
        )
    dataset = sections_to_dataset(all_counts, workloads=labels)
    dataset = dataset.with_meta(
        section=np.asarray(section_ids, dtype=object),
        phase=np.asarray(phase_ids, dtype=object),
    )
    return SuiteResult(
        dataset=dataset,
        cpi_by_workload=cpi_by_workload,
        failures=failures,
    )
