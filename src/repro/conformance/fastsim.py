"""Differential drift harness for the fast suite engine (FAST00x).

The trace-driven simulator stays the oracle; the fast engine
(:mod:`repro.fastsim`) is an approximation whose error is *bounded*, not
zero.  This harness pins that bound: it builds a seeded corpus — every
distinct suite phase as a single-phase workload, simulated at
``jitter=0`` with measurement noise disabled — and compares the fast
engine's per-section CPI against noise-averaged oracle sections under
tolerance gates.  Gates are tolerance-based by design (bit identity is
the trace engine's contract, never the fast path's); a failure means the
analytical layer, the calibration, or the simulator physics drifted
apart, and the calibration must be refit before the fast path can be
trusted again.

Corpus geometry: sections are :data:`CORPUS_INSTRUCTIONS` instructions
long and the first (cold-start) section of each workload is excluded —
the paper's sections sit mid-execution on warm hardware, and both
engines model that steady state.  Oracle sections are averaged over
:data:`CORPUS_ORACLE_REPS` independently seeded runs so the gate
measures drift, not the oracle's own sampling noise.

Check identifiers (continuing the table in
:mod:`repro.conformance.report`):

======== ==============================================================
FAST001  calibration is stale (fingerprint or feature-name mismatch)
FAST002  per-section CPI relative error exceeded the p95 tolerance
FAST003  per-workload mean CPI relative error exceeded tolerance
FAST004  fast dataset violated Table I metric invariants or finiteness
FAST005  fast engine is not deterministic (repeat run differed)
======== ==============================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.conformance.report import ConformanceReport
from repro.counters.invariants import METRIC_INVARIANTS, check_dataset
from repro.errors import StaleCalibrationError
from repro.fastsim.calibration import Calibration, get_calibration, suite_phases
from repro.fastsim.engine import fast_suite
from repro.simulator.config import MachineConfig
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.suite import simulate_suite

__all__ = [
    "FastsimTolerance",
    "corpus_profiles",
    "run_fastsim",
]

#: Instructions per corpus section (long enough that the oracle's own
#: per-section sampling noise sits well inside the drift tolerance).
CORPUS_INSTRUCTIONS = 16_384

#: Sections per corpus workload (section 0 is excluded as cold start).
CORPUS_SECTIONS = 6

#: Independently seeded oracle runs averaged per section.
CORPUS_ORACLE_REPS = 2


@dataclass(frozen=True)
class FastsimTolerance:
    """Drift tolerances of the FAST00x gates.

    Attributes:
        section_p95: Per-section CPI relative error bound at the 95th
            percentile over all warm corpus sections (FAST002).
        workload_mean: Per-workload mean CPI relative error bound
            (FAST003).
    """

    section_p95: float = 0.05
    workload_mean: float = 0.04


def corpus_profiles(
    profiles: Optional[Sequence[WorkloadProfile]] = None,
) -> Sequence[WorkloadProfile]:
    """The seeded drift corpus: each distinct suite phase, isolated.

    Single-phase workloads keep the oracle free of phase-transition
    transients, so the comparison measures modeling drift and nothing
    else.
    """
    return [
        WorkloadProfile.single_phase(
            f"phase{index:02d}",
            params,
            description="fastsim drift corpus phase",
        )
        for index, params in enumerate(suite_phases(profiles))
    ]


def run_fastsim(
    seed: int = 2007,
    tier: str = "quick",
    config: Optional[MachineConfig] = None,
    calibration: Optional[Calibration] = None,
    tolerance: FastsimTolerance = FastsimTolerance(),
) -> ConformanceReport:
    """Bound fast-vs-oracle drift on the seeded corpus.

    Args:
        seed: Master seed: calibration identity, corpus section draws
            and oracle replication seeds all derive from it.
        tier: ``"quick"`` or ``"deep"`` (deep doubles the oracle reps).
        config: Machine model under test (default Core 2 Duo config).
        calibration: Calibration to check; ``None`` fits one for
            (``config``, suite, ``seed``) — the cached-artifact path is
            the CLI's job, not this harness's.
        tolerance: Drift gates (see :class:`FastsimTolerance`).
    """
    report = ConformanceReport(tier=tier, seed=seed)
    machine = config or MachineConfig()
    corpus = corpus_profiles()
    oracle_reps = CORPUS_ORACLE_REPS * (2 if tier == "deep" else 1)

    # FAST001 — freshness. A stale calibration invalidates every other
    # gate, so the run stops here.
    if calibration is None:
        calibration = get_calibration(None, machine, seed=seed)
    report.n_checks += 1
    problems = calibration.staleness(machine, corpus)
    problems.extend(
        problem for problem in calibration.staleness(machine, None)
        if problem not in problems
    )
    if problems:
        for problem in problems:
            report.add("FAST001", problem, location="calibration")
        return report

    try:
        fast = fast_suite(
            corpus,
            sections_per_workload=CORPUS_SECTIONS,
            instructions_per_section=CORPUS_INSTRUCTIONS,
            config=machine,
            seed=seed + 31,
            jitter=0.0,
            calibration=calibration,
        )
    except StaleCalibrationError as exc:  # pragma: no cover - FAST001 gates
        report.add("FAST001", str(exc), location="fast_suite")
        return report
    report.n_cases = len(corpus)

    # FAST005 — determinism: a repeat run must be bit-identical.
    report.n_checks += 1
    repeat = fast_suite(
        corpus,
        sections_per_workload=CORPUS_SECTIONS,
        instructions_per_section=CORPUS_INSTRUCTIONS,
        config=machine,
        seed=seed + 31,
        jitter=0.0,
        calibration=calibration,
    )
    if not (
        np.array_equal(fast.dataset.X, repeat.dataset.X)
        and np.array_equal(fast.dataset.y, repeat.dataset.y)
    ):
        report.add(
            "FAST005",
            "fast engine repeat run produced a different dataset",
            location="fast_suite",
        )

    # FAST004 — the fast dataset must satisfy the same Table I
    # invariants the trace counters satisfy by construction.
    report.n_checks += 1
    if not (
        np.all(np.isfinite(fast.dataset.X))
        and np.all(np.isfinite(fast.dataset.y))
        and np.all(fast.dataset.X >= 0.0)
        and np.all(fast.dataset.y > 0.0)
    ):
        report.add(
            "FAST004",
            "fast dataset contains non-finite, negative-rate or "
            "non-positive-CPI rows",
            location="dataset",
        )
    else:
        columns = {
            name: fast.dataset.column(name) for name in fast.dataset.attributes
        }
        violations = check_dataset(columns, METRIC_INVARIANTS)
        for violation in violations:
            report.add(
                "FAST004",
                "metric invariant violated on fast dataset: "
                f"{violation.message} ({violation.n_rows} rows)",
                location=violation.invariant,
            )

    # Oracle: noise-free trace runs, averaged across independent seeds.
    oracle_config = dataclasses.replace(machine, measurement_noise_sd=0.0)
    oracle_runs = [
        simulate_suite(
            corpus,
            sections_per_workload=CORPUS_SECTIONS,
            instructions_per_section=CORPUS_INSTRUCTIONS,
            config=oracle_config,
            seed=seed + 1009 + rep,
            jitter=0.0,
        )
        for rep in range(oracle_reps)
    ]
    oracle_y = np.mean([run.dataset.y for run in oracle_runs], axis=0)

    sections = np.array([int(s) for s in fast.dataset.meta["section"]])
    warm = sections >= 1
    relative = np.abs(fast.dataset.y[warm] - oracle_y[warm]) / oracle_y[warm]

    # FAST002 — per-section CPI drift at p95.
    report.n_checks += 1
    p95 = float(np.percentile(relative, 95))
    if p95 > tolerance.section_p95:
        worst = float(np.max(relative))
        report.add(
            "FAST002",
            f"per-section CPI relative error p95 {p95:.4f} exceeds "
            f"{tolerance.section_p95:.4f} (max {worst:.4f} over "
            f"{relative.size} warm sections)",
            location="sections",
        )

    # FAST003 — per-workload mean CPI drift.
    labels = np.asarray([str(w) for w in fast.dataset.meta["workload"]])
    for profile in corpus:
        report.n_checks += 1
        mask = warm & (labels == profile.name)
        fast_mean = float(np.mean(fast.dataset.y[mask]))
        oracle_mean = float(np.mean(oracle_y[mask]))
        drift = abs(fast_mean - oracle_mean) / oracle_mean
        if drift > tolerance.workload_mean:
            report.add(
                "FAST003",
                f"mean CPI drift {drift:.4f} exceeds "
                f"{tolerance.workload_mean:.4f} "
                f"(fast {fast_mean:.4f} vs oracle {oracle_mean:.4f})",
                location=profile.name,
            )
    return report
