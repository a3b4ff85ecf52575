"""Calibration of the fast suite engine against the trace oracle.

The analytical layer (:mod:`repro.fastsim.analytic`) captures the first-
order physics; what it cannot capture — conflict misses, predictor
training transients, prefetcher burstiness, clip-of-expectation vs
expectation-of-clip in the MLP model — is learned once against the
noise-free trace simulator on a seeded sweep and stored as a
:class:`Calibration` artifact with two parts:

* **per-phase anchors** — the noise-averaged log ratio
  ``log(trace_cpi / analytic_cpi)`` at every distinct suite phase's
  nominal parameters.  At ``jitter=0`` (the differential drift regime)
  the anchor alone corrects the fast path, so its accuracy is bounded
  only by the anchor measurement noise;
* **an M5′ residual tree** fit on the log-residual over nominal *and*
  jittered parameter draws.  At runtime it contributes only a
  *differential* term — the difference between the tree at the
  section's jittered parameters and at its phase's nominal parameters —
  shrunk and clipped so a leaf-model extrapolation can never move a
  prediction away from the anchor alone by more than ~5%.

The artifact is content-addressed in :class:`~repro.parallel.cache.
ArtifactCache`, fingerprinted against both the machine configuration
(:func:`machine_fingerprint`) and the workload suite, and the residual
tree is an ordinary fitted M5′ model, publishable through
:class:`~repro.serve.registry.ModelRegistry`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import stable_hash
from repro.core.tree.m5 import M5Prime
from repro.core.tree.serialize import model_from_dict, model_to_dict
from repro.datasets.dataset import Dataset
from repro.errors import ParseError, StaleCalibrationError
from repro.fastsim.analytic import (
    RESIDUAL_FEATURE_NAMES,
    analytic_sections,
)
from repro.parallel.cache import ArtifactCache
from repro.simulator.config import MachineConfig
from repro.simulator.core import SimulatedCore
from repro.simulator.pipeline import IssueCosts, OverlapModel
from repro.workloads.phases import PhaseParams, perturbed
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec import spec_like_suite
from repro.workloads.stream import synthesize_block
from repro.workloads.suite import prewarm, workload_fingerprint

#: Schema tag of the serialized calibration artifact.
CALIBRATION_SCHEMA = "repro-fastsim-calibration/1"

#: Jitter scale of the wide half of the calibration sweep — deliberately
#: wider than the runtime default (0.08) so the residual tree covers the
#: sweep envelope instead of extrapolating at its edge.
CALIBRATION_JITTER = 0.2

#: Jittered replicas drawn per suite phase (half wide, half runtime-like).
CALIBRATION_REPLICAS = 12

#: Instructions simulated per jittered calibration sample.
CALIBRATION_INSTRUCTIONS = 6144

#: Anchor measurement window.  Large-footprint phases are *not*
#: stationary over the first few hundred thousand instructions — CPI
#: keeps drifting as the cache hierarchy converges — so the anchor
#: measures exactly the early-steady-state window the paper's sections
#: occupy: one cold block of ``ANCHOR_WARMUP_INSTRUCTIONS`` is discarded
#: and the CPI is aggregated over the following
#: ``ANCHOR_WINDOW_INSTRUCTIONS`` (the warm window of the drift corpus).
ANCHOR_WARMUP_INSTRUCTIONS = 16_384
ANCHOR_WINDOW_INSTRUCTIONS = 81_920

#: Anchor replication: at least ``ANCHOR_MIN_REPS`` independently seeded
#: windows per phase, continuing until the standard error of the mean
#: log-CPI drops below ``ANCHOR_SEM_TARGET`` or ``ANCHOR_MAX_REPS`` is
#: reached (bursty streaming phases need more reps than steady ones).
ANCHOR_MIN_REPS = 4
ANCHOR_MAX_REPS = 12
ANCHOR_SEM_TARGET = 0.008

#: Shrinkage and clip applied to the tree's differential contribution.
#: Deliberately conservative: the differential improves jittered-section
#: fidelity, but an unconstrained leaf-model extrapolation can both
#: overshoot and inject phase-parameter variance that a CPI tree trained
#: on the 20 Table I predictors cannot explain (which would degrade
#: trainability of fast datasets against the MAE-parity bench).
DIFFERENTIAL_SHRINK = 0.25
DIFFERENTIAL_CLIP = 0.05

#: Default registry name for the published residual model.
RESIDUAL_MODEL_NAME = "fastsim-residual"


def machine_fingerprint(config: Optional[MachineConfig] = None) -> str:
    """Digest of everything the cycle accounting depends on.

    Covers the machine configuration plus the overlap/issue-cost models
    baked into the pipeline: a change to any of them invalidates both
    cached datasets and fastsim calibrations.
    """
    machine = config or MachineConfig()
    return stable_hash([repr(machine), repr(OverlapModel()), repr(IssueCosts())])


def phase_key(params: PhaseParams) -> str:
    """Stable identity of one phase's nominal parameters."""
    return stable_hash([repr(params)])


def suite_phases(
    profiles: Optional[Sequence[WorkloadProfile]] = None,
) -> List[PhaseParams]:
    """Every distinct phase in the suite, in profile order."""
    phases: List[PhaseParams] = []
    seen = set()
    for profile in profiles if profiles is not None else spec_like_suite():
        for params in profile.schedule.phases:
            key = phase_key(params)
            if key not in seen:
                seen.add(key)
                phases.append(params)
    return phases


@dataclass
class Calibration:
    """A fitted fast-engine calibration: anchors, residual tree, provenance."""

    model: M5Prime
    anchors: Dict[str, float]
    nominal_corrections: Dict[str, float]
    machine_fingerprint: str
    workload_fingerprint: str
    seed: int
    n_samples: int
    feature_names: Tuple[str, ...] = RESIDUAL_FEATURE_NAMES
    stats: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CALIBRATION_SCHEMA,
            "machine_fingerprint": self.machine_fingerprint,
            "workload_fingerprint": self.workload_fingerprint,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "feature_names": list(self.feature_names),
            "anchors": dict(sorted(self.anchors.items())),
            "nominal_corrections": dict(sorted(self.nominal_corrections.items())),
            "stats": dict(self.stats),
            "model": model_to_dict(self.model),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Calibration":
        """Rebuild a calibration from :meth:`to_dict` output.

        The one parser of the artifact: every malformed field raises
        :class:`ParseError` — a non-object payload, a wrong schema, a
        missing key, a field of the wrong type, an anchor or nominal
        correction that is not a finite number, an empty table, or a
        residual model that is not a fitted M5' tree.
        """
        if not isinstance(payload, dict):
            raise ParseError("calibration payload is not a JSON object")
        schema = payload.get("schema")
        if schema != CALIBRATION_SCHEMA:
            raise ParseError(
                f"calibration schema {schema!r} is not {CALIBRATION_SCHEMA!r}"
            )
        required = (
            "machine_fingerprint",
            "workload_fingerprint",
            "seed",
            "n_samples",
            "feature_names",
            "anchors",
            "nominal_corrections",
            "model",
        )
        missing = [key for key in required if key not in payload]
        if missing:
            raise ParseError(f"calibration payload lacks {missing}")
        try:
            model = model_from_dict(payload["model"])
        except ParseError as exc:
            raise ParseError(
                f"residual model does not deserialize: {exc}"
            ) from None
        if not isinstance(model, M5Prime):
            raise ParseError("residual model is a forest, not an M5' tree")
        names = payload["feature_names"]
        stats = payload.get("stats", {})
        if not isinstance(names, (list, tuple)) or not all(
            isinstance(name, str) for name in names
        ):
            raise ParseError("calibration feature_names is not a list of names")
        if not isinstance(stats, dict) or not all(
            _is_number(value) for value in stats.values()
        ):
            raise ParseError("calibration stats is not an object of numbers")
        return cls(
            model=model,
            anchors=_finite_table(payload, "anchors"),
            nominal_corrections=_finite_table(payload, "nominal_corrections"),
            machine_fingerprint=_typed(payload, "machine_fingerprint", str),
            workload_fingerprint=_typed(payload, "workload_fingerprint", str),
            seed=_typed(payload, "seed", int),
            n_samples=_typed(payload, "n_samples", int),
            feature_names=tuple(names),
            stats={str(k): float(v) for k, v in stats.items()},
        )

    @property
    def digest(self) -> str:
        """Content digest of the canonical serialized artifact."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return stable_hash([canonical])

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def staleness(
        self,
        config: Optional[MachineConfig] = None,
        profiles: Optional[Sequence[WorkloadProfile]] = None,
    ) -> List[str]:
        """Mismatches against a target configuration.

        Empty means the calibration is fresh for (``config``,
        ``profiles``).  The machine fingerprint must always match, and
        so must the stored feature names — the analytical layer's
        :data:`~repro.fastsim.analytic.RESIDUAL_FEATURE_NAMES`, the
        column order the residual tree is fed.  For the default suite
        the workload fingerprint must match; for an explicit profile
        list the requirement is anchor *coverage* — every distinct
        phase must have been calibrated — which is the phase-level form
        of the same guarantee.
        """
        problems = []
        machine = machine_fingerprint(config)
        if self.machine_fingerprint != machine:
            problems.append(
                "machine fingerprint mismatch: calibration "
                f"{self.machine_fingerprint} vs current {machine}"
            )
        if self.feature_names != RESIDUAL_FEATURE_NAMES:
            problems.append(
                f"stored feature names ({len(self.feature_names)}) "
                "disagree with the analytical layer's "
                f"RESIDUAL_FEATURE_NAMES ({len(RESIDUAL_FEATURE_NAMES)}): "
                "the residual tree would be fed columns in the wrong order"
            )
        if profiles is None:
            workloads = workload_fingerprint(None)
            if self.workload_fingerprint != workloads:
                problems.append(
                    "workload fingerprint mismatch: calibration "
                    f"{self.workload_fingerprint} vs current suite "
                    f"{workloads}"
                )
        else:
            uncovered = sorted(
                {
                    f"{profile.name}[{index}]"
                    for profile in profiles
                    for index, params in enumerate(profile.schedule.phases)
                    if phase_key(params) not in self.anchors
                }
            )
            if uncovered:
                problems.append(
                    "uncalibrated phases (no anchor): " + ", ".join(uncovered)
                )
        return problems

    def require_fresh(
        self,
        config: Optional[MachineConfig] = None,
        profiles: Optional[Sequence[WorkloadProfile]] = None,
    ) -> None:
        """Raise :class:`StaleCalibrationError` unless fresh."""
        problems = self.staleness(config, profiles)
        if problems:
            raise StaleCalibrationError(
                "refusing to run the fast engine with a stale calibration: "
                + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def correct(
        self,
        analytic_cpi: np.ndarray,
        features: np.ndarray,
        keys: Sequence[str],
    ) -> np.ndarray:
        """Corrected CPI for sections with per-section nominal phase keys.

        ``correction = anchor(phase) + shrunk clipped differential`` —
        the differential being the tree's prediction at the section's
        (jittered) features minus its prediction at the phase's nominal
        features, so it vanishes exactly at ``jitter=0``.
        """
        try:
            anchor = np.array([self.anchors[k] for k in keys])
            nominal = np.array([self.nominal_corrections[k] for k in keys])
        except KeyError as exc:
            raise StaleCalibrationError(
                f"no anchor for phase key {exc.args[0]!r}; "
                "recalibrate against the current workload suite"
            ) from None
        delta = DIFFERENTIAL_SHRINK * (self.model.predict(features) - nominal)
        delta = np.clip(delta, -DIFFERENTIAL_CLIP, DIFFERENTIAL_CLIP)
        correction = np.clip(anchor + delta, -2.0, 2.0)
        return analytic_cpi * np.exp(correction)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(payload: Dict[str, object], key: str, kind: type):
    """``payload[key]``, which must be a ``kind`` (a bool is no int)."""
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(
            f"calibration {key} has type {type(value).__name__}, "
            f"expected {kind.__name__}"
        )
    return value


def _finite_table(payload: Dict[str, object], key: str) -> Dict[str, float]:
    """A non-empty phase-key table of finite numbers."""
    table = payload[key]
    if not isinstance(table, dict) or not table:
        raise ParseError(f"calibration {key} table is empty or not an object")
    bad = sorted(
        str(k) for k, v in table.items()
        if not _is_number(v) or not math.isfinite(v)
    )
    if bad:
        raise ParseError(
            f"calibration {key} table carries non-numeric or non-finite "
            "entries for phase keys: " + ", ".join(bad)
        )
    return {str(k): float(v) for k, v in table.items()}


def _trace_cpi(
    params: PhaseParams,
    config: MachineConfig,
    rng: np.random.Generator,
    instructions: int,
) -> float:
    """Noise-free trace-simulator CPI for one parameter point."""
    core = SimulatedCore(config, rng=rng)
    prewarm(core, params)
    # One warmup block trains the branch predictor and settles the
    # prefetchers before the measured block, matching steady-state
    # sections of a long suite run.
    core.run_block(synthesize_block(params, instructions // 2, rng))
    result = core.run_block(synthesize_block(params, instructions, rng))
    return float(result.cycles) / instructions


def _measure_anchor(
    params: PhaseParams,
    config: MachineConfig,
    rng: np.random.Generator,
    analytic_cpi: float,
) -> Tuple[float, int]:
    """Noise-averaged log(trace/analytic) at one phase's nominal point.

    The anchor's target is the *early-steady-state window* the paper's
    sections occupy.  Large-footprint phases are not stationary: their
    CPI keeps falling for hundreds of thousands of instructions as the
    cache hierarchy converges, so streaming one long run would average a
    later regime than the sections being predicted.  Each replicate
    therefore restarts from a fresh prewarmed core, discards one
    :data:`ANCHOR_WARMUP_INSTRUCTIONS` cold block, and aggregates CPI
    over the next :data:`ANCHOR_WINDOW_INSTRUCTIONS` — exactly the warm
    window of the drift corpus.  Replicates until the SEM of the mean
    log-CPI beats :data:`ANCHOR_SEM_TARGET` (bursty streaming phases
    need more reps than steady ones) or :data:`ANCHOR_MAX_REPS` is hit.
    """
    log_cpis: List[float] = []
    while len(log_cpis) < ANCHOR_MAX_REPS:
        core = SimulatedCore(config, rng=rng)
        prewarm(core, params)
        core.run_block(
            synthesize_block(params, ANCHOR_WARMUP_INSTRUCTIONS, rng)
        )
        result = core.run_block(
            synthesize_block(params, ANCHOR_WINDOW_INSTRUCTIONS, rng)
        )
        log_cpis.append(
            float(np.log(result.cycles / ANCHOR_WINDOW_INSTRUCTIONS))
        )
        if len(log_cpis) >= ANCHOR_MIN_REPS:
            sem = float(np.std(log_cpis) / np.sqrt(len(log_cpis)))
            if sem <= ANCHOR_SEM_TARGET:
                break
    anchor = float(np.mean(log_cpis) - np.log(max(analytic_cpi, 1e-9)))
    return anchor, len(log_cpis)


def calibrate(
    config: Optional[MachineConfig] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    seed: int = 2007,
    replicas: int = CALIBRATION_REPLICAS,
    instructions: int = CALIBRATION_INSTRUCTIONS,
) -> Calibration:
    """Fit anchors and the residual tree against the noise-free oracle.

    Per distinct suite phase: a noise-averaged anchor at the nominal
    parameters, plus ``replicas`` jittered draws (alternating the wide
    :data:`CALIBRATION_JITTER` envelope with the runtime-like 0.08) that
    train the M5′ residual tree on ``log(trace_cpi / analytic_cpi)``.
    """
    machine = config or MachineConfig()
    oracle_config = dataclasses.replace(machine, measurement_noise_sd=0.0)
    phases = suite_phases(profiles)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # Anchors first (their own RNG stream position is part of the seed
    # contract; everything derives from one generator, so the artifact
    # is a pure function of (config, profiles, seed)).
    _, nominal_cpi, _ = analytic_sections(
        phases, machine, instructions_per_section=ANCHOR_WINDOW_INSTRUCTIONS
    )
    anchors: Dict[str, float] = {}
    total_reps = 0
    for params, acpi in zip(phases, nominal_cpi):
        anchor, reps = _measure_anchor(params, oracle_config, rng, acpi)
        anchors[phase_key(params)] = anchor
        total_reps += reps

    # Jittered sweep for the residual tree (nominal points included so
    # the tree is trained where the differential is evaluated).
    samples: List[PhaseParams] = []
    for params in phases:
        samples.append(params)
        for index in range(replicas):
            scale = CALIBRATION_JITTER if index % 2 == 0 else 0.08
            samples.append(perturbed(params, rng, scale))
    targets = np.array(
        [
            _trace_cpi(params, oracle_config, rng, instructions)
            for params in samples
        ]
    )
    _, analytic_cpi, features = analytic_sections(
        samples, machine, instructions_per_section=instructions
    )
    floor = 1e-9
    residual = np.log(np.maximum(targets, floor)) - np.log(
        np.maximum(analytic_cpi, floor)
    )
    dataset = Dataset(
        features, residual, RESIDUAL_FEATURE_NAMES, target_name="LogResidualCPI"
    )
    model = M5Prime(min_instances=4, sd_fraction=0.02)
    model.fit(dataset)

    # The tree's value at each nominal point, stored so the differential
    # can be formed without re-deriving nominal features at runtime.
    _, _, nominal_features = analytic_sections(
        phases, machine, instructions_per_section=instructions
    )
    nominal_predictions = model.predict(nominal_features)
    nominal_corrections = {
        phase_key(params): float(value)
        for params, value in zip(phases, nominal_predictions)
    }

    calibration = Calibration(
        model=model,
        anchors=anchors,
        nominal_corrections=nominal_corrections,
        machine_fingerprint=machine_fingerprint(machine),
        workload_fingerprint=workload_fingerprint(profiles),
        seed=seed,
        n_samples=len(samples) + total_reps,
    )
    sample_keys = [
        phase_key(params) for params in phases for _ in range(1 + replicas)
    ]
    predicted = calibration.correct(analytic_cpi, features, sample_keys)
    errors = np.abs(predicted - targets) / np.maximum(targets, 1e-12)
    calibration.stats = {
        "residual_mean": float(np.mean(residual)),
        "residual_sd": float(np.std(residual)),
        "anchor_reps": float(total_reps),
        "n_leaves": float(model.n_leaves),
        "rel_err_mean": float(np.mean(errors)),
        "rel_err_p95": float(np.percentile(errors, 95)),
        "rel_err_max": float(np.max(errors)),
    }
    return calibration


# ----------------------------------------------------------------------
# Artifact storage
# ----------------------------------------------------------------------
def _cache_key(
    config: Optional[MachineConfig],
    profiles: Optional[Sequence[WorkloadProfile]],
    seed: int,
) -> List[object]:
    return [
        "fastsim-calibration",
        CALIBRATION_SCHEMA,
        machine_fingerprint(config),
        workload_fingerprint(profiles),
        seed,
    ]


def store_calibration(
    cache: ArtifactCache,
    calibration: Calibration,
    config: Optional[MachineConfig] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
):
    """Persist a calibration, content-addressed by its provenance."""
    return cache.store_json(
        _cache_key(config, profiles, calibration.seed), calibration.to_dict()
    )


def load_calibration(
    cache: ArtifactCache,
    config: Optional[MachineConfig] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    seed: int = 2007,
) -> Optional[Calibration]:
    """Load the cached calibration for a configuration, if present."""
    payload = cache.load_json(_cache_key(config, profiles, seed))
    if payload is None:
        return None
    try:
        return Calibration.from_dict(payload)
    except ParseError:
        return None


def get_calibration(
    cache: Optional[ArtifactCache] = None,
    config: Optional[MachineConfig] = None,
    profiles: Optional[Sequence[WorkloadProfile]] = None,
    seed: int = 2007,
    **calibrate_kwargs,
) -> Calibration:
    """Load the calibration for a configuration, fitting it on a miss."""
    if cache is not None:
        cached = load_calibration(cache, config, profiles, seed)
        if cached is not None:
            return cached
    calibration = calibrate(config, profiles, seed=seed, **calibrate_kwargs)
    if cache is not None:
        store_calibration(cache, calibration, config, profiles)
    return calibration
