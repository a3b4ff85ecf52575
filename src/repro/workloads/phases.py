"""Phase parameters and phase schedules.

The paper (citing Sherwood et al. [7]) assumes workloads move through
distinct *phases*, each with its own performance behaviour, and relies on
the model tree to recover those classes from counter data.  A
:class:`PhaseSchedule` makes phases explicit on the generation side: it
assigns contiguous runs of sections to :class:`PhaseParams`, so a
workload's execution timeline has the same piecewise structure real
programs show.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._util import RandomState, check_random_state
from repro.errors import ConfigError


@dataclass(frozen=True)
class PhaseParams:
    """Generator knobs describing one execution phase.

    Every fraction lies in [0, 1].  Footprints are in bytes.

    Attributes:
        load_fraction / store_fraction / branch_fraction: Instruction mix
            (the remainder are plain ALU/FP instructions).
        data_footprint: Total data region the phase touches.
        hot_fraction: Probability a memory access hits the hot set.
        hot_set_bytes: Size of the hot (cache-resident) set.
        stride_fraction: Fraction of cold accesses that stream
            sequentially (high spatial locality) instead of jumping
            randomly through the footprint.
        dependent_miss_fraction: Fraction of long misses that are serially
            dependent (pointer chasing) — throttles MLP in the pipeline.
        ilp: Available instruction-level parallelism in [0, 1].
        code_footprint: Bytes of code the phase executes from.
        code_hot_fraction: Probability a basic-block run starts inside the
            hot code region (inner loops); the rest start anywhere in the
            code footprint (cold paths, virtual dispatch, unwinding).
        code_hot_bytes: Size of the hot code region.
        basic_block_length: Mean instructions per sequential code run.
        branch_bias: Favored-direction probability of ordinary branches.
        hard_branch_fraction: Fraction of branches that are 50/50 coin
            flips (unpredictable by any direction predictor).
        lcp_fraction: Instructions carrying a length-changing prefix.
        misalign_fraction: Memory accesses pushed off natural alignment.
        wide_access_fraction: Memory accesses of 16 bytes (split-prone).
        store_load_alias_fraction: Loads that read a recently stored
            address (store-forwarding traffic).
        sta_fraction / std_fraction: Stores whose address / data are late,
            turning aliasing loads into LOAD_BLOCK events.
        overlap_alias_fraction: Aliasing loads that only partially overlap
            the store (forwarding-impossible -> LOAD_BLOCK.OVERLAP_STORE).
    """

    load_fraction: float = 0.28
    store_fraction: float = 0.12
    branch_fraction: float = 0.15
    data_footprint: int = 1 << 20
    hot_fraction: float = 0.9
    hot_set_bytes: int = 16 << 10
    stride_fraction: float = 0.5
    dependent_miss_fraction: float = 0.2
    ilp: float = 0.5
    code_footprint: int = 32 << 10
    code_hot_fraction: float = 0.92
    code_hot_bytes: int = 8 << 10
    basic_block_length: int = 24
    branch_bias: float = 0.92
    hard_branch_fraction: float = 0.05
    lcp_fraction: float = 0.0
    misalign_fraction: float = 0.01
    wide_access_fraction: float = 0.05
    store_load_alias_fraction: float = 0.05
    sta_fraction: float = 0.1
    std_fraction: float = 0.1
    overlap_alias_fraction: float = 0.1

    def __post_init__(self) -> None:
        fractions = (
            "load_fraction",
            "store_fraction",
            "branch_fraction",
            "hot_fraction",
            "stride_fraction",
            "dependent_miss_fraction",
            "ilp",
            "code_hot_fraction",
            "branch_bias",
            "hard_branch_fraction",
            "lcp_fraction",
            "misalign_fraction",
            "wide_access_fraction",
            "store_load_alias_fraction",
            "sta_fraction",
            "std_fraction",
            "overlap_alias_fraction",
        )
        for name in fractions:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        mix = self.load_fraction + self.store_fraction + self.branch_fraction
        if mix > 1.0 + 1e-9:
            raise ConfigError(f"instruction mix fractions sum to {mix} > 1")
        for name in (
            "data_footprint",
            "hot_set_bytes",
            "code_footprint",
            "code_hot_bytes",
        ):
            if getattr(self, name) < 64:
                raise ConfigError(f"{name} must be at least 64 bytes")
        if self.hot_set_bytes > self.data_footprint:
            raise ConfigError("hot_set_bytes cannot exceed data_footprint")
        if self.code_hot_bytes > self.code_footprint:
            raise ConfigError("code_hot_bytes cannot exceed code_footprint")
        if self.basic_block_length < 1:
            raise ConfigError("basic_block_length must be at least 1")


#: Jitter scale multiplier per continuous field.  Fields whose effect is
#: invisible to the counters (ILP, pointer-chasing serialization, stream
#: shape) stay nearly fixed within a phase: real phases have a fixed
#: access pattern, and jittering them freely would inject unexplainable
#: variance that no counter-based model (the paper's included) could
#: recover.
_JITTERED_FIELDS: Dict[str, float] = {
    "load_fraction": 1.0,
    "store_fraction": 1.0,
    "branch_fraction": 1.0,
    "hot_fraction": 1.0,
    "stride_fraction": 0.25,
    "dependent_miss_fraction": 0.1,
    "ilp": 0.1,
    "code_hot_fraction": 1.0,
    "branch_bias": 1.0,
    "hard_branch_fraction": 1.0,
    "lcp_fraction": 1.0,
    "misalign_fraction": 1.0,
    "wide_access_fraction": 1.0,
    "store_load_alias_fraction": 1.0,
    "sta_fraction": 1.0,
    "std_fraction": 1.0,
    "overlap_alias_fraction": 1.0,
}


def perturbed(
    params: PhaseParams, rng: RandomState = None, scale: float = 0.08
) -> PhaseParams:
    """A jittered copy of ``params`` for section-to-section diversity.

    Real sections of one phase are similar but not identical; each
    continuous fraction is scaled by a lognormal factor of spread
    ``scale`` and clipped back into validity.  This is one draw of
    :func:`perturbed_batch`.
    """
    return perturbed_batch(params, rng, scale, 1)[0]


#: Field order and per-field spreads for the vectorized jitter path.
_JITTER_NAMES: Tuple[str, ...] = tuple(_JITTERED_FIELDS)
_JITTER_SCALES = np.array(list(_JITTERED_FIELDS.values()))
_MIX_COLUMNS = [
    _JITTER_NAMES.index(name)
    for name in ("load_fraction", "store_fraction", "branch_fraction")
]


def perturbed_batch(
    params: PhaseParams,
    rng: RandomState = None,
    scale: float = 0.08,
    n_draws: int = 1,
) -> List[PhaseParams]:
    """``n_draws`` jittered copies of ``params`` in one vectorized pass.

    Each field's factor is ``exp(z * scale * spread)`` for a standard
    normal ``z``; values are clipped into [0, 1] and the instruction mix
    is renormalized when it exceeds 1.  The normals are drawn row by row
    in field order, so one batch of ``n_draws`` equals ``n_draws`` calls
    of :func:`perturbed` on the same generator, draw for draw, and a
    caller jittering hundreds of sections (the fast engine) pays one
    numpy dispatch instead of one per section.
    """
    if scale < 0:
        raise ConfigError("scale must be non-negative")
    if n_draws < 0:
        raise ConfigError("n_draws must be non-negative")
    if scale == 0 or n_draws == 0:
        return [params] * n_draws
    generator = check_random_state(rng)
    base = np.array([getattr(params, name) for name in _JITTER_NAMES])
    factors = np.exp(
        generator.normal(0.0, 1.0, size=(n_draws, len(_JITTER_NAMES)))
        * (scale * _JITTER_SCALES)
    )
    values = np.clip(base * factors, 0.0, 1.0)
    mix = values[:, _MIX_COLUMNS].sum(axis=1)
    over = mix > 1.0
    if np.any(over):
        for column in _MIX_COLUMNS:
            values[over, column] /= mix[over]
    return [
        dataclasses.replace(params, **dict(zip(_JITTER_NAMES, row.tolist())))
        for row in values
    ]


class PhaseSchedule:
    """Contiguous assignment of a workload's sections to phases."""

    def __init__(self, phases: Sequence[Tuple[PhaseParams, float]]) -> None:
        if not phases:
            raise ConfigError("a schedule needs at least one phase")
        weights = [w for _, w in phases]
        if any(w <= 0 for w in weights):
            raise ConfigError("phase weights must be positive")
        total = float(sum(weights))
        self.phases: List[PhaseParams] = [p for p, _ in phases]
        self.weights: List[float] = [w / total for w in weights]

    def __len__(self) -> int:
        return len(self.phases)

    def params_for(self, section_index: int, n_sections: int) -> PhaseParams:
        """The phase governing ``section_index`` of ``n_sections`` total.

        Sections are allocated to phases in schedule order, proportionally
        to weight, so phases are temporally contiguous.
        """
        if not 0 <= section_index < n_sections:
            raise ConfigError(
                f"section_index {section_index} out of range for {n_sections}"
            )
        boundary = 0.0
        position = (section_index + 0.5) / n_sections
        for params, weight in zip(self.phases, self.weights):
            boundary += weight
            if position <= boundary + 1e-12:
                return params
        return self.phases[-1]

    def phase_index_for(self, section_index: int, n_sections: int) -> int:
        """Index of the phase governing a section (for labeling/tests)."""
        params = self.params_for(section_index, n_sections)
        return self.phases.index(params)
