"""Architectural consistency checks over raw counter snapshots.

Real PMU data is full of impossible-looking readings caused by
multiplexing and skid; simulated data must be cleaner.  These invariants
encode the event hierarchy (an L2 load miss implies an L1 load miss; a
retired DTLB load miss is a subset of all DTLB load misses; mix counts
cannot exceed retired instructions) and are checked by the collection
tests — and available to users vetting imported datasets.

Three granularities share one declarative rule table:

* :func:`check_invariants` — one raw count snapshot (a name -> value
  mapping), the original per-section entry point.
* :func:`check_dataset` — whole column vectors at once, reporting the
  violating row indices.  This is what the collection tests and the
  dataset lint rules (:mod:`repro.lint`) use, and
  :func:`check_invariants` is now a one-row wrapper around it.
* :class:`InvariantTable` — the rules compiled once against a column
  order, counting violating rows per rule in each matrix it is given,
  as the serving drift monitor does for every scored batch.
  :func:`check_dataset` is its reference.

Because the same comparisons run on raw counts (magnitudes in the
thousands) and on per-instruction ratios (magnitudes near 1e-6..1), the
comparison tolerance is scale-aware: ``_EPS`` is taken relative to the
magnitude of the quantities compared, with an absolute floor of
``_EPS`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.counters import events as ev

CountMap = Mapping[str, float]
ColumnMap = Mapping[str, Sequence]

#: Base tolerance for floating-point comparisons.  The effective
#: tolerance of a comparison is ``_EPS * max(1, |right-hand side|)`` so
#: raw counts and tiny ratios are judged at their own scale.
_EPS = 1e-6


@dataclass(frozen=True)
class Invariant:
    """One architectural consistency condition over named columns.

    ``kind="le"`` requires ``sum(lhs) <= sum(rhs) + bound`` (within the
    scale-aware tolerance); ``kind="positive"`` requires ``sum(lhs) > 0``.
    Columns absent from the data are treated as all-zero, matching the
    permissive reading of a snapshot that simply did not collect an event.

    Attributes:
        name: Stable identifier, usable as a machine-readable rule tag.
        message: Human-readable violation description.
        lhs: Column names summed on the left-hand side.
        rhs: Column names summed on the right-hand side (``le`` only).
        bound: Constant added to the right-hand side (``le`` only).
        kind: ``"le"`` or ``"positive"``.
    """

    name: str
    message: str
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...] = ()
    bound: float = 0.0
    kind: str = "le"


@dataclass(frozen=True)
class InvariantViolation:
    """A violated invariant with the rows that break it."""

    invariant: str
    message: str
    rows: Tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


#: The raw-event hierarchy, in the order violations are reported.
RAW_COUNT_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "instructions-positive",
        "INST_RETIRED.ANY must be positive",
        (ev.INST_RETIRED_ANY.name,),
        kind="positive",
    ),
    Invariant(
        "cycles-positive",
        "CPU_CLK_UNHALTED.CORE must be positive",
        (ev.CPU_CLK_UNHALTED_CORE.name,),
        kind="positive",
    ),
    Invariant(
        "mix-exceeds-retired",
        "instruction mix exceeds retired instructions",
        (
            ev.INST_RETIRED_LOADS.name,
            ev.INST_RETIRED_STORES.name,
            ev.BR_INST_RETIRED_ANY.name,
        ),
        (ev.INST_RETIRED_ANY.name,),
    ),
    Invariant(
        "mispredicts-exceed-branches",
        "mispredicted branches exceed all branches",
        (ev.BR_INST_RETIRED_MISPRED.name,),
        (ev.BR_INST_RETIRED_ANY.name,),
    ),
    Invariant(
        "l2-exceeds-l1d",
        "retired load L2 misses exceed L1D misses",
        (ev.MEM_LOAD_RETIRED_L2_LINE_MISS.name,),
        (ev.MEM_LOAD_RETIRED_L1D_LINE_MISS.name,),
    ),
    Invariant(
        "l1d-exceeds-loads",
        "retired load L1D misses exceed retired loads",
        (ev.MEM_LOAD_RETIRED_L1D_LINE_MISS.name,),
        (ev.INST_RETIRED_LOADS.name,),
    ),
    Invariant(
        "retired-dtlb-exceeds-all",
        "retired DTLB load misses exceed all DTLB load misses",
        (ev.MEM_LOAD_RETIRED_DTLB_MISS.name,),
        (ev.DTLB_MISSES_MISS_LD.name,),
    ),
    Invariant(
        "dtlb-loads-exceed-any",
        "DTLB load misses exceed all DTLB misses",
        (ev.DTLB_MISSES_MISS_LD.name,),
        (ev.DTLB_MISSES_ANY.name,),
    ),
    Invariant(
        "retired-dtlb-exceeds-l0",
        "last-level DTLB load misses exceed level-0 misses",
        (ev.MEM_LOAD_RETIRED_DTLB_MISS.name,),
        (ev.DTLB_MISSES_L0_MISS_LD.name,),
    ),
    Invariant(
        "load-blocks-exceed-loads",
        "load-block events exceed retired loads",
        (
            ev.LOAD_BLOCK_STA.name,
            ev.LOAD_BLOCK_STD.name,
            ev.LOAD_BLOCK_OVERLAP_STORE.name,
        ),
        (ev.INST_RETIRED_LOADS.name,),
    ),
    Invariant(
        "split-loads-exceed-loads",
        "split loads exceed retired loads",
        (ev.L1D_SPLIT_LOADS.name,),
        (ev.INST_RETIRED_LOADS.name,),
    ),
    Invariant(
        "split-stores-exceed-stores",
        "split stores exceed retired stores",
        (ev.L1D_SPLIT_STORES.name,),
        (ev.INST_RETIRED_STORES.name,),
    ),
    Invariant(
        "misaligned-exceed-memory",
        "misaligned references exceed memory instructions",
        (ev.MISALIGN_MEM_REF.name,),
        (ev.INST_RETIRED_LOADS.name, ev.INST_RETIRED_STORES.name),
    ),
    Invariant(
        "l1i-exceeds-fetches",
        "L1I misses exceed instruction fetches",
        (ev.L1I_MISSES.name,),
        (ev.INST_RETIRED_ANY.name,),
    ),
    Invariant(
        "itlb-exceeds-fetches",
        "ITLB misses exceed instruction fetches",
        (ev.ITLB_MISS_RETIRED.name,),
        (ev.INST_RETIRED_ANY.name,),
    ),
    Invariant(
        "lcp-exceeds-retired",
        "LCP stalls exceed retired instructions",
        (ev.ILD_STALL.name,),
        (ev.INST_RETIRED_ANY.name,),
    ),
)

#: The same hierarchy restated over the Table I per-instruction metrics
#: (every ratio shares the INST_RETIRED.ANY denominator, so subset
#: relations between events survive the division).  Used by the dataset
#: lint rules on section datasets, where only metric columns exist.
METRIC_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "metric-l2-exceeds-l1d",
        "L2M exceeds L1DM (an L2 load miss implies an L1D load miss)",
        ("L2M",),
        ("L1DM",),
    ),
    Invariant(
        "metric-l1d-exceeds-loads",
        "L1DM exceeds InstLd (more load misses than loads)",
        ("L1DM",),
        ("InstLd",),
    ),
    Invariant(
        "metric-retired-dtlb-exceeds-all",
        "DtlbLdReM exceeds DtlbLdM (retired misses are a subset)",
        ("DtlbLdReM",),
        ("DtlbLdM",),
    ),
    Invariant(
        "metric-dtlb-loads-exceed-any",
        "DtlbLdM exceeds Dtlb (load misses are a subset of all misses)",
        ("DtlbLdM",),
        ("Dtlb",),
    ),
    Invariant(
        "metric-retired-dtlb-exceeds-l0",
        "DtlbLdReM exceeds DtlbL0LdM (last-level misses imply L0 misses)",
        ("DtlbLdReM",),
        ("DtlbL0LdM",),
    ),
    Invariant(
        "metric-mix-exceeds-one",
        "instruction-mix fractions sum above 1",
        ("InstLd", "InstSt", "BrMisPr", "BrPred", "InstOther"),
        (),
        bound=1.0,
    ),
    Invariant(
        "metric-split-loads-exceed-loads",
        "L1DSpLd exceeds InstLd (more split loads than loads)",
        ("L1DSpLd",),
        ("InstLd",),
    ),
    Invariant(
        "metric-split-stores-exceed-stores",
        "L1DSpSt exceeds InstSt (more split stores than stores)",
        ("L1DSpSt",),
        ("InstSt",),
    ),
    Invariant(
        "metric-load-blocks-exceed-loads",
        "load-block ratios exceed InstLd",
        ("LdBlSta", "LdBlStd", "LdBlOvSt"),
        ("InstLd",),
    ),
    Invariant(
        "metric-misaligned-exceed-memory",
        "MisalRef exceeds InstLd + InstSt",
        ("MisalRef",),
        ("InstLd", "InstSt"),
    ),
)


def applicable_invariants(
    invariants: Sequence[Invariant], available: Sequence[str]
) -> List[Invariant]:
    """The subset of ``invariants`` whose columns are all present.

    Lint rules use this so a dataset carrying only some Table I metrics
    is not flagged for relations it cannot express (a missing column
    would otherwise read as all-zero and trip ``lhs <= 0`` checks).
    """
    names = set(available)
    return [
        inv
        for inv in invariants
        if names.issuperset(inv.lhs) and names.issuperset(inv.rhs)
    ]


def _column_matrix(columns: ColumnMap) -> Tuple[dict, int]:
    """Normalize a column mapping to float arrays of one shared length."""
    from repro.errors import DataError

    arrays = {}
    n_rows = None
    for name, values in columns.items():
        arr = np.asarray(values, dtype=np.float64).ravel()
        if n_rows is None:
            n_rows = arr.shape[0]
        elif arr.shape[0] != n_rows:
            raise DataError(
                f"column {name!r} has {arr.shape[0]} rows, expected {n_rows}"
            )
        arrays[str(name)] = arr
    if n_rows is None:
        raise DataError("cannot check invariants on zero columns")
    return arrays, n_rows


def check_dataset(
    columns: ColumnMap,
    invariants: Sequence[Invariant] = RAW_COUNT_INVARIANTS,
    check_negative: bool = True,
    negative_message: str = "negative count for {name}",
) -> List[InvariantViolation]:
    """Vectorized invariant check over whole columns.

    Args:
        columns: Mapping of column name to a 1-D value sequence; all
            columns must share one length.  Names an invariant references
            but the mapping lacks are treated as all-zero.
        invariants: The rule table to apply (defaults to the raw-event
            hierarchy; pass :data:`METRIC_INVARIANTS` for section
            datasets of Table I ratios).
        check_negative: Also flag negative values in every column.
        negative_message: Template for the negativity violation.

    Returns:
        One :class:`InvariantViolation` per violated invariant, carrying
        the offending row indices, in rule-table order; negativity
        violations follow in column order.  Empty means clean.
    """
    arrays, n_rows = _column_matrix(columns)
    zeros = np.zeros(n_rows)

    def column(name: str) -> np.ndarray:
        return arrays.get(name, zeros)

    def total(names: Tuple[str, ...]) -> np.ndarray:
        result = np.zeros(n_rows)
        for name in names:
            result = result + column(name)
        return result

    violations: List[InvariantViolation] = []
    for inv in invariants:
        # Finite values near the float limit may sum to inf; the
        # comparison is still right, so the overflow is no news.
        with np.errstate(over="ignore"):
            lhs = total(inv.lhs)
            if inv.kind == "positive":
                bad = ~(lhs > 0)
            else:
                rhs = total(inv.rhs) + inv.bound
                tolerance = _EPS * np.maximum(1.0, np.abs(rhs))
                bad = lhs > rhs + tolerance
        if bad.any():
            violations.append(
                InvariantViolation(
                    invariant=inv.name,
                    message=inv.message,
                    rows=tuple(int(i) for i in np.flatnonzero(bad)),
                )
            )
    if check_negative:
        for name, values in arrays.items():
            bad = values < 0
            if bad.any():
                violations.append(
                    InvariantViolation(
                        invariant=f"negative-{name}",
                        message=negative_message.format(name=name),
                        rows=tuple(int(i) for i in np.flatnonzero(bad)),
                    )
                )
    return violations


class InvariantTable:
    """A rule table compiled against one column order, for repeated checks.

    :func:`check_dataset` resolves names and sums columns one rule at a
    time, which suits a one-off dataset check.  A server checking every
    batch against the same rules compiles them once: each side of each
    rule becomes a column of an index table, padded with (and with
    absent names mapped to) an all-zero column, so a batch is checked
    in a few array operations whatever the number of rules.  Each side
    is summed term by term in the rule's own order, as
    :func:`check_dataset` sums it, with the same tolerance, so
    :meth:`count` flags exactly the rows it flags (negativity aside).

    Args:
        invariants: The rules, in reporting order.
        columns: Column names of the matrices :meth:`count` receives.
    """

    def __init__(
        self, invariants: Sequence[Invariant], columns: Sequence[str]
    ) -> None:
        self.invariants: Tuple[Invariant, ...] = tuple(invariants)
        self._width = len(columns)
        index = {str(name): i for i, name in enumerate(columns)}

        def table(sides: List[Tuple[str, ...]]) -> np.ndarray:
            depth = max([len(names) for names in sides] + [1])
            terms = np.full((depth, len(sides)), self._width, dtype=np.intp)
            for rule, names in enumerate(sides):
                for position, name in enumerate(names):
                    terms[position, rule] = index.get(name, self._width)
            return terms

        self._lhs = table([inv.lhs for inv in self.invariants])
        self._rhs = table([inv.rhs for inv in self.invariants])
        self._bound = np.array([inv.bound for inv in self.invariants])
        positive = np.array([inv.kind == "positive" for inv in self.invariants])
        self._positive = positive if positive.any() else None

    def count(self, X: np.ndarray) -> np.ndarray:
        """Rows of ``X`` (shape ``(n, len(columns))``) violating each rule."""
        padded = np.zeros((X.shape[0], self._width + 1))
        padded[:, :self._width] = X
        # As in check_dataset: a side may overflow to inf, harmlessly.
        with np.errstate(over="ignore"):
            lhs = _sum_terms(padded[:, self._lhs])
            rhs = _sum_terms(padded[:, self._rhs]) + self._bound
            bad = lhs > rhs + _EPS * np.maximum(1.0, np.abs(rhs))
        if self._positive is not None:
            bad = np.where(self._positive, ~(lhs > 0), bad)
        return np.count_nonzero(bad, axis=0)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum ``(n, depth, rules)`` terms over ``depth``, first to last."""
    total = terms[:, 0]
    for position in range(1, terms.shape[1]):
        total = total + terms[:, position]
    return total


def check_invariants(counts: CountMap) -> List[str]:
    """Return a list of violated-invariant descriptions (empty = clean).

    A thin per-row wrapper over :func:`check_dataset`: the snapshot
    becomes a one-row column set and messages are returned in the same
    order the original implementation produced them.
    """
    columns = {name: [float(value)] for name, value in counts.items()}
    if not columns:
        columns = {ev.INST_RETIRED_ANY.name: [0.0]}
    return [v.message for v in check_dataset(columns, RAW_COUNT_INVARIANTS)]


def assert_invariants(counts: CountMap) -> None:
    """Raise :class:`repro.errors.DataError` listing any violations."""
    from repro.errors import DataError

    violations = check_invariants(counts)
    if violations:
        raise DataError(
            "counter invariants violated: " + "; ".join(violations)
        )
