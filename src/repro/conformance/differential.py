"""The differential runner: oracle vs every production execution path.

For each :class:`~repro.conformance.corpus.ConformanceCase` the runner
fits the naive :class:`~repro.conformance.oracle.ReferenceM5Prime` and
the production :class:`~repro.core.tree.m5.M5Prime` on the same data and
asserts *bit identity* across every way the package can evaluate the
model:

* tree structure (every node field, every model coefficient) — CONF001
* predictions: oracle walk vs production ``predict`` (which routes
  through :class:`~repro.serve.compiled.CompiledArena`) — CONF002
* leaf (class) assignment — CONF003
* compiled vs *interpreted* inference on the production tree (the
  linked-node walk the compiler replaced) — CONF004
* a JSON serialization round trip of the production model — CONF005
* serial vs parallel cross-validation predictions (flagged cases) —
  CONF006
* compiled-forest arena vs interpreted member-by-member ensemble
  evaluation, per tree and for the averaged mean (flagged cases) —
  CONF008

Divergences are reported as structured diagnostics; a clean report is
the package's strongest correctness statement short of a proof.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from repro.conformance.corpus import ConformanceCase, build_corpus
from repro.conformance.oracle import ReferenceM5Prime
from repro.conformance.report import ConformanceReport
from repro.conformance.structure import diff_trees
from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import route
from repro.core.tree.serialize import model_from_dict, model_to_dict
from repro.core.tree.smoothing import smoothed_predict

#: Folds used by the serial-vs-parallel cross-validation check.
PARALLEL_CV_FOLDS = 4


def _identical_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality with NaN treated as equal to NaN."""
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(a, b, equal_nan=True))


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> str:
    """Human-readable pointer at the first differing element."""
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    both_nan = np.isnan(a) & np.isnan(b) if a.dtype.kind == "f" else np.zeros(a.shape, bool)
    different = ~both_nan & (a != b)
    index = int(np.argmax(different))
    return f"row {index}: {a[index]!r} vs {b[index]!r}"


def _interpreted_predict(model: M5Prime, X: np.ndarray) -> np.ndarray:
    """The pre-compilation per-row walk over the production tree."""
    root = model.root_
    assert root is not None
    out = np.empty(X.shape[0], dtype=np.float64)
    for i in range(X.shape[0]):
        if model.smoothing:
            out[i] = smoothed_predict(root, X[i], model.smoothing_k)
        else:
            leaf = route(root, X[i])
            assert leaf.model is not None
            out[i] = leaf.model.predict_one(X[i])
    return out


def run_case(case: ConformanceCase, report: ConformanceReport) -> None:
    """Execute every differential check for one corpus case."""
    dataset = case.dataset
    production = M5Prime(**case.params).fit(dataset)
    oracle = ReferenceM5Prime(**case.params).fit(dataset)
    where = f"case {case.name}"
    report.n_cases += 1

    # CONF001 — bit-identical trees (and recorded training ranges).
    report.n_checks += 1
    assert oracle.root_ is not None and production.root_ is not None
    differences = diff_trees(oracle.root_, production.root_)
    if oracle.feature_ranges_ != production.feature_ranges_:
        differences.append("feature_ranges_ differ")
    for difference in differences:
        report.add("CONF001", difference, where)
    if differences:
        # The trees already disagree; downstream prediction mismatches
        # would only repeat the same root cause.
        return

    X = dataset.X
    oracle_predictions = oracle.predict(X)

    # CONF002 — oracle walk vs production (compiled) predictions.
    report.n_checks += 1
    production_predictions = production.predict(X)
    if not _identical_arrays(oracle_predictions, production_predictions):
        report.add(
            "CONF002",
            "oracle and production predictions diverge: "
            + _first_mismatch(oracle_predictions, production_predictions),
            where,
        )

    # CONF003 — identical class (leaf) assignment.
    report.n_checks += 1
    oracle_leaves = oracle.leaf_ids(X)
    production_leaves = production.leaf_ids(X)
    if not _identical_arrays(oracle_leaves, production_leaves):
        report.add(
            "CONF003",
            "leaf assignment diverges: "
            + _first_mismatch(oracle_leaves, production_leaves),
            where,
        )

    # CONF004 — compiled inference vs the interpreted linked-node walk.
    report.n_checks += 1
    interpreted = _interpreted_predict(production, X)
    if not _identical_arrays(interpreted, production_predictions):
        report.add(
            "CONF004",
            "compiled and interpreted predictions diverge: "
            + _first_mismatch(interpreted, production_predictions),
            where,
        )

    # CONF005 — JSON round trip preserves the tree bit for bit.
    report.n_checks += 1
    document = json.loads(json.dumps(model_to_dict(production)))
    restored = model_from_dict(document)
    assert restored.root_ is not None
    round_trip_differences = diff_trees(
        production.root_, restored.root_, compare_estimated_error=False
    )
    if restored.feature_ranges_ != production.feature_ranges_:
        round_trip_differences.append("feature_ranges_ differ after round trip")
    restored_predictions = restored.predict(X)
    if not _identical_arrays(restored_predictions, production_predictions):
        round_trip_differences.append(
            "predictions diverge after round trip: "
            + _first_mismatch(restored_predictions, production_predictions)
        )
    for difference in round_trip_differences:
        report.add("CONF005", difference, where)

    # CONF006 — parallel fold execution is bit-identical to serial.
    if case.check_parallel_cv:
        report.n_checks += 1
        _check_parallel_cv(case, report, where)

    # CONF008 — compiled forest arena vs interpreted ensemble.
    if case.check_forest:
        report.n_checks += 1
        _check_forest(case, report, where)


def _check_parallel_cv(
    case: ConformanceCase, report: ConformanceReport, where: str
) -> None:
    import functools

    from repro.evaluation import cross_validate

    factory = functools.partial(M5Prime, **case.params)
    serial = cross_validate(
        factory, case.dataset, n_folds=PARALLEL_CV_FOLDS,
        rng=report.seed, n_jobs=1,
    )
    parallel = cross_validate(
        factory, case.dataset, n_folds=PARALLEL_CV_FOLDS,
        rng=report.seed, n_jobs=2,
    )
    if not _identical_arrays(serial.predictions, parallel.predictions):
        report.add(
            "CONF006",
            "serial and parallel cross-validation predictions diverge: "
            + _first_mismatch(serial.predictions, parallel.predictions),
            where,
        )


def _check_forest(
    case: ConformanceCase, report: ConformanceReport, where: str
) -> None:
    """Compiled-arena ensemble evaluation vs member-by-member walks.

    Fits a small :class:`~repro.baselines.bagging.BaggedM5` on the case
    dataset and asserts the single-pass arena (``predict_trees`` /
    ``predict``) is bit-identical to interpreting every member tree
    separately and averaging, and that the leaf-indicator matrix has
    exactly one live column per (row, tree) pair.
    """
    from repro.baselines.bagging import BaggedM5

    forest = BaggedM5(
        n_estimators=5,
        min_instances=int(case.params.get("min_instances", 25)),
        seed=report.seed,
    ).fit(case.dataset)
    X = case.dataset.X
    compiled = forest.compiled_

    per_tree = compiled.predict_trees(X)
    interpreted = np.vstack(
        [_interpreted_predict(member, X) for member in forest]
    )
    for index in range(compiled.n_trees):
        if not _identical_arrays(per_tree[index], interpreted[index]):
            report.add(
                "CONF008",
                f"compiled forest tree[{index}] diverges from the "
                "interpreted member walk: "
                + _first_mismatch(per_tree[index], interpreted[index]),
                where,
            )
            return

    ensemble = forest.predict(X)
    mean = interpreted.mean(axis=0)
    if not _identical_arrays(ensemble, mean):
        report.add(
            "CONF008",
            "compiled forest ensemble mean diverges from the stacked "
            "member mean: " + _first_mismatch(ensemble, mean),
            where,
        )

    indicator = compiled.leaf_indicator(X)
    row_sums = indicator.toarray().sum(axis=1)
    if not np.array_equal(row_sums, np.full(X.shape[0], compiled.n_trees)):
        report.add(
            "CONF008",
            "leaf-indicator rows do not each carry exactly one live "
            "column per tree",
            where,
        )


def run_differential(
    seed: int = 2007,
    tier: str = "quick",
    cases: Optional[Sequence[ConformanceCase]] = None,
    max_cases: Optional[int] = None,
) -> ConformanceReport:
    """Differential-test the corpus; returns the structured report.

    Args:
        seed: Master seed for corpus generation and CV fold assignment.
        tier: ``"quick"`` (CI pull-request budget) or ``"deep"``.
        cases: Explicit case list (overrides corpus generation).
        max_cases: Truncate the corpus (test/debug convenience).
    """
    report = ConformanceReport(tier=tier, seed=seed)
    selected = list(cases) if cases is not None else build_corpus(seed, tier)
    if max_cases is not None:
        selected = selected[:max_cases]
    for case in selected:
        run_case(case, report)
    return report
