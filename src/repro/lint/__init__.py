"""Static analysis of trees, datasets, and model/data compatibility.

The paper's value proposition is *trustworthy interpretation*: split
variables and leaf coefficients are read off as micro-architectural
explanations, so a malformed tree or a corrupt counter dataset silently
poisons the "what" and "how much" answers.  This subsystem verifies the
artifacts statically — before they are trained on, shipped, or loaded —
through eight rule families:

* **tree** (``TREE0xx``): structural soundness of a fitted/deserialized
  :class:`~repro.core.tree.m5.M5Prime` — feature indices, reachability,
  leaf populations, coefficient sanity, serialization round trips.
* **dataset** (``DATA0xx``): section-dataset hygiene — non-finite
  values, constant/duplicate columns, per-instruction ratio bounds, the
  Table I event hierarchy, target outliers and leakage.
* **compat** (``COMPAT0xx``): model vs. dataset — attribute name/order
  agreement, values inside the trained regime, finite predictions.
* **cache** (``CACHE0xx``): artifact-cache integrity — entries without
  checksum sidecars, checksum mismatches, quarantined entries.
* **serve** (``SERVE0xx``): model-registry integrity — manifest
  well-formedness, missing/corrupt blobs, manifest-vs-blob agreement,
  registry entries whose feature set no longer matches the dataset.
* **forest** (``FOREST0xx``): published-ensemble integrity — each
  forest blob loaded with the one model loader and checked by the
  static verifier: blobs that load as ``repro-forest`` documents with
  sound member trees, arena offsets, refined leaf-weight vectors of the
  right length with finite values, dead member trees, single-tree
  forests.
* **verify** (``VERIFY0xx``): static verification of the compiled tree
  arena (:mod:`repro.verify`) — structural well-formedness plus
  interval abstract interpretation: dead branches, domain coverage,
  bounded predictions.
* **fastsim** (``FASTSIM0xx``): fastsim calibration-artifact audit —
  schema and required keys, machine/workload fingerprint freshness,
  residual-model and anchor-table integrity, fit-quality stats, and
  feature-name agreement with the analytical layer, checked before the
  fast engine is allowed to serve predictions from the artifact.

Usage::

    from repro.lint import run_lint
    report = run_lint(model=model, dataset=dataset)
    print(report.summary())
    assert report.exit_code(strict=True) == 0

or from the command line::

    repro lint --model model.json --data sections.csv --strict
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.datasets.dataset import Dataset
from repro.core.tree.m5 import M5Prime
from repro.errors import LintError
from repro.lint.context import LintConfig, LintContext
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.loading import Table, as_table, load_table
from repro.lint.registry import (
    ALL_FAMILIES,
    FAMILY_CACHE,
    FAMILY_COMPAT,
    FAMILY_DATASET,
    FAMILY_FASTSIM,
    FAMILY_FOREST,
    FAMILY_SERVE,
    FAMILY_TREE,
    FAMILY_VERIFY,
    LintRule,
    all_rules,
    get_rule,
    rule,
    rules_for,
)
from repro.lint.reporters import (
    json_document,
    render_json,
    render_text,
)

# Importing the rule modules registers their rules.
from repro.lint import tree_rules as _tree_rules  # noqa: F401
from repro.lint import data_rules as _data_rules  # noqa: F401
from repro.lint import compat_rules as _compat_rules  # noqa: F401
from repro.lint import cache_rules as _cache_rules  # noqa: F401
from repro.lint import serve_rules as _serve_rules  # noqa: F401
from repro.lint import forest_rules as _forest_rules  # noqa: F401
from repro.lint import verify_rules as _verify_rules  # noqa: F401
from repro.lint import fastsim_rules as _fastsim_rules  # noqa: F401

__all__ = [
    "ALL_FAMILIES",
    "FAMILY_CACHE",
    "FAMILY_FASTSIM",
    "FAMILY_FOREST",
    "FAMILY_SERVE",
    "FAMILY_VERIFY",
    "Diagnostic",
    "LintConfig",
    "LintContext",
    "LintReport",
    "LintRule",
    "Severity",
    "Table",
    "all_rules",
    "as_table",
    "get_rule",
    "json_document",
    "load_table",
    "lint_cache",
    "lint_calibration",
    "lint_compatibility",
    "lint_dataset",
    "lint_forest",
    "lint_model",
    "lint_registry",
    "lint_verify",
    "render_json",
    "render_text",
    "rule",
    "rules_for",
    "run_lint",
]


def _resolve_families(
    model: Optional[M5Prime],
    dataset: Optional[Table],
    cache_dir: Optional[Path],
    registry_dir: Optional[Path],
    calibration: Optional[Union[Path, dict]],
    families: Optional[Sequence[str]],
) -> tuple:
    available = []
    if model is not None:
        available.append(FAMILY_TREE)
    if dataset is not None:
        available.append(FAMILY_DATASET)
    if model is not None and dataset is not None:
        available.append(FAMILY_COMPAT)
    if cache_dir is not None:
        available.append(FAMILY_CACHE)
    if registry_dir is not None:
        available.append(FAMILY_SERVE)
        available.append(FAMILY_FOREST)
    if model is not None:
        available.append(FAMILY_VERIFY)
    if calibration is not None:
        available.append(FAMILY_FASTSIM)
    if families is None:
        return tuple(available)
    needs = {
        FAMILY_TREE: "a model",
        FAMILY_DATASET: "a dataset",
        FAMILY_COMPAT: "both a model and a dataset",
        FAMILY_CACHE: "a cache directory",
        FAMILY_SERVE: "a registry directory",
        FAMILY_FOREST: "a registry directory",
        FAMILY_VERIFY: "a model",
        FAMILY_FASTSIM: "a calibration artifact",
    }
    for family in families:
        if family not in ALL_FAMILIES:
            raise LintError(f"unknown rule family {family!r}")
        if family not in available:
            raise LintError(f"family {family!r} needs {needs[family]}")
    return tuple(f for f in ALL_FAMILIES if f in families)


def run_lint(
    model: Optional[M5Prime] = None,
    dataset: Optional[Union[Dataset, Table]] = None,
    config: Optional[LintConfig] = None,
    families: Optional[Sequence[str]] = None,
    cache_dir: Optional[Path] = None,
    registry_dir: Optional[Path] = None,
    calibration: Optional[Union[Path, dict]] = None,
) -> LintReport:
    """Run every applicable lint rule and collect the findings.

    Args:
        model: A *fitted* :class:`M5Prime` (enables the tree family).
        dataset: A section :class:`Dataset`, or the lenient
            :class:`Table` view from :func:`load_table` for files a
            validating Dataset would refuse (enables the dataset family;
            together with ``model``, the compat family).
        config: Threshold overrides; defaults to :class:`LintConfig`.
        families: Restrict to these families instead of everything the
            inputs allow.
        cache_dir: An artifact-cache directory to audit (enables the
            cache family: missing checksums, mismatches, quarantine).
        registry_dir: A model-registry directory to audit (enables the
            serve family: manifest integrity, blob checksums,
            manifest-vs-blob agreement; with ``dataset``, feature-set
            drift against the data).
        calibration: A fastsim calibration artifact to audit — the
            serialized payload dict or a path to the JSON file (enables
            the fastsim family; a file that fails to load is a
            FASTSIM001 finding, not a crash).

    Returns:
        A :class:`LintReport`; ``report.exit_code(strict)`` maps it to
        the CLI contract (0 clean, 1 warnings under strict, 2 errors).

    Raises:
        LintError: No inputs given, an unfitted model, or a requested
            family its inputs cannot support.
    """
    if (model is None and dataset is None and cache_dir is None
            and registry_dir is None and calibration is None):
        raise LintError(
            "lint needs a model, a dataset, a cache directory, a "
            "registry directory, or a calibration artifact"
        )
    if model is not None and model.root_ is None:
        raise LintError("cannot lint an unfitted model")
    table = as_table(dataset) if dataset is not None else None
    selected = _resolve_families(
        model, table, cache_dir, registry_dir, calibration, families,
    )
    context = LintContext(
        model=model, dataset=table, cache_dir=cache_dir,
        registry_dir=registry_dir, calibration=calibration,
        config=config or LintConfig(),
    )
    report = LintReport(families=selected)
    for family in selected:
        for lint_rule in rules_for(family):
            report.n_rules += 1
            try:
                findings = lint_rule.check(context)
            except LintError:
                raise
            except Exception as exc:
                raise LintError(
                    f"lint rule {lint_rule.rule_id} crashed: {exc!r}"
                ) from exc
            for finding in findings:
                if isinstance(finding, Diagnostic):
                    report.diagnostics.append(finding)
                else:
                    message, location = finding
                    report.diagnostics.append(
                        Diagnostic(
                            rule_id=lint_rule.rule_id,
                            severity=lint_rule.severity,
                            message=message,
                            location=location,
                        )
                    )
    return report


def lint_model(
    model: M5Prime, config: Optional[LintConfig] = None
) -> LintReport:
    """Run the tree rules alone."""
    return run_lint(model=model, config=config, families=(FAMILY_TREE,))


def lint_dataset(
    dataset: Union[Dataset, Table], config: Optional[LintConfig] = None
) -> LintReport:
    """Run the dataset rules alone."""
    return run_lint(dataset=dataset, config=config, families=(FAMILY_DATASET,))


def lint_compatibility(
    model: M5Prime,
    dataset: Union[Dataset, Table],
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Run the model-vs-dataset compatibility rules alone."""
    return run_lint(
        model=model, dataset=dataset, config=config, families=(FAMILY_COMPAT,)
    )


def lint_verify(
    model: M5Prime, config: Optional[LintConfig] = None
) -> LintReport:
    """Run the static-verifier (VERIFY) rules alone."""
    return run_lint(model=model, config=config, families=(FAMILY_VERIFY,))


def lint_cache(
    cache_dir: Path, config: Optional[LintConfig] = None
) -> LintReport:
    """Run the artifact-cache integrity rules alone."""
    return run_lint(
        cache_dir=cache_dir, config=config, families=(FAMILY_CACHE,)
    )


def lint_calibration(
    calibration: Union[Path, dict], config: Optional[LintConfig] = None
) -> LintReport:
    """Run the fastsim calibration-artifact rules alone."""
    return run_lint(
        calibration=calibration, config=config, families=(FAMILY_FASTSIM,)
    )


def lint_registry(
    registry_dir: Path,
    dataset: Optional[Union[Dataset, Table]] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Run the model-registry (serve) rules alone.

    With ``dataset``, SERVE005 additionally checks every registry
    entry's feature set against the data it would be asked to score.
    """
    return run_lint(
        dataset=dataset, registry_dir=registry_dir, config=config,
        families=(FAMILY_SERVE,),
    )


def lint_forest(
    registry_dir: Path, config: Optional[LintConfig] = None
) -> LintReport:
    """Run the published-forest integrity (FOREST) rules alone."""
    return run_lint(
        registry_dir=registry_dir, config=config, families=(FAMILY_FOREST,),
    )
