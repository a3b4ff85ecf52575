"""Serving preflight: ``repro serve --check``.

Before a server takes traffic it should prove, offline, that it *can*:
the registry manifest parses, the requested model resolves with its
integrity sidecar intact, the tree or forest compiles, the static
verifier (:mod:`repro.verify`) finds no errors and the stored
certificate matches the recomputed one, and the compiled evaluator
reproduces the interpreted per-row walk bit for bit on a probe batch
drawn from the model's own training ranges.  Each probe is a :class:`CheckResult`; any
failure makes the preflight (and the CLI) exit non-zero, so a deploy
script can gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.tree.node import route
from repro.core.tree.smoothing import smoothed_predict
from repro.errors import ReproError
from repro.serve.drift import DriftMonitor
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.verify import verify_model

__all__ = ["CheckResult", "preflight", "render_preflight"]

#: Rows in the compiled-vs-interpreted probe batch.
PROBE_ROWS = 64


@dataclass(frozen=True)
class CheckResult:
    """One preflight probe's outcome."""

    name: str
    ok: bool
    detail: str

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAIL"


def _probe_matrix(model, rows: int = PROBE_ROWS) -> np.ndarray:
    """Deterministic probe rows spanning each feature's training range."""
    n_features = len(model.attributes_)
    ranges = model.feature_ranges_
    if ranges is None:
        ranges = tuple((0.0, 1.0) for _ in range(n_features))
    # A low-discrepancy sweep: row i places feature j at a phase-shifted
    # point of its [low, high] interval, so probes hit many leaves
    # without needing a random generator.
    grid = np.empty((rows, n_features), dtype=np.float64)
    for j, (low, high) in enumerate(ranges):
        span = high - low
        phases = (np.arange(rows) * (j + 1) * 0.37) % 1.0
        grid[:, j] = low + phases * (span if span > 0 else 1.0)
    return grid


def _check_parity(model, label: str) -> CheckResult:
    """Compiled arena vs interpreted walks, bit-for-bit.

    Checks every row of ``predict_trees`` — and the leaf each
    ``(row, tree)`` pair routes to — against that member's own
    interpreted per-row walk (a single tree is its own only member),
    then the mean against stacking the interpreted member predictions:
    the contract CONF008 asserts over the conformance corpus.
    """
    X = _probe_matrix(model)
    compiled = model.compiled_
    k = model.smoothing_k if model.smoothing else None
    per_tree = compiled.predict_trees(X, smoothing_k=k)
    leaf_ids = compiled.leaf_id[compiled.route(X)]
    interpreted = np.empty_like(per_tree)
    for t, member in enumerate(getattr(model, "estimators_", [model])):
        root = member.root_
        assert root is not None
        for i, x in enumerate(X):
            leaf = route(root, x)
            if leaf.leaf_id != leaf_ids[i, t]:
                return CheckResult(
                    "compiled-parity", False,
                    f"{label}: tree[{t}] row {i} routed to leaf "
                    f"{int(leaf_ids[i, t])}, interpreted walk disagrees"
                )
            if k is not None:
                interpreted[t, i] = smoothed_predict(root, x, k=k)
            elif leaf.model is None:
                return CheckResult(
                    "compiled-parity", False,
                    f"{label}: tree[{t}] leaf LM{leaf.leaf_id} has no model"
                )
            else:
                interpreted[t, i] = leaf.model.predict_one(x)
        if not np.array_equal(per_tree[t], interpreted[t]):
            row = int(np.flatnonzero(per_tree[t] != interpreted[t])[0])
            return CheckResult(
                "compiled-parity", False,
                f"{label}: tree[{t}] row {row} compiled="
                f"{per_tree[t, row]!r} interpreted={interpreted[t, row]!r}"
            )
    if not np.array_equal(
        compiled.predict(X, smoothing_k=k), interpreted.mean(axis=0)
    ):
        return CheckResult(
            "compiled-parity", False,
            f"{label}: the mean over trees diverges from stacked "
            f"interpreted member predictions"
        )
    return CheckResult(
        "compiled-parity", True,
        f"{label}: {compiled.n_trees} tree(s) x {X.shape[0]} probe rows "
        f"bit-identical"
        + ("" if k is None else f" (smoothing k={k:g})")
    )


def _check_verify(
    registry: ModelRegistry, model, record: "ModelRecord"
) -> CheckResult:
    """Static verification of the resolved artifact, plus certificate
    agreement: a stored certificate must match what the verifier
    recomputes from the blob — a mismatch means the artifact or its
    certificate was modified after publish."""
    result = verify_model(model)
    if not result.ok:
        findings = "; ".join(d.render() for d in result.diagnostics[:3])
        return CheckResult(
            "verify", False,
            f"{record.spec}: {result.n_errors} verification error(s): "
            f"{findings}"
        )
    try:
        stored = registry.load_certificate(record)
    except ReproError as exc:
        return CheckResult("verify", False, f"{record.spec}: {exc}")
    if stored is not None and stored != result.certificate:
        return CheckResult(
            "verify", False,
            f"{record.spec}: stored certificate {record.certificate!r} "
            "disagrees with the recomputed one; the blob or certificate "
            "changed after publish — republish the model"
        )
    if result.certificate is not None:
        detail = (
            f"{record.spec}: verified; certified output in "
            f"[{result.certificate.output[0]:g}, "
            f"{result.certificate.output[1]:g}] over "
            f"{len(result.certificate.leaves)} leaves"
            + ("" if stored is not None else " (no stored certificate)")
        )
    else:
        warnings = result.report.n_warnings
        reason = (
            "forests are uncertified" if record.kind == "forest"
            else "model records no feature_ranges_"
        )
        detail = (
            f"{record.spec}: verified with {warnings} warning(s); "
            f"no certificate ({reason})"
        )
    return CheckResult("verify", True, detail)


def preflight(
    registry: ModelRegistry,
    model_spec: Optional[str] = None,
) -> List[CheckResult]:
    """Run every preflight probe; never raises, failures are results.

    Args:
        registry: The registry the server would resolve against.
        model_spec: The spec the server would load at startup; ``None``
            checks every published latest version instead.
    """
    results: List[CheckResult] = []
    try:
        names = registry.names()
    except ReproError as exc:
        results.append(CheckResult("manifest", False, str(exc)))
        return results
    results.append(CheckResult(
        "manifest", True,
        f"{registry.manifest_path}: {len(names)} model name(s)"
    ))
    if model_spec is not None:
        specs = [model_spec]
    else:
        specs = [f"{name}@latest" for name in sorted(names)]
        if not specs:
            results.append(CheckResult(
                "resolve", False,
                "registry is empty; publish a model or pass --model"
            ))
            return results
    for spec in specs:
        try:
            model, record = registry.resolve(spec)
        except ReproError as exc:
            results.append(CheckResult("resolve", False, f"{spec}: {exc}"))
            continue
        results.append(CheckResult(
            "resolve", True,
            f"{spec} -> {record.spec} ({record.n_leaves} leaves, "
            f"{len(record.attributes)} features, integrity verified)"
        ))
        try:
            compiled = model.compiled_
        except ReproError as exc:
            results.append(CheckResult(
                "compile", False, f"{record.spec}: {exc}"
            ))
            continue
        results.append(CheckResult(
            "compile", True,
            f"{record.spec}: {compiled.n_trees} tree(s), "
            f"{compiled.n_nodes} nodes, max depth {compiled.max_depth}"
        ))
        results.append(_check_verify(registry, model, record))
        results.append(_check_parity(model, record.spec))
        monitor = DriftMonitor(model)
        if monitor.monitors_ranges:
            results.append(CheckResult(
                "drift", True,
                f"{record.spec}: range monitoring armed for "
                f"{len(monitor.attributes)} features, "
                f"{len(monitor._invariants.invariants)} invariant(s) applicable"
            ))
        else:
            results.append(CheckResult(
                "drift", False,
                f"{record.spec}: no feature_ranges_ recorded (pre-range "
                "document); out-of-range drift cannot be monitored — refit "
                "and republish"
            ))
    return results


def render_preflight(results: List[CheckResult]) -> str:
    """Terminal rendering, one line per probe plus a verdict."""
    width = max((len(r.name) for r in results), default=4)
    lines = [
        f"  {r.status:<4} {r.name:<{width}}  {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.ok)
    verdict = (
        "preflight passed" if failed == 0
        else f"preflight FAILED ({failed} of {len(results)} probes)"
    )
    return "\n".join(["serve preflight:"] + lines + [verdict])
