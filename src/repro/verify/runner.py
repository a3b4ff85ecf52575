"""Verifier entry points: run the layers, gate them, issue certificates.

:func:`verify_model` is the one call everything else wires in — publish,
preflight, lint, CLI, conformance — for trees and forests alike.  It
compiles each fitted tree (a compile failure is itself a VERIFY001
finding, not an exception), runs
the structural layer, and only if that is clean runs the abstract
interpretation — reasoning about routing semantics over an arena whose
arrays cannot be trusted would report noise on top of the real defect.

A certificate is issued only under the strongest conditions: recorded
``feature_ranges_``, zero ERROR findings, at least one live leaf.  That
keeps every certified number finite (JSON-portable) and makes the
certificate an unambiguous statement: *this artifact passed everything*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.tree.m5 import M5Prime
from repro.counters.invariants import METRIC_INVARIANTS, Invariant
from repro.errors import NotFittedError, ReproError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity

if TYPE_CHECKING:  # break the serve <-> verify import cycle
    from repro.serve.compiled import CompiledArena
from repro.verify.abstract import analyze
from repro.verify.certificate import VerificationCertificate
from repro.verify.structural import verify_structure

__all__ = [
    "N_VERIFY_RULES",
    "VerificationResult",
    "verify_arena",
    "verify_model",
    "verify_tree",
]

#: The VERIFY rule family size (VERIFY001..VERIFY008).
N_VERIFY_RULES = 8


@dataclass
class VerificationResult:
    """Everything one verifier run produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    certificate: Optional[VerificationCertificate] = None

    @property
    def n_errors(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def ok(self) -> bool:
        """No ERROR findings (warnings are survivable)."""
        return self.n_errors == 0

    @property
    def report(self) -> LintReport:
        """The result as a lint report (shared exit-code contract)."""
        return LintReport(
            diagnostics=list(self.diagnostics),
            families=("verify",),
            n_rules=N_VERIFY_RULES,
        )

    def summary(self) -> str:
        report = self.report
        certified = (
            f"certificate for {len(self.certificate.leaves)} leaves, "
            f"output in [{self.certificate.output[0]:g}, "
            f"{self.certificate.output[1]:g}]"
            if self.certificate is not None
            else "no certificate"
        )
        return f"{report.summary()}; {certified}"


def verify_arena(
    compiled: CompiledArena,
    attributes: Sequence[str],
    feature_ranges: Optional[Sequence[Tuple[float, float]]] = None,
    smoothing_k: Optional[float] = None,
    target: str = "Y",
    invariants: Sequence[Invariant] = METRIC_INVARIANTS,
) -> VerificationResult:
    """Verify a compiled arena directly (the low-level entry point).

    Args:
        compiled: The arena under verification.
        attributes: Training attribute names (column order).
        feature_ranges: Per-feature training ``(min, max)``; enables
            dead-branch detection against the domain and certificate
            issuance.
        smoothing_k: Smoothing constant the model serves with, or
            ``None``.
        target: Target name recorded in the certificate.
        invariants: Counter-invariant table for infeasibility reasoning.
    """
    result = VerificationResult()
    result.diagnostics.extend(verify_structure(compiled))
    structural_errors = {
        d.rule_id for d in result.diagnostics
        if d.severity is Severity.ERROR
    }
    if structural_errors & {"VERIFY001", "VERIFY002"}:
        # The arena's arrays or its graph cannot be trusted; the
        # abstract layer's traversal would be meaningless over them.
        return result
    analysis = analyze(
        compiled,
        attributes=attributes,
        feature_ranges=feature_ranges,
        smoothing_k=smoothing_k,
        invariants=invariants,
    )
    result.diagnostics.extend(analysis.diagnostics)
    if analysis.has_ranges and analysis.leaves and result.ok:
        result.certificate = VerificationCertificate.from_leaves(
            attributes=attributes,
            target=target,
            smoothing_k=smoothing_k,
            leaves=analysis.leaves,
        )
    return result


def verify_model(model) -> VerificationResult:
    """Verify a fitted tree or forest end to end (the high-level entry
    point).

    Compilation failures become VERIFY001 diagnostics — the verifier's
    contract is findings, not exceptions, for any artifact state short
    of "never fitted".  A forest (a fitted
    :class:`~repro.baselines.bagging.BaggedM5`) goes through
    :func:`repro.verify.forest.verify_forest`: every member verified as
    a tree with ``tree[i]`` locations, then the FOREST00x checks.
    Forests are never certified.
    """
    if hasattr(model, "estimators_"):
        from repro.verify.forest import verify_forest

        return verify_forest(model)
    if model.root_ is None:
        raise NotFittedError("cannot verify an unfitted model")
    return verify_tree(model, model)


def verify_tree(tree: M5Prime, model) -> VerificationResult:
    """Compile one tree and verify it in ``model``'s context.

    ``model`` supplies the attribute names, training ranges, smoothing
    mode and target: it is the tree itself, or the forest the tree is a
    member of.
    """
    try:
        compiled = tree.compiled_
    except ReproError as exc:
        return VerificationResult(diagnostics=[Diagnostic(
            rule_id="VERIFY001", severity=Severity.ERROR,
            message=f"tree does not compile: {exc}",
        )])
    return verify_arena(
        compiled,
        attributes=model.attributes_,
        feature_ranges=model.feature_ranges_,
        smoothing_k=model.smoothing_k if model.smoothing else None,
        target=model.target_name_,
    )
