"""Static verification of compiled model artifacts.

A bytecode-verifier analogue for M5' trees: the compiled arena
(:class:`~repro.serve.compiled.CompiledArena`) is treated as an IR and
proved well-formed — and its semantics bounded — *before* it serves
traffic, without running a single prediction.

Two layers (the ``VERIFY001``–``VERIFY008`` rule family):

* **Structural** (:mod:`repro.verify.structural`): index bounds, CSR
  layout, single-parent/acyclic/fully-reachable graph shape, leaf-id
  bijection, finite thresholds and coefficients.
* **Abstract interpretation** (:mod:`repro.verify.abstract`): per-path
  interval boxes detect dead branches (against the training domain and
  the Table I counter invariants), uncovered or overlapping input
  regions, pinned-feature coefficients, and per-leaf output bounds
  through the smoothing chain.

A clean run over a range-carrying model yields a
:class:`~repro.verify.certificate.VerificationCertificate` — feasible
box plus output interval per leaf — which the registry stores beside
the blob, the drift monitor enforces online, and the conformance
harness cross-checks empirically.

:func:`verify_model` also accepts a forest: the full single-tree
verifier over every member with ``tree[i]``-prefixed locations, then
arena-offset and leaf-column-bijection checks plus refined-weight
audits (the ``FOREST00x`` ids the lint family reports).  Forests are
never certified.

Usage::

    from repro.verify import verify_model
    result = verify_model(model)
    assert result.ok, result.summary()
    certificate = result.certificate    # None without feature_ranges_
"""

from repro.verify.abstract import AbstractAnalysis, LeafAnalysis, analyze
from repro.verify.certificate import (
    CERTIFICATE_SCHEMA,
    LeafCertificate,
    VerificationCertificate,
)
from repro.verify.intervals import (
    Box,
    Interval,
    OUTPUT_SLACK,
    full_box,
    linear_model_interval,
    smooth_interval,
    widen,
)
from repro.verify.runner import (
    N_VERIFY_RULES,
    VerificationResult,
    verify_arena,
    verify_model,
)
from repro.verify.structural import reachable_nodes, verify_structure

__all__ = [
    "AbstractAnalysis",
    "Box",
    "CERTIFICATE_SCHEMA",
    "Interval",
    "LeafAnalysis",
    "LeafCertificate",
    "N_VERIFY_RULES",
    "OUTPUT_SLACK",
    "VerificationCertificate",
    "VerificationResult",
    "analyze",
    "full_box",
    "linear_model_interval",
    "reachable_nodes",
    "smooth_interval",
    "verify_arena",
    "verify_model",
    "verify_structure",
    "widen",
]
