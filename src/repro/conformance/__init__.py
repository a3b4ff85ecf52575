"""Conformance harness: oracle differential testing, metamorphic
relations and loader fuzzing for the M5' implementation.

Three independent evidence streams, one report shape:

* :mod:`repro.conformance.differential` — a deliberately naive
  reference implementation (:class:`ReferenceM5Prime`) fitted against
  the optimized production pipeline on a seeded corpus, asserting *bit
  identity* of trees, predictions and leaf assignment.
* :mod:`repro.conformance.metamorphic` — algebraic relations (row and
  feature permutation, affine target scaling, dataset duplication,
  min-leaf monotonicity) the algorithm must satisfy independent of any
  oracle.
* :mod:`repro.conformance.fuzz` — deterministic mutation fuzzing of the
  ARFF/CSV/model-JSON parsers, holding them to their one-failure-mode
  (:class:`~repro.errors.ParseError`) contract.
* :mod:`repro.conformance.certified` — every corpus-fitted model must
  pass the static verifier (:mod:`repro.verify`) and keep 10k uniform
  in-domain predictions inside its certified per-leaf intervals.
* the ``reference_*`` node-model functions in
  :mod:`repro.conformance.oracle` — the straight-line collinearity
  filter, fit, term dropping and opposed-pair resolution that the node
  state in :mod:`repro.core.tree.linear` must match bit for bit;
  :class:`ReferenceM5Prime` fits with them, so CONF001 checks it.
* :func:`repro.conformance.oracle.reference_run_block` — the
  per-instruction trace replay that
  :meth:`~repro.simulator.core.SimulatedCore.run_block` must match bit
  for bit (flags, counts, cycles, component state).
* :mod:`repro.conformance.fastsim` — differential drift gates (FAST00x)
  bounding the fast suite engine's CPI error against the trace oracle
  on a seeded corpus; tolerance-based, never bit-identical, because the
  fast path is an approximation by contract.
"""

from repro.conformance.certified import run_certified
from repro.conformance.corpus import ConformanceCase, build_corpus
from repro.conformance.differential import run_case, run_differential
from repro.conformance.fastsim import (
    FastsimTolerance,
    corpus_profiles,
    run_fastsim,
)
from repro.conformance.fuzz import FuzzCrash, FuzzResult, run_fuzz
from repro.conformance.metamorphic import run_metamorphic
from repro.conformance.oracle import ReferenceM5Prime
from repro.conformance.report import ConformanceReport
from repro.conformance.structure import diff_trees, tree_skeleton, trees_identical

__all__ = [
    "ConformanceCase",
    "ConformanceReport",
    "FastsimTolerance",
    "FuzzCrash",
    "FuzzResult",
    "ReferenceM5Prime",
    "build_corpus",
    "corpus_profiles",
    "diff_trees",
    "run_case",
    "run_certified",
    "run_differential",
    "run_fastsim",
    "run_fuzz",
    "run_metamorphic",
    "tree_skeleton",
    "trees_identical",
]
