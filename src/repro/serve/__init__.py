"""Model serving: compiled inference, registry, batching server, metrics.

The training stack (``repro.core``) grows trees; this package answers
with them at interactive latency:

* :mod:`repro.serve.compiled` — one arena type for a fitted tree
  (``n_trees == 1``) or a whole :class:`BaggedM5` ensemble: contiguous
  arrays with per-tree offsets, every tree batch-predicted in a single
  pass, bit-identical to the interpreted walk, plus the CSR
  leaf-indicator matrix (``M5Prime.predict`` and ``BaggedM5.predict``
  route through it).
* :mod:`repro.serve.refine` — RefinedRandomForest-style global leaf
  re-weighting with iterative prune-and-refit over the indicator
  matrix; the refined predictor stays per-leaf inspectable.
* :mod:`repro.serve.registry` — named, versioned, integrity-checked
  model storage (``cpi-tree@latest``) on the artifact cache; publishing
  is gated by the static verifier (:mod:`repro.verify`) and stores the
  verification certificate beside each blob.
* :mod:`repro.serve.batching` — request coalescing with per-request
  deadlines.
* :mod:`repro.serve.server` — the stdlib HTTP surface
  (``/predict``, ``/explain``, ``/models``, ``/healthz``, ``/metrics``).
* :mod:`repro.serve.drift` — online out-of-range, non-finite-input,
  invariant, and certified-prediction-bound monitoring of scored
  traffic.
* :mod:`repro.serve.check` — the ``repro serve --check`` preflight
  (including static verification of every resolved artifact).
"""

from repro.serve.batching import BatchQueue
from repro.serve.check import CheckResult, preflight, render_preflight
from repro.serve.compiled import CompiledArena, LeafIndicator, compile_tree
from repro.serve.drift import DriftMonitor
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.refine import RefinedForest, RefinedWeights, refined_predict
from repro.serve.registry import ModelRecord, ModelRegistry, parse_spec
from repro.serve.server import SCHEMA, ModelServer

__all__ = [
    "BatchQueue",
    "CheckResult",
    "CompiledArena",
    "Counter",
    "DriftMonitor",
    "Gauge",
    "Histogram",
    "LeafIndicator",
    "MetricsRegistry",
    "ModelRecord",
    "ModelRegistry",
    "ModelServer",
    "RefinedForest",
    "RefinedWeights",
    "SCHEMA",
    "compile_tree",
    "parse_spec",
    "preflight",
    "refined_predict",
    "render_preflight",
]
