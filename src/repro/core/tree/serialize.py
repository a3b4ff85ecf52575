"""Model persistence: fitted M5' trees and forests to and from JSON.

A trained performance model is an artifact worth shipping (the paper's
MATLAB prototype embedded one); this module serializes the complete
tree — structure, thresholds, node statistics and linear models — to a
versioned JSON document, so a model trained once can classify sections
in another process without retraining.

There is one tree format, ``repro-m5prime``.  A bagged ensemble
(:class:`~repro.baselines.bagging.BaggedM5`) is a ``repro-forest``
document that nests one ``repro-m5prime`` document per member, in
``estimators_`` order (the arena-offset contract), under an envelope
carrying the ensemble parameters, the full-training-matrix
``feature_ranges`` and, when a refinement pass has run, the per-leaf
``refined`` weights.  Its top-level ``attributes`` and ``target`` mirror
the tree schema, so registry tooling audits both kinds the same way.

:func:`model_from_dict` — and with it :func:`load_model` and
:func:`loads_model` — dispatches on the ``format`` key, so the artifact
cache, the registry and ``repro verify --model`` load either kind with
no out-of-band type tag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.tree.linear import LinearModel
from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import LeafNode, Node, SplitNode, assign_leaf_ids
from repro.errors import ConfigError, DataError, NotFittedError, ParseError

PathLike = Union[str, Path]

#: Bump when the on-disk layout changes incompatibly.  A forest nests
#: tree documents, so one version covers both formats.
FORMAT_VERSION = 1


def model_to_dict(model) -> Dict[str, Any]:
    """Serialize a fitted tree or forest to JSON-compatible structures."""
    if hasattr(model, "estimators_"):
        return _forest_to_dict(model)
    if model.root_ is None:
        raise NotFittedError("cannot serialize an unfitted model")
    return {
        "format": "repro-m5prime",
        "version": FORMAT_VERSION,
        "attributes": list(model.attributes_),
        "target": model.target_name_,
        "params": {
            "min_instances": model.min_instances,
            "sd_fraction": model.sd_fraction,
            "prune": model.prune,
            "smoothing": model.smoothing,
            "smoothing_k": model.smoothing_k,
            "model_attributes": model.model_attributes,
            "simplify": model.simplify,
            "collinearity_threshold": model.collinearity_threshold,
            "ridge": model.ridge,
            "nonnegative_attributes": (
                list(model.nonnegative_attributes)
                if model.nonnegative_attributes
                else None
            ),
        },
        "feature_ranges": _ranges_to_list(model.feature_ranges_),
        "tree": _node_to_dict(model.root_),
    }


def _forest_to_dict(forest) -> Dict[str, Any]:
    members = list(forest.estimators_)
    if not members:
        raise NotFittedError("cannot serialize an unfitted forest")
    refined = forest.refined_
    return {
        "format": "repro-forest",
        "version": FORMAT_VERSION,
        "n_trees": len(members),
        "attributes": list(forest.attributes_),
        "target": forest.target_name_,
        "params": {
            "n_estimators": forest.n_estimators,
            "min_instances": forest.min_instances,
            "sample_fraction": forest.sample_fraction,
            "seed": forest.seed if isinstance(forest.seed, int) else 0,
        },
        "feature_ranges": _ranges_to_list(forest.feature_ranges_),
        "trees": [model_to_dict(member) for member in members],
        "refined": (
            None
            if refined is None
            else {
                "ridge": refined.ridge,
                "prune_pct": refined.prune_pct,
                "n_prunings": refined.n_prunings,
                "train_mae": refined.train_mae,
                "weights": [float(w) for w in refined.weights],
                "active": [int(a) for a in refined.active],
            }
        ),
    }


def _ranges_to_list(
    ranges: Optional[Sequence[Tuple[float, float]]],
) -> Optional[List[List[float]]]:
    return None if ranges is None else [[low, high] for low, high in ranges]


def _node_to_dict(node: Node) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "n_instances": node.n_instances,
        "sd": node.sd,
        "mean": node.mean,
        "model": _model_payload(node),
    }
    if node.is_leaf:
        payload["kind"] = "leaf"
    else:
        assert isinstance(node, SplitNode)
        payload["kind"] = "split"
        payload["attribute_index"] = node.attribute_index
        payload["attribute_name"] = node.attribute_name
        payload["threshold"] = node.threshold
        payload["left"] = _node_to_dict(node.left)
        payload["right"] = _node_to_dict(node.right)
    return payload


def _model_payload(node: Node) -> Dict[str, Any]:
    linear = node.model
    if linear is None:
        raise NotFittedError("tree node lacks a linear model")
    return {
        "intercept": linear.intercept,
        "indices": list(linear.indices),
        "names": list(linear.names),
        "coefficients": list(linear.coefficients),
        "n_training": linear.n_training,
        "training_error": linear.training_error,
    }


def model_from_dict(payload: Dict[str, Any]):
    """Rebuild a fitted tree or forest from :func:`model_to_dict` output.

    Dispatches on ``format``.  Every malformed document raises
    :class:`ParseError`: an unknown format or version, a missing or
    mistyped key, stored parameters the model's constructor refuses,
    and — for forests — structural lies about the ensemble (a ``trees``
    list disagreeing with ``n_trees``, members whose attributes disagree
    with the envelope, refined vectors whose length does not match the
    total leaf count).
    """
    kind = payload.get("format") if isinstance(payload, dict) else None
    if kind == "repro-m5prime":
        build = _tree_from_dict
    elif kind == "repro-forest":
        build = _forest_from_dict
    else:
        raise ParseError(
            f"unknown model format {kind!r} (expected repro-m5prime or "
            "repro-forest)"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise ParseError(
            f"unsupported {kind} format version {payload.get('version')!r}"
        )
    try:
        return build(payload)
    except (
        KeyError, TypeError, ValueError, OverflowError, ConfigError, DataError
    ) as exc:
        raise ParseError(f"malformed {kind} document: {exc}") from None
    except RecursionError:
        raise ParseError(
            f"malformed {kind} document: tree nesting exceeds the "
            "recursion limit"
        ) from None


def _tree_from_dict(payload: Dict[str, Any]) -> M5Prime:
    model = M5Prime(**payload["params"])
    model.attributes_ = tuple(payload["attributes"])
    model.target_name_ = str(payload["target"])
    model.feature_ranges_ = _ranges_from_dict(payload, model.attributes_)
    model.root_ = _node_from_dict(payload["tree"])
    assign_leaf_ids(model.root_)
    return model


def _forest_from_dict(payload: Dict[str, Any]):
    from repro.baselines.bagging import BaggedM5

    declared = int(payload["n_trees"])
    trees = payload["trees"]
    if not isinstance(trees, list) or len(trees) != declared:
        found = len(trees) if isinstance(trees, list) else trees
        raise ParseError(
            f"tree-count mismatch: document declares {declared} trees "
            f"but carries {found!r}"
        )
    if declared < 1:
        raise ParseError("a forest needs at least one tree")
    params = payload["params"]
    forest = BaggedM5(
        n_estimators=int(params["n_estimators"]),
        min_instances=int(params["min_instances"]),
        sample_fraction=float(params["sample_fraction"]),
        seed=int(params["seed"]),
    )
    forest.attributes_ = tuple(payload["attributes"])
    forest.target_name_ = str(payload["target"])
    for index, document in enumerate(trees):
        member = model_from_dict(document)
        if not isinstance(member, M5Prime):
            raise ParseError(f"tree {index} is not a repro-m5prime document")
        if member.attributes_ != forest.attributes_:
            raise ParseError(
                f"tree {index} attributes disagree with the forest envelope"
            )
        forest.estimators_.append(member)
    forest.feature_ranges_ = _ranges_from_dict(payload, forest.attributes_)
    refined = payload.get("refined")
    if refined is not None:
        from repro.serve.refine import RefinedWeights

        n_leaves = sum(member.n_leaves for member in forest.estimators_)
        weights = np.asarray([float(w) for w in refined["weights"]])
        active = np.asarray([bool(a) for a in refined["active"]], dtype=bool)
        if weights.shape[0] != n_leaves or active.shape[0] != n_leaves:
            raise ParseError(
                f"refined-weights offset mismatch: {weights.shape[0]} "
                f"weights / {active.shape[0]} active flags for "
                f"{n_leaves} forest leaves"
            )
        forest.refined_ = RefinedWeights(
            weights=weights,
            active=active,
            ridge=float(refined["ridge"]),
            prune_pct=float(refined["prune_pct"]),
            n_prunings=int(refined["n_prunings"]),
            train_mae=float(refined["train_mae"]),
        )
    forest.fitted_ = True
    return forest


def _ranges_from_dict(
    payload: Dict[str, Any], attributes: Tuple[str, ...]
) -> Optional[Tuple[Tuple[float, float], ...]]:
    ranges = payload.get("feature_ranges")
    if ranges is None:
        return None
    if len(ranges) != len(attributes):
        raise ParseError(
            f"feature_ranges has {len(ranges)} entries for "
            f"{len(attributes)} attributes"
        )
    return tuple((float(low), float(high)) for low, high in ranges)


def _node_from_dict(payload: Dict[str, Any]) -> Node:
    kind = payload["kind"]
    if kind == "leaf":
        node: Node = LeafNode(
            payload["n_instances"], payload["sd"], payload["mean"]
        )
    elif kind == "split":
        node = SplitNode(
            n_instances=payload["n_instances"],
            sd=payload["sd"],
            mean=payload["mean"],
            attribute_index=payload["attribute_index"],
            attribute_name=payload["attribute_name"],
            threshold=payload["threshold"],
            left=_node_from_dict(payload["left"]),
            right=_node_from_dict(payload["right"]),
        )
    else:
        raise ParseError(f"unknown node kind {kind!r}")
    linear = payload["model"]
    node.model = LinearModel(
        intercept=float(linear["intercept"]),
        indices=tuple(int(i) for i in linear["indices"]),
        names=tuple(str(n) for n in linear["names"]),
        coefficients=tuple(float(c) for c in linear["coefficients"]),
        n_training=int(linear["n_training"]),
        training_error=float(linear["training_error"]),
    )
    return node


def save_model(model, path: PathLike) -> None:
    """Write a fitted tree or forest to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=1)


def load_model(path: PathLike):
    """Read a fitted tree or forest from a JSON file.

    Malformed files — invalid JSON, missing keys, an unknown format or
    version — raise :class:`repro.errors.ParseError` naming the
    offending path, never a raw ``KeyError``/``JSONDecodeError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text: {exc}") from None
    return loads_model(text, source=str(path))


def loads_model(text: str, source: Optional[str] = None):
    """Parse a model JSON string (:func:`load_model` without the file).

    ``source`` is prefixed to every error message when given.
    """
    prefix = f"{source}: " if source else ""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{prefix}invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(
            f"{prefix}invalid JSON: nesting exceeds the recursion limit"
        ) from None
    if not isinstance(payload, dict):
        raise ParseError(f"{prefix}expected a JSON object at top level")
    try:
        return model_from_dict(payload)
    except ParseError as exc:
        if prefix:
            raise ParseError(prefix + str(exc)) from None
        raise
