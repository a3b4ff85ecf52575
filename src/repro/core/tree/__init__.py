"""M5' model trees, implemented from scratch.

The pipeline follows Quinlan's M5 as re-implemented by Wang & Witten
(the WEKA "M5'" the paper uses):

1. **Grow** (:mod:`repro.core.tree.builder`): recursively split on the
   attribute/threshold pair maximizing standard-deviation reduction,
   stopping at a minimum population or when node spread is a small
   fraction of the global spread.
2. **Model** (:mod:`repro.core.tree.linear`): fit a linear model at every
   node, then greedily drop terms under the (n+v)/(n-v) pessimistic
   error correction so leaf equations stay small and interpretable.
3. **Prune** (:mod:`repro.core.tree.pruning`): bottom-up, replace a
   subtree by its node model whenever the model's estimated error is no
   worse than the subtree's.
4. **Smooth** (:mod:`repro.core.tree.smoothing`, optional): blend leaf
   predictions with ancestor models along the path to the root.
"""

from repro.core.tree.linear import (
    LinearModel,
    fit_linear_model,
    select_uncorrelated,
    simplify_model,
)
from repro.core.tree.node import LeafNode, Node, SplitNode
from repro.core.tree.splitting import Split, find_best_split
from repro.core.tree.builder import TreeBuilder
from repro.core.tree.pruning import prune_tree
from repro.core.tree.smoothing import smoothed_predict
from repro.core.tree.m5 import M5Prime
from repro.core.tree.render import render_models, render_tree
from repro.core.tree.serialize import (
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.tree.dot import render_dot

__all__ = [
    "LeafNode",
    "LinearModel",
    "M5Prime",
    "Node",
    "Split",
    "SplitNode",
    "TreeBuilder",
    "find_best_split",
    "load_model",
    "loads_model",
    "model_from_dict",
    "model_to_dict",
    "fit_linear_model",
    "prune_tree",
    "render_dot",
    "render_models",
    "render_tree",
    "save_model",
    "select_uncorrelated",
    "simplify_model",
    "smoothed_predict",
]
