"""Tree node structures shared by growing, pruning and prediction."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.tree.linear import LinearModel
from repro.errors import ReproError


class Node:
    """Common state of every tree node.

    Attributes:
        n_instances: Training instances that reached this node.
        sd: Population standard deviation of their targets.
        mean: Mean of their targets.
        model: The (simplified) linear model fitted at this node.
        estimated_error: Pessimistic error used by pruning; set during the
            pruning pass.
        leaf_id: 1-based identifier assigned to leaves after pruning
            (``LM1`` .. ``LMk`` in the paper's notation); 0 elsewhere.
    """

    __slots__ = ("n_instances", "sd", "mean", "model", "estimated_error", "leaf_id")

    def __init__(self, n_instances: int, sd: float, mean: float) -> None:
        self.n_instances = int(n_instances)
        self.sd = float(sd)
        self.mean = float(mean)
        self.model: Optional[LinearModel] = None
        self.estimated_error: float = float("inf")
        self.leaf_id: int = 0

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError

    def iter_nodes(self) -> Iterator["Node"]:
        """Depth-first, pre-order iteration over the subtree."""
        yield self

    def leaves(self) -> List["LeafNode"]:
        return [node for node in self.iter_nodes() if node.is_leaf]  # type: ignore[list-item]

    def splits(self) -> List["SplitNode"]:
        """All interior (split) nodes of the subtree, pre-order."""
        return [node for node in self.iter_nodes() if not node.is_leaf]  # type: ignore[list-item]

    def depth(self) -> int:
        """Longest root-to-leaf edge count in this subtree."""
        return 0

    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())


class LeafNode(Node):
    """A terminal node carrying a linear model."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"LeafNode(LM{self.leaf_id}, n={self.n_instances})"


class SplitNode(Node):
    """An interior node testing ``attribute <= threshold``."""

    __slots__ = ("attribute_index", "attribute_name", "threshold", "left", "right")

    def __init__(
        self,
        n_instances: int,
        sd: float,
        mean: float,
        attribute_index: int,
        attribute_name: str,
        threshold: float,
        left: Node,
        right: Node,
    ) -> None:
        super().__init__(n_instances, sd, mean)
        self.attribute_index = int(attribute_index)
        self.attribute_name = str(attribute_name)
        self.threshold = float(threshold)
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return False

    def child_for(self, x: np.ndarray) -> Node:
        """The branch instance ``x`` follows (left iff value <= threshold)."""
        return self.left if x[self.attribute_index] <= self.threshold else self.right

    def iter_nodes(self) -> Iterator[Node]:
        yield self
        yield from self.left.iter_nodes()
        yield from self.right.iter_nodes()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def __repr__(self) -> str:
        return (
            f"SplitNode({self.attribute_name} <= {self.threshold:.6g}, "
            f"n={self.n_instances})"
        )


def route(root: Node, x: np.ndarray) -> LeafNode:
    """Walk ``x`` from ``root`` to its leaf."""
    node = root
    while not node.is_leaf:
        node = node.child_for(x)  # type: ignore[attr-defined]
    if not isinstance(node, LeafNode):
        raise ReproError("routing ended on a non-leaf node")
    return node


def path_to_leaf(root: Node, x: np.ndarray) -> List[Node]:
    """All nodes visited routing ``x``, root first, leaf last."""
    node = root
    path = [node]
    while not node.is_leaf:
        node = node.child_for(x)  # type: ignore[attr-defined]
        path.append(node)
    return path


#: Feasible interval per split attribute: ``attribute_index -> (low, high)``.
#: An instance reaches the node iff ``low < x[attribute_index] <= high``
#: for every constrained attribute (splits test ``x <= threshold``).
Bounds = Dict[int, Tuple[float, float]]


def iter_nodes_with_bounds(
    root: Node, bounds: Optional[Bounds] = None
) -> Iterator[Tuple[Node, Bounds]]:
    """Pre-order traversal yielding each node with its ancestor constraints.

    The bounds describe the region of attribute space that can reach the
    node given the split tests *above* it (the node's own split is not
    included).  A node whose interval is empty for some attribute
    (``high <= low``) is unreachable: no instance can satisfy the
    contradictory thresholds along its root path.  This is the path
    metadata the lint rules (:mod:`repro.lint`) walk.
    """
    if bounds is None:
        bounds = {}
    yield root, bounds
    if isinstance(root, SplitNode):
        index = root.attribute_index
        low, high = bounds.get(index, (float("-inf"), float("inf")))
        left_bounds = dict(bounds)
        left_bounds[index] = (low, min(high, root.threshold))
        right_bounds = dict(bounds)
        right_bounds[index] = (max(low, root.threshold), high)
        yield from iter_nodes_with_bounds(root.left, left_bounds)
        yield from iter_nodes_with_bounds(root.right, right_bounds)


def assign_leaf_ids(root: Node) -> int:
    """Number leaves left-to-right starting at 1; returns the leaf count.

    Matches the paper's ``LM1`` .. ``LMk`` naming, where LM1 is the
    leftmost (all-splits-low) class.
    """
    counter = 0
    for node in root.iter_nodes():
        if node.is_leaf:
            counter += 1
            node.leaf_id = counter
        else:
            node.leaf_id = 0
    return counter
