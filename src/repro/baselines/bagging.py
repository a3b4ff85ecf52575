"""Bagged model trees: an accuracy-oriented ensemble extension.

Bagging M5 trees (Breiman-style bootstrap aggregation) was the standard
way to trade the single tree's interpretability for accuracy in the
WEKA era.  It slots into the comparison as the "what if we didn't need
to read the model" upper bound that still uses the paper's learner.

Members are independent once their bootstrap draws are fixed, so the
ensemble pre-spawns one seed per member and can fit them in parallel
(``n_jobs``) with results identical to a serial fit.

**Ordering contract.** ``estimators_[i]`` is always the member fitted
from the ``i``-th spawned child seed, regardless of ``n_jobs`` or the
executor backend: ``_fit`` ships each member's index through the task
and asserts the returned sequence is ``0..n_estimators-1`` in order.
Arena compilation (:attr:`compiled_`, through
:func:`repro.serve.compiled.compile_tree`) walks members in this order,
so the arena's node and leaf-column offsets are deterministic across
serial and parallel fits.

Prediction routes through the cached compiled arena
(:attr:`compiled_`), bit-identical to the historical member-by-member
``np.vstack(...).mean(axis=0)`` walk; when a refinement pass
(:class:`repro.serve.refine.RefinedForest`) has attached
:attr:`refined_`, the per-leaf re-weighted predictor is served instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro._util import RandomState
from repro.baselines.base import RegressorBase
from repro.core.tree import M5Prime
from repro.errors import ConfigError, DataError, NotFittedError
from repro.parallel import parallel_map, spawn_seeds

if TYPE_CHECKING:
    from repro.serve.compiled import CompiledArena
    from repro.serve.refine import RefinedWeights


class _MemberTask:
    """Fit one bootstrap member (picklable for process pools).

    Takes ``(index, seed)`` and returns ``(index, member)`` so the
    ensemble can assert the ordering contract even if an executor
    backend ever stopped preserving input order.
    """

    def __init__(
        self, X: np.ndarray, y: np.ndarray, attributes, min_instances: int,
        sample_size: int,
    ) -> None:
        self.X = X
        self.y = y
        self.attributes = attributes
        self.min_instances = min_instances
        self.sample_size = sample_size

    def __call__(
        self, item: Tuple[int, np.random.SeedSequence]
    ) -> Tuple[int, M5Prime]:
        index, seed = item
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, self.X.shape[0], self.sample_size)
        member = M5Prime(min_instances=self.min_instances)
        member.fit(self.X[rows], self.y[rows], attribute_names=self.attributes)
        return index, member


class BaggedM5(RegressorBase):
    """Bootstrap-aggregated M5' trees (prediction = member mean).

    Args:
        n_estimators: Ensemble size.
        min_instances: Passed to each member tree.
        sample_fraction: Bootstrap sample size relative to the training
            set (sampling is with replacement).
        seed: Seed for the bootstrap draws.  Each member's draw comes
            from its own pre-spawned child seed, so the fitted ensemble
            does not depend on ``n_jobs``.
        n_jobs: Member-level parallelism — ``1`` serial, ``N`` workers,
            ``-1`` all cores, ``None`` defers to ``REPRO_JOBS``.

    The fitted ensemble is a sequence: ``len(forest)``, ``forest[i]``
    and iteration expose the members in the documented ``estimators_``
    order (see the module docstring for the ordering contract).
    """

    def __init__(
        self,
        n_estimators: int = 10,
        min_instances: int = 25,
        sample_fraction: float = 1.0,
        seed: RandomState = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ConfigError("n_estimators must be at least 1")
        if not 0.0 < sample_fraction <= 1.0:
            raise ConfigError("sample_fraction must lie in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.min_instances = int(min_instances)
        self.sample_fraction = float(sample_fraction)
        self.seed = seed
        self.n_jobs = n_jobs
        self.estimators_: List[M5Prime] = []
        self.feature_ranges_: Optional[Tuple[Tuple[float, float], ...]] = None
        self.refined_: Optional["RefinedWeights"] = None
        self._compiled_cache: Optional[Tuple[tuple, "CompiledArena"]] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n = X.shape[0]
        sample_size = max(2, int(round(n * self.sample_fraction)))
        seeds = spawn_seeds(self.seed, self.n_estimators)
        task = _MemberTask(
            X, y, self.attributes_, self.min_instances, sample_size
        )
        pairs = parallel_map(task, list(enumerate(seeds)), n_jobs=self.n_jobs)
        returned = [index for index, _ in pairs]
        # The ordering contract arena offsets depend on: member i comes
        # from spawned seed i, whatever the executor did.
        assert returned == list(range(self.n_estimators)), (
            f"member ordering violated: {returned}"
        )
        self.estimators_ = [member for _, member in pairs]
        # Ranges of the *full* training matrix (members only saw their
        # bootstrap draws) — this is what drift monitoring keys on.
        self.feature_ranges_ = tuple(
            (float(np.min(column)), float(np.max(column))) for column in X.T
        )
        self.refined_ = None
        self._compiled_cache = None

    # -- sequence protocol over fitted members -------------------------
    def __len__(self) -> int:
        return len(self.estimators_)

    def __getitem__(self, index: int) -> M5Prime:
        return self.estimators_[index]

    def __iter__(self) -> Iterator[M5Prime]:
        return iter(self.estimators_)

    # ------------------------------------------------------------------
    @property
    def smoothing(self) -> bool:
        """Whether members smooth (uniform across the ensemble)."""
        if not self.estimators_:
            return False
        return bool(self.estimators_[0].smoothing)

    @property
    def smoothing_k(self) -> float:
        if not self.estimators_:
            raise NotFittedError("ensemble has no fitted members")
        return self.estimators_[0].smoothing_k

    @property
    def n_leaves(self) -> int:
        """Total leaf count across members (= arena leaf columns)."""
        return int(sum(member.n_leaves for member in self.estimators_))

    @property
    def compiled_(self) -> "CompiledArena":
        """The ensemble's compiled arena, cached per fitted state.

        Raises:
            NotFittedError: The ensemble or one of its members is unfitted.
            DataError: A member disagrees with the ensemble's feature count.
            ConfigError: Members disagree on their smoothing configuration
                (the arena serves one ``smoothing_k`` for all trees).
        """
        members = self.estimators_
        if not members:
            raise NotFittedError("cannot compile an unfitted ensemble")
        key = tuple(id(member.root_) for member in members)
        if self._compiled_cache is None or self._compiled_cache[0] != key:
            n_features = len(self.attributes_)
            signature = (members[0].smoothing, members[0].smoothing_k)
            for index, member in enumerate(members):
                if member.root_ is None:
                    raise NotFittedError(f"forest member {index} is unfitted")
                if (member.smoothing, member.smoothing_k) != signature:
                    raise ConfigError(
                        f"forest member {index} smoothing configuration "
                        f"{(member.smoothing, member.smoothing_k)} disagrees "
                        f"with member 0 {signature}; a forest serves one "
                        "smoothing mode"
                    )
                if len(member.attributes_) != n_features:
                    raise DataError(
                        f"forest member {index} has "
                        f"{len(member.attributes_)} features but the "
                        f"ensemble carries {n_features}"
                    )
            from repro.serve.compiled import compile_tree

            roots = [member.root_ for member in members]
            self._compiled_cache = (key, compile_tree(roots, n_features))
        return self._compiled_cache[1]

    def _predict(self, X: np.ndarray) -> np.ndarray:
        smoothing_k = self.smoothing_k if self.smoothing else None
        compiled = self.compiled_
        if self.refined_ is not None:
            from repro.serve.refine import refined_predict

            return refined_predict(
                compiled, self.refined_, X, smoothing_k=smoothing_k
            )
        return compiled.predict(X, smoothing_k=smoothing_k)

    @property
    def mean_leaves_(self) -> float:
        """Average leaf count across members (ensemble complexity)."""
        if not self.estimators_:
            return 0.0
        return float(np.mean([member.n_leaves for member in self.estimators_]))
