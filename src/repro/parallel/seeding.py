"""Deterministic per-task seed derivation.

Parallel and serial runs can only be bit-identical when no task reads a
shared, sequentially-consumed random stream.  The rule throughout this
package is therefore: derive one child seed per task *up front* (in the
submission order, which is deterministic), then hand each task its own
:class:`numpy.random.SeedSequence`.  How many workers execute the tasks
— or in what order — can then no longer influence any draw.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro._util import RandomState

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def spawn_seeds(seed: SeedLike, n_tasks: int) -> List[np.random.SeedSequence]:
    """``n_tasks`` independent child seed sequences derived from ``seed``.

    An ``int`` or ``None`` seeds a fresh root sequence; an existing
    ``SeedSequence`` is spawned from directly; a ``Generator`` spawns
    from its internal bit generator's sequence, advancing the generator's
    spawn counter (not its stream), so repeated calls yield fresh,
    non-overlapping children.
    """
    if isinstance(seed, np.random.Generator):
        return list(seed.bit_generator.seed_seq.spawn(n_tasks))  # type: ignore[union-attr]
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(n_tasks))
    return list(np.random.SeedSequence(seed).spawn(n_tasks))


def derive_fold_seeds(
    rng: RandomState, n_folds: int
) -> List[Optional[np.random.SeedSequence]]:
    """Per-fold seeds for cross-validation.

    ``None`` inputs produce per-fold ``None`` (factories that ignore
    seeds stay untouched); everything else spawns proper children.
    """
    if rng is None:
        return [None] * n_folds
    return list(spawn_seeds(rng, n_folds))
