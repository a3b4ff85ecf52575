"""Gshare branch direction predictor.

A global-history predictor with 2-bit saturating counters, the standard
stand-in for the (undisclosed) Core 2 direction predictor.  Biased
branches train quickly; pattern-free branches mispredict near 50 % —
which is exactly the knob the workload generator turns to produce the
``BrMisPr`` spectrum the paper's tree splits on.
"""

from __future__ import annotations

from repro.errors import ConfigError


class GsharePredictor:
    """Gshare: table of 2-bit counters indexed by PC xor global history.

    :meth:`repro.simulator.core.SimulatedCore.run_block` applies
    :meth:`access` inline to a block's branches, on ``_table``,
    ``_history`` and ``_mask``.
    """

    __slots__ = ("history_bits", "_mask", "_table", "_history", "correct", "incorrect")

    def __init__(self, history_bits: int = 12) -> None:
        if not 1 <= history_bits <= 24:
            raise ConfigError(f"history_bits must lie in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        # Counters start weakly taken (2 on the 0..3 scale).
        self._table = bytearray([2]) * (1 << history_bits)
        self._history = 0
        self.correct = 0
        self.incorrect = 0

    def access(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, learn ``taken``, return correctness."""
        index = ((pc >> 2) ^ self._history) & self._mask
        counter = self._table[index]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask
        if predicted == taken:
            self.correct += 1
            return True
        self.incorrect += 1
        return False

    def reset(self) -> None:
        """Clear learned state and statistics."""
        self._table = bytearray([2]) * (1 << self.history_bits)
        self._history = 0
        self.correct = 0
        self.incorrect = 0

    @property
    def accesses(self) -> int:
        return self.correct + self.incorrect

    @property
    def mispredict_rate(self) -> float:
        total = self.accesses
        return self.incorrect / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"GsharePredictor(history_bits={self.history_bits}, "
            f"mispredict_rate={self.mispredict_rate:.3f})"
        )
