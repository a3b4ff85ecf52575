"""Store buffer and load-block detection.

Core 2 forwards store data to dependent loads through the store buffer.
Forwarding fails — blocking the load — in three counted situations the
paper's Table I tracks:

* ``LOAD_BLOCK.STA``: an older store's *address* is not yet known, so the
  load cannot disambiguate.
* ``LOAD_BLOCK.STD``: the address matches but the store's *data* is not
  ready.
* ``LOAD_BLOCK.OVERLAP_STORE``: the store only partially covers the load,
  so forwarding is architecturally impossible.

Every instruction is one tick of store-buffer time, and a load sees the
stores among the ``window`` instructions before it.  It is checked
against the newest of those whose 8-byte granule range overlaps its own,
mirroring the partial-address matching real store buffers perform.

All classification is one numpy look-back pass over a run of
instructions: :meth:`StoreBuffer.classify` runs it on a whole block (the
simulated core's path), and the scalar ``push_store``/``check_load``
run it on a single instruction.  Non-memory instructions only move the
clock.  In-window stores carry over from one call to the next.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.isa import KIND_LOAD, KIND_STORE, InstructionBlock

#: Store-to-load conflicts are detected at this granularity, mirroring the
#: partial-address matching real store buffers perform.
GRANULE_SHIFT = 3

#: Outcome codes returned by :meth:`StoreBuffer.check_load`.
NO_BLOCK = 0
BLOCK_STA = 1
BLOCK_STD = 2
BLOCK_OVERLAP = 3

_STORE = np.array([KIND_STORE])
_LOAD = np.array([KIND_LOAD])
_UNFLAGGED = np.zeros(1, dtype=bool)


def _granules(addr: np.ndarray, size: np.ndarray):
    """First and last granule accesses of ``size`` bytes at ``addr`` touch."""
    return addr >> GRANULE_SHIFT, (addr + np.maximum(size, 1) - 1) >> GRANULE_SHIFT


class StoreBuffer:
    """Sliding-window store buffer for load-block classification."""

    __slots__ = ("window", "_stores", "_seq")

    def __init__(self, window: int = 32) -> None:
        self.window = int(window)
        # Carried stores, oldest first, one ``(seq, addr, size, sta, std)``
        # row each.  A store pushed at time ``seq`` is in the window while
        # ``seq >= now - window``; since ``advance`` only moves the clock,
        # rows that aged out after the last replay linger until the next.
        self._stores = np.empty((0, 5), dtype=np.int64)
        self._seq = 0

    def push_store(self, addr: int, size: int, sta: bool, std: bool) -> None:
        """Record a store; newer stores shadow older ones per granule."""
        self._replay(
            _STORE, np.array([addr]), np.array([size]), np.array([sta]), np.array([std])
        )

    def check_load(self, addr: int, size: int) -> int:
        """Classify a load against in-flight stores; advances time.

        Returns one of ``NO_BLOCK``, ``BLOCK_STA``, ``BLOCK_STD``,
        ``BLOCK_OVERLAP``.
        """
        codes = self._replay(
            _LOAD, np.array([addr]), np.array([size]), _UNFLAGGED, _UNFLAGGED
        )
        return int(codes[0])

    def advance(self, instructions: int = 1) -> None:
        """Advance time for non-memory instructions (ages the window)."""
        self._seq += instructions

    def classify(self, block: InstructionBlock) -> np.ndarray:
        """Replay a whole block; return each instruction's outcome code.

        Equivalent to ``check_load`` for every load, ``push_store`` for
        every store and ``advance(1)`` for everything else, in program
        order, so time advances by ``len(block)``.  Non-loads get
        ``NO_BLOCK``.
        """
        return self._replay(block.kind, block.addr, block.size, block.sta, block.std)

    def _replay(self, kind, addr, size, sta, std) -> np.ndarray:
        """Classify a run of instructions given as columns (see :meth:`classify`).

        Instruction ``i`` runs at time ``start + i + 1``; stores carried in
        from earlier calls sit at negative indices before it.
        """
        n = kind.shape[0]
        window = self.window
        start = self._seq
        # Carried stores that have since aged out of the window fall
        # outside every load's look-back and are not kept below.
        history = self._stores
        stores = np.flatnonzero(kind == KIND_STORE)
        # Every store that can be seen, in time order.
        position = np.concatenate((history[:, 0] - start - 1, stores))
        addr_all = np.concatenate((history[:, 1], addr[stores]))
        size_all = np.concatenate((history[:, 2], size[stores]))
        sta_all = np.concatenate((history[:, 3], sta[stores]))
        std_all = np.concatenate((history[:, 4], std[stores]))

        codes = np.zeros(n, dtype=np.int8)
        loads = np.flatnonzero(kind == KIND_LOAD)
        # Stores in ``[oldest, newest)`` lie in a load's window.
        newest = np.searchsorted(position, loads)
        oldest = np.searchsorted(position, loads - window)
        depth = int((newest - oldest).max()) if loads.size else 0
        if depth:
            # Column c holds each load's c-th newest in-window store.
            candidate = newest[:, None] - 1 - np.arange(depth)
            in_window = candidate >= oldest[:, None]
            candidate[~in_window] = 0
            first, last = _granules(addr_all, size_all)
            load_addr = addr[loads]
            load_size = size[loads]
            load_first, load_last = _granules(load_addr, load_size)
            overlap = (
                in_window
                & (first[candidate] <= load_last[:, None])
                & (last[candidate] >= load_first[:, None])
            )
            found = np.flatnonzero(overlap.any(axis=1))
            source = candidate[found, overlap[found].argmax(axis=1)]
            covered = (addr_all[source] <= load_addr[found]) & (
                addr_all[source] + size_all[source]
                >= load_addr[found] + load_size[found]
            )
            codes[loads[found]] = np.where(
                sta_all[source] != 0,
                BLOCK_STA,
                np.where(
                    ~covered,
                    BLOCK_OVERLAP,
                    np.where(std_all[source] != 0, BLOCK_STD, NO_BLOCK),
                ),
            )

        # Carry the stores still in the window at the end of the run.
        self._seq = start + n
        keep = position >= n - 1 - window
        self._stores = np.column_stack(
            (position + start + 1, addr_all, size_all, sta_all, std_all)
        )[keep]
        return codes

    def clear(self) -> None:
        self._stores = self._stores[:0]

    @property
    def occupancy(self) -> int:
        """Distinct granules currently tracked (post-expiry)."""
        live = self._stores[self._stores[:, 0] >= self._seq - self.window]
        first, last = _granules(live[:, 1], live[:, 2])
        covered = set()
        for low, high in zip(first.tolist(), last.tolist()):
            covered.update(range(low, high + 1))
        return len(covered)
