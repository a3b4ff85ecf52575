"""Host speed references for CPU-bound times.

The shared host this benchmark runs on changes speed by tens of percent
over minutes, which moves every CPU-bound time with it.  Two references
take that speed out, and a faster program still reads faster:

* set-up: each worker times a fixed pure-Python loop right after its
  set-up, and run.py reports ``setup_s`` scaled by
  ``NOMINAL_S / reference``;
* batch jobs: a job outlasts any loop timed next to it, so a
  :class:`Monitor` child process, pinned to the job's CPU, times a small
  unit of the same loop every ``PERIOD_S`` while the job runs.  The job
  time is scaled by ``NOMINAL_UNIT_S`` over the median CPU time of a unit
  during the job.  Measured on the host, that ratio spread 0.06–0.08 of
  its median over 10–15 s windows against 0.15–0.16 for the raw time.

Run as ``python3 -m perfbench.hostspeed CPU PATH``, this module is the
monitor's child: it samples until SIGTERM, then writes its samples to
``PATH`` as JSON ``[[monotonic start, cpu seconds], ...]``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

from perfbench import stats

#: One reference round's time on a host of the reference speed.
NOMINAL_S = 0.1
ROUNDS = 8
_ROUND_ITERATIONS = 300_000
#: One monitor unit's CPU time on a host of the reference speed.
NOMINAL_UNIT_S = 0.005
_UNIT_ITERATIONS = 20_000
PERIOD_S = 0.05


def _work(iterations: int) -> int:
    table: dict = {}
    total = 0
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + (i ^ key)
        total += table[key] >> 3
    return total


def reference_s(rounds: int = ROUNDS, clock: Callable[[], float] = time.perf_counter,
                work: Callable[[], object] = lambda: _work(_ROUND_ITERATIONS)) -> float:
    """Median time of one round of the reference loop."""
    times = []
    for _ in range(rounds):
        start = clock()
        work()
        times.append(clock() - start)
    return stats.median(times)


def at_reference_speed(seconds: float, reference: float, nominal: float = NOMINAL_S) -> float:
    """``seconds`` measured while the reference took ``reference``."""
    return seconds * nominal / reference


def unit_cpu_s(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Median CPU time of the monitor units that started in ``[start, end]``."""
    inside = [cpu for began, cpu in samples if start <= began <= end]
    if not inside:
        raise ValueError("no host speed samples in the window")
    return stats.median(inside)


class Monitor:
    """Pins this process to one CPU and samples that CPU's speed from a
    child process while the ``with`` block runs; ``samples`` holds them
    afterwards."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "Monitor":
        self._cpus = os.sched_getaffinity(0)
        cpu = min(self._cpus)
        os.sched_setaffinity(0, {cpu})
        self._child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed", str(cpu), str(self.path)]
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._child.send_signal(signal.SIGTERM)
            self._child.wait(timeout=30)
            self.samples = [tuple(s) for s in json.loads(self.path.read_text())]
        finally:
            if self._child.poll() is None:
                self._child.kill()
                self._child.wait()
            os.sched_setaffinity(0, self._cpus)


def _sample(cpu: int, path: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    stopping: list = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    samples = []
    while not stopping:
        began, cpu_start = time.monotonic(), time.thread_time()
        _work(_UNIT_ITERATIONS)
        samples.append((began, time.thread_time() - cpu_start))
        time.sleep(PERIOD_S)
    path.write_text(json.dumps(samples))


if __name__ == "__main__":
    _sample(int(sys.argv[1]), Path(sys.argv[2]))
