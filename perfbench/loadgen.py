"""HTTP load generation and ``/metrics`` scraping for the serving workload.

Open loop: request ``i`` of a step is due ``i / rate`` seconds after the
step starts, whether or not earlier ones have finished.  A fixed set of
persistent HTTP/1.1 connections take due requests in order, each as soon
as it is free, so a stalled response delays every request queued behind
it, and latency is timed from the due time (not the send time) so that
wait counts.  Closed loop: each connection sends its next request only
when the previous reply has arrived.
"""

from __future__ import annotations

import http.client
import re
import socket
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    path: str
    body: bytes


@dataclass
class Outcome:
    """One request's timeline (clock seconds) and reply.

    ``free`` is when its connection became free to send it; ``status``
    is 0 for a transport error.
    """

    due: float
    free: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def client_ms(self) -> float:
        """Send to reply: what the connection itself took."""
        return (self.done - self.sent) * 1e3

    @property
    def backlog_ms(self) -> float:
        """How late the request went out, waiting included."""
        return (self.sent - self.due) * 1e3

    @property
    def gen_lag_ms(self) -> float:
        """How late the generator itself was: send time minus the later of
        the due time and the moment its connection became free."""
        return (self.sent - max(self.due, self.free)) * 1e3


class _Connection:
    """A persistent client connection that reopens after transport errors."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, request: Request) -> Tuple[int, bytes]:
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                self._conn.connect()
                self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn.request("POST", request.path, request.body, HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _drive(
    host: str,
    port: int,
    requests: Sequence[Request],
    due: Callable[[int], Optional[float]],
    connections: int,
    timeout: float,
    clock: Callable[[], float],
) -> List[Outcome]:
    """Send ``requests`` in order over ``connections`` threads.

    ``due(i)`` is request ``i``'s due time, or ``None`` to send it as
    soon as a connection is free.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        connection = _Connection(host, port, timeout)
        try:
            free = clock()
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                when = due(index)
                if when is not None:
                    wait = when - clock()
                    if wait > 0:
                        time.sleep(wait)
                sent = clock()
                status, body = connection.request(requests[index])
                done = clock()
                outcomes[index] = Outcome(
                    due=sent if when is None else when,
                    free=free, sent=sent, done=done, status=status, body=body,
                )
                free = done
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]


def open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    rate: float,
    connections: int = 2,
    timeout: float = 30.0,
    start_delay: float = 0.05,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """Send ``requests`` on a fixed schedule of ``rate`` per second."""
    start = clock() + start_delay
    return _drive(
        host, port, requests, lambda i: start + i / rate, connections, timeout, clock
    )


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int = 2,
    timeout: float = 30.0,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[float, List[Outcome]]:
    """Send ``requests`` back to back; returns ``(wall seconds, outcomes)``."""
    start = clock()
    outcomes = _drive(host, port, requests, lambda i: None, connections, timeout, clock)
    return clock() - start, outcomes


def completion_rate(outcomes: Sequence[Outcome]) -> float:
    """Successful replies per second, from the first reply to the last."""
    done = sorted(o.done for o in outcomes if o.ok)
    if len(done) < 2 or done[-1] == done[0]:
        return 0.0
    return (len(done) - 1) / (done[-1] - done[0])


def get(host: str, port: int, path: str, timeout: float = 10.0) -> Tuple[int, bytes]:
    """One GET on a fresh connection (health checks, scrapes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Prometheus text parsing
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

Series = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_metrics(text: str) -> Dict[Series, float]:
    """Samples of a Prometheus text exposition, keyed by name and sorted
    label pairs."""
    samples: Dict[Series, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def delta(before: Dict[Series, float], after: Dict[Series, float]) -> Dict[Series, float]:
    """``after - before`` per series; a series absent before counts from 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def histogram_by(
    samples: Dict[Series, float], name: str, label: Optional[str] = None
) -> Dict[str, Tuple[float, float]]:
    """``{label value: (sum, count)}`` of histogram ``name``; ``""`` keys
    the unlabelled series."""
    result: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for (series, pairs), value in samples.items():
        labels = dict(pairs)
        key = labels.get(label, "") if label else ""
        if series == name + "_sum":
            result[key][0] += value
        elif series == name + "_count":
            result[key][1] += value
    return {key: (total, count) for key, (total, count) in result.items()}


def counter_total(samples: Dict[Series, float], name: str) -> float:
    """Sum of counter ``name`` over all its label values."""
    return sum(value for (series, _), value in samples.items() if series == name)
