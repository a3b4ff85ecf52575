"""Minimal Prometheus-text-format metrics for the serving layer.

Implements just the slice of the exposition format (version 0.0.4) the
``/metrics`` endpoint needs — counters, gauges, and cumulative
histograms with labels — with one lock per registry so request handler
threads can record concurrently.  Stdlib-only on purpose: the serving
stack must not grow dependencies the training stack does not have.

Conventions follow the Prometheus client guidelines: counters end in
``_total``, histogram buckets are cumulative with a ``+Inf`` terminal,
label values are escaped, and metric families render in registration
order so scrapes are diff-stable.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

#: Request-latency histogram bounds in seconds (sub-ms to multi-second).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Rows-per-request histogram bounds.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

LabelValues = Tuple[str, ...]


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(names: Sequence[str], values: LabelValues,
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Shared naming/label plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Sequence[str]) -> LabelValues:
        values = tuple(str(v) for v in labels)
        if len(values) != len(self.labelnames):
            raise ConfigError(
                f"metric {self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        return values

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value per label combination."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, *labels: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def render(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for values, count in items:
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, values)} "
                f"{_format_value(count)}"
            )
        return lines


class Gauge(_Metric):
    """A value that can go up and down (model info, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def set(self, *labels: str, value: float) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def render(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        for values, current in items:
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, values)} "
                f"{_format_value(current)}"
            )
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (`_bucket`/`_sum`/`_count` series)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or sorted(bounds) != list(bounds):
            raise ConfigError("histogram buckets must be sorted and non-empty")
        self.buckets = bounds
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, *labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, *labels: str) -> int:
        with self._lock:
            return self._totals.get(self._key(labels), 0)

    def render(self) -> List[str]:
        with self._lock:
            keys = sorted(self._totals)
            counts = {k: list(v) for k, v in self._counts.items()}
            sums = dict(self._sums)
            totals = dict(self._totals)
        lines = self._header()
        if not keys and not self.labelnames:
            keys = [()]
            counts[()] = [0] * len(self.buckets)
            sums[()] = 0.0
            totals[()] = 0
        for key in keys:
            # observe() increments every bucket the value fits, so the
            # stored counts are already cumulative as the format requires.
            for bound, bucket_count in zip(self.buckets, counts[key]):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(self.labelnames, key, ('le', _format_value(bound)))}"
                    f" {bucket_count}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labelnames, key, ('le', '+Inf'))}"
                f" {totals[key]}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(self.labelnames, key)} "
                f"{_format_value(sums[key])}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(self.labelnames, key)} "
                f"{totals[key]}"
            )
        return lines


class MetricsRegistry:
    """An ordered collection of metrics rendering to one exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ConfigError(f"duplicate metric name {metric.name!r}")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS,
                  labelnames: Sequence[str] = ()) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, labelnames))  # type: ignore[return-value]

    def get(self, name: str) -> _Metric:
        with self._lock:
            try:
                return self._metrics[name]
            except KeyError:
                raise ConfigError(f"unknown metric {name!r}") from None

    def render(self) -> str:
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
