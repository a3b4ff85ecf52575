"""Tests of the benchmark's own helpers (not of the program)."""

from __future__ import annotations

import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import hostspeed, loadgen, stats, tracing


# ----------------------------------------------------------------------
# Percentiles and the capacity rule
# ----------------------------------------------------------------------
def test_nearest_rank_picks_an_observed_value():
    values = [float(v) for v in range(10, 0, -1)]
    assert stats.nearest_rank(values, 50) == 5.0
    assert stats.nearest_rank(values, 90) == 9.0
    assert stats.nearest_rank(values, 91) == 10.0
    assert stats.nearest_rank(values, 100) == 10.0
    assert stats.nearest_rank(values, 0.1) == 1.0
    assert stats.median([3.0]) == 3.0


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_nearest_rank_rejects_out_of_range_percent(bad):
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], bad)


def test_nearest_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    percent, value = stats.tail(values)
    assert (percent, value) == (95.0, 190.0)
    assert sum(v > value for v in values) == 10


def test_tail_of_small_sample_is_its_maximum():
    assert stats.tail([4.0, 9.0, 1.0]) == (100.0, 9.0)
    assert stats.tail([float(v) for v in range(10)]) == (100.0, 9.0)
    percent, value = stats.tail([float(v) for v in range(11)])
    assert value == 0.0 and percent == pytest.approx(100 / 11)


def test_lag_grows_only_when_the_backlog_climbs():
    assert not stats.lag_grows([0.1] * 30, tolerance_ms=10)
    assert not stats.lag_grows([0.1 * i for i in range(30)], tolerance_ms=10)
    assert stats.lag_grows([5.0 * i for i in range(30)], tolerance_ms=10)
    assert not stats.lag_grows([100.0, 200.0], tolerance_ms=10)


def _step(rate, latency_ms, lags_ms=None):
    latencies = [latency_ms] * 100
    return stats.StepResult(rate, latencies, lags_ms or [0.0] * 100, rate - 0.1)


def test_max_rps_is_the_last_rung_before_the_first_failure():
    steps = [_step(20, 5.0), _step(30, 6.0), _step(60, 40.0), _step(90, 5.0)]
    assert stats.max_rps(steps, 90, limit_ms=25, lag_tolerance_ms=10) == 29.9


def test_max_rps_fails_a_rung_whose_backlog_grows():
    climbing = [float(i) for i in range(100)]
    steps = [_step(20, 5.0), _step(30, 20.0, climbing)]
    assert stats.max_rps(steps, 90, limit_ms=25, lag_tolerance_ms=10) == 19.9


def test_max_rps_counts_failed_requests_as_missing_the_limit():
    failing = stats.StepResult(20, [5.0] * 85 + [float("inf")] * 15, [0.0] * 100, 17.0)
    assert stats.max_rps([failing], 90, limit_ms=25, lag_tolerance_ms=10) == 0


class _Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_host_reference_is_a_median_round_that_rescales_times():
    assert hostspeed.reference_s(rounds=3, clock=_Ticks(), work=lambda: None) == 1.0
    slow_host = 2 * hostspeed.NOMINAL_S
    assert hostspeed.at_reference_speed(3.0, slow_host) == pytest.approx(1.5)


def test_monitor_units_are_taken_from_the_job_window():
    samples = [(0.0, 9.0), (1.0, 0.004), (2.0, 0.006), (3.0, 0.005), (9.0, 9.0)]
    assert hostspeed.unit_cpu_s(samples, 1.0, 3.0) == 0.005
    with pytest.raises(ValueError):
        hostspeed.unit_cpu_s(samples, 4.0, 5.0)


def test_monitor_samples_while_the_block_runs(tmp_path):
    import os

    cpus = os.sched_getaffinity(0)
    with hostspeed.Monitor(tmp_path / "samples.json") as monitor:
        assert os.sched_getaffinity(0) == {min(cpus)}
        time.sleep(0.5)
    assert os.sched_getaffinity(0) == cpus
    assert len(monitor.samples) >= 3
    assert all(cpu > 0 for _, cpu in monitor.samples)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("bench.job", -1, 0.0, 10.0),
        ("core.tree.fit", 0, 1.0, 4.0),
        ("core.tree.fit_linear_model", 1, 2.0, 3.0),
        ("evaluation.cross_validate", 0, 3.0, 6.0),  # overlaps its sibling
        ("serve.compile_tree", 0, 9.5, 12.0),  # runs past its parent
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 5 - 0.5, 3 - 1, 1, 3, 2.5])


def test_summarize_counts_nested_same_name_spans_once():
    spans = [
        ("parallel.parallel_map", -1, 0.0, 4.0),
        ("parallel.parallel_map", 0, 1.0, 3.0),
        ("core.tree.fit", 1, 1.5, 2.5),
    ]
    summary = tracing.summarize(spans)
    assert summary["parallel.parallel_map"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert summary["core.tree.fit"]["s"] == 1.0
    assert tracing.layer_self_times(spans)["parallel"] == 3.0
    assert tracing.layer_self_times(spans)["core.tree"] == 1.0


def test_layer_of_prefers_the_most_specific_layer():
    assert tracing.layer_of("core.tree.fit") == "core.tree"
    assert tracing.layer_of("core.analysis.analyze_dataset") == "core.analysis"
    assert tracing.layer_of("bench.collect") == "bench"
    with pytest.raises(ValueError):
        tracing.layer_of("corextra.fit")


def test_tracer_wraps_at_the_callers_name_and_restores(tmp_path, monkeypatch):
    module = types.ModuleType("fake_layer")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    originals = (module.inner, module.outer)
    seen = []
    tracer = tracing.Tracer(clock=_Ticks())
    tracer.install(
        plan=(("fake_layer", "inner", "core.tree.inner"),
              ("fake_layer", "outer", "core.tree.outer")),
        hooks={"core.tree.inner": seen.append},
    )
    assert module.outer(1) == 4
    tracer.uninstall()
    assert (module.inner, module.outer) == originals
    assert seen == [2]
    assert tracer.spans == [
        ("core.tree.outer", -1, 1.0, 4.0),
        ("core.tree.inner", 0, 2.0, 3.0),
    ]
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    assert path.read_text().count("\n") == 2
    assert '"parent": 0' in path.read_text().splitlines()[1]


def test_tracer_closes_spans_when_the_call_raises():
    tracer = tracing.Tracer(clock=_Ticks())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("serve.boom", boom)()
    assert tracer.spans == [("serve.boom", -1, 1.0, 2.0)]
    assert tracer._stack() == []


# ----------------------------------------------------------------------
# /metrics parsing
# ----------------------------------------------------------------------
BEFORE = """\
# HELP repro_request_seconds Request wall-clock seconds, by endpoint.
# TYPE repro_request_seconds histogram
repro_request_seconds_bucket{endpoint="/predict",le="0.005"} 3
repro_request_seconds_bucket{endpoint="/predict",le="+Inf"} 4
repro_request_seconds_sum{endpoint="/predict"} 0.02
repro_request_seconds_count{endpoint="/predict"} 4
repro_request_seconds_sum{endpoint="/metrics"} 0.001
repro_request_seconds_count{endpoint="/metrics"} 1
# TYPE repro_batch_rows histogram
repro_batch_rows_sum 10
repro_batch_rows_count 4
"""

AFTER = """\
repro_request_seconds_sum{endpoint="/predict"} 0.05
repro_request_seconds_count{endpoint="/predict"} 10
repro_request_seconds_sum{endpoint="/explain"} 0.004
repro_request_seconds_count{endpoint="/explain"} 2
repro_request_seconds_sum{endpoint="/metrics"} 0.002
repro_request_seconds_count{endpoint="/metrics"} 2
repro_batch_rows_sum 100
repro_batch_rows_count 9
repro_shed_total{reason="overload"} 2
repro_shed_total{reason="deadline"} 1
"""


def test_histogram_deltas_by_label():
    moved = loadgen.delta(loadgen.parse_metrics(BEFORE), loadgen.parse_metrics(AFTER))
    by_endpoint = loadgen.histogram_by(moved, "repro_request_seconds", "endpoint")
    assert by_endpoint["/predict"] == pytest.approx((0.03, 6))
    assert by_endpoint["/explain"] == pytest.approx((0.004, 2))
    assert by_endpoint["/metrics"] == pytest.approx((0.001, 1))
    assert loadgen.histogram_by(moved, "repro_batch_rows") == {"": (90.0, 5.0)}
    assert loadgen.counter_total(moved, "repro_shed_total") == 3.0
    assert loadgen.counter_total(moved, "repro_absent_total") == 0.0


def test_parse_metrics_reads_the_servers_own_exposition():
    from repro.serve.metrics import MetricsRegistry

    registry = MetricsRegistry()
    histogram = registry.histogram("repro_request_seconds", "h", labelnames=("endpoint",))
    histogram.observe(0.25, "/predict")
    histogram.observe(0.5, "/predict")
    registry.counter("repro_shed_total", "c", ("reason",)).inc("overload")
    samples = loadgen.parse_metrics(registry.render())
    assert loadgen.histogram_by(samples, "repro_request_seconds", "endpoint") == {
        "/predict": (0.75, 2.0)
    }
    assert samples[("repro_request_seconds_bucket",
                    (("endpoint", "/predict"), ("le", "0.25")))] == 1
    assert loadgen.counter_total(samples, "repro_shed_total") == 1.0


# ----------------------------------------------------------------------
# Load generation against a fake server
# ----------------------------------------------------------------------
class _FakeServer:
    """A keep-alive HTTP/1.1 server that holds any body starting with
    ``stall`` for ``stall_s`` before answering."""

    def __init__(self, stall_s: float) -> None:
        stall = stall_s

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                if body.startswith(b"stall"):
                    time.sleep(stall)
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


def test_a_stall_inflates_later_requests_timed_from_due():
    requests = [loadgen.Request("/predict", b"stall")] + [
        loadgen.Request("/predict", b"fast %d" % i) for i in range(5)
    ]
    with _FakeServer(stall_s=0.3) as server:
        outcomes = loadgen.open_loop("127.0.0.1", server.port, requests, rate=20,
                                     connections=1)
    assert all(o.ok for o in outcomes)
    assert [o.body for o in outcomes] == [r.body for r in requests]
    stalled, queued = outcomes[0], outcomes[1]
    assert stalled.client_ms >= 290
    # Due 50 ms after the stalled one, sent only when it finished: its
    # own service was quick, but its latency carries the wait.
    assert queued.client_ms < 100
    assert queued.latency_ms >= 230
    assert queued.backlog_ms >= 230
    assert queued.gen_lag_ms < 50
    assert outcomes[-1].latency_ms > outcomes[-1].client_ms


def test_closed_loop_sends_back_to_back():
    requests = [loadgen.Request("/predict", b"x")] * 6
    with _FakeServer(stall_s=0.0) as server:
        wall, outcomes = loadgen.closed_loop("127.0.0.1", server.port, requests,
                                             connections=2)
    assert len(outcomes) == 6 and all(o.ok for o in outcomes)
    assert all(o.backlog_ms == 0.0 for o in outcomes)
    assert wall >= max(o.done for o in outcomes) - min(o.sent for o in outcomes)


def test_completion_rate_counts_successful_replies_between_first_and_last():
    def outcome(done, status=200):
        return loadgen.Outcome(due=0.0, free=0.0, sent=0.0, done=done, status=status, body=b"")

    replies = [outcome(1.0), outcome(1.5), outcome(9.0, status=0), outcome(3.0)]
    assert loadgen.completion_rate(replies) == 1.0
    assert loadgen.completion_rate(replies[:1]) == 0.0


def test_transport_errors_come_back_as_status_zero():
    with _FakeServer(stall_s=0.0) as server:
        port = server.port
    outcomes = loadgen.open_loop("127.0.0.1", port, [loadgen.Request("/predict", b"x")],
                                 rate=100, connections=1, timeout=2)
    assert outcomes[0].status == 0 and not outcomes[0].ok
