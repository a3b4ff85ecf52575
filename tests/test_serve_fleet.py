"""The supervised fleet end to end: real forked workers, real sockets.

The chaos cases lean on the deterministic ``REPRO_FAULTS`` sites —
``worker_crash`` (a worker ``os._exit``\\ s mid-request),
``slow_handler`` (a request stalls past its deadline), and
``registry_read`` (worker startup cannot resolve its model) — so every
availability claim here is assertable, not probabilistic.
"""

import http.client
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import FleetError
from repro.resilience.faults import reset_faults
from repro.serve.fleet import FleetConfig, ServingFleet
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def fleet_registry(tmp_path_factory, suite_tree):
    directory = tmp_path_factory.mktemp("fleet-registry")
    registry = ModelRegistry(directory)
    registry.publish("cpi-tree", suite_tree, aliases=["prod"])
    return registry


def make_config(registry, **overrides):
    settings = dict(
        model="cpi-tree@prod",
        workers=2,
        port=0,
        registry_dir=str(registry.directory),
        drain_timeout_s=2.0,
        probe_interval_s=0.2,
        startup_timeout_s=30.0,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


@pytest.fixture(scope="module")
def fleet(fleet_registry):
    serving = ServingFleet(make_config(fleet_registry)).start()
    serving.serve_in_background()
    yield serving
    serving.shutdown()


def call(port, path, payload=None, timeout=15):
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestFleetConfig:
    def test_round_trips_through_dict(self):
        config = FleetConfig(model="m@latest", workers=3, port=0)
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(FleetError, match="unknown fleet config key"):
            FleetConfig.from_dict({"wrokers": 2})

    @pytest.mark.parametrize("overrides", [
        {"workers": 0},
        {"mode": "bogus"},
        {"port": 70000},
        {"mode": "reuseport", "port": 0},
        {"max_inflight": 0},
        {"task_timeout": -1.0},
        {"probe_interval_s": 0.0},
        {"drain_timeout_s": -1.0},
        {"breaker_threshold": 0},
    ])
    def test_validation(self, overrides):
        settings = dict(workers=2)
        settings.update(overrides)
        with pytest.raises(FleetError):
            FleetConfig(**settings)


class TestRouting:
    def test_predictions_bit_identical_to_single_replica(
        self, fleet, suite_tree, suite_dataset
    ):
        rows = suite_dataset.X[:6]
        status, _, document = call(
            fleet.bound_port, "/predict", {"sections": rows.tolist()}
        )
        assert status == 200
        assert document["predictions"] == [
            float(p) for p in suite_tree.predict(rows)
        ]

    def test_requests_spread_over_workers(self, fleet, suite_dataset):
        row = suite_dataset.X[0].tolist()
        for _ in range(4):
            status, _, _ = call(fleet.bound_port, "/predict", {"section": row})
            assert status == 200
        # Round-robin touched both workers (metrics live on the router).
        rendered = fleet.metrics.render()
        assert "repro_router_requests_total" in rendered

    def test_healthz_reports_ok(self, fleet):
        status, _, document = call(fleet.bound_port, "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["healthy_workers"] == 2

    def test_fleet_status_lists_workers(self, fleet):
        status, _, document = call(fleet.bound_port, "/fleet/status")
        assert status == 200
        assert document["healthy_workers"] == 2
        assert len(document["workers"]) == 2
        for worker in document["workers"]:
            assert worker["healthy"]
            assert worker["pid"] > 0
            assert worker["port"] > 0
        assert any("fleet up" in event for event in document["events"])

    def test_worker_errors_are_relayed_verbatim(self, fleet):
        status, _, document = call(
            fleet.bound_port, "/predict", {"wrong": "shape"}
        )
        assert status == 400
        assert "error" in document

    def test_unknown_path_proxied_to_worker_404(self, fleet):
        status, _, document = call(fleet.bound_port, "/nope")
        assert status == 404
        assert "error" in document

    def test_back_to_back_predicts_do_not_stall(self, fleet, suite_dataset):
        # One persistent client connection through the router: each
        # relayed reply must leave as one write, not wait out the
        # client's delayed ACK.
        body = json.dumps({"section": suite_dataset.X[0].tolist()})
        conn = http.client.HTTPConnection(
            "127.0.0.1", fleet.bound_port, timeout=15
        )
        try:
            started = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/predict", body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["n"] == 1
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4


class TestLifecycle:
    def test_shutdown_without_serve_loop_returns(self, fleet_registry):
        serving = ServingFleet(make_config(fleet_registry, workers=1)).start()
        finished = threading.Event()
        stopper = threading.Thread(
            target=lambda: (serving.shutdown(), finished.set()), daemon=True
        )
        stopper.start()
        assert finished.wait(timeout=2.0)


class TestCrashResilience:
    def test_kill_one_worker_mid_traffic_no_client_failures(
        self, fleet, suite_dataset
    ):
        _, _, before = call(fleet.bound_port, "/fleet/status")
        victim_pid = before["workers"][0]["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        row = suite_dataset.X[0].tolist()
        for _ in range(20):
            status, _, document = call(
                fleet.bound_port, "/predict", {"section": row}
            )
            # The SLO: a killed worker costs retries, never failures.
            assert status == 200, document
            time.sleep(0.02)

        deadline = time.time() + 30
        while time.time() < deadline:
            _, _, after = call(fleet.bound_port, "/fleet/status")
            if after["healthy_workers"] == 2:
                break
            time.sleep(0.2)
        assert after["healthy_workers"] == 2
        assert any(w["restarts"] >= 1 for w in after["workers"])


class TestRollout:
    def test_alias_rollout_zero_failed_requests(
        self, fleet, fleet_registry, suite_tree, suite_dataset
    ):
        record = fleet_registry.publish("cpi-tree", suite_tree)
        row = suite_dataset.X[0].tolist()
        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                status, _, document = call(
                    fleet.bound_port, "/predict", {"section": row}
                )
                if status != 200:
                    failures.append((status, document))

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            status, _, document = call(
                fleet.bound_port, "/fleet/rollout",
                {"name": "cpi-tree", "alias": "prod",
                 "version": record.version},
            )
        finally:
            stop.set()
            thread.join(10)
        assert status == 200
        assert any("rolled" in event for event in document["events"])
        assert failures == []
        status, _, document = call(
            fleet.bound_port, "/predict", {"section": row}
        )
        assert document["model"] == f"cpi-tree@{record.version}"

    def test_draining_worker_is_retried_on_the_next(
        self, fleet, suite_dataset, monkeypatch
    ):
        # A rollout drains the old worker right after swapping it out of
        # rotation; a request routed to it from an earlier snapshot must
        # be answered by another worker, not shed.
        forward_once = fleet._forward_once
        tried = []

        def first_worker_draining(handle, method, path, body):
            tried.append(handle.index)
            if len(tried) == 1:
                shed = {"schema": "repro-serve/1", "error": "draining",
                        "status": 503, "reason": "draining",
                        "retry_after": 1}
                return 503, {"Retry-After": "1"}, json.dumps(shed).encode()
            return forward_once(handle, method, path, body)

        monkeypatch.setattr(fleet, "_forward_once", first_worker_draining)
        body = json.dumps({"section": suite_dataset.X[0].tolist()}).encode()
        status, _, payload = fleet.forward("POST", "/predict", body)
        assert status == 200
        assert json.loads(payload)["n"] == 1
        assert len(tried) == 2 and tried[0] != tried[1]

    def test_rollout_bad_payload_400(self, fleet):
        status, _, document = call(
            fleet.bound_port, "/fleet/rollout", {"name": "cpi-tree"}
        )
        assert status == 400
        assert "alias" in document["error"]

    def test_rollout_unknown_model_400(self, fleet):
        status, _, document = call(
            fleet.bound_port, "/fleet/rollout",
            {"name": "no-such-model", "alias": "prod"},
        )
        assert status == 400


class TestChaosSites:
    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        reset_faults()
        yield
        reset_faults()

    def test_worker_crash_sheds_with_retry_after(
        self, fleet_registry, suite_dataset, monkeypatch
    ):
        # Rate 1.0: every worker dies on its first /predict, the router
        # runs out of healthy workers, and the request is shed with the
        # full 503 contract — not reset, not hung.
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:1.0")
        reset_faults()
        serving = ServingFleet(
            make_config(fleet_registry, workers=2, breaker_cooldown_s=60.0)
        ).start()
        serving.serve_in_background()
        try:
            row = suite_dataset.X[0].tolist()
            status, headers, document = call(
                serving.bound_port, "/predict", {"section": row}
            )
            assert status == 503
            assert headers.get("Retry-After") is not None
            assert document["reason"] == "degraded"
            assert document["status"] == 503
        finally:
            serving.shutdown()

    def test_slow_handler_sheds_deadline_through_router(
        self, fleet_registry, suite_dataset, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "slow_handler:1.0")
        reset_faults()
        serving = ServingFleet(
            make_config(fleet_registry, workers=1, task_timeout=0.05)
        ).start()
        serving.serve_in_background()
        try:
            row = suite_dataset.X[0].tolist()
            status, headers, document = call(
                serving.bound_port, "/predict", {"section": row}
            )
            # The worker's own deadline shed, relayed verbatim.
            assert status == 503
            assert document["reason"] == "deadline"
            assert headers.get("Retry-After") is not None
        finally:
            serving.shutdown()

    def test_registry_read_fault_fails_startup(
        self, fleet_registry, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "registry_read:1.0")
        reset_faults()
        serving = ServingFleet(make_config(fleet_registry, workers=1))
        with pytest.raises(FleetError):
            serving.start()
        serving.shutdown()
