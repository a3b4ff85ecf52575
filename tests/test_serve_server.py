"""The HTTP surface: envelopes, errors, batching, and the e2e flow."""

import errno
import http.client
import json
import os
import selectors
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.core.tree import M5Prime
from repro.counters import PREDICTOR_NAMES
from repro.errors import ServeError, TaskTimeoutError
from repro.serve.batching import BatchQueue
from repro.serve.registry import ModelRegistry
from repro.serve.server import SCHEMA, ModelServer


@pytest.fixture
def server(tmp_path, suite_tree):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("cpi-tree", suite_tree, aliases=["prod"])
    srv = ModelServer(
        registry=registry, default_model="cpi-tree@latest", port=0
    )
    srv.start()
    srv.serve_in_background()
    yield srv
    srv.shutdown()


def call(server, path, payload=None):
    base = f"http://127.0.0.1:{server.bound_port}"
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def call_with_headers(server, path, payload=None):
    """Like :func:`call`, but also returns the response headers."""
    base = f"http://127.0.0.1:{server.bound_port}"
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(base + path, data=data)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestPredictEnvelope:
    def test_golden_envelope(self, server, suite_tree, suite_dataset):
        rows = suite_dataset.X[:3]
        status, document = call(server, "/predict",
                                {"sections": rows.tolist()})
        assert status == 200
        # The envelope contract: exactly these fields, these types.
        assert sorted(document) == [
            "leaf_ids", "model", "n", "predictions", "schema", "single",
        ]
        assert document["schema"] == SCHEMA
        assert document["model"] == "cpi-tree@1"
        assert document["n"] == 3
        assert document["single"] is False
        assert document["predictions"] == [
            float(p) for p in suite_tree.predict(rows)
        ]
        assert document["leaf_ids"] == [
            int(i) for i in suite_tree.leaf_ids(rows)
        ]

    def test_single_section(self, server, suite_dataset):
        status, document = call(
            server, "/predict", {"section": suite_dataset.X[0].tolist()}
        )
        assert status == 200
        assert document["n"] == 1
        assert document["single"] is True

    def test_model_spec_in_payload(self, server, suite_dataset):
        status, document = call(server, "/predict", {
            "model": "cpi-tree@prod",
            "section": suite_dataset.X[0].tolist(),
        })
        assert status == 200
        assert document["model"] == "cpi-tree@1"

    def test_section_near_the_float_limit(self):
        # Finite values the payload check accepts, whose Table I
        # invariant sums overflow to inf.  A constant-target model keeps
        # the prediction itself finite, so only the drift check could
        # warn.  Warning filters are process-wide here: a RuntimeWarning
        # on the handler thread would raise there and answer 500.
        X = np.random.default_rng(0).uniform(
            0.0, 0.1, size=(40, len(PREDICTOR_NAMES))
        )
        model = M5Prime().fit(X, np.ones(40), PREDICTOR_NAMES)
        srv = ModelServer(port=0)
        srv.add_model("constant", model)
        srv.start()
        srv.serve_in_background()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                status, document = call(
                    srv, "/predict",
                    {"section": [1e308] * len(PREDICTOR_NAMES)},
                )
            assert status == 200, document
            assert document["predictions"] == [1.0]
            violations = srv.get_model().drift.snapshot()[
                "invariant_violations"
            ]
            assert violations["metric-mix-exceeds-one"] == 1
        finally:
            srv.shutdown()


class TestKeepAlive:
    def test_back_to_back_predicts_do_not_stall(self, server, suite_dataset):
        # A reply sent as headers and body in two writes with Nagle on
        # waits for the client's delayed ACK (~40 ms) on every reuse of
        # the connection; urllib opens one connection per request and
        # never sees it.
        body = json.dumps({"section": suite_dataset.X[0].tolist()})
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=10
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

    def test_expect_100_continue_is_answered_before_the_body(
        self, server, suite_dataset
    ):
        # Replies are buffered until flushed; the interim 100 must not
        # wait in that buffer, since the client holds its body for it.
        body = json.dumps({"section": suite_dataset.X[0].tolist()}).encode()
        with socket.create_connection(
            ("127.0.0.1", server.bound_port), timeout=2
        ) as sock:
            sock.sendall(
                b"POST /predict HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")


class TestExplainEnvelope:
    def test_golden_envelope(self, server, suite_tree, suite_dataset):
        x = suite_dataset.X[0]
        status, document = call(server, "/explain", {"section": x.tolist()})
        assert status == 200
        assert sorted(document) == [
            "contributions", "leaf", "leaf_population", "model", "path",
            "prediction", "schema", "target",
        ]
        assert document["schema"] == SCHEMA
        assert document["leaf"] == int(suite_tree.leaf_ids(x.reshape(1, -1))[0])
        assert document["prediction"] == float(suite_tree.predict(
            x.reshape(1, -1))[0])
        assert document["target"] == suite_tree.target_name_
        for step in document["path"]:
            assert sorted(step) == ["attribute", "branch", "threshold", "value"]
            assert step["branch"] in ("left", "right")
        for contribution in document["contributions"]:
            assert sorted(contribution) == [
                "coefficient", "cycles", "event", "fraction",
                "potential_gain_percent", "value",
            ]

    def test_batch_explain_rejected(self, server, suite_dataset):
        status, document = call(
            server, "/explain", {"sections": suite_dataset.X[:2].tolist()}
        )
        assert status == 400
        assert "one" in document["error"]


class TestErrorEnvelopes:
    def test_unknown_path_404(self, server):
        status, document = call(server, "/nope")
        assert status == 404
        assert document["schema"] == SCHEMA and "error" in document

    def test_unknown_model_404(self, server, suite_dataset):
        status, document = call(server, "/predict", {
            "model": "ghost", "section": suite_dataset.X[0].tolist(),
        })
        assert status == 404
        assert "ghost" in document["error"]

    def test_width_mismatch_400(self, server):
        status, document = call(server, "/predict", {"section": [1.0, 2.0]})
        assert status == 400
        assert "width" in document["error"]

    def test_missing_sections_400(self, server):
        status, document = call(server, "/predict", {})
        assert status == 400

    def test_both_section_forms_400(self, server, suite_dataset):
        row = suite_dataset.X[0].tolist()
        status, _ = call(server, "/predict",
                         {"section": row, "sections": [row]})
        assert status == 400

    def test_non_numeric_400(self, server, suite_tree):
        bad = ["x"] * len(suite_tree.attributes_)
        status, _ = call(server, "/predict", {"section": bad})
        assert status == 400

    def test_invalid_json_400(self, server):
        base = f"http://127.0.0.1:{server.bound_port}"
        request = urllib.request.Request(base + "/predict", data=b"{nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400


class TestEndToEnd:
    def test_publish_resolve_score_scrape(self, tmp_path, suite_tree,
                                          suite_dataset):
        """The full ISSUE flow: publish -> resolve -> score -> /metrics."""
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish("cpi-tree", suite_tree)
        server = ModelServer(registry=registry, port=0)
        server.start()
        server.serve_in_background()
        try:
            status, health = call(server, "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, models = call(server, "/models")
            assert status == 200
            assert [m["spec"] for m in models["models"]] == [record.spec]

            # The server counts a request after sending its reply, so the
            # scrape follows /predict on the same connection: one handler
            # thread serves both, in order.
            rows = suite_dataset.X[:8]
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.bound_port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/predict",
                    json.dumps(
                        {"model": "cpi-tree", "sections": rows.tolist()}
                    ),
                    {"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                status, scored = resp.status, json.loads(resp.read())
                assert status == 200
                assert scored["predictions"] == [
                    float(p) for p in suite_tree.predict(rows)
                ]
                conn.request("GET", "/metrics")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode("utf-8")
            finally:
                conn.close()
            assert ('repro_requests_total{endpoint="/predict",status="200"} 1'
                    in text)
            assert "repro_request_seconds_bucket" in text
            assert "repro_batch_rows_count 1" in text
            assert f'repro_drift_rows_total{{model="{record.spec}"}} 8' in text
        finally:
            server.shutdown()

    def test_default_model_required_when_ambiguous(self, tmp_path, suite_tree,
                                                   suite_dataset):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("a", suite_tree)
        server = ModelServer(registry=registry, port=0)
        server.start()
        server.serve_in_background()
        try:
            status, document = call(
                server, "/predict",
                {"section": suite_dataset.X[0].tolist()},
            )
            assert status == 400
            assert "no default" in document["error"]
        finally:
            server.shutdown()


class TestBatchQueue:
    def test_concurrent_submissions_coalesce(self, suite_tree, suite_dataset):
        # Batches form from contention: the first request leads, and its
        # evaluation holds the lead until the other seven requests are
        # queued behind it; the oldest of them then leads them all.
        batches = []
        busy, release = threading.Event(), threading.Event()

        def evaluate(X):
            busy.set()
            assert release.wait(timeout=5)
            return suite_tree.compiled_.predict(X)

        queue = BatchQueue(
            evaluate, max_batch=64, observe_batch=batches.append,
        ).start()
        try:
            X = suite_dataset.X
            results = {}

            def score(i):
                results[i] = queue.submit(X[i:i + 1])

            threads = [
                threading.Thread(target=score, args=(i,)) for i in range(8)
            ]
            threads[0].start()
            assert busy.wait(timeout=5)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 5
            while len(queue._waiting) < 7 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(queue._waiting) == 7
            release.set()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            want = suite_tree.compiled_.predict(X[:8])
            for i in range(8):
                assert results[i].shape == (1,)
                assert results[i][0] == want[i]
            # At least one evaluation carried more than one request.
            assert sum(batches) == 8 and len(batches) < 8
            assert batches == [1, 7]
        finally:
            release.set()
            queue.stop()

    def test_batch_failure_reaches_every_caller(self):
        # Rows of two widths queue behind a held evaluation and meet in
        # one batch that cannot be stacked: both callers get the error.
        busy, release = threading.Event(), threading.Event()

        def evaluate(X):
            busy.set()
            assert release.wait(timeout=5)
            return np.zeros(X.shape[0])

        queue = BatchQueue(evaluate).start()
        errors = []

        def score(width):
            try:
                queue.submit(np.zeros((1, width)))
            except ValueError as exc:
                errors.append(exc)

        try:
            leader = threading.Thread(target=score, args=(3,), daemon=True)
            leader.start()
            assert busy.wait(timeout=5)
            followers = [
                threading.Thread(target=score, args=(w,), daemon=True)
                for w in (3, 4)
            ]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 5
            while len(queue._waiting) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(queue._waiting) == 2
            release.set()
            for thread in [leader, *followers]:
                thread.join(timeout=5)
                assert not thread.is_alive()
            assert len(errors) == 2
        finally:
            release.set()
            queue.stop()

    def test_stress_mixed_sizes_and_deadlines(self, suite_tree, suite_dataset):
        """More submitting threads than cores, 1- and 64-row requests,
        some with budgets that expire while queued, and a switch interval
        short enough to interleave every step of the hand-off."""
        compiled = suite_tree.compiled_
        X = suite_dataset.X
        n_threads = 4 * (os.cpu_count() or 1) + 4
        per_thread, max_batch = 12, 48
        batches = []

        def evaluate(rows):
            time.sleep(0.001)  # release the interpreter lock mid-batch
            return compiled.predict(rows)

        queue = BatchQueue(
            evaluate, max_batch=max_batch, observe_batch=batches.append,
        ).start()
        outcomes = {}

        def client(t):
            rng = np.random.default_rng(t)
            for k in range(per_thread):
                size = 64 if rng.random() < 0.25 else 1
                rows = X[rng.integers(len(X), size=size)]
                timeout = 1e-4 if rng.random() < 0.3 else None
                try:
                    outcome = queue.submit(rows, timeout=timeout)
                except TaskTimeoutError as exc:
                    outcome = exc
                outcomes[t, k] = (rows, timeout, outcome)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(t,), daemon=True)
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(outcomes) == n_threads * per_thread
            scored_rows = 0
            expired = 0
            for rows, timeout, outcome in outcomes.values():
                if isinstance(outcome, TaskTimeoutError):
                    assert timeout is not None
                    expired += 1
                    continue
                assert np.array_equal(outcome, compiled.predict(rows))
                scored_rows += rows.shape[0]
            assert expired > 0
            assert sum(batches) == scored_rows
            # Only a request larger than the budget forms a larger batch.
            assert all(n <= max_batch or n == 64 for n in batches)
            # Nothing is stranded: the lead was handed back, so a later
            # submit is scored at once.
            late = threading.Thread(
                target=client, args=(n_threads,), daemon=True
            )
            late.start()
            late.join(timeout=10)
            assert not late.is_alive()
        finally:
            queue.stop()

    def test_deadline_enforced(self, suite_dataset):
        release = threading.Event()

        def slow_evaluate(X):
            release.wait(timeout=5)
            return np.zeros(X.shape[0])

        queue = BatchQueue(slow_evaluate).start()
        try:
            # First request occupies the evaluator; the second expires
            # while queued behind it.
            first = threading.Thread(
                target=lambda: queue.submit(suite_dataset.X[:1], timeout=5)
            )
            first.start()
            time.sleep(0.1)
            with pytest.raises(TaskTimeoutError):
                queue.submit(suite_dataset.X[:1], timeout=0.05)
        finally:
            release.set()
            queue.stop()

    def test_stopped_queue_rejects(self, suite_dataset):
        queue = BatchQueue(lambda X: np.zeros(X.shape[0])).start()
        queue.stop()
        with pytest.raises(ServeError):
            queue.submit(suite_dataset.X[:1])

    def test_evaluator_error_propagates(self, suite_dataset):
        def explode(X):
            raise ValueError("boom")

        queue = BatchQueue(explode).start()
        try:
            with pytest.raises(ValueError, match="boom"):
                queue.submit(suite_dataset.X[:1])
        finally:
            queue.stop()


class TestLoadShedding:
    @pytest.fixture
    def bounded_server(self, tmp_path, suite_tree):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(
            registry=registry, default_model="cpi-tree@latest", port=0,
            max_inflight=1, retry_after_s=2.0,
        )
        srv.start()
        srv.serve_in_background()
        yield srv
        srv.shutdown(drain_timeout=1.0)

    def test_overload_503_envelope(self, bounded_server, suite_dataset):
        # Occupy the single admission slot, then knock.
        bounded_server.begin_request()
        try:
            status, document, headers = call_with_headers(
                bounded_server, "/predict",
                {"section": suite_dataset.X[0].tolist()},
            )
        finally:
            bounded_server.end_request()
        assert status == 503
        assert document["status"] == 503
        assert document["reason"] == "overload"
        assert document["retry_after"] == 2
        assert headers.get("Retry-After") == "2"
        assert 'repro_shed_total{reason="overload"} 1' in \
            bounded_server.render_metrics()

    def test_draining_503_and_healthz(self, bounded_server, suite_dataset):
        bounded_server._draining.set()
        try:
            status, health = call(bounded_server, "/healthz")
            assert health["status"] == "draining"
            status, document, headers = call_with_headers(
                bounded_server, "/predict",
                {"section": suite_dataset.X[0].tolist()},
            )
            assert status == 503
            assert document["reason"] == "draining"
            assert headers.get("Retry-After") is not None
        finally:
            bounded_server._draining.clear()

    def test_inflight_restored_after_requests(
        self, bounded_server, suite_dataset
    ):
        for _ in range(3):
            status, _ = call(
                bounded_server, "/predict",
                {"section": suite_dataset.X[0].tolist()},
            )
            assert status == 200
        assert bounded_server.inflight == 0

    def test_max_inflight_validated(self, tmp_path):
        with pytest.raises(ServeError):
            ModelServer(
                registry=ModelRegistry(tmp_path / "r"), max_inflight=0
            )


class TestDeadlineShed:
    def test_deadline_503_envelope(self, tmp_path, suite_tree, suite_dataset,
                                   monkeypatch):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(
            registry=registry, default_model="cpi-tree@latest", port=0,
            task_timeout=0.05,
        )
        # The batch outlasts the budget plus the queue's 50 ms grace, so
        # the real queue raises TaskTimeoutError once it returns.
        queue = srv.get_model().queue
        evaluate = queue.evaluate

        def slow(rows):
            time.sleep(0.2)
            return evaluate(rows)

        monkeypatch.setattr(queue, "evaluate", slow)
        srv.start()
        srv.serve_in_background()
        try:
            status, document, headers = call_with_headers(
                srv, "/predict", {"section": suite_dataset.X[0].tolist()}
            )
            assert status == 503
            assert document["reason"] == "deadline"
            assert headers.get("Retry-After") is not None
            assert 'repro_shed_total{reason="deadline"} 1' in \
                srv.render_metrics()
        finally:
            srv.shutdown(drain_timeout=1.0)


class TestGracefulShutdown:
    def test_shutdown_reports_drained_and_refuses_after(
        self, tmp_path, suite_tree, suite_dataset
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(
            registry=registry, default_model="cpi-tree@latest", port=0
        )
        srv.start()
        srv.serve_in_background()
        port = srv.bound_port
        status, _ = call(srv, "/predict",
                         {"section": suite_dataset.X[0].tolist()})
        assert status == 200
        assert srv.shutdown(drain_timeout=2.0) is True
        assert srv.draining
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=1
            )

    def test_shutdown_idempotent(self, tmp_path, suite_tree):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(registry=registry, port=0)
        srv.start()
        srv.serve_in_background()
        assert srv.shutdown(drain_timeout=1.0) is True
        assert srv.shutdown(drain_timeout=1.0) is True

    def test_shutdown_without_serve_loop_returns(self, tmp_path):
        # socketserver's shutdown() waits for a serve loop to stop; one
        # that never ran must not hang the caller.
        srv = ModelServer(registry=ModelRegistry(tmp_path / "r"), port=0)
        srv.start()
        finished = threading.Event()
        stopper = threading.Thread(
            target=lambda: (srv.shutdown(drain_timeout=0.0), finished.set()),
            daemon=True,
        )
        stopper.start()
        assert finished.wait(timeout=2.0)


class TestListenBacklog:
    def test_connect_burst_fits_the_backlog(self, tmp_path):
        # Started but not yet serving: nothing accepts, so every
        # connect must complete into the kernel's accept queue.  A
        # backlog of 5 admits 6 and leaves the rest on a 1 s SYN
        # retransmit.
        srv = ModelServer(registry=ModelRegistry(tmp_path / "r"), port=0)
        srv.start()
        clients = []
        try:
            with selectors.DefaultSelector() as selector:
                for _ in range(32):
                    client = socket.socket()
                    clients.append(client)
                    client.setblocking(False)
                    code = client.connect_ex(("127.0.0.1", srv.bound_port))
                    assert code in (0, errno.EINPROGRESS)
                    selector.register(client, selectors.EVENT_WRITE)
                connected = 0
                deadline = time.monotonic() + 0.3
                while connected < 32:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    for key, _ in selector.select(remaining):
                        selector.unregister(key.fileobj)
                        error = key.fileobj.getsockopt(
                            socket.SOL_SOCKET, socket.SO_ERROR
                        )
                        assert error == 0
                        connected += 1
            assert connected == 32
        finally:
            for client in clients:
                client.close()
            srv.shutdown(drain_timeout=0.0)


class TestWarmDigestCache:
    def test_alias_flip_to_loaded_digest_reuses_compilation(
        self, tmp_path, suite_tree
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree, aliases=["prod"])
        srv = ModelServer(registry=registry, port=0)
        first = srv.get_model("cpi-tree@1")
        # Another spelling of the same blob digest: no recompilation,
        # the same served entry (queue, monitor, compiled tree).
        second = srv.get_model("cpi-tree@prod")
        assert second is first
        assert 'repro_model_cache_total{outcome="warm"} 1' in \
            srv.render_metrics()
        srv.shutdown(drain_timeout=0.0)

    def test_distinct_versions_are_distinct_entries(
        self, tmp_path, suite_tree, figure1_tree
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        registry.publish("cpi-tree", figure1_tree)
        srv = ModelServer(registry=registry, port=0)
        one = srv.get_model("cpi-tree@1")
        two = srv.get_model("cpi-tree@2")
        assert one is not two
        srv.shutdown(drain_timeout=0.0)
