"""The HTTP surface: envelopes, errors, concurrent scoring, and the e2e flow."""

import email.utils
import errno
import http.client
import io
import json
import os
import selectors
import socket
import sys
import threading
import time
import types
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.baselines.bagging import BaggedM5
from repro.core.analysis.contribution import leaf_contributions
from repro.core.tree import M5Prime
from repro.counters import PREDICTOR_NAMES
from repro.errors import ServeError
from repro.serve.refine import RefinedForest
from repro.serve.registry import ModelRegistry
from repro.serve.server import SCHEMA, ModelServer, ServeRequestHandler


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


def _refuse_constant(name):
    raise ValueError(f"reply carries {name}, which strict JSON refuses")


def call(server, path, payload=None):
    """POST (or GET) one request; the reply must parse as strict JSON."""
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
            return response.status, json.loads(
                response.read(), parse_constant=_refuse_constant
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(
            error.read(), parse_constant=_refuse_constant
        )


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


_FINITE_ROW = [0.05] * len(PREDICTOR_NAMES)
_HUGE_ROW = [1e308] * len(PREDICTOR_NAMES)


class TestNonFiniteReplies:
    """Finite sections whose leaf-model sums overflow answer 400."""

    @pytest.fixture(scope="class")
    def overflow_server(self):
        # Opposite-signed coefficients above 1 send a row of 1e308 to
        # inf - inf = NaN, as the quick-preset tree does.
        X = np.random.default_rng(0).uniform(
            0.0, 0.1, size=(60, len(PREDICTOR_NAMES))
        )
        y = 3.0 + 20.0 * X[:, 0] - 20.0 * X[:, 1]
        srv = ModelServer(port=0)
        srv.add_model("tree", M5Prime().fit(X, y, PREDICTOR_NAMES))
        srv.add_model("forest", BaggedM5(n_estimators=3, min_instances=10)
                      .fit(X, y, PREDICTOR_NAMES))
        srv.start()
        srv.serve_in_background()
        yield srv
        srv.shutdown()

    # Warning filters are process-wide: numpy's overflow warning on the
    # handler thread would raise there and answer 500.
    @pytest.mark.parametrize("path, payload, message", [
        pytest.param(
            "/predict", {"model": "tree", "sections": [_FINITE_ROW, _HUGE_ROW]},
            "section 1: the prediction is not finite", id="predict-tree",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        pytest.param(
            "/predict",
            {"model": "forest", "sections": [_FINITE_ROW, _HUGE_ROW]},
            "section 1: the prediction is not finite", id="predict-forest",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        pytest.param(
            "/explain", {"model": "tree", "section": _HUGE_ROW},
            "section 0: the explanation is not finite", id="explain-tree",
        ),
    ])
    def test_overflowing_section_is_refused(
        self, overflow_server, path, payload, message
    ):
        status, document = call(overflow_server, path, payload)
        assert status == 400, document
        assert message in document["error"]


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


def read_reply(sock):
    """One reply off a raw socket: its status line, its headers as
    ``(name, value)`` pairs in order, and its body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed inside a reply head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(line.split(": ", 1)) for line in lines]
    length = int(dict(headers)["Content-Length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a reply body"
        body += chunk
    assert len(body) == length, "bytes after the reply"
    return status, headers, body


def exchange(server, data, timeout=2.0):
    """Send raw bytes on a new connection and read one reply; returns the
    reply and whether the server then closed the connection (judged by
    a second request on it)."""
    with socket.create_connection(
        ("127.0.0.1", server.bound_port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        reply = read_reply(sock)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            closed = sock.recv(65536) == b""
        except (BrokenPipeError, ConnectionResetError):
            closed = True
    return reply, closed


def predict_request(section, version="HTTP/1.1", headers=()):
    body = json.dumps({"section": section}).encode()
    head = [f"POST /predict {version}", "Host: x", *headers]
    if not any(h.lower().startswith("content-length") for h in headers):
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class TestRequestHead:
    """The bytes-level request-head parse, over raw sockets."""

    @pytest.mark.parametrize("version, connection, closed", [
        ("HTTP/1.1", None, False),
        ("HTTP/1.1", "close", True),
        ("HTTP/1.1", "Close", True),
        ("HTTP/1.0", None, True),
        ("HTTP/1.0", "keep-alive", False),
    ])
    def test_connection_persistence(
        self, server, suite_dataset, version, connection, closed
    ):
        headers = () if connection is None else (f"Connection: {connection}",)
        (status, _, body), was_closed = exchange(server, predict_request(
            suite_dataset.X[0].tolist(), version, headers
        ))
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["n"] == 1
        assert was_closed is closed

    @pytest.mark.parametrize("version", ["HTTP/2.0", "HTTP/3.0", "HTTP/10.0"])
    def test_http2_and_later_get_505(self, server, version):
        (status, _, _), closed = exchange(
            server, f"GET /healthz {version}\r\nHost: x\r\n\r\n".encode()
        )
        assert status.startswith("HTTP/1.1 505 ")
        assert closed

    @pytest.mark.parametrize("version", [
        "HTTP/1", "HTTP/1.1.1", "HTTP/x.1", "HTTPS/1.1", "http/1.1",
        "HTTP/0.9", "HTTP/1.12345678901",
    ])
    def test_other_versions_get_400(self, server, version):
        (status, _, _), closed = exchange(
            server, f"GET /healthz {version}\r\nHost: x\r\n\r\n".encode()
        )
        assert status.startswith("HTTP/1.1 400 ")
        assert closed

    @pytest.mark.parametrize("line", [
        b"GET /healthz\r\n",  # HTTP/0.9 sends no header block
        b"GET\r\n",
        b"\r\n",
        b"GET /healthz extra HTTP/1.1\r\n\r\n",
    ])
    def test_request_line_of_other_than_three_words_gets_400(
        self, server, line
    ):
        (status, _, _), closed = exchange(server, line)
        assert status.startswith("HTTP/1.1 400 ")
        assert closed

    def test_leading_double_slash_is_one_slash(self, server):
        (status, _, body), _ = exchange(
            server, b"GET //healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("size, status", [
        (65536, "HTTP/1.1 200 OK"),
        (65537, "HTTP/1.1 431 Line too long"),
    ])
    def test_header_line_limit(self, server, size, status):
        line = b"X-Long: " + b"a" * (size - 10) + b"\r\n"
        assert len(line) == size
        (got, _, _), _ = exchange(
            server, b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n"
        )
        assert got == status

    @pytest.mark.parametrize("count, status", [
        (100, "HTTP/1.1 200 OK"),
        (101, "HTTP/1.1 431 Too many headers"),
    ])
    def test_header_count_limit(self, server, count, status):
        lines = b"".join(b"X-%d: 1\r\n" % i for i in range(count))
        (got, _, _), _ = exchange(
            server, b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        )
        assert got == status

    @pytest.mark.parametrize("name", [
        "content-length", "CONTENT-LENGTH", "Content-length",
    ])
    def test_header_names_match_in_any_case(self, server, suite_dataset, name):
        section = suite_dataset.X[0].tolist()
        length = len(json.dumps({"section": section}))
        (status, _, body), _ = exchange(server, predict_request(
            section, headers=(f"{name}: {length}",)
        ))
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["n"] == 1

    @pytest.mark.parametrize("first, second, closed", [
        ("close", "keep-alive", True),
        ("keep-alive", "close", False),
    ])
    def test_first_occurrence_of_a_name_wins(
        self, server, first, second, closed
    ):
        (status, _, _), was_closed = exchange(server, (
            f"GET /healthz HTTP/1.1\r\nConnection: {first}\r\n"
            f"connection: {second}\r\n\r\n"
        ).encode())
        assert status == "HTTP/1.1 200 OK"
        assert was_closed is closed

    @pytest.mark.parametrize("line", [
        b"no colon here",  # the parent dropped every header after it
        b"Connection : close",  # blank before the colon (RFC 7230 3.2.4)
        b" folded continuation",  # obs-fold
        b": no name",
    ], ids=["no-colon", "blank-before-colon", "obs-fold", "no-name"])
    def test_malformed_header_line_gets_400(self, server, line):
        (status, _, _), closed = exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n" + line
            + b"\r\nConnection: close\r\n\r\n",
        )
        assert status.startswith("HTTP/1.1 400 ")
        assert closed

    @pytest.mark.parametrize("values", [
        ("abc",), ("12x",), ("1e3",), ("-5",), ("+5",), ("1_0",),
        ("",), ("5", "6"),
    ])
    def test_malformed_content_length_gets_400_envelope(
        self, server, suite_dataset, values
    ):
        (status, headers, body), closed = exchange(server, predict_request(
            suite_dataset.X[0].tolist(),
            headers=[f"Content-Length: {value}" for value in values],
        ))
        assert status == "HTTP/1.1 400 Bad Request"
        document = json.loads(body)
        assert document["schema"] == SCHEMA and document["status"] == 400
        assert "Content-Length" in document["error"]
        # Where the body ends is unknown: the connection ends here.
        assert ("Connection", "close") in headers
        assert closed

    def test_repeated_equal_content_length_is_one(self, server, suite_dataset):
        section = suite_dataset.X[0].tolist()
        length = len(json.dumps({"section": section}))
        (status, _, _), closed = exchange(server, predict_request(
            section, headers=[f"Content-Length: {length}"] * 2,
        ))
        assert status == "HTTP/1.1 200 OK"
        assert not closed


class TestRefusalBeforeTheBody:
    """A POST refused before its body is read must not leave the body on
    the connection, where it would be read as the next request."""

    def _refused_then_predict(self, server, path, section):
        body = json.dumps({"section": section}).encode()
        post = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        with socket.create_connection(
            ("127.0.0.1", server.bound_port), timeout=2
        ) as sock:
            sock.sendall(post)
            refused = read_reply(sock)
            try:
                sock.sendall(predict_request(section))
                after = sock.recv(65536)
            except (BrokenPipeError, ConnectionResetError):
                after = b""
        return refused, after

    def test_unknown_post_path_closes_the_connection(
        self, server, suite_dataset
    ):
        (status, headers, body), after = self._refused_then_predict(
            server, "/nope", suite_dataset.X[0].tolist()
        )
        assert status == "HTTP/1.1 404 Not Found"
        assert json.loads(body)["status"] == 404
        assert ("Connection", "close") in headers
        # Closed, not "400 Bad request syntax" for the body glued to the
        # next request line.
        assert after == b""

    def test_shed_post_closes_the_connection(
        self, tmp_path, suite_tree, suite_dataset
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(
            registry=registry, default_model="cpi-tree@latest", port=0,
            max_inflight=1,
        )
        srv.start()
        srv.serve_in_background()
        srv.begin_request()
        try:
            (status, headers, body), after = self._refused_then_predict(
                srv, "/predict", suite_dataset.X[0].tolist()
            )
        finally:
            srv.end_request()
            srv.shutdown(drain_timeout=1.0)
        assert status == "HTTP/1.1 503 Service Unavailable"
        assert json.loads(body)["reason"] == "overload"
        assert ("Connection", "close") in headers
        assert after == b""


class TestReplyHead:
    def test_head_order(self, server, suite_dataset):
        (status, headers, body), _ = exchange(server, predict_request(
            suite_dataset.X[0].tolist()
        ))
        assert status == "HTTP/1.1 200 OK"
        assert [name for name, _ in headers] == [
            "Server", "Date", "Content-Type", "Content-Length",
        ]
        values = dict(headers)
        assert values["Server"].startswith("repro-serve/1 Python/")
        assert values["Content-Type"] == "application/json"
        assert int(values["Content-Length"]) == len(body)
        # RFC 7231's IMF-fixdate, as http.server formats it.
        assert time.strptime(values["Date"], "%a, %d %b %Y %H:%M:%S GMT")

    def test_reply_leaves_in_one_write(self):
        class Recorder(io.BytesIO):
            writes = flushes = 0

            def write(self, data):
                self.writes += 1
                return super().write(data)

            def flush(self):
                self.flushes += 1

        handler = object.__new__(ServeRequestHandler)
        handler.wfile = Recorder()
        handler.reply_json(200, {"x": 1})
        assert (handler.wfile.writes, handler.wfile.flushes) == (1, 1)
        assert handler.wfile.getvalue().startswith(b"HTTP/1.1 200 OK\r\n")
        assert handler.wfile.getvalue().endswith(
            b"\r\nContent-Length: 8\r\n\r\n{\"x\": 1}"
        )

    def test_503_head_carries_retry_after_before_length(
        self, tmp_path, suite_tree, suite_dataset
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        srv = ModelServer(
            registry=registry, default_model="cpi-tree@latest", port=0,
            max_inflight=1,
        )
        srv.start()
        srv.serve_in_background()
        srv.begin_request()
        try:
            (status, headers, _), _ = exchange(srv, predict_request(
                suite_dataset.X[0].tolist()
            ))
        finally:
            srv.end_request()
            srv.shutdown(drain_timeout=1.0)
        assert status == "HTTP/1.1 503 Service Unavailable"
        assert [name for name, _ in headers] == [
            "Server", "Date", "Content-Type", "Retry-After", "Connection",
            "Content-Length",
        ]

    def test_date_is_formatted_once_a_second(self, monkeypatch):
        from repro.serve import server as module

        calls = []
        clock = iter([1e9, 1e9 + 0.4, 1e9 + 0.99, 1e9 + 1.0])

        def formatdate(timeval, usegmt):
            calls.append(timeval)
            return email.utils.formatdate(timeval, usegmt=usegmt)

        monkeypatch.setattr(module, "_date", (0, ""))
        monkeypatch.setattr(module, "time", types.SimpleNamespace(
            time=lambda: next(clock)
        ))
        monkeypatch.setattr(module, "email", types.SimpleNamespace(
            utils=types.SimpleNamespace(formatdate=formatdate)
        ))
        dates = [module._http_date() for _ in range(4)]
        assert dates[:3] == ["Sun, 09 Sep 2001 01:46:40 GMT"] * 3
        assert dates[3] == "Sun, 09 Sep 2001 01:46:41 GMT"
        assert calls == [1000000000, 1000000001]


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

    @pytest.mark.parametrize("smoothing", [False, True])
    def test_matches_the_in_process_reference(self, suite_dataset, smoothing):
        # Path, leaf, prediction and contributions come from one route
        # over the row as Python floats: the bits of predict and of
        # leaf_contributions over the numpy row.
        model = M5Prime(min_instances=12, smoothing=smoothing).fit(
            suite_dataset
        )
        srv = ModelServer(port=0)
        srv.add_model("m", model)
        srv.start()
        srv.serve_in_background()
        try:
            for x in suite_dataset.X[::7]:
                status, document = call(srv, "/explain", {"section": x.tolist()})
                assert status == 200, document
                row = x.reshape(1, -1)
                assert document["prediction"] == float(model.predict(row)[0])
                assert document["leaf"] == int(model.leaf_ids(row)[0])
                nodes = model.decision_path(x)
                assert [
                    (step["attribute"], step["value"], step["branch"])
                    for step in document["path"]
                ] == [
                    (node.attribute_name, float(x[node.attribute_index]),
                     "left" if x[node.attribute_index] <= node.threshold
                     else "right")
                    for node in nodes[:-1]
                ]
                assert [
                    tuple(c.values()) for c in document["contributions"]
                ] == [
                    (c.event, c.coefficient, c.value, c.cycles, c.fraction,
                     c.potential_gain_percent)
                    for c in leaf_contributions(model, x)
                ]
                status, scored = call(srv, "/predict", {"section": x.tolist()})
                assert scored["predictions"] == [document["prediction"]]
        finally:
            srv.shutdown()

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


class TestConcurrentScoring:
    def test_stress_mixed_sizes(self, suite_dataset):
        """More scoring threads than cores, 1- and 64-row requests to a
        tree and a refined forest, and a switch interval short enough to
        interleave every step of two evaluations of one model."""
        X = suite_dataset.X
        forest = BaggedM5(n_estimators=4, min_instances=25, seed=3).fit(
            suite_dataset
        )
        RefinedForest(forest, prune_pct=0.2, n_prunings=1).fit(suite_dataset)
        assert forest.refined_ is not None
        models = {
            "tree": M5Prime(min_instances=25).fit(suite_dataset),
            "forest": forest,
        }
        srv = ModelServer(port=0)
        for label, model in models.items():
            srv.add_model(label, model)
        n_threads = 4 * (os.cpu_count() or 1) + 4
        per_thread = 12
        outcomes = {}

        def client(t):
            rng = np.random.default_rng(t)
            for k in range(per_thread):
                label = "tree" if rng.random() < 0.5 else "forest"
                rows = X[rng.integers(len(X), size=64 if rng.random() < 0.25
                                      else 1)]
                payload = (
                    {"model": label, "section": rows[0].tolist()}
                    if rows.shape[0] == 1
                    else {"model": label, "sections": rows.tolist()}
                )
                outcomes[t, k] = (label, rows, srv.handle_predict(payload))

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
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == n_threads * per_thread
        rows_sent = {label: 0 for label in models}
        for label, rows, document in outcomes.values():
            model = models[label]
            assert document["n"] == rows.shape[0]
            assert np.array(document["predictions"]).tobytes() == \
                model.predict(rows).tobytes()
            if label == "tree":
                assert document["leaf_ids"] == model.leaf_ids(rows).tolist()
            else:
                assert "leaf_ids" not in document
            rows_sent[label] += rows.shape[0]
        for label, sent in rows_sent.items():
            snapshot = srv.get_model(label).drift.snapshot()
            assert snapshot["rows_seen"] == sent
            assert snapshot["predictions_seen"] == sent
        text = srv.render_metrics()
        assert f"repro_batch_rows_count {len(outcomes)}\n" in text
        assert f"repro_batch_rows_sum {sum(rows_sent.values())}\n" in text


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
