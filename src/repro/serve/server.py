"""The model server: batched tree inference behind a JSON HTTP API.

Stdlib-only (``http.server``): the serving stack must run wherever the
training stack runs.  A :class:`ModelServer` owns the registry handle,
a per-model :class:`~repro.serve.batching.BatchQueue` (so concurrent
requests coalesce into one compiled evaluation), a
:class:`~repro.serve.drift.DriftMonitor` per model, and the metrics
registry the ``/metrics`` endpoint renders.

Endpoints (all JSON, envelope schema ``repro-serve/1``):

* ``POST /predict`` — score one section or a batch; returns
  predictions plus the paper's LM class per row.
* ``POST /explain`` — the paper's "what/how much" answers for one
  section: decision path, leaf equation terms, per-event contributions.
* ``GET /models`` — every published registry version.
* ``GET /healthz`` — liveness plus the loaded model set.
* ``GET /metrics`` — Prometheus text format: request counts, latency
  and batch-size histograms, model-cache hits, drift counters.

Error contract: invalid payloads are 400, unknown models/paths 404,
deadline overruns and shed requests 503 (the
:class:`~repro.resilience.RunPolicy` ``task_timeout`` semantics and the
admission-control path), unexpected failures 500 — always as a
``{"schema": ..., "error": ..., "status": ...}`` JSON body, never a
traceback page.  Every 503 carries a ``Retry-After`` header and a
machine-readable ``reason`` (``deadline`` / ``overload`` /
``draining``) so clients can back off instead of piling on; shed
requests are counted by the ``repro_shed_total`` metric.

Lifecycle: ``shutdown(drain_timeout=...)`` drains gracefully — the
listening socket closes first (new requests are refused), in-flight
requests get up to the drain timeout to finish, then batch queues stop.
The CLI wires SIGTERM to this path so an orchestrator's stop is never a
dropped request.

Transport: :class:`ServeHTTPServer` listens and
:class:`ServeRequestHandler` sends each reply as one flushed write with
Nagle off, so keep-alive replies never wait on a delayed ACK.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.analysis.contribution import leaf_contributions
from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import SplitNode
from repro.errors import (
    DataError,
    OverloadError,
    RegistryError,
    ReproError,
    ServeError,
    TaskTimeoutError,
)
from repro.serve.batching import BatchQueue
from repro.serve.drift import DriftMonitor
from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.serve.registry import ModelRegistry
from repro.verify import verify_model

if TYPE_CHECKING:
    from repro.verify.certificate import VerificationCertificate

__all__ = ["ModelServer", "SCHEMA", "ServeHTTPServer"]

#: Envelope identity on every JSON response; bump on breaking changes.
SCHEMA = "repro-serve/1"

#: One scored row of a single tree: its prediction and LM number.
_SCORED = np.dtype([("prediction", np.float64), ("leaf_id", np.int64)])


class ServeHTTPServer(ThreadingHTTPServer):
    """The listening server.

    Request threads are daemons (``ThreadingHTTPServer``'s default), the
    listen backlog is ``socket.SOMAXCONN`` instead of ``socketserver``'s
    5 — past the backlog a connect waits out a 1 s SYN retransmit — and
    :meth:`shutdown` is safe whether or not a serve loop ever ran.
    """

    request_queue_size = socket.SOMAXCONN

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._loop_lock = threading.Lock()
        self._loop_started = False
        self._loop_stopped = False

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._loop_lock:
            if self._loop_stopped:
                return
            self._loop_started = True
        super().serve_forever(poll_interval)

    def shutdown(self) -> None:
        """Stop the serve loop if one started.

        ``socketserver``'s own ``shutdown`` waits for a loop to
        acknowledge, so after ``start()`` without ``serve_forever()`` it
        would wait forever; a loop that starts after this returns at
        once.
        """
        with self._loop_lock:
            self._loop_stopped = True
            started = self._loop_started
        if started:
            super().shutdown()


class ServeRequestHandler(BaseHTTPRequestHandler):
    """The reply transport.

    ``http.server`` sends a reply's headers and body as two ``send()``
    calls.  With Nagle's algorithm on, the body then waits for the
    client's delayed ACK — about 40 ms on Linux — on every keep-alive
    reply.  Here the write file is buffered and Nagle is off (the
    pairing ``socketserver`` recommends), and :meth:`reply` flushes
    headers and body together, so a transport error (the client went
    away) raises inside the reply helper where the caller counts it.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    # Silence the default per-request stderr logging; metrics carry the
    # signal.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the body.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def reply(
        self, status: int, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send one complete reply and flush it before returning."""
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def reply_json(
        self, status: int, document: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.reply(
            status, json.dumps(document).encode("utf-8"),
            {"Content-Type": "application/json", **(headers or {})},
        )


@dataclass
class ServedModel:
    """One loaded model (single tree or compiled forest) and its
    serving machinery."""

    label: str
    model: object
    queue: BatchQueue
    drift: DriftMonitor
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def is_forest(self) -> bool:
        return not isinstance(self.model, M5Prime)


class ModelServer:
    """Everything behind the HTTP surface; usable without HTTP in tests.

    Args:
        registry: Model registry to resolve specs against (defaults to
            the shared on-disk registry).
        default_model: Spec requests use when they name no model.
        host, port: Bind address; port 0 asks the OS for an ephemeral
            port (``bound_port`` reports the outcome).
        max_batch: Row budget per coalesced evaluation (see
            :class:`~repro.serve.batching.BatchQueue`).
        task_timeout: Per-request wall-clock budget in seconds, the
            ``RunPolicy.task_timeout`` semantics; ``None`` disables.
        range_slack: Drift-monitor range slack (COMPAT003's default).
        max_inflight: Admission-control cap on concurrently evaluating
            requests; requests beyond it are shed with 503 +
            ``Retry-After`` instead of queueing unboundedly.  ``None``
            disables shedding.
        retry_after_s: Value (seconds) 503 responses advertise in their
            ``Retry-After`` header.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        default_model: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 8377,
        max_batch: int = 256,
        task_timeout: Optional[float] = None,
        range_slack: float = 0.10,
        max_inflight: Optional[int] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1 or None, got {max_inflight}"
            )
        self.registry = registry if registry is not None else ModelRegistry()
        self.default_model = default_model
        self.host = host
        self.port = int(port)
        self.max_batch = int(max_batch)
        self.task_timeout = task_timeout
        self.range_slack = float(range_slack)
        self.max_inflight = max_inflight
        self.retry_after_s = float(retry_after_s)
        self._models: Dict[str, ServedModel] = {}
        self._by_digest: Dict[str, ServedModel] = {}
        self._models_lock = threading.Lock()
        self._httpd: Optional[ServeHTTPServer] = None
        self._draining = threading.Event()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_requests_total",
            "HTTP requests served, by endpoint and status.",
            ("endpoint", "status"),
        )
        self._latency = self.metrics.histogram(
            "repro_request_seconds",
            "Request wall-clock seconds, by endpoint.",
            labelnames=("endpoint",),
        )
        self._batch_rows = self.metrics.histogram(
            "repro_batch_rows",
            "Rows per coalesced predictor batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._model_cache = self.metrics.counter(
            "repro_model_cache_total",
            "Model resolutions, by outcome (hit = already loaded).",
            ("outcome",),
        )
        self._model_info = self.metrics.gauge(
            "repro_served_model_leaves",
            "Leaf count of each loaded model.",
            ("model",),
        )
        self._shed = self.metrics.counter(
            "repro_shed_total",
            "Requests refused before evaluation, by reason.",
            ("reason",),
        )
        self._inflight_gauge = self.metrics.gauge(
            "repro_inflight_requests",
            "Requests currently being evaluated.",
        )

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def add_model(
        self,
        label: str,
        model,
        certificate: Optional["VerificationCertificate"] = None,
    ) -> ServedModel:
        """Serve an in-memory fitted model under ``label`` (no registry).

        Accepts a single :class:`~repro.core.tree.m5.M5Prime` or a
        fitted :class:`~repro.baselines.bagging.BaggedM5` forest.
        Without an explicit ``certificate`` the server derives one from
        the static verifier when it can (clean single tree with recorded
        ``feature_ranges_``), so the drift monitor bounds predictions
        even for models loaded outside the registry path.  Forests are
        uncertified, so their drift monitor runs without an output
        bound.
        """
        is_forest = not isinstance(model, M5Prime)
        if is_forest:
            if not getattr(model, "estimators_", ()):
                raise ServeError(f"cannot serve unfitted forest {label!r}")
        elif model.root_ is None:
            raise ServeError(f"cannot serve unfitted model {label!r}")
        compiled = model.compiled_
        if certificate is None:
            try:
                certificate = verify_model(model).certificate
            except ReproError:
                certificate = None
        drift = DriftMonitor(
            model,
            range_slack=self.range_slack,
            output_interval=(
                None if certificate is None else certificate.output
            ),
        )
        smoothing_k = model.smoothing_k if model.smoothing else None

        if is_forest:
            # Through the ensemble's own predict so an attached
            # refinement pass (refined_) is honored.
            def evaluate(X: np.ndarray) -> np.ndarray:
                drift.observe(X)
                predictions = model.predict(X)
                drift.observe_predictions(predictions)
                return predictions
        else:
            # Predictions and LM numbers from one route, returned per
            # batch: the arena is shared with /explain and must not
            # carry a batch's state.
            def evaluate(X: np.ndarray) -> np.ndarray:
                drift.observe(X)
                predictions, nodes = compiled.predict_routed(
                    X, smoothing_k=smoothing_k
                )
                drift.observe_predictions(predictions)
                scored = np.empty(X.shape[0], dtype=_SCORED)
                scored["prediction"] = predictions
                scored["leaf_id"] = compiled.leaf_id[nodes[:, 0]]
                return scored

        queue = BatchQueue(
            evaluate,
            max_batch=self.max_batch,
            observe_batch=lambda n: self._batch_rows.observe(n),
        ).start()
        served = ServedModel(label=label, model=model, queue=queue, drift=drift)
        with self._models_lock:
            self._models[label] = served
        self._model_info.set(label, value=model.n_leaves)
        return served

    def get_model(self, spec: Optional[str] = None) -> ServedModel:
        """The served model for a spec, loading through the registry once."""
        if spec is None:
            spec = self.default_model
        if spec is None:
            with self._models_lock:
                if len(self._models) == 1:
                    return next(iter(self._models.values()))
            raise ServeError(
                "request names no model and the server has no default "
                "(start with --model, or pass \"model\" in the payload)"
            )
        with self._models_lock:
            served = self._models.get(spec)
        if served is not None:
            self._model_cache.inc("hit")
            return served
        model, record = self.registry.resolve(spec)
        with self._models_lock:
            warm = self._by_digest.get(record.blob)
            if warm is not None:
                # The spec is new but its blob is already compiled and
                # serving (an alias flip to a published digest): reuse
                # the warm queue + drift monitor instead of recompiling.
                self._models[spec] = warm
                self._models.setdefault(record.spec, warm)
        if warm is not None:
            self._model_cache.inc("warm")
            return warm
        self._model_cache.inc("miss")
        try:
            certificate = self.registry.load_certificate(record)
        except RegistryError:
            # A damaged certificate should not block serving a model
            # whose blob integrity already checked out; the monitor just
            # loses its prediction bound (and preflight reports it).
            certificate = None
        served = self.add_model(record.spec, model, certificate=certificate)
        with self._models_lock:
            self._by_digest[record.blob] = served
            if spec != record.spec:
                # Remember the alias spelling too (cpi-tree@latest -> @3).
                self._models[spec] = served
        return served

    def loaded_models(self) -> List[str]:
        with self._models_lock:
            return sorted({served.label for served in self._models.values()})

    # ------------------------------------------------------------------
    # Admission control and drain accounting
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def begin_request(self) -> None:
        """Admit one work-bearing request or shed it with 503 semantics.

        Raises:
            OverloadError: The server is draining or already at its
                ``max_inflight`` budget; the HTTP layer turns this into
                a 503 with ``Retry-After`` and bumps ``repro_shed_total``.
        """
        if self._draining.is_set():
            raise OverloadError(
                "server is draining; retry against another replica",
                reason="draining",
                retry_after=self.retry_after_s,
            )
        with self._inflight_cv:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                raise OverloadError(
                    f"server is at its in-flight budget "
                    f"({self.max_inflight}); retry shortly",
                    reason="overload",
                    retry_after=self.retry_after_s,
                )
            self._inflight += 1
            self._inflight_gauge.set(value=self._inflight)

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_gauge.set(value=self._inflight)
            self._inflight_cv.notify_all()

    def count_shed(self, reason: str) -> None:
        self._shed.inc(reason)

    def _wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True

    # ------------------------------------------------------------------
    # Request handling (transport-independent; the HTTP layer is thin)
    # ------------------------------------------------------------------
    def handle_predict(self, payload: Dict) -> Dict:
        served = self.get_model(_optional_str(payload, "model"))
        X, single = _sections_matrix(payload, served.model)
        scored = served.queue.submit(X, timeout=self.task_timeout)
        document = {
            "schema": SCHEMA,
            "model": served.label,
            "n": int(X.shape[0]),
            "single": single,
        }
        if served.is_forest:
            document["predictions"] = scored.tolist()
            document["n_trees"] = len(served.model.estimators_)
            document["refined"] = served.model.refined_ is not None
        else:
            document["predictions"] = scored["prediction"].tolist()
            document["leaf_ids"] = scored["leaf_id"].tolist()
        return document

    def handle_explain(self, payload: Dict) -> Dict:
        served = self.get_model(_optional_str(payload, "model"))
        if served.is_forest:
            raise ServeError(
                f"{served.label!r} is a forest; /explain is a single-tree "
                "endpoint — inspect forest leaves offline via "
                "RefinedForest.describe_leaf"
            )
        model = served.model
        X, single = _sections_matrix(payload, model)
        if not single:
            raise ServeError(
                "/explain takes one \"section\"; batch explanations are "
                "a /predict + per-section /explain loop"
            )
        x = X[0]
        served.drift.observe(X)
        path = []
        for node in model.decision_path(x):
            if isinstance(node, SplitNode):
                value = float(x[node.attribute_index])
                path.append({
                    "attribute": node.attribute_name,
                    "threshold": node.threshold,
                    "value": value,
                    "branch": "left" if value <= node.threshold else "right",
                })
        leaf = model.leaf_for(x)
        contributions = [
            {
                "event": c.event,
                "coefficient": c.coefficient,
                "value": c.value,
                "cycles": c.cycles,
                "fraction": c.fraction,
                "potential_gain_percent": c.potential_gain_percent,
            }
            for c in leaf_contributions(model, x)
        ]
        return {
            "schema": SCHEMA,
            "model": served.label,
            "leaf": int(leaf.leaf_id),
            "leaf_population": int(leaf.n_instances),
            "prediction": float(model.predict(x.reshape(1, -1))[0]),
            "target": model.target_name_,
            "path": path,
            "contributions": contributions,
        }

    def handle_models(self) -> Dict:
        return {
            "schema": SCHEMA,
            "models": [
                dict(record.to_dict(), name=record.name, spec=record.spec)
                for record in self.registry.records()
            ],
            "loaded": self.loaded_models(),
        }

    def handle_healthz(self) -> Dict:
        return {
            "schema": SCHEMA,
            "status": "draining" if self.draining else "ok",
            "models": self.loaded_models(),
            "inflight": self.inflight,
        }

    def render_metrics(self) -> str:
        text = self.metrics.render()
        with self._models_lock:
            served = sorted(
                {s.label: s for s in self._models.values()}.items()
            )
        for label, model in served:
            text += "\n".join(model.drift.render_metrics(label)) + "\n"
        return text

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def start(self) -> "ModelServer":
        """Bind the listening socket and start the request threads."""
        if self._httpd is not None:
            raise ServeError("server already started")
        self._httpd = ServeHTTPServer(
            (self.host, self.port), _make_handler(self)
        )
        return self

    @property
    def bound_port(self) -> int:
        """The actual port (meaningful after ``start`` with port 0)."""
        if self._httpd is None:
            raise ServeError("server is not started")
        return int(self._httpd.server_address[1])

    def serve_forever(self) -> None:
        if self._httpd is None:
            raise ServeError("call start() before serve_forever()")
        self._httpd.serve_forever(poll_interval=0.1)

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, examples)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self, drain_timeout: float = 5.0) -> bool:
        """Graceful stop: stop accepting, drain in-flight, stop queues.

        New requests are refused (shed with 503 ``draining``) the moment
        this is called; requests already admitted get up to
        ``drain_timeout`` seconds to finish before batch queues stop.

        Returns:
            ``True`` when every in-flight request finished within the
            drain budget, ``False`` when the timeout expired first.
        """
        self._draining.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        drained = self._wait_idle(max(0.0, drain_timeout))
        with self._models_lock:
            served = {id(s): s for s in self._models.values()}
            self._models.clear()
            self._by_digest.clear()
        for model in served.values():
            model.queue.stop()
        return drained


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
def _optional_str(payload: Dict, key: str) -> Optional[str]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ServeError(f'"{key}" must be a string')
    return value


def _sections_matrix(payload: Dict, model) -> Tuple[np.ndarray, bool]:
    """The (rows, is_single) request matrix, width-checked for the model."""
    if "section" in payload and "sections" in payload:
        raise ServeError('pass either "section" or "sections", not both')
    if "section" in payload:
        raw, single = [payload["section"]], True
    elif "sections" in payload:
        raw, single = payload["sections"], False
        if not isinstance(raw, list) or not raw:
            raise ServeError('"sections" must be a non-empty array of rows')
    else:
        raise ServeError('payload needs a "section" or "sections" field')
    try:
        X = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"sections are not numeric: {exc}") from None
    if X.ndim != 2:
        raise ServeError(
            f"sections must form a 2-D matrix, got shape {X.shape}"
        )
    expected = len(model.attributes_)
    if X.shape[1] != expected:
        raise ServeError(
            f"section width {X.shape[1]} does not match the model's "
            f"{expected} attributes"
        )
    if not np.all(np.isfinite(X)):
        raise ServeError("sections contain NaN or infinite values")
    return X, single


def _make_handler(app: ModelServer):
    """A request-handler class closed over the server instance."""

    class Handler(ServeRequestHandler):
        server_version = "repro-serve/" + SCHEMA.rsplit("/", 1)[-1]

        # -- plumbing ---------------------------------------------------
        def _send_error(
            self, status: int, message: str,
            reason: Optional[str] = None,
            retry_after: Optional[float] = None,
        ) -> None:
            document = {"schema": SCHEMA, "error": message, "status": status}
            headers: Dict[str, str] = {}
            if status == 503:
                # Every 503 — deadline or shed — tells clients
                # when to come back, in whole seconds as RFC 7231 asks.
                delay = retry_after if retry_after is not None \
                    else app.retry_after_s
                headers["Retry-After"] = str(max(1, math.ceil(delay)))
                document["reason"] = reason or "overload"
                document["retry_after"] = int(headers["Retry-After"])
            elif reason is not None:
                document["reason"] = reason
            self.reply_json(status, document, headers)

        def _read_payload(self) -> Dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ServeError("request needs a JSON body")
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError(f"invalid JSON body: {exc}") from None
            if not isinstance(payload, dict):
                raise ServeError("JSON body must be an object")
            return payload

        def _finish(self, endpoint: str, started: float, status: int) -> None:
            app._requests.inc(endpoint, str(status))
            app._latency.observe(time.perf_counter() - started, endpoint)

        def _dispatch(self, endpoint: str, fn, admit: bool = False) -> None:
            started = time.perf_counter()
            status = 200
            admitted = False
            if admit:
                try:
                    app.begin_request()
                    admitted = True
                except OverloadError as exc:
                    app.count_shed(exc.reason)
                    status = 503
                    try:
                        self._send_error(
                            status, str(exc), reason=exc.reason,
                            retry_after=exc.retry_after,
                        )
                    except (BrokenPipeError, OSError):
                        status = 499
                    self._finish(endpoint, started, status)
                    return
            try:
                # Release the admission slot as soon as evaluation is
                # done — before the response write.  The slot bounds
                # concurrent *evaluation*; holding it through the send
                # lets a serial client's next request race the release
                # and shed spuriously.
                try:
                    document = fn()
                finally:
                    if admitted:
                        app.end_request()
                        admitted = False
            except TaskTimeoutError as exc:
                status = 503
                app.count_shed("deadline")
                self._send_error(status, str(exc), reason="deadline")
            except OverloadError as exc:
                status = 503
                app.count_shed(exc.reason)
                self._send_error(
                    status, str(exc), reason=exc.reason,
                    retry_after=exc.retry_after,
                )
            except (RegistryError,) as exc:
                status = 404
                self._send_error(status, str(exc))
            except (ServeError, DataError) as exc:
                status = 400
                self._send_error(status, str(exc))
            except ReproError as exc:
                status = 500
                self._send_error(status, str(exc))
            except BrokenPipeError:  # client went away mid-write
                status = 499
            except Exception as exc:  # noqa: BLE001 — no traceback pages
                status = 500
                try:
                    self._send_error(status, f"internal error: {exc!r}")
                except OSError:
                    pass
            else:
                try:
                    self.reply_json(status, document)
                except BrokenPipeError:
                    status = 499
            self._finish(endpoint, started, status)

        # -- routes -----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — http.server contract
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                self._dispatch("/healthz", app.handle_healthz)
            elif path == "/models":
                self._dispatch("/models", app.handle_models)
            elif path == "/metrics":
                started = time.perf_counter()
                self.reply(
                    200, app.render_metrics().encode("utf-8"),
                    {"Content-Type": "text/plain; version=0.0.4"},
                )
                self._finish("/metrics", started, 200)
            else:
                started = time.perf_counter()
                self._send_error(404, f"unknown path {path!r}")
                self._finish(path, started, 404)

        def do_POST(self) -> None:  # noqa: N802 — http.server contract
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/predict":
                self._dispatch(
                    "/predict",
                    lambda: app.handle_predict(self._read_payload()),
                    admit=True,
                )
            elif path == "/explain":
                self._dispatch(
                    "/explain",
                    lambda: app.handle_explain(self._read_payload()),
                    admit=True,
                )
            else:
                started = time.perf_counter()
                self._send_error(404, f"unknown path {path!r}")
                self._finish(path, started, 404)

    return Handler
