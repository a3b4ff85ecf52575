"""The serving fleet: N worker processes behind one front door.

One :class:`~repro.serve.server.ModelServer` is a replica; this module
makes it a *service*.  A :class:`ServingFleet` forks ``workers``
processes, each running a full ``ModelServer`` with its model resolved
and compiled **before** it reports ready (a warm
:class:`~repro.serve.compiled.CompiledArena` cache keyed on registry blob
digests, so alias flips to an already-loaded digest never recompile).
A :class:`~repro.serve.supervisor.Supervisor` probes every worker's
``/healthz``, restarts crashed or wedged ones under
:class:`~repro.resilience.retry.RetryPolicy` backoff, and trips its
:class:`~repro.resilience.breaker.CircuitBreaker` into degraded mode
when restarts keep failing.

Two topologies (``FleetConfig.mode``):

* ``router`` (default, the one the chaos SLO is stated for) — workers
  bind ephemeral ports and a front **router** owns the public port.
  The router is an HTTP-aware reverse proxy: it buffers each request,
  forwards it to a healthy worker over a fresh connection, buffers the
  response, and relays it.  Because predictions are pure, a transport
  failure mid-forward (the worker died) or a ``draining`` shed (the
  worker is being retired) is retried on the next healthy worker — the
  client never sees a connection reset, only complete responses.  When
  no worker is in rotation the router sheds with the standard 503
  envelope (``reason: degraded``) and ``Retry-After``.
* ``reuseport`` — every worker binds the *same* public port with
  ``SO_REUSEPORT`` and the kernel balances connections.  No router hop,
  but no retry-on-crash either (a killed worker's accepted connections
  die with it), and supervision falls back to process liveness.  Use it
  where the extra hop matters more than the crash guarantees.

Worker lifecycle: SIGTERM means drain — stop accepting, finish
in-flight work within ``drain_timeout_s``, exit 0 — so both the
supervisor's graceful stop and an orchestrator's rolling update are
lossless.  Zero-downtime model rollout = flip a registry alias, then
:meth:`ServingFleet.rollout` rolls workers one at a time (spawn
replacement, wait healthy, swap into rotation, drain the old one); the
rotation never dips below its complement.

Chaos: the serve-tier ``REPRO_FAULTS`` sites live here —
``worker_crash`` hard-kills a worker mid-request (``os._exit``),
``slow_handler`` stalls a request past its deadline, and
``registry_read`` (in :mod:`repro.serve.registry`) breaks worker
startup.  All are deterministic, so the availability SLO is assertable
in CI.
"""

from __future__ import annotations

import http.client
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import FleetError, ReproError, TaskTimeoutError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    SCHEMA,
    ModelServer,
    ServeHTTPServer,
    ServeRequestHandler,
)
from repro.serve.supervisor import Supervisor

__all__ = ["FleetConfig", "ServingFleet", "WorkerHandle", "MODES"]

#: Valid ``FleetConfig.mode`` values.
MODES = ("router", "reuseport")


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet (and each forked worker) needs to run.

    Serializes to/from a flat JSON object (``--fleet-config``); the
    FLEET lint family audits such files statically, and
    :meth:`from_dict` rejects unknown keys so a typo cannot silently
    fall back to a default.
    """

    model: Optional[str] = None
    workers: int = 4
    host: str = "127.0.0.1"
    port: int = 8377
    mode: str = "router"
    registry_dir: Optional[str] = None
    max_batch: int = 256
    task_timeout: Optional[float] = None
    max_inflight: Optional[int] = 64
    retry_after_s: float = 1.0
    drain_timeout_s: float = 5.0
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 1.0
    startup_timeout_s: float = 15.0
    router_timeout_s: float = 10.0
    restart_base_delay_s: float = 0.2
    restart_max_delay_s: float = 5.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FleetError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in MODES:
            raise FleetError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not 0 <= self.port <= 65535:
            raise FleetError(f"port must lie in [0, 65535], got {self.port}")
        if self.mode == "reuseport" and self.port == 0:
            raise FleetError(
                "reuseport mode needs a fixed port; port 0 cannot be shared"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise FleetError(
                f"max_inflight must be >= 1 or null, got {self.max_inflight}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise FleetError(
                f"task_timeout must be positive or null, got "
                f"{self.task_timeout}"
            )
        for name in (
            "probe_interval_s", "probe_timeout_s", "startup_timeout_s",
            "router_timeout_s", "retry_after_s",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise FleetError(f"{name} must be positive, got {value}")
        for name in (
            "drain_timeout_s", "restart_base_delay_s", "restart_max_delay_s",
            "breaker_cooldown_s",
        ):
            value = getattr(self, name)
            if value < 0:
                raise FleetError(f"{name} must be >= 0, got {value}")
        if self.breaker_threshold < 1:
            raise FleetError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(document: Dict[str, Any]) -> "FleetConfig":
        known = {f.name for f in fields(FleetConfig)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise FleetError(
                f"unknown fleet config key(s): {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        return FleetConfig(**document)


@dataclass
class WorkerHandle:
    """One live worker process as the supervisor sees it."""

    index: int
    process: Any  # multiprocessing.Process (ctx-specific class)
    pid: int
    port: int

    def describe(self) -> Dict[str, Any]:
        return {"pid": self.pid, "port": self.port}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _FleetWorkerServer(ModelServer):
    """A worker's ModelServer with the serve-tier chaos sites armed."""

    def __init__(self, *args: Any, worker_index: int = 0, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._worker_index = worker_index

    def handle_predict(self, payload: Dict) -> Dict:
        plan = active_plan()
        if plan is not None:
            key = f"worker-{self._worker_index}"
            if plan.should_fail("worker_crash", key):
                # A hard crash mid-request: no cleanup, no goodbye —
                # exactly what the router's retry and the supervisor's
                # restart path must absorb.
                os._exit(1)
            if plan.should_fail("slow_handler", key):
                stall = self.task_timeout if self.task_timeout else 0.05
                time.sleep(stall)
                raise TaskTimeoutError(
                    "request stalled past its deadline (injected)"
                )
        return super().handle_predict(payload)


def _worker_main(config_dict: Dict[str, Any], index: int, conn: Any) -> None:
    """Entry point of a forked worker process."""
    config = FleetConfig.from_dict(config_dict)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # The parent coordinates shutdown order over SIGTERM; a terminal
    # Ctrl-C must not kill workers before the router stops routing.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    registry = ModelRegistry(
        Path(config.registry_dir) if config.registry_dir else None
    )
    try:
        server = _FleetWorkerServer(
            worker_index=index,
            registry=registry,
            default_model=config.model,
            host=config.host,
            port=config.port if config.mode == "reuseport" else 0,
            max_batch=config.max_batch,
            task_timeout=config.task_timeout,
            max_inflight=config.max_inflight,
            retry_after_s=config.retry_after_s,
            reuse_port=config.mode == "reuseport",
        )
        if config.model is not None:
            # Resolve and compile before reporting ready: a worker in
            # rotation is a *warm* worker.
            server.get_model(config.model)
        server.start()
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        os._exit(1)
    conn.send(("ready", os.getpid(), server.bound_port))
    conn.close()
    server.serve_in_background()
    stop.wait()
    server.shutdown(drain_timeout=config.drain_timeout_s)
    sys.exit(0)


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class ServingFleet:
    """Supervised multi-process serving behind one address.

    Args:
        config: The fleet topology and worker settings.
        on_event: Optional sink for supervision events (the CLI passes
            a stderr printer); events are also kept in a ring visible
            on ``/fleet/status``.
    """

    def __init__(
        self,
        config: FleetConfig,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.on_event = on_event
        self.registry = ModelRegistry(
            Path(config.registry_dir) if config.registry_dir else None
        )
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.supervisor = Supervisor(
            spawn=self._spawn_worker,
            probe=self._probe_worker,
            stop=self._stop_worker,
            n_workers=config.workers,
            retry=RetryPolicy(
                max_attempts=1,
                base_delay=config.restart_base_delay_s,
                max_delay=config.restart_max_delay_s,
                seed=config.seed,
            ),
            breaker=CircuitBreaker(
                failure_threshold=config.breaker_threshold,
                cooldown_s=config.breaker_cooldown_s,
            ),
            startup_timeout=config.startup_timeout_s,
            describe=lambda handle: handle.describe(),
        )
        self.metrics = MetricsRegistry()
        self._router_requests = self.metrics.counter(
            "repro_router_requests_total",
            "Requests through the fleet router, by endpoint and status.",
            ("endpoint", "status"),
        )
        self._router_retries = self.metrics.counter(
            "repro_router_retries_total",
            "Forward attempts retried on another worker after a "
            "transport failure or a draining shed.",
        )
        self._shed = self.metrics.counter(
            "repro_shed_total",
            "Requests the router refused outright, by reason.",
            ("reason",),
        )
        self._httpd: Optional[ServeHTTPServer] = None
        self._stop = threading.Event()
        self._supervise_thread: Optional[threading.Thread] = None
        self._events: Deque[str] = deque(maxlen=50)
        self._events_lock = threading.Lock()
        self._rr = 0
        self._rr_lock = threading.Lock()

    # -- event plumbing -------------------------------------------------
    def _record_events(self, events: List[str]) -> None:
        if not events:
            return
        with self._events_lock:
            self._events.extend(events)
        if self.on_event is not None:
            for event in events:
                self.on_event(event)

    # -- supervisor callables ------------------------------------------
    def _spawn_worker(self, index: int) -> WorkerHandle:
        parent, child = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(self.config.to_dict(), index, child),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child.close()
        try:
            if not parent.poll(self.config.startup_timeout_s):
                raise FleetError(
                    f"worker {index} sent no ready signal within "
                    f"{self.config.startup_timeout_s:g}s"
                )
            try:
                message = parent.recv()
            except EOFError:
                process.join(0.5)
                raise FleetError(
                    f"worker {index} died during startup "
                    f"(exit code {process.exitcode})"
                ) from None
            if message[0] != "ready":
                raise FleetError(
                    f"worker {index} failed to start: {message[1]}"
                )
        except FleetError:
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            raise
        finally:
            parent.close()
        _, pid, port = message
        return WorkerHandle(index=index, process=process, pid=pid, port=port)

    def _probe_worker(self, handle: WorkerHandle) -> bool:
        if not handle.process.is_alive():
            return False
        if self.config.mode == "reuseport":
            # Workers share the public port; a targeted HTTP probe is
            # impossible, so supervision is process liveness only.
            return True
        try:
            conn = http.client.HTTPConnection(
                self.config.host, handle.port,
                timeout=self.config.probe_timeout_s,
            )
            try:
                conn.request("GET", "/healthz",
                             headers={"Connection": "close"})
                response = conn.getresponse()
                response.read()
                return response.status == 200
            finally:
                conn.close()
        except (OSError, http.client.HTTPException):
            return False

    def _stop_worker(self, handle: WorkerHandle, graceful: bool) -> None:
        process = handle.process
        if graceful and process.is_alive():
            try:
                os.kill(handle.pid, signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass
            process.join(self.config.drain_timeout_s + 2.0)
        if process.is_alive():
            process.terminate()
            process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ServingFleet":
        if self._supervise_thread is not None:
            raise FleetError("fleet already started")
        self.supervisor.start()
        if self.config.mode == "router":
            handler = _make_router_handler(self)
            self._httpd = ServeHTTPServer(
                (self.config.host, self.config.port), handler
            )
        self._stop.clear()
        self._supervise_thread = threading.Thread(
            target=self._supervise_loop, name="repro-supervisor", daemon=True
        )
        self._supervise_thread.start()
        self._record_events([
            f"fleet up: {self.config.workers} worker(s), "
            f"mode {self.config.mode}, port {self.bound_port}"
        ])
        return self

    def _supervise_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval_s):
            try:
                self._record_events(self.supervisor.tick())
            except Exception as exc:  # noqa: BLE001 — loop must survive
                self._record_events([f"supervision error: {exc}"])

    @property
    def bound_port(self) -> int:
        if self.config.mode == "reuseport":
            return self.config.port
        if self._httpd is None:
            raise FleetError("fleet is not started")
        return int(self._httpd.server_address[1])

    def serve_forever(self) -> None:
        if self.config.mode == "router":
            if self._httpd is None:
                raise FleetError("call start() before serve_forever()")
            self._httpd.serve_forever(poll_interval=0.1)
        else:
            self._stop.wait()

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-fleet", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop routing, stop supervising, drain every worker."""
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        thread = self._supervise_thread
        if thread is not None:
            thread.join(timeout=self.config.probe_interval_s + 2.0)
            self._supervise_thread = None
        self.supervisor.stop_all(graceful=True)

    # -- control operations --------------------------------------------
    def rollout(
        self, name: str, alias: str, version: Optional[int] = None
    ) -> List[str]:
        """Flip a registry alias, then roll workers with zero downtime.

        Workers resolve their model at startup, so replacing each one
        (one at a time, replacement healthy before the old drains) is
        what actually moves traffic to the new version.  The rotation
        never loses a slot; the router keeps serving throughout.
        """
        self.registry.alias(name, alias, version=version)
        events = [f"alias {name}@{alias} -> " + (
            f"version {version}" if version is not None else "latest"
        )]
        events += self.supervisor.rolling_restart()
        self._record_events(events)
        return events

    def status(self) -> Dict[str, Any]:
        document = self.supervisor.status()
        with self._events_lock:
            events = list(self._events)
        document.update({
            "schema": SCHEMA,
            "mode": self.config.mode,
            "port": self.bound_port,
            "model": self.config.model,
            "events": events,
        })
        return document

    # -- routing --------------------------------------------------------
    def _rotation(self) -> List[WorkerHandle]:
        """Healthy workers, round-robin rotated per call."""
        handles = self.supervisor.healthy_handles()
        if not handles:
            return []
        with self._rr_lock:
            start = self._rr
            self._rr += 1
        k = start % len(handles)
        return handles[k:] + handles[:k]

    def forward(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Proxy one buffered request to the first worker that answers.

        Transport failures (the worker died or hung) move on to the
        next healthy worker — safe because predictions are pure — so a
        mid-request worker crash costs the client latency, never a
        reset.  So does a worker's ``draining`` shed: a rollout drains
        the old worker right after swapping it out of rotation, and a
        request routed from an earlier snapshot must not fail for it.
        Every other HTTP response a worker produces (including its
        other 503 shed envelopes) is relayed verbatim.

        Raises:
            FleetError: No worker is in rotation, or every one failed
                at the transport level or was draining; the router
                sheds the request.
        """
        rotation = self._rotation()
        if not rotation:
            raise FleetError("no healthy worker in rotation")
        last_error: Optional[Exception] = None
        for attempt, handle in enumerate(rotation):
            if attempt > 0:
                self._router_retries.inc()
            try:
                reply = self._forward_once(handle, method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if reply[0] == 503 and _shed_reason(reply[2]) == "draining":
                last_error = FleetError(f"worker {handle.index} is draining")
                continue
            return reply
        raise FleetError(
            f"every healthy worker failed at the transport level or was "
            f"draining ({last_error})"
        )

    def _forward_once(
        self, handle: WorkerHandle, method: str, path: str,
        body: Optional[bytes],
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.config.host, handle.port,
            timeout=self.config.router_timeout_s,
        )
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            relayed = {}
            for name in ("Content-Type", "Retry-After"):
                value = response.getheader(name)
                if value is not None:
                    relayed[name] = value
            return response.status, relayed, payload
        finally:
            conn.close()


def _shed_reason(payload: bytes) -> Optional[str]:
    """The ``reason`` of a worker's 503 envelope, if it carries one."""
    try:
        document = json.loads(payload)
    except ValueError:
        return None
    return document.get("reason") if isinstance(document, dict) else None


# ----------------------------------------------------------------------
# Router HTTP surface
# ----------------------------------------------------------------------
def _make_router_handler(fleet: ServingFleet):
    """The front router's request handler, closed over the fleet."""

    class RouterHandler(ServeRequestHandler):
        server_version = "repro-fleet/" + SCHEMA.rsplit("/", 1)[-1]

        def _shed(self, endpoint: str, message: str) -> None:
            reason = "degraded"
            fleet._shed.inc(reason)
            retry_after = str(
                max(1, math.ceil(fleet.config.retry_after_s))
            )
            self.reply_json(
                503,
                {
                    "schema": SCHEMA,
                    "error": message,
                    "status": 503,
                    "reason": reason,
                    "retry_after": int(retry_after),
                },
                {"Retry-After": retry_after},
            )
            fleet._router_requests.inc(endpoint, "503")

        def _proxy(self, endpoint: str, body: Optional[bytes]) -> None:
            try:
                status, headers, payload = fleet.forward(
                    self.command, self.path, body
                )
            except FleetError as exc:
                self._shed(endpoint, str(exc))
                return
            try:
                self.reply(status, payload, headers)
            except (BrokenPipeError, OSError):
                status = 499
            fleet._router_requests.inc(endpoint, str(status))

        def _read_body(self) -> Optional[bytes]:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length > 0 else None

        # -- routes -----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — http.server contract
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                status = fleet.supervisor.status()
                healthy = status["healthy_workers"]
                self.reply_json(200, {
                    "schema": SCHEMA,
                    "status": (
                        "degraded"
                        if status["degraded"] or healthy == 0 else "ok"
                    ),
                    "healthy_workers": healthy,
                    "workers": len(status["workers"]),
                })
                fleet._router_requests.inc("/healthz", "200")
            elif path == "/fleet/status":
                self.reply_json(200, fleet.status())
                fleet._router_requests.inc("/fleet/status", "200")
            elif path == "/metrics":
                self.reply(
                    200, fleet.metrics.render().encode("utf-8"),
                    {"Content-Type": "text/plain; version=0.0.4"},
                )
                fleet._router_requests.inc("/metrics", "200")
            else:
                self._proxy(path, None)

        def do_POST(self) -> None:  # noqa: N802 — http.server contract
            path = self.path.split("?", 1)[0].rstrip("/")
            body = self._read_body()
            if path == "/fleet/rollout":
                self._rollout(body)
            else:
                self._proxy(path, body)

        def _rollout(self, body: Optional[bytes]) -> None:
            try:
                payload = json.loads((body or b"").decode("utf-8"))
                if not isinstance(payload, dict) or "name" not in payload \
                        or "alias" not in payload:
                    raise ValueError(
                        'rollout payload needs "name" and "alias"'
                    )
                version = payload.get("version")
                if version is not None:
                    version = int(version)
                events = fleet.rollout(
                    str(payload["name"]), str(payload["alias"]), version
                )
            except (ValueError, ReproError) as exc:
                self.reply_json(400, {
                    "schema": SCHEMA, "error": str(exc), "status": 400,
                })
                fleet._router_requests.inc("/fleet/rollout", "400")
                return
            self.reply_json(200, {
                "schema": SCHEMA, "status": "ok", "events": events,
            })
            fleet._router_requests.inc("/fleet/rollout", "200")

    return RouterHandler
