"""The serve CLI surface: drain-on-SIGTERM.

The drain tests exercise the real contract an orchestrator sees —
``SIGTERM`` to the serving process must finish in-flight work and exit
0 — so they spawn ``python -m repro.cli serve`` as a subprocess and
signal it for real.
"""

import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from http.server import BaseHTTPRequestHandler

import pytest

from repro.cli import _DrainRequested
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeHTTPServer

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def published_registry(tmp_path, suite_tree):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("cpi-tree", suite_tree, aliases=["prod"])
    return registry


def spawn_serve(registry, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--registry", str(registry.directory),
         "--model", "cpi-tree@prod", "--port", "0", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # The banner line carries the bound port; a "serving <model>" line
    # may precede it.
    banner = ""
    for _ in range(10):
        line = process.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            banner = line
            break
    if not banner:
        process.kill()
        raise AssertionError(f"no banner; stderr: {process.stderr.read()}")
    port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            ) as response:
                if response.status == 200:
                    return process, port
        except OSError:
            time.sleep(0.1)
    process.kill()
    raise AssertionError("server never became healthy")


class TestSigtermDrain:
    def test_single_server_sigterm_exits_zero(self, published_registry):
        process, port = spawn_serve(published_registry)
        with process:  # closes the pipes, which -X dev checks
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert "drained and stopped" in process.stderr.read()

    def test_drain_is_not_swallowed_while_a_request_thread_starts(self):
        # The SIGTERM handler raises wherever the main thread is.  Right
        # after a fast reply that is often inside the serve loop's
        # thread start, where socketserver logs an Exception and serves
        # on; the drain must unwind the loop instead.
        class Interrupted(ServeHTTPServer):
            def process_request(self, request, client_address):
                raise _DrainRequested

        httpd = Interrupted(("127.0.0.1", 0), BaseHTTPRequestHandler)
        httpd.timeout = 5
        try:
            socket.create_connection(httpd.server_address, timeout=5).close()
            with pytest.raises(_DrainRequested):
                httpd.handle_request()
        finally:
            httpd.server_close()
