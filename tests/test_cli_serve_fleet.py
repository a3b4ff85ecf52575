"""The serve/loadtest CLI surface: flags, drain-on-SIGTERM, SLO gate.

The drain tests exercise the real contract an orchestrator sees —
``SIGTERM`` to the serving process must finish in-flight work and exit
0 — so they spawn ``python -m repro.cli serve`` as a subprocess and
signal it for real.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from http.server import BaseHTTPRequestHandler

import pytest

from repro.cli import _DrainRequested, build_parser, main
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeHTTPServer

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def dataset_csv(tmp_path, suite_dataset):
    from repro.datasets.csvio import save_csv

    path = tmp_path / "sections.csv"
    save_csv(suite_dataset, path)
    return str(path)


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


class TestParser:
    def test_serve_fleet_flags(self):
        args = build_parser().parse_args([
            "serve", "--workers", "4", "--mode", "reuseport",
            "--drain-timeout", "3", "--max-inflight", "32",
        ])
        assert args.workers == 4
        assert args.mode == "reuseport"
        assert args.drain_timeout == 3.0
        assert args.max_inflight == 32

    def test_serve_defaults_single_replica(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 1
        assert args.fleet_config is None
        assert args.max_inflight is None

    def test_loadtest_flags(self):
        args = build_parser().parse_args([
            "loadtest", "--data", "d.csv", "--rps", "100",
            "--duration", "2", "--slo", "0.95", "--format", "json",
        ])
        assert args.rps == 100.0
        assert args.duration == 2.0
        assert args.slo == 0.95

    def test_lint_fleet_config_flag(self):
        args = build_parser().parse_args(
            ["lint", "--fleet-config", "fleet.json"]
        )
        assert args.fleet_config == "fleet.json"


class TestSigtermDrain:
    def test_single_server_sigterm_exits_zero(self, published_registry):
        process, port = spawn_serve(published_registry)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert "drained and stopped" in process.stderr.read()

    def test_fleet_sigterm_exits_zero(self, published_registry):
        process, port = spawn_serve(published_registry, "--workers", "2")
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/fleet/status", timeout=5
        ) as response:
            status = json.loads(response.read())
        assert status["healthy_workers"] == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        assert "fleet drained and stopped" in process.stderr.read()

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


class TestLoadtestCommand:
    def test_slo_met_exit_zero_and_report_envelope(
        self, published_registry, dataset_csv, tmp_path, capsys
    ):
        process, port = spawn_serve(published_registry)
        out = tmp_path / "loadtest.json"
        try:
            code = main([
                "loadtest", "--data", dataset_csv, "--host", "127.0.0.1",
                "--port", str(port), "--rps", "40", "--duration", "1",
                "--out", str(out),
            ])
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        assert code == 0
        printed = capsys.readouterr().out
        assert "SLO" in printed and "met" in printed
        document = json.loads(out.read_text())
        assert document["format"] == "repro-report"
        assert document["kind"] == "loadtest"
        assert document["slo_met"] is True
        assert document["result"]["requests"] == 40
        assert document["result"]["resets"] == 0

    def test_slo_missed_exit_two(self, dataset_csv, capsys):
        # Nothing listens on the discard port: every request resets.
        code = main([
            "loadtest", "--data", dataset_csv, "--port", "9",
            "--rps", "10", "--duration", "0.5", "--timeout", "0.5",
        ])
        assert code == 2
        assert "MISSED" in capsys.readouterr().out


class TestLintFleetConfigCommand:
    def test_broken_config_exits_two_with_fleet_findings(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"workers": 0, "mode": "bogus"}))
        code = main(["lint", "--fleet-config", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FLEET002" in out and "FLEET003" in out

    def test_clean_config_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"workers": 4}))
        assert main(["lint", "--fleet-config", str(path)]) == 0
