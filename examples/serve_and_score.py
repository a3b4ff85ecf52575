"""Serve a published model over HTTP and score live sections.

Runs the serving pipeline end to end, in one process:

1. simulate a small suite and train an M5' tree of CPI,
2. publish it into a model registry (versioned, checksummed),
3. preflight the registry (compiled/interpreted parity, drift ranges),
4. start the HTTP server on an ephemeral port,
5. score sections through ``/predict``, explain one with ``/explain``,
   and scrape the Prometheus ``/metrics`` page.

Usage::

    python examples/serve_and_score.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import M5Prime, simulate_suite
from repro.serve import ModelRegistry, ModelServer, preflight, render_preflight


def post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    print("simulating the suite and training the tree...")
    suite = simulate_suite(
        sections_per_workload=40, instructions_per_section=1024, seed=2007
    )
    model = M5Prime(min_instances=20).fit(suite.dataset)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        record = registry.publish("cpi-tree", model, aliases=["prod"])
        print(f"published {record.spec} ({record.n_leaves} leaves)")

        print(render_preflight(preflight(registry)))

        server = ModelServer(registry, default_model="cpi-tree@latest", port=0)
        server.start()
        server.serve_in_background()
        base = f"http://127.0.0.1:{server.bound_port}"
        try:
            rows = suite.dataset.X[:5]
            scored = post(base, "/predict", {"sections": rows.tolist()})
            print(f"\nscored {scored['n']} sections with {scored['model']}:")
            for prediction, leaf in zip(
                scored["predictions"], scored["leaf_ids"]
            ):
                print(f"  CPI {prediction:.4f}  (class LM{leaf})")

            explained = post(
                base, "/explain", {"section": rows[0].tolist()}
            )
            print(f"\nsection 0 reaches LM{explained['leaf']} via:")
            for step in explained["path"]:
                relation = "<=" if step["branch"] == "left" else ">"
                print(
                    f"  {step['attribute']} = {step['value']:.4f} "
                    f"{relation} {step['threshold']:.4f}"
                )
            print("top contributions:")
            for entry in explained["contributions"][:3]:
                print(
                    f"  {entry['event']:<12} {entry['fraction']:>7.1%} of CPI"
                    f"  (fix would buy {entry['potential_gain_percent']:.1f}%)"
                )

            with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
                metrics = resp.read().decode("utf-8")
            served = [
                line
                for line in metrics.splitlines()
                if line.startswith("repro_requests_total")
            ]
            print("\nscraped /metrics:")
            for line in served:
                print(f"  {line}")
        finally:
            server.shutdown()


if __name__ == "__main__":
    main()
