"""Golden regression tests for the forest format, arena, and weights.

Two goldens under ``tests/golden/``:

* ``forest_small.json`` — a fitted-and-refined 3-tree forest in the
  full ``repro-forest`` document format (exact float values).
* ``forest_small_arena.json`` — the compiled arena layout (offsets,
  per-node features, leaf columns) and the selected refined weights.

Any change to bootstrap draws, tree growing, arena compilation order,
or the refinement solve shows up here as an exact-value diff.
Regenerate deliberately with::

    PYTHONPATH=src python -c "
    from tests.test_forest_golden import regenerate_goldens; regenerate_goldens()"

and review the diff like any other behaviour change.
"""

import json
from pathlib import Path

import numpy as np

from repro.baselines import BaggedM5
from repro.core.tree.serialize import model_from_dict, model_to_dict
from repro.datasets.synthetic import figure1_dataset
from repro.serve.refine import RefinedForest
from repro.verify import verify_model

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_forest():
    data = figure1_dataset(n=120, noise_sd=0.05, rng=7)
    forest = BaggedM5(n_estimators=3, min_instances=20, seed=11).fit(data)
    RefinedForest(forest, prune_pct=0.2, n_prunings=2).fit(data)
    return forest, data


def _arena_document(forest) -> dict:
    compiled = forest.compiled_
    refined = forest.refined_
    return {
        "n_trees": compiled.n_trees,
        "n_nodes": compiled.n_nodes,
        "total_leaves": compiled.total_leaves,
        "max_depth": compiled.max_depth,
        "tree_offset": compiled.tree_offset.tolist(),
        "leaf_offset": compiled.leaf_offset.tolist(),
        "feature": compiled.feature.tolist(),
        "leaf_col": compiled.leaf_col.tolist(),
        "leaf_node": compiled.leaf_node.tolist(),
        "term_offset": compiled.term_offset.tolist(),
        "refined": {
            "weights": refined.weights.tolist(),
            "active": [int(flag) for flag in refined.active.tolist()],
            "train_mae": refined.train_mae,
        },
    }


def regenerate_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    forest, _ = _golden_forest()
    (GOLDEN_DIR / "forest_small.json").write_text(
        json.dumps(model_to_dict(forest), indent=1, sort_keys=True) + "\n"
    )
    (GOLDEN_DIR / "forest_small_arena.json").write_text(
        json.dumps(_arena_document(forest), indent=1, sort_keys=True) + "\n"
    )


class TestGoldenForest:
    def test_document_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "forest_small.json").read_text())
        forest, _ = _golden_forest()
        fresh = json.loads(json.dumps(model_to_dict(forest), sort_keys=True))
        assert fresh == golden

    def test_arena_matches_golden(self):
        golden = json.loads(
            (GOLDEN_DIR / "forest_small_arena.json").read_text()
        )
        forest, _ = _golden_forest()
        fresh = json.loads(json.dumps(_arena_document(forest), sort_keys=True))
        assert fresh == golden

    def test_golden_restores_and_reverifies(self):
        """The stored document loads, verifies clean, and predicts
        bit-identically to a fresh fit."""
        golden = json.loads((GOLDEN_DIR / "forest_small.json").read_text())
        restored = model_from_dict(golden)
        result = verify_model(restored)
        assert result.ok, [d.render() for d in result.diagnostics]
        forest, data = _golden_forest()
        assert np.array_equal(
            restored.predict(data.X), forest.predict(data.X)
        )
