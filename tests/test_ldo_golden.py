"""Frozen LDO metrics: the scalar engine's numbers, checked without a second engine.

``golden/ldo_<node>.json`` holds, per calibrated LDO technology node, the
metrics of the expert design and of a few random sizings as the scalar
engine computed them when the fixture was recorded.  ``local`` evaluation
must reproduce them exactly, and so must the ``vectorized`` backend
(scalar-exact stacked DC and stacked settling transients), FoM included.

Regenerate after a deliberate numerical change with::

    PYTHONPATH=src python tests/test_ldo_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.env import default_fom_config
from repro.eval import LocalEvaluator, VectorizedEvaluator

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RANDOM_DESIGNS = 8
RECORD_SEED = 2024


def calibrated_ldo_nodes():
    """Technology nodes with a committed LDO FoM calibration."""
    from repro.env.fom import CALIBRATION_DIR

    return sorted(path.stem.rsplit("_", 1)[1] for path in CALIBRATION_DIR.glob("ldo_*.json"))


NODES = calibrated_ldo_nodes()


def load_fixture(node):
    with open(GOLDEN_DIR / f"ldo_{node}.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def record(node):
    """Evaluate the fixture designs with the scalar engine and write them."""
    circuit = get_circuit("ldo", node)
    rng = np.random.default_rng(RECORD_SEED)
    designs = [circuit.expert_sizing()] + [
        circuit.random_sizing(rng) for _ in range(RANDOM_DESIGNS)
    ]
    entries = [
        {"sizing": sizing, "metrics": circuit.evaluate(sizing)} for sizing in designs
    ]
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"ldo_{node}.json", "w", encoding="utf-8") as handle:
        json.dump({"circuit": "ldo", "technology": node, "designs": entries}, handle, indent=1)
        handle.write("\n")


def test_every_calibrated_node_has_a_fixture():
    assert NODES
    for node in NODES:
        fixture = load_fixture(node)
        assert len(fixture["designs"]) == 1 + RANDOM_DESIGNS


@pytest.mark.parametrize("node", NODES)
def test_local_metrics_match_fixture_exactly(node):
    fixture = load_fixture(node)
    circuit = get_circuit("ldo", node)
    sizings = [entry["sizing"] for entry in fixture["designs"]]
    results = LocalEvaluator(circuit).evaluate_batch(sizings)
    for entry, result in zip(fixture["designs"], results):
        assert result.metrics == entry["metrics"]


@pytest.mark.parametrize("node", NODES)
def test_vectorized_fom_bit_identical_to_fixture(node):
    fixture = load_fixture(node)
    circuit = get_circuit("ldo", node)
    fom = default_fom_config(circuit)
    sizings = [entry["sizing"] for entry in fixture["designs"]]
    evaluator = VectorizedEvaluator(circuit)
    results = evaluator.evaluate_batch(sizings)
    assert evaluator.stats.scalar_fallbacks == 0
    for entry, result in zip(fixture["designs"], results):
        assert result.metrics == entry["metrics"]
        assert fom.compute(result.metrics) == fom.compute(entry["metrics"])


if __name__ == "__main__":
    for technology in NODES:
        record(technology)
        print(f"recorded {GOLDEN_DIR / f'ldo_{technology}.json'}")
