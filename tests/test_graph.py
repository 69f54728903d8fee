"""Tests for topology-graph extraction and the GCN propagation matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import get_circuit
from repro.circuits.components import ComponentType, mosfet, resistor
from repro.circuits.graph import (
    build_adjacency,
    normalized_adjacency,
    receptive_field_depth,
)


def chain_components(n):
    """A simple chain: R0 - R1 - ... sharing intermediate nets."""
    comps = []
    for i in range(n):
        comps.append(resistor(f"R{i}", f"n{i}", f"n{i+1}"))
    return comps


class TestAdjacency:
    def test_chain_adjacency_structure(self):
        adjacency = build_adjacency(chain_components(4))
        expected = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(adjacency, expected)

    def test_adjacency_is_symmetric_with_zero_diagonal(self):
        circuit = get_circuit("two_tia")
        adjacency = circuit.adjacency()
        assert np.array_equal(adjacency, adjacency.T)
        assert np.all(np.diag(adjacency) == 0)

    def test_supply_nets_do_not_create_edges(self):
        comps = [
            mosfet("T1", ComponentType.NMOS, "a", "g1", "vdd", "vdd"),
            mosfet("T2", ComponentType.NMOS, "b", "g2", "vdd", "vdd"),
        ]
        adjacency = build_adjacency(comps)
        assert adjacency[0, 1] == 0

    def test_shared_signal_net_creates_edge(self):
        comps = [
            mosfet("T1", ComponentType.NMOS, "x", "g1", "0", "0"),
            mosfet("T2", ComponentType.NMOS, "y", "x", "0", "0"),
        ]
        adjacency = build_adjacency(comps)
        assert adjacency[0, 1] == 1

    def test_custom_exclude_nets(self):
        comps = chain_components(3)
        adjacency = build_adjacency(comps, exclude_nets=["n1"])
        assert adjacency[0, 1] == 0
        assert adjacency[1, 2] == 1


class TestNormalizedAdjacency:
    def test_rows_of_normalized_adjacency_are_bounded(self):
        adjacency = build_adjacency(chain_components(5))
        a_hat = normalized_adjacency(adjacency)
        assert np.all(a_hat >= 0)
        assert np.all(a_hat <= 1.0 + 1e-12)

    def test_normalized_adjacency_is_symmetric(self):
        circuit = get_circuit("three_tia")
        a_hat = circuit.normalized_adjacency()
        assert np.allclose(a_hat, a_hat.T)

    def test_isolated_node_maps_to_identity_entry(self):
        adjacency = np.zeros((3, 3))
        a_hat = normalized_adjacency(adjacency)
        assert np.allclose(a_hat, np.eye(3))

    def test_spectral_radius_at_most_one(self):
        adjacency = build_adjacency(chain_components(6))
        a_hat = normalized_adjacency(adjacency)
        eigenvalues = np.linalg.eigvalsh(a_hat)
        assert np.max(np.abs(eigenvalues)) <= 1.0 + 1e-9

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_normalized_adjacency_properties_on_random_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 2, size=(n, n)).astype(float)
        adjacency = np.triu(raw, 1)
        adjacency = adjacency + adjacency.T
        a_hat = normalized_adjacency(adjacency)
        assert np.allclose(a_hat, a_hat.T, atol=1e-12)
        assert np.max(np.abs(np.linalg.eigvalsh(a_hat))) <= 1.0 + 1e-9


class TestGraphExports:
    def test_receptive_field_depth_of_chain(self):
        adjacency = build_adjacency(chain_components(5))
        assert receptive_field_depth(adjacency) == 4
        # Chains of 5 and 3 plus an isolated node: the longest chain decides.
        disconnected = np.zeros((9, 9))
        disconnected[:5, :5] = adjacency
        disconnected[5:8, 5:8] = build_adjacency(chain_components(3))
        assert receptive_field_depth(disconnected) == 4
        assert receptive_field_depth(np.zeros((1, 1))) == 1
        assert receptive_field_depth(np.zeros((4, 4))) == 1

    def test_receptive_field_depth_smaller_than_paper_depth(self):
        # The paper stacks 7 GCN layers to guarantee a global receptive field;
        # all four benchmark topologies indeed have diameter <= 7.
        depths = {
            name: receptive_field_depth(get_circuit(name).adjacency())
            for name in ("two_tia", "two_volt", "three_tia", "ldo")
        }
        assert depths == {"two_tia": 4, "two_volt": 3, "three_tia": 6, "ldo": 4}
        assert max(depths.values()) <= 7
