"""Topology-graph extraction: components are vertices, shared nets are edges.

This reproduces step (1) of the paper's optimization loop ("embed topology
into a graph whose vertices are components and edges are wires").  Power and
ground nets connect almost every component and would therefore wash out the
structural information, so they are excluded from edge creation by default
(the supply rails still appear in the circuit netlist used for simulation).

The graph is kept as a numpy adjacency matrix: :func:`build_adjacency`
extracts it, :func:`normalized_adjacency` turns it into the GCN propagation
matrix, and :func:`receptive_field_depth` checks how many GCN layers a
topology needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuits.components import ComponentSpec

#: Nets that do not create graph edges by default.
DEFAULT_GLOBAL_NETS: Tuple[str, ...] = ("0", "gnd", "vdd", "vss", "vdd!", "vss!")


def build_adjacency(
    components: Sequence[ComponentSpec],
    exclude_nets: Optional[Iterable[str]] = None,
) -> np.ndarray:
    """Binary adjacency matrix of the component topology graph.

    Two components are adjacent when they share at least one non-global net.

    Args:
        components: Ordered component specs; the matrix follows this order.
        exclude_nets: Nets that never create edges (defaults to supply/ground).

    Returns:
        A symmetric ``(n, n)`` matrix of 0/1 floats with a zero diagonal.
    """
    excluded: Set[str] = {
        net.lower()
        for net in (DEFAULT_GLOBAL_NETS if exclude_nets is None else exclude_nets)
    }
    n = len(components)
    adjacency = np.zeros((n, n), dtype=float)
    net_members: Dict[str, List[int]] = {}
    for index, comp in enumerate(components):
        for net in comp.nets:
            if net.lower() in excluded:
                continue
            net_members.setdefault(net, []).append(index)
    for members in net_members.values():
        for i in members:
            for j in members:
                if i != j:
                    adjacency[i, j] = 1.0
    return adjacency


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Kipf–Welling propagation matrix ``D̃^-1/2 (A + I) D̃^-1/2``."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    a_tilde = adjacency + np.eye(n)
    degrees = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    d_inv_sqrt = np.diag(inv_sqrt)
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt


def receptive_field_depth(adjacency: np.ndarray) -> int:
    """Smallest number of GCN layers giving every node a global receptive field.

    This is the largest diameter among the graph's connected components,
    and at least 1; the paper uses 7 layers "to make sure the last layer has
    a global receptive field".  A breadth-first search runs from every node
    at once: each round extends every node's reached set by one hop, and the
    number of rounds that still reach a new node is the largest eccentricity.
    """
    linked = np.asarray(adjacency) != 0
    linked = linked | linked.T
    reached = np.eye(len(linked), dtype=bool)
    depth = 0
    while True:
        grown = reached | reached @ linked
        if np.array_equal(grown, reached):
            return max(depth, 1)
        reached = grown
        depth += 1
