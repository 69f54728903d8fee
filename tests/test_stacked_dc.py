"""Bitwise parity of the stacked, scalar-exact DC solver with the scalar one.

:func:`repro.spice.batch.stacked_dc_operating_point` must give every row
exactly what :func:`repro.spice.dc.dc_operating_point` gives that circuit
alone: the same ``x`` bits, ``converged`` flag and iteration count, whatever
else shares the batch.  Two levels are checked:

* assembly — every row of the scalar-order assembler equals
  :func:`repro.spice.dc._assemble` with ``np.array_equal``, at iterates that
  swap drain and source and put devices in cutoff;
* solve — plain-Newton, gmin-ladder, source-stepping and failing designs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.spice.dc as scalar_dc
from repro.circuits import get_circuit
from repro.spice import MOSFET, VCVS, Capacitor, Circuit, CurrentSource, Resistor, VoltageSource
from repro.spice.batch import BatchTemplate, stacked_dc_operating_point
from repro.spice.batch.dc import _operating_points, _ScalarOrderAssembler
from repro.spice.dc import dc_operating_point
from repro.technology import get_node

NODES = ("180nm", "45nm")
#: Benchmark netlists: the plan circuits and the LDO's two DC netlists.
NETLISTS = ("two_tia", "three_tia", "two_volt", "ldo_light", "ldo_heavy")


def design_circuits(netlist, node, seed, random_designs=6, box_corners=4):
    """Random sizings, the all-lower and all-upper corners, and box corners.

    A box corner puts every parameter at a random one of its bounds; those
    are the LDO designs that need the gmin ladder or fail outright.
    """
    design = get_circuit("ldo" if netlist.startswith("ldo") else netlist, node)
    space = design.parameter_space
    rng = np.random.default_rng(seed)
    sizings = [design.random_sizing(rng) for _ in range(random_designs)]
    sizings.append(space.vector_to_sizing([d.lower for d in space.definitions]))
    sizings.append(space.vector_to_sizing([d.upper for d in space.definitions]))
    for _ in range(box_corners):
        bounds = [d.lower if rng.random() < 0.5 else d.upper for d in space.definitions]
        sizings.append(space.vector_to_sizing(bounds))
    if netlist == "ldo_light":
        return [design.dc_circuits(sizing)[0] for sizing in sizings]
    if netlist == "ldo_heavy":
        return [design.dc_circuits(sizing)[1] for sizing in sizings]
    return [design.build_circuit(sizing) for sizing in sizings]


def vcvs_circuit(tech, r_drain, gain, width, r_load):
    """A common-source stage buffered by a VCVS, with every element kind."""
    circuit = Circuit("vcvs_buffer")
    circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.7))
    circuit.add(CurrentSource("IB", "vdd", "d", dc=2e-6))
    circuit.add(Resistor("RD", "vdd", "d", r_drain))
    circuit.add(MOSFET("M1", "d", "in", "0", "0", tech.nmos, width, 0.36e-6))
    circuit.add(MOSFET("M2", "vdd", "out", "src", "0", tech.nmos, width, 0.36e-6))
    circuit.add(VCVS("E1", "out", "0", "d", "0", gain))
    circuit.add(Resistor("RL", "out", "0", r_load))
    circuit.add(Resistor("RS", "src", "0", 2 * r_load))
    circuit.add(Capacitor("CL", "out", "0", 1e-12))
    return circuit


def vcvs_circuits(count=8, seed=5):
    tech = get_node("180nm")
    rng = np.random.default_rng(seed)
    return [
        vcvs_circuit(
            tech,
            rng.uniform(5e3, 50e3),
            rng.uniform(0.5, 2.0),
            rng.uniform(2e-6, 40e-6),
            rng.uniform(1e3, 20e3),
        )
        for _ in range(count)
    ]


def assert_assembly_bit_identical(circuits, seed):
    """Rows of restricted systems at random iterates equal the scalar assembly."""
    template = BatchTemplate(circuits)
    assembler = _ScalarOrderAssembler(template)
    vdd = float(template.max_supply().max())
    rng = np.random.default_rng(seed)
    swapped = cutoff = 0
    for trial, (gmin, source_scale) in enumerate(((1e-12, 1.0), (1e-3, 1.0), (1e-12, 0.25))):
        rows = None if trial == 0 else np.sort(rng.choice(len(circuits), 3, replace=False))
        members = np.arange(len(circuits)) if rows is None else rows
        system = assembler.system(rows, gmin, source_scale)
        x = rng.uniform(-0.3, vdd + 0.3, size=(len(members), template.num_unknowns))
        # Every row, then every other row of a system (converged rows drop out).
        active = np.arange(len(members))[:: 1 + trial % 2]
        jacobian, residual = system.assemble(x[active], active)
        for k, i in enumerate(active):
            circuit = circuits[members[i]]
            j_ref, r_ref = scalar_dc._assemble(circuit, x[i], gmin, source_scale)
            assert np.array_equal(jacobian[k], j_ref)
            assert np.array_equal(residual[k], r_ref)
            for mosfet in circuit.mosfets():
                op = mosfet.operating_point(x[i])
                swapped += op.field_extra["drain_index"] != mosfet.nodes[0]
                cutoff += op.region == "cutoff"
    # The iterates must exercise the per-row swap and the libm-exp branch.
    assert swapped and cutoff


def scalar_reference(circuits, **settings):
    """Scalar solutions and, per circuit, which strategy converged it."""
    calls = []
    original = scalar_dc._newton

    def traced(circuit, x0, gmin, source_scale, *args):
        result = original(circuit, x0, gmin, source_scale, *args)
        calls.append((source_scale, result[1]))
        return result

    solutions, kinds = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalar_dc, "_newton", traced)
        for circuit in circuits:
            calls.clear()
            solution = dc_operating_point(circuit, **settings)
            solutions.append(solution)
            if not solution.converged:
                kinds.append("failed")
            elif any(scale != 1.0 for scale, _ in calls):
                kinds.append("source")
            else:
                kinds.append("gmin" if len(calls) > 1 else "plain")
    return solutions, kinds


def assert_solutions_identical(stacked, reference):
    for got, expected in zip(stacked, reference):
        assert np.array_equal(got.x, expected.x)
        assert got.converged == expected.converged
        assert got.iterations == expected.iterations
        assert got.device_ops.keys() == expected.device_ops.keys()


class TestAssembly:
    @pytest.mark.parametrize("node", NODES)
    @pytest.mark.parametrize("netlist", NETLISTS)
    def test_rows_bit_identical_to_scalar_assembly(self, netlist, node):
        assert_assembly_bit_identical(design_circuits(netlist, node, seed=3), seed=11)

    def test_vcvs_rows_bit_identical_to_scalar_assembly(self):
        assert_assembly_bit_identical(vcvs_circuits(), seed=12)


class TestSolve:
    @pytest.mark.parametrize("node", NODES)
    @pytest.mark.parametrize("netlist", NETLISTS)
    def test_matches_scalar_solver(self, netlist, node):
        circuits = design_circuits(netlist, node, seed=0)
        reference, kinds = scalar_reference(circuits)
        assert_solutions_identical(stacked_dc_operating_point(circuits), reference)
        if netlist.startswith("ldo"):
            # The LDO rows cover the gmin ladder and outright failures.
            assert {"gmin", "failed"} <= set(kinds)

    def test_source_stepping_rows_match_scalar(self, two_tia):
        """With 12 iterations per rung some designs converge only on the source ramp."""
        circuits = [
            two_tia.build_circuit(two_tia.random_sizing(np.random.default_rng(seed)))
            for seed in range(12)
        ]
        reference, kinds = scalar_reference(circuits, max_iterations=12)
        template = BatchTemplate(circuits)
        stacked = _operating_points(
            circuits, template, _ScalarOrderAssembler(template).system, 12, 1e-9, 1e-7, 0.4
        )
        assert_solutions_identical(stacked, reference)
        assert {"plain", "gmin", "source", "failed"} <= set(kinds)

    def test_vcvs_netlist_matches_scalar_solver(self):
        circuits = vcvs_circuits()
        reference, _ = scalar_reference(circuits)
        assert_solutions_identical(stacked_dc_operating_point(circuits), reference)
        assert all(solution.converged for solution in reference)

    def test_rows_do_not_depend_on_the_rest_of_the_batch(self):
        circuits = design_circuits("ldo_light", "45nm", seed=0)
        together = stacked_dc_operating_point(circuits)
        for circuit, solution in zip(circuits[::3], together[::3]):
            (alone,) = stacked_dc_operating_point([circuit])
            assert np.array_equal(alone.x, solution.x)
            assert alone.iterations == solution.iterations
