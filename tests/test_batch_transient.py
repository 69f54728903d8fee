"""Batched transient parity against the scalar backward-Euler engine."""

from __future__ import annotations

import numpy as np

from repro.circuits import get_circuit
from repro.spice import MOSFET, Capacitor, Circuit, CurrentSource, Resistor, VoltageSource
from repro.spice.batch import transient as batch_transient
from repro.spice.batch.transient import batch_transient_analysis
from repro.spice.dc import dc_operating_point
from repro.spice.transient import pulse_waveform, step_waveform, transient_analysis


def assert_parity(circuits, t_stop, dt):
    """Per-row waveforms within 1e-9 and identical ``converged`` flags."""
    ops = [dc_operating_point(circuit) for circuit in circuits]
    batched = batch_transient_analysis(circuits, ops, t_stop, dt)
    for circuit, op, solution in zip(circuits, ops, batched):
        reference = transient_analysis(circuit, t_stop, dt, initial_op=op)
        assert solution.converged == reference.converged
        np.testing.assert_array_equal(solution.times, reference.times)
        np.testing.assert_allclose(solution.x, reference.x, rtol=0, atol=1e-9)
    return batched


def rc_step(r, c, level):
    circuit = Circuit("rc_step")
    circuit.add(
        VoltageSource("VIN", "in", "0", dc=0.0, waveform=step_waveform(0.0, 0.0, level, 1e-9))
    )
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


def current_pulse(amplitude, r):
    circuit = Circuit("ipulse")
    circuit.add(
        CurrentSource(
            "I1",
            "0",
            "out",
            dc=0.0,
            waveform=pulse_waveform(1e-6, 2e-6, 0.0, amplitude, edge_time=1e-8),
        )
    )
    circuit.add(Resistor("R1", "out", "0", r))
    circuit.add(Capacitor("C1", "out", "0", 1e-10))
    return circuit


def source_follower(tech, width, step_to):
    circuit = Circuit("follower")
    circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
    circuit.add(
        VoltageSource("VG", "g", "0", dc=1.2, waveform=step_waveform(1e-6, 1.2, step_to, 1e-8))
    )
    circuit.add(MOSFET("M1", "vdd", "g", "s", "0", tech.nmos, width, 0.36e-6))
    circuit.add(Resistor("RS", "s", "0", 10e3))
    circuit.add(Capacitor("CL", "s", "0", 1e-12))
    return circuit


def test_rc_step_rows_match_scalar():
    circuits = [rc_step(1e3, 1e-9, 1.0), rc_step(2e3, 5e-10, 0.5), rc_step(5e2, 2e-9, 1.5)]
    batched = assert_parity(circuits, 5e-6, 2e-8)
    assert all(solution.converged for solution in batched)


def test_current_pulse_rows_match_scalar():
    assert_parity([current_pulse(1e-3, 1e3), current_pulse(2e-3, 5e2)], 5e-6, 5e-8)


def test_source_follower_rows_match_scalar(tech_180):
    circuits = [
        source_follower(tech_180, 50e-6, 1.4),
        source_follower(tech_180, 20e-6, 1.6),
        source_follower(tech_180, 80e-6, 1.0),
    ]
    assert_parity(circuits, 3e-6, 2e-8)


def test_mixed_waveform_ldo_batch_matches_scalar():
    """Load-step and supply-step rows of several LDO sizings in one solve."""
    ldo = get_circuit("ldo", "180nm")
    rng = np.random.default_rng(7)
    sizings = [ldo.expert_sizing()] + [ldo.random_sizing(rng) for _ in range(3)]
    circuits = [row for sizing in sizings for row in ldo.step_circuits(sizing)]
    assert_parity(circuits, ldo.TRAN_STOP, ldo.TRAN_STEP)


def test_non_converging_row_loses_only_its_flag(monkeypatch):
    circuits = [rc_step(1e3, 1e-9, 1.0), rc_step(1e3, 1e-9, 1.0)]
    ops = [dc_operating_point(circuit) for circuit in circuits]
    # One Newton iteration per step cannot also pass the step test.
    monkeypatch.setattr(batch_transient, "MAX_ITERATIONS", 1)
    strict = batch_transient_analysis(circuits, ops, 1e-6, 1e-7)
    reference = transient_analysis(circuits[0], 1e-6, 1e-7, initial_op=ops[0], max_iterations=1)
    assert [solution.converged for solution in strict] == [reference.converged] * 2
    assert not reference.converged
    np.testing.assert_allclose(strict[0].x, reference.x, rtol=0, atol=1e-9)

