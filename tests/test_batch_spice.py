"""Tests for the vectorized batch MNA engine (``repro.spice.batch``)."""

import dataclasses
import logging

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.spice import linalg
from repro.spice.ac import ac_analysis
from repro.spice.batch import (
    BatchIncompatibleError,
    BatchTemplate,
    batch_ac_analysis,
    batch_dc_operating_point,
    batch_noise_analysis,
    batch_small_signal_params,
    batch_transient_analysis,
    stacked_dc_operating_point,
)
from repro.spice.batch.model import batch_dc_params, stack_cards
from repro.spice.dc import dc_operating_point
from repro.spice.elements import Resistor
from repro.spice.noise import noise_analysis
from repro.technology.mosfet_model import small_signal_params


def _random_circuits(design, count, seed=42):
    rng = np.random.default_rng(seed)
    sizings = [design.random_sizing(rng) for _ in range(count)]
    return sizings, [design.build_circuit(s) for s in sizings]


class TestVectorizedModel:
    """The array model must match the scalar square-law model per element."""

    @pytest.mark.parametrize("flavour", ["nmos", "pmos"])
    def test_matches_scalar_model_across_regions(self, tech_180, flavour):
        card = getattr(tech_180, flavour)
        rng = np.random.default_rng(0)
        n = 256
        width = rng.uniform(0.2e-6, 100e-6, n)
        length = rng.uniform(0.18e-6, 2e-6, n)
        # Bias grid straddling cutoff, triode and saturation.
        vgs = rng.uniform(-0.5, 1.8, n)
        vds = rng.uniform(0.0, 1.8, n)
        vsb = rng.uniform(0.0, 0.9, n)
        batch = batch_small_signal_params(card, width, length, vgs, vds, vsb)
        regions = set()
        for i in range(n):
            scalar = small_signal_params(
                card, width[i], length[i], vgs[i], vds[i], vsb[i]
            )
            regions.add(scalar.region)
            for attr in ("ids", "gm", "gds", "gmb", "cgs", "cgd", "cdb"):
                assert getattr(batch, attr)[i] == pytest.approx(
                    getattr(scalar, attr), rel=1e-12, abs=1e-30
                ), f"{attr} mismatch at sample {i} ({scalar.region})"
        assert regions == {"cutoff", "triode", "saturation"}

    def test_libm_exp_dc_params_bit_identical_to_scalar(self, tech_180):
        """NMOS and PMOS in one call (stacked cards), exact to the last bit."""
        cards = [tech_180.nmos, tech_180.pmos]
        rng = np.random.default_rng(1)
        shape = (128, 2)
        width = rng.uniform(0.2e-6, 100e-6, shape)
        length = rng.uniform(0.18e-6, 2e-6, shape)
        vgs = rng.uniform(-0.5, 1.8, shape)
        vds = rng.uniform(-0.2, 1.8, shape)
        vsb = rng.uniform(0.0, 0.9, shape)
        ids, gm, gds, in_cutoff, _ = batch_dc_params(
            stack_cards(cards), width, length, vgs, vds, vsb, libm_exp=True
        )
        assert in_cutoff.any() and not in_cutoff.all()
        for i in range(shape[0]):
            for j, card in enumerate(cards):
                args = (width[i, j], length[i, j], vgs[i, j], vds[i, j], vsb[i, j])
                scalar = small_signal_params(card, *args)
                assert (ids[i, j], gm[i, j], gds[i, j]) == (scalar.ids, scalar.gm, scalar.gds)


class TestBatchTemplate:
    def test_rejects_mismatched_topologies(self, two_tia):
        sizings, circuits = _random_circuits(two_tia, 2)
        circuits[1].add(Resistor("Rextra", "vout", "0", 1e3))
        with pytest.raises(BatchIncompatibleError):
            BatchTemplate(circuits)

    def test_rejects_mixed_model_cards(self, two_tia):
        """Every row is stamped with the reference's cards: mixing nodes is refused."""
        nm45 = get_circuit("two_tia", "45nm")
        circuits = [
            two_tia.build_circuit(two_tia.expert_sizing()),
            nm45.build_circuit(nm45.expert_sizing()),
        ]
        with pytest.raises(BatchIncompatibleError, match="model card"):
            BatchTemplate(circuits)
        with pytest.raises(BatchIncompatibleError):
            batch_dc_operating_point(circuits)
        with pytest.raises(BatchIncompatibleError):
            stacked_dc_operating_point(circuits)
        ops = [dc_operating_point(circuit) for circuit in circuits]
        with pytest.raises(BatchIncompatibleError):
            batch_transient_analysis(circuits, ops, 1e-8, 1e-9)

    def test_accepts_equal_cards_of_distinct_objects(self, two_tia):
        circuit = two_tia.build_circuit(two_tia.expert_sizing())
        twin = two_tia.build_circuit(two_tia.expert_sizing())
        for mosfet in twin.mosfets():
            mosfet.card = dataclasses.replace(mosfet.card)
        first, second = batch_dc_operating_point([circuit, twin])
        assert np.array_equal(first.x, second.x)

    def test_rejects_empty_batch(self):
        with pytest.raises(BatchIncompatibleError):
            BatchTemplate([])

    def test_subset_preserves_structure(self, two_tia):
        _, circuits = _random_circuits(two_tia, 5)
        template = BatchTemplate(circuits)
        sub = template.subset([0, 3])
        assert sub.batch_size == 2
        assert sub.num_unknowns == template.num_unknowns

    def test_subset_slices_values_without_re_extraction(self, two_tia, monkeypatch):
        """A subset equals a fresh template of its circuits, bit for bit."""
        _, circuits = _random_circuits(two_tia, 5)
        template = BatchTemplate(circuits)
        fresh = BatchTemplate([circuits[i] for i in (4, 1, 2)])

        def never(self):
            raise AssertionError("subset must not re-validate or re-extract")

        monkeypatch.setattr(BatchTemplate, "_check_compatible", never)
        monkeypatch.setattr(BatchTemplate, "_extract_values", never)
        sub = template.subset([4, 1, 2])
        assert sub.circuits == fresh.circuits
        for name in ("conductances", "capacitors", "vsources", "isources", "vcvs", "mosfets"):
            for got, expected in zip(getattr(sub, name), getattr(fresh, name)):
                for key, value in vars(expected).items():
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(vars(got)[key], value)
                    else:
                        assert vars(got)[key] == value


class TestBatchDC:
    @pytest.mark.parametrize("name", ["two_tia", "three_tia", "two_volt"])
    def test_matches_scalar_newton(self, name):
        design = get_circuit(name)
        sizings, circuits = _random_circuits(design, 8)
        batch_ops = batch_dc_operating_point(circuits)
        for sizing, batch_op in zip(sizings, batch_ops):
            scalar_op = dc_operating_point(design.build_circuit(sizing))
            assert batch_op.converged == scalar_op.converged
            if scalar_op.converged:
                assert np.allclose(batch_op.x, scalar_op.x, rtol=1e-9, atol=1e-12)

    def test_device_ops_match_scalar_model(self, two_tia):
        _, circuits = _random_circuits(two_tia, 4)
        ops = batch_dc_operating_point(circuits)
        for circuit, op in zip(circuits, ops):
            for mosfet in circuit.mosfets():
                expected = mosfet.operating_point(op.x)
                got = op.device_ops[mosfet.name]
                assert got.gm == expected.gm
                assert got.ids == expected.ids

    def test_unconverged_designs_take_the_batched_homotopy(self, two_tia):
        """With a 1-iteration budget every design goes through the masked homotopy."""
        sizings, circuits = _random_circuits(two_tia, 3)
        batch_ops = batch_dc_operating_point(circuits, max_iterations=1)
        for sizing, batch_op in zip(sizings, batch_ops):
            scalar_op = dc_operating_point(
                two_tia.build_circuit(sizing), max_iterations=1
            )
            assert batch_op.converged == scalar_op.converged
            assert np.allclose(batch_op.x, scalar_op.x, rtol=1e-9, atol=1e-12)

    def test_one_hard_design_does_not_perturb_the_batch(self, two_tia, rng):
        """Convergence masks: results are independent of batch composition."""
        sizings = [two_tia.random_sizing(rng) for _ in range(4)]
        # An extreme corner design (all parameters at the lower bound).
        hard = two_tia.parameter_space.vector_to_sizing(
            [d.lower for d in two_tia.parameter_space.definitions]
        )
        alone = batch_dc_operating_point(
            [two_tia.build_circuit(s) for s in sizings]
        )
        mixed = batch_dc_operating_point(
            [two_tia.build_circuit(s) for s in sizings + [hard]]
        )
        for a, b in zip(alone, mixed[:-1]):
            assert a.converged == b.converged
            assert np.array_equal(a.x, b.x)


class TestBatchACNoise:
    def test_ac_matches_scalar_sweep(self, two_tia):
        _, circuits = _random_circuits(two_tia, 6)
        ops = batch_dc_operating_point(circuits)
        batch_acs = batch_ac_analysis(circuits, ops, two_tia.FREQUENCIES)
        for circuit, op, batch_ac in zip(circuits, ops, batch_acs):
            scalar_ac = ac_analysis(circuit, op, two_tia.FREQUENCIES)
            assert np.allclose(batch_ac.x, scalar_ac.x, rtol=1e-9, atol=1e-18)

    def test_noise_matches_scalar_adjoint(self, two_tia):
        _, circuits = _random_circuits(two_tia, 4)
        ops = batch_dc_operating_point(circuits)
        batch_noises = batch_noise_analysis(
            circuits, ops, "vout", two_tia.NOISE_FREQUENCIES
        )
        for circuit, op, batch_noise in zip(circuits, ops, batch_noises):
            scalar_noise = noise_analysis(
                circuit, op, "vout", two_tia.NOISE_FREQUENCIES
            )
            assert np.allclose(
                batch_noise.output_psd, scalar_noise.output_psd, rtol=1e-9
            )
            assert batch_noise.contributions.keys() == scalar_noise.contributions.keys()

    def test_differential_noise_output(self, tech_180):
        design = get_circuit("three_tia", tech_180)
        _, circuits = _random_circuits(design, 3)
        ops = batch_dc_operating_point(circuits)
        batch_noises = batch_noise_analysis(
            circuits, ops, "vouta", design.FREQUENCIES, output_node_neg="voutb"
        )
        for circuit, op, batch_noise in zip(circuits, ops, batch_noises):
            scalar_noise = noise_analysis(
                circuit, op, "vouta", design.FREQUENCIES, output_node_neg="voutb"
            )
            assert np.allclose(
                batch_noise.output_psd, scalar_noise.output_psd, rtol=1e-9
            )


class TestSolveStacked:
    def test_exact_solutions_for_regular_stack(self, rng):
        matrices = rng.normal(size=(5, 4, 4)) + np.eye(4) * 4
        rhs = rng.normal(size=(5, 4))
        got = linalg.solve_stacked(matrices, rhs)
        for i in range(5):
            assert np.array_equal(got[i], np.linalg.solve(matrices[i], rhs[i]))

    def test_singular_slice_falls_back_and_logs_once(self, rng, caplog):
        matrices = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3) * 2.0])
        rhs = np.ones((3, 3))
        linalg._fallback_logged = False
        with caplog.at_level(logging.WARNING, logger="repro.spice"):
            got = linalg.solve_stacked(matrices, rhs)
            linalg.solve_stacked(matrices, rhs)  # second call must stay silent
        warnings = [r for r in caplog.records if "singular MNA matrix" in r.message]
        assert len(warnings) == 1
        # Regular slices keep their exact solutions around the singular one.
        assert np.allclose(got[0], np.ones(3))
        assert np.allclose(got[2], 0.5 * np.ones(3))
        # The singular slice gets the minimum-norm least-squares answer.
        assert np.allclose(got[1], np.linalg.lstsq(matrices[1], rhs[1], rcond=None)[0])
