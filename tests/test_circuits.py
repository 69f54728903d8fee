"""Tests for the four benchmark circuits (topology, evaluation, experts)."""

import numpy as np
import pytest

from repro.circuits import (
    CIRCUIT_CLASSES,
    ComponentType,
    get_circuit,
    list_circuits,
)
from repro.circuits.library import register_circuit
from repro.circuits.two_tia import TwoStageTIA


class TestLibrary:
    def test_all_four_paper_circuits_registered(self):
        assert set(list_circuits()) == {"two_tia", "two_volt", "three_tia", "ldo"}

    def test_get_circuit_accepts_node_name_and_instance(self, tech_180):
        by_name = get_circuit("two_tia", "180nm")
        by_node = get_circuit("two_tia", tech_180)
        assert by_name.technology.name == by_node.technology.name

    def test_unknown_circuit_raises(self):
        with pytest.raises(KeyError):
            get_circuit("folded_cascode")

    def test_register_custom_circuit(self):
        class MyTIA(TwoStageTIA):
            name = "my_tia"

        register_circuit(MyTIA)
        assert "my_tia" in CIRCUIT_CLASSES
        del CIRCUIT_CLASSES["my_tia"]

    def test_describe_mentions_counts(self, two_tia):
        text = two_tia.describe()
        assert "components" in text and "parameters" in text


class TestTopologies:
    def test_component_counts_match_paper_scale(self):
        assert get_circuit("two_tia").num_components == 8
        assert get_circuit("two_volt").num_components == 12
        assert get_circuit("three_tia").num_components == 20
        assert get_circuit("ldo").num_components == 10

    def test_three_tia_transistor_count_matches_paper_scale(self):
        # The paper's three-stage TIA has 17 transistors (T0-T16); this
        # pseudo-differential reconstruction has 19 (two extra follower sinks).
        circuit = get_circuit("three_tia")
        mos = [c for c in circuit.components if c.ctype.is_mosfet]
        assert len(mos) == 19

    def test_every_circuit_graph_is_connected_enough(self):
        for name in list_circuits():
            circuit = get_circuit(name)
            adjacency = circuit.adjacency()
            degrees = adjacency.sum(axis=1)
            # every component shares at least one signal net with another
            assert np.all(degrees >= 1), name

    def test_metric_definitions_are_consistent(self):
        for name in list_circuits():
            circuit = get_circuit(name)
            defs = circuit.metric_definitions()
            assert len(defs) == len(circuit.metric_names)
            assert len(set(circuit.metric_names)) == len(circuit.metric_names)

    def test_default_weights_signs(self):
        circuit = get_circuit("two_tia")
        weights = circuit.default_weights()
        assert weights["gain"] == 1.0
        assert weights["power"] == -1.0
        assert weights["noise"] == -1.0

    def test_failure_metrics_are_pessimistic(self):
        circuit = get_circuit("two_tia")
        metrics = circuit.failure_metrics()
        assert metrics["simulation_failed"] == 1.0
        assert metrics["gain"] == 0.0
        assert metrics["power"] >= 1e6


class TestEvaluation:
    def test_two_tia_expert_design_is_reasonable(self, two_tia):
        metrics = two_tia.evaluate(two_tia.expert_sizing())
        assert metrics["simulation_failed"] == 0.0
        assert metrics["gain"] > 1e3  # transimpedance above 1 kOhm
        assert metrics["bandwidth"] > 1e6
        assert 0 < metrics["power"] < 0.05
        assert metrics["gbw"] == pytest.approx(
            metrics["gain"] * metrics["bandwidth"], rel=1e-9
        )

    def test_two_tia_random_designs_evaluate(self, two_tia, rng):
        for _ in range(3):
            metrics = two_tia.evaluate(two_tia.random_sizing(rng))
            assert set(two_tia.metric_names) <= set(metrics)

    def test_two_volt_expert_design(self):
        circuit = get_circuit("two_volt")
        metrics = circuit.evaluate(circuit.expert_sizing())
        assert metrics["simulation_failed"] == 0.0
        assert metrics["gain"] > 100  # open-loop gain over 40 dB
        assert 0 < metrics["dpm"] <= 180
        assert 0 <= metrics["cpm"] <= 180

    def test_three_tia_expert_design(self):
        circuit = get_circuit("three_tia")
        metrics = circuit.evaluate(circuit.expert_sizing())
        assert metrics["simulation_failed"] == 0.0
        assert metrics["gain"] > 10
        assert metrics["power"] < 0.05

    def test_ldo_expert_design(self):
        circuit = get_circuit("ldo")
        metrics = circuit.evaluate(circuit.expert_sizing())
        assert metrics["simulation_failed"] == 0.0
        assert metrics["psrr"] > 20  # regulates against supply ripple
        assert metrics["load_regulation"] < 10  # mV/mA
        assert metrics["power"] < 0.01

    def test_ldo_output_regulated_to_reference_divider(self):
        circuit = get_circuit("ldo")
        sizing = circuit.expert_sizing()
        from repro.spice import dc_operating_point

        op = dc_operating_point(circuit.build_circuit(sizing))
        vout = op.voltage("vout")
        r1, r2 = sizing["R1"]["r"], sizing["R2"]["r"]
        expected = circuit.reference_voltage * (r1 + r2) / r2
        assert vout == pytest.approx(expected, rel=0.05)

    def test_ldo_evaluate_solves_dc_twice(self, monkeypatch):
        """Light- and heavy-load DC only: AC and both transients reuse the light op."""
        import repro.circuits.ldo as ldo_module
        import repro.spice.transient as transient_module

        calls = []
        original = ldo_module.dc_operating_point

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ldo_module, "dc_operating_point", counting)
        monkeypatch.setattr(transient_module, "dc_operating_point", counting)
        circuit = get_circuit("ldo")
        metrics = circuit.evaluate(circuit.expert_sizing())
        assert metrics["simulation_failed"] == 0.0
        assert len(calls) == 2

    def test_ldo_stacked_evaluation_matches_scalar_exactly(self):
        circuit = get_circuit("ldo")
        rng = np.random.default_rng(3)
        sizings = [circuit.expert_sizing()] + [circuit.random_sizing(rng) for _ in range(4)]
        stacked = circuit.evaluate_stacked(sizings)
        assert stacked == [circuit.evaluate(sizing) for sizing in sizings]

    def test_ldo_evaluate_stacked_makes_no_scalar_dc_calls(self, monkeypatch):
        """The light/heavy operating points of the whole batch are one stacked solve."""
        import repro.circuits.ldo as ldo_module
        import repro.spice.transient as transient_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            raise AssertionError("evaluate_stacked must not solve DC per design")

        monkeypatch.setattr(ldo_module, "dc_operating_point", counting)
        monkeypatch.setattr(transient_module, "dc_operating_point", counting)
        circuit = get_circuit("ldo")
        rng = np.random.default_rng(5)
        sizings = [circuit.expert_sizing()] + [circuit.random_sizing(rng) for _ in range(2)]
        metrics = circuit.evaluate_stacked(sizings)
        assert metrics[0]["simulation_failed"] == 0.0
        assert calls == []

    def test_ldo_metrics_do_not_depend_on_the_batch(self):
        """A design alone and inside a 13-design chunk gets the same metrics."""
        circuit = get_circuit("ldo", "45nm")
        space = circuit.parameter_space
        rng = np.random.default_rng(8)
        sizings = [circuit.random_sizing(rng) for _ in range(11)]
        sizings.append(circuit.expert_sizing())
        sizings.append(space.vector_to_sizing([d.lower for d in space.definitions]))
        chunk = circuit.evaluate_stacked(sizings)
        assert any(m["simulation_failed"] for m in chunk)
        assert not all(m["simulation_failed"] for m in chunk)
        for index in (0, 5, 11, 12):
            assert circuit.evaluate_stacked([sizings[index]]) == [chunk[index]]

    def test_wider_input_device_increases_two_tia_power(self, two_tia):
        base = two_tia.expert_sizing()
        metrics_base = two_tia.evaluate(base)
        bigger = {k: dict(v) for k, v in base.items()}
        bigger["T2"]["w"] = min(bigger["T2"]["w"] * 4, 3.6e-4)
        metrics_big = two_tia.evaluate(two_tia.parameter_space.apply_matching(bigger))
        assert metrics_big["power"] > metrics_base["power"]

    def test_evaluate_vector_matches_evaluate_sizing(self, two_tia):
        sizing = two_tia.expert_sizing()
        vector = two_tia.parameter_space.sizing_to_vector(sizing)
        via_vector = two_tia.evaluate_vector(vector)
        direct = two_tia.evaluate(sizing)
        assert via_vector["gain"] == pytest.approx(direct["gain"], rel=1e-6)

    def test_technology_porting_changes_metrics(self):
        sizing_metrics = {}
        for node in ("180nm", "45nm"):
            circuit = get_circuit("two_tia", node)
            sizing_metrics[node] = circuit.evaluate(circuit.expert_sizing())
        assert (
            sizing_metrics["180nm"]["gain"] != sizing_metrics["45nm"]["gain"]
        )

    def test_expert_sizing_respects_matching_groups(self):
        circuit = get_circuit("two_volt")
        sizing = circuit.expert_sizing()
        assert sizing["T1"] == sizing["T2"]
        assert sizing["T3"] == sizing["T4"]

    def test_spec_limits_reference_known_metrics(self):
        for name in list_circuits():
            circuit = get_circuit(name)
            for limit in circuit.spec_limits():
                assert limit.metric in circuit.metric_names
