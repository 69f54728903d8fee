"""Define a custom circuit and optimize it with every method in the library.

Shows the full extension workflow a downstream user would follow:

1. describe a new topology as a :class:`CircuitDesign` subclass (components,
   metrics, netlist builder, evaluation, expert reference),
2. register it so the experiment harness can find it by name, and
3. compare random search, Bayesian optimization and GCN-RL on it.

The example circuit is a simple five-transistor OTA driving a capacitive
load — small enough to run in seconds, but exercising the same machinery as
the paper's benchmark circuits.

Usage:
    python examples/custom_circuit.py [--steps 60]
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro.circuits import ComponentType, get_circuit, mosfet
from repro.circuits.base import CircuitDesign, MetricDef
from repro.circuits.builders import add_sized_components, mos_sizing
from repro.circuits.library import register_circuit
from repro.circuits.parameters import Sizing
from repro.env import SizingEnvironment, calibrate_normalization, default_fom_config
from repro.experiments import OptimizationDriver
from repro.optim import BayesianOptimization, RandomSearch
from repro.rl import AgentConfig, GCNRLStrategy
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
)
from repro.spice import measurements as meas
from repro.spice.ac import logspace_frequencies


class FiveTransistorOTA(CircuitDesign):
    """Classic 5T operational transconductance amplifier in unity feedback."""

    name = "five_t_ota"
    title = "Five-Transistor OTA"

    LOAD_CAPACITANCE = 1e-12
    BIAS_CURRENT = 20e-6
    FREQUENCIES = logspace_frequencies(1e3, 1e10, 6)

    def _define_components(self) -> List[mosfet]:
        nmos, pmos = ComponentType.NMOS, ComponentType.PMOS
        return [
            # M1 (drain at the mirror diode) is the non-inverting input; the
            # output at M2's drain feeds back to M2's gate for unity gain.
            mosfet("M1", nmos, "nd1", "vin", "ntail", "0", match_group="pair"),
            mosfet("M2", nmos, "vout_i", "vout", "ntail", "0", match_group="pair"),
            mosfet("M3", pmos, "nd1", "nd1", "vdd", "vdd", match_group="mirror"),
            mosfet("M4", pmos, "vout_i", "nd1", "vdd", "vdd", match_group="mirror"),
            mosfet("M5", nmos, "ntail", "vbn", "0", "0"),
            mosfet("M6", nmos, "vbn", "vbn", "0", "0"),
        ]

    def metric_definitions(self) -> List[MetricDef]:
        return [
            MetricDef("gain", "V/V", True, 1.0, "DC gain of the buffer stage"),
            MetricDef("bandwidth", "MHz", True, 1e-6, "-3dB bandwidth"),
            MetricDef("power", "uW", False, 1e6, "supply power"),
        ]

    def build_circuit(self, sizing: Sizing) -> Circuit:
        tech = self.technology
        circuit = Circuit(self.name)
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        circuit.add(
            VoltageSource("VIN", "vin", "0", dc=0.5 * tech.vdd, ac=1.0)
        )
        circuit.add(CurrentSource("IB", "vdd", "vbn", dc=self.BIAS_CURRENT))
        circuit.add(Capacitor("CL", "vout_i", "0", self.LOAD_CAPACITANCE))
        # Unity feedback: the amplifier output drives the inverting input M1.
        circuit.add(VoltageSource("VSHORT", "vout", "vout_i", dc=0.0))
        add_sized_components(circuit, self.components, sizing, tech)
        return circuit

    def evaluate(self, sizing: Sizing) -> Dict[str, float]:
        netlist = self.build_circuit(sizing)
        op = dc_operating_point(netlist)
        if not op.converged:
            return self.failure_metrics()
        ac = ac_analysis(netlist, op, self.FREQUENCIES)
        buffer_gain = ac.voltage("vout_i")
        return {
            "gain": meas.dc_gain(self.FREQUENCIES, buffer_gain),
            "bandwidth": meas.bandwidth_3db(self.FREQUENCIES, buffer_gain),
            "power": op.supply_power(),
            "simulation_failed": 0.0,
        }

    def expert_sizing(self) -> Sizing:
        f = self.technology.feature_size
        return self.parameter_space.apply_matching(
            {
                "M1": mos_sizing(100 * f, 2 * f, 2),
                "M2": mos_sizing(100 * f, 2 * f, 2),
                "M3": mos_sizing(50 * f, 4 * f, 1),
                "M4": mos_sizing(50 * f, 4 * f, 1),
                "M5": mos_sizing(60 * f, 4 * f, 2),
                "M6": mos_sizing(30 * f, 4 * f, 1),
            }
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=60)
    args = parser.parse_args()

    # Register the custom circuit so it can also be used by name elsewhere.
    register_circuit(FiveTransistorOTA)
    circuit = get_circuit("five_t_ota", "65nm")
    print(circuit.describe())

    # Calibrate the FoM ranges in memory only: the on-disk calibration cache
    # lives inside the installed package and is reserved for its circuits.
    normalization = calibrate_normalization(circuit, num_samples=50, use_cache=False)
    fom = default_fom_config(circuit, normalization=normalization)
    print("\nOptimizing with three different methods "
          f"({args.steps} simulations each):")

    results = {}
    for label, factory in (
        ("random search", lambda env: RandomSearch(env, seed=0)),
        ("bayesian opt.", lambda env: BayesianOptimization(env, seed=0)),
    ):
        environment = SizingEnvironment(circuit, fom)
        driver = OptimizationDriver(factory(environment), budget=args.steps)
        results[label] = driver.run().best_reward

    environment = SizingEnvironment(circuit, fom)
    config = AgentConfig(warmup=max(10, args.steps // 3))
    driver = OptimizationDriver(
        GCNRLStrategy(environment, seed=0, config=config), budget=args.steps
    )
    results["GCN-RL"] = driver.run().best_reward

    print()
    for label, best in results.items():
        print(f"  {label:>14s}: best FoM {best:.3f}")
    print("\nBest GCN-RL metrics:")
    for name, value in (environment.best_metrics or {}).items():
        if name != "simulation_failed":
            print(f"  {name:>10s}: {value:.4g}")


if __name__ == "__main__":
    main()
