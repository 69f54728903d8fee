"""Low-dropout regulator (LDO) benchmark circuit.

Topology following Figure 6d of the paper: a five-transistor error amplifier
senses the output through the resistive divider R1/R2, drives a large PMOS
pass device, and regulates the output voltage across a load capacitor.  The
load and the supply are stepped in transient analyses to extract the settling
times; DC sweeps give the load regulation and an AC analysis gives the PSRR.

Metrics (paper Section IV-A, LDO column of Table I): settling time after a
load increase / decrease (TL+/TL-), load regulation, settling time after a
supply increase / decrease (TV+/TV-), PSRR, and power.

:meth:`LowDropoutRegulator.evaluate` solves one design on the scalar
engine; :meth:`LowDropoutRegulator.evaluate_stacked` solves a whole batch
with the same numbers: one scalar-exact stacked DC for every light- and
heavy-load operating point, the PSRR AC per design, and one batched solve
for every settling transient.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import math

from repro.circuits.base import CircuitDesign, MetricDef, SpecLimit
from repro.circuits.builders import add_sized_components, mos_sizing
from repro.circuits.components import (
    ComponentSpec,
    ComponentType,
    capacitor,
    mosfet,
    resistor,
)
from repro.circuits.parameters import Sizing
from repro.spice import measurements as meas
from repro.spice.ac import ac_analysis, logspace_frequencies
from repro.spice.batch.dc import stacked_dc_operating_point
from repro.spice.batch.transient import batch_transient_analysis
from repro.spice.circuit import Circuit
from repro.spice.dc import DCSolution, dc_operating_point
from repro.spice.elements import CurrentSource, VoltageSource
from repro.spice.transient import TransientSolution, pulse_waveform, transient_analysis


class LowDropoutRegulator(CircuitDesign):
    """Low-dropout regulator with a 5-transistor error amplifier."""

    name = "ldo"
    title = "Low-Dropout Regulator"

    #: Reference voltage as a fraction of the supply.
    REFERENCE_FRACTION = 0.45
    BIAS_CURRENT = 20e-6
    #: Nominal and stepped load currents [A].
    LOAD_LIGHT = 1e-3
    LOAD_HEAVY = 5e-3
    #: Supply step magnitude [V].
    SUPPLY_STEP = 0.2
    #: Transient settings.
    TRAN_STEP = 4e-8
    TRAN_EVENT = 1e-6
    TRAN_SECOND_EVENT = 3e-6
    TRAN_STOP = 5e-6
    FREQUENCIES = logspace_frequencies(1e2, 1e9, 6)

    def _define_components(self) -> List[ComponentSpec]:
        nmos, pmos = ComponentType.NMOS, ComponentType.PMOS
        return [
            # Error amplifier: T1/T2 input pair, T3/T4 mirror load, T5 tail.
            mosfet("T1", nmos, "nd1", "fb", "ntail", "0", match_group="ea_pair"),
            mosfet("T2", nmos, "na", "vref", "ntail", "0", match_group="ea_pair"),
            mosfet("T3", pmos, "nd1", "nd1", "vdd", "vdd", match_group="ea_mirror"),
            mosfet("T4", pmos, "na", "nd1", "vdd", "vdd", match_group="ea_mirror"),
            mosfet("T5", nmos, "ntail", "vbn", "0", "0"),
            mosfet("T6", nmos, "vbn", "vbn", "0", "0"),
            # Power stage: wide PMOS pass device.
            mosfet(
                "T7",
                pmos,
                "vout",
                "na",
                "vdd",
                "vdd",
                bounds={"w": (1e-5, 5e-3), "l": (1.8e-7, 2e-6)},
            ),
            # Feedback divider and output capacitor.
            resistor("R1", "vout", "fb", bounds={"r": (1e3, 1e6)}),
            resistor("R2", "fb", "0", bounds={"r": (1e3, 1e6)}),
            capacitor("CL", "vout", "0", bounds={"c": (1e-12, 5e-11)}),
        ]

    def metric_definitions(self) -> List[MetricDef]:
        return [
            MetricDef("tl_plus", "us", False, 1e6, "settling time, load increase"),
            MetricDef("tl_minus", "us", False, 1e6, "settling time, load decrease"),
            MetricDef("load_regulation", "mV/mA", False, 1.0, "output shift per load"),
            MetricDef("tv_plus", "us", False, 1e6, "settling time, supply increase"),
            MetricDef("tv_minus", "us", False, 1e6, "settling time, supply decrease"),
            MetricDef("psrr", "dB", True, 1.0, "power-supply rejection at DC"),
            MetricDef("power", "mW", False, 1e3, "regulator quiescent power"),
        ]

    def spec_limits(self) -> List[SpecLimit]:
        return [
            SpecLimit("psrr", "min", 0.0),
            SpecLimit("power", "max", 5e-2),
        ]

    @property
    def reference_voltage(self) -> float:
        """Error-amplifier reference voltage [V]."""
        return self.REFERENCE_FRACTION * self.technology.vdd

    def build_circuit(
        self,
        sizing: Sizing,
        load_current: float = None,
        load_waveform=None,
        supply_waveform=None,
        supply_ac: float = 0.0,
    ) -> Circuit:
        tech = self.technology
        if load_current is None:
            load_current = self.LOAD_LIGHT
        circuit = Circuit(self.name)
        circuit.add(
            VoltageSource(
                "VDD", "vdd", "0", dc=tech.vdd, ac=supply_ac, waveform=supply_waveform
            )
        )
        circuit.add(VoltageSource("VREF", "vref", "0", dc=self.reference_voltage))
        circuit.add(CurrentSource("IBIAS", "vdd", "vbn", dc=self.BIAS_CURRENT))
        circuit.add(
            CurrentSource(
                "ILOAD", "vout", "0", dc=load_current, waveform=load_waveform
            )
        )
        add_sized_components(circuit, self.components, sizing, tech)
        return circuit

    def dc_circuits(self, sizing: Sizing) -> Tuple[Circuit, Circuit]:
        """The light-load and heavy-load DC netlists of one sizing."""
        return (
            self.build_circuit(sizing, load_current=self.LOAD_LIGHT),
            self.build_circuit(sizing, load_current=self.LOAD_HEAVY),
        )

    def _steady_state(
        self, sizing: Sizing, op_light: DCSolution, op_heavy: DCSolution
    ) -> Optional[Dict[str, float]]:
        """Regulation, power and the PSRR sweep from the two operating points.

        Returns ``None`` when either DC solve failed.
        """
        # 1) DC at light and heavy load: regulation and power.
        if not (op_light.converged and op_heavy.converged):
            return None

        v_light = op_light.voltage("vout")
        v_heavy = op_heavy.voltage("vout")
        regulation = meas.load_regulation(
            v_light, v_heavy, self.LOAD_LIGHT, self.LOAD_HEAVY
        )
        # Express in mV per mA as in the paper's LDO tables.
        regulation_mv_ma = regulation * 1e-3 * 1e3

        # Quiescent power excludes the power delivered to the load itself.
        power = max(
            op_light.supply_power() - v_light * self.LOAD_LIGHT, 1e-9
        )

        # 2) PSRR from an AC analysis with a unit AC source on the supply.
        # DC stamps ignore the AC magnitude, so the light-load operating
        # point is also the operating point of the AC circuit.
        ac_circuit = self.build_circuit(
            sizing, load_current=self.LOAD_LIGHT, supply_ac=1.0
        )
        ac = ac_analysis(ac_circuit, op_light, self.FREQUENCIES)
        supply_gain = ac.voltage("vout")
        psrr_db = -20.0 * math.log10(
            max(float(abs(supply_gain[0])), 1e-9)
        )
        return {
            "load_regulation": regulation_mv_ma,
            "psrr": psrr_db,
            "power": power,
        }

    def step_circuits(self, sizing: Sizing) -> Tuple[Circuit, Circuit]:
        """The load-step and supply-step transient netlists of one sizing.

        Both steps go up at ``TRAN_EVENT`` and back down at
        ``TRAN_SECOND_EVENT``; at ``t = 0`` each circuit is the light-load
        DC circuit, so the light-load operating point starts both.
        """
        load_wave = pulse_waveform(
            self.TRAN_EVENT,
            self.TRAN_SECOND_EVENT - self.TRAN_EVENT,
            self.LOAD_LIGHT,
            self.LOAD_HEAVY,
            edge_time=5e-8,
        )
        vdd = self.technology.vdd
        supply_wave = pulse_waveform(
            self.TRAN_EVENT,
            self.TRAN_SECOND_EVENT - self.TRAN_EVENT,
            vdd,
            vdd + self.SUPPLY_STEP,
            edge_time=5e-8,
        )
        return (
            self.build_circuit(
                sizing, load_current=self.LOAD_LIGHT, load_waveform=load_wave
            ),
            self.build_circuit(
                sizing, load_current=self.LOAD_LIGHT, supply_waveform=supply_wave
            ),
        )

    def _settling_pair(self, tran: TransientSolution) -> Tuple[float, float]:
        """Settling times of ``vout`` after the rising and the falling event."""
        waveform = tran.voltage("vout")
        # First event window ends just before the second event so the two
        # settling measurements do not contaminate each other.
        first_window = tran.times < self.TRAN_SECOND_EVENT
        rise = meas.settling_time(
            tran.times[first_window],
            waveform[first_window],
            self.TRAN_EVENT,
            tolerance=0.005,
        )
        fall = meas.settling_time(
            tran.times, waveform, self.TRAN_SECOND_EVENT, tolerance=0.005
        )
        return rise, fall

    def _measure(
        self,
        steady: Dict[str, float],
        load_tran: TransientSolution,
        supply_tran: TransientSolution,
    ) -> Dict[str, float]:
        """Metrics from the steady-state results and the two step responses."""
        if not (load_tran.converged and supply_tran.converged):
            return self.failure_metrics()
        tl_plus, tl_minus = self._settling_pair(load_tran)
        tv_plus, tv_minus = self._settling_pair(supply_tran)
        return {
            "tl_plus": tl_plus,
            "tl_minus": tl_minus,
            "load_regulation": steady["load_regulation"],
            "tv_plus": tv_plus,
            "tv_minus": tv_minus,
            "psrr": steady["psrr"],
            "power": steady["power"],
            "simulation_failed": 0.0,
        }

    def evaluate(self, sizing: Sizing) -> Dict[str, float]:
        light, heavy = self.dc_circuits(sizing)
        op = dc_operating_point(light)
        steady = self._steady_state(sizing, op, dc_operating_point(heavy))
        if steady is None:
            return self.failure_metrics()
        # 3) and 4) Load-step and supply-step transients (up then down).
        load, supply = self.step_circuits(sizing)
        load_tran = transient_analysis(load, self.TRAN_STOP, self.TRAN_STEP, initial_op=op)
        supply_tran = transient_analysis(supply, self.TRAN_STOP, self.TRAN_STEP, initial_op=op)
        return self._measure(steady, load_tran, supply_tran)

    def evaluate_stacked(self, sizings: Sequence[Sizing]) -> List[Dict[str, float]]:
        """:meth:`evaluate` for a batch: stacked DC and stacked transients.

        The light-load and heavy-load operating points of every design share
        one :func:`~repro.spice.batch.dc.stacked_dc_operating_point` (bit
        for bit the scalar solves), the PSRR AC runs per design, and the
        load-step and supply-step rows of every design whose DC converged
        share one :func:`~repro.spice.batch.transient.batch_transient_analysis`.
        """
        ops = stacked_dc_operating_point(
            [circuit for sizing in sizings for circuit in self.dc_circuits(sizing)]
        )
        light_ops = ops[0::2]
        steady = [
            self._steady_state(sizing, light, heavy)
            for sizing, light, heavy in zip(sizings, light_ops, ops[1::2])
        ]
        solved = [index for index, result in enumerate(steady) if result is not None]
        circuits, initial_ops = [], []
        for index in solved:
            circuits.extend(self.step_circuits(sizings[index]))
            initial_ops.extend([light_ops[index]] * 2)
        trans = (
            batch_transient_analysis(circuits, initial_ops, self.TRAN_STOP, self.TRAN_STEP)
            if circuits
            else []
        )
        metrics = [self.failure_metrics() for _ in sizings]
        for position, index in enumerate(solved):
            metrics[index] = self._measure(
                steady[index], trans[2 * position], trans[2 * position + 1]
            )
        return metrics

    def expert_sizing(self) -> Sizing:
        """Hand-analysis reference design for the LDO."""
        f = self.technology.feature_size
        return self.parameter_space.apply_matching(
            {
                "T1": mos_sizing(100 * f, 2.0 * f, 2),
                "T2": mos_sizing(100 * f, 2.0 * f, 2),
                "T3": mos_sizing(60 * f, 4.0 * f, 1),
                "T4": mos_sizing(60 * f, 4.0 * f, 1),
                "T5": mos_sizing(80 * f, 4.0 * f, 2),
                "T6": mos_sizing(40 * f, 4.0 * f, 1),
                "T7": mos_sizing(1.0e-3, 2 * f, 8),
                "R1": {"r": 2.0e4},
                "R2": {"r": 2.0e4},
                "CL": {"c": 2.0e-11},
            }
        )
