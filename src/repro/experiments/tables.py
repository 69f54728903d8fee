"""Builders for every table in the paper's evaluation section.

Every builder accepts an optional ``store=`` (a :class:`~repro.store.RunStore`):
runs already present in the store are read back instead of re-simulated, and
fresh runs are written to it, so regenerating a table against a persistent
store is incremental across processes.  Every table runs its cells through
:func:`~repro.experiments.runner.run_grid` (campaign cells: leases, retries,
quarantine): Tables I–III as a :class:`~repro.store.CampaignSpec` grid,
Tables IV/V as the fine-tune cells of :mod:`repro.experiments.transfer`.  A
cell that keeps failing raises ``RuntimeError`` instead of rendering a
partial table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.circuits.library import get_circuit
from repro.experiments.config import CIRCUIT_LABELS, METHOD_LABELS, ExperimentSettings
from repro.experiments.records import AggregateResult, RunRecord, aggregate
from repro.experiments.runner import run_grid
from repro.experiments.transfer import (
    technology_transfer_experiment,
    topology_transfer_experiment,
)
from repro.store import CampaignSpec, RunStore


@dataclass
class Table:
    """A generic labelled table of string cells (rendered as aligned text)."""

    title: str
    row_labels: List[str]
    column_labels: List[str]
    cells: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def set(self, row: str, column: str, value: str) -> None:
        """Set one cell."""
        self.cells.setdefault(row, {})[column] = value

    def get(self, row: str, column: str) -> str:
        """Read one cell (empty string if unset)."""
        return self.cells.get(row, {}).get(column, "")

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [max(len(r) for r in self.row_labels + [self.title])]
        for column in self.column_labels:
            width = max(
                [len(column)] + [len(self.get(r, column)) for r in self.row_labels]
            )
            widths.append(width)
        header = [self.title.ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(self.column_labels, widths[1:])
        ]
        lines = ["  ".join(header), "-" * (sum(widths) + 2 * len(widths))]
        for row in self.row_labels:
            cells = [row.ljust(widths[0])] + [
                self.get(row, c).rjust(w)
                for c, w in zip(self.column_labels, widths[1:])
            ]
            lines.append("  ".join(cells))
        return "\n".join(lines)


# --- Table I -------------------------------------------------------------------------


def table1_fom_comparison(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Table:
    """Table I: FoM of every method on the four benchmark circuits."""
    settings = settings or ExperimentSettings()
    table = Table(
        title="Table I (FoM)",
        row_labels=[METHOD_LABELS[m] for m in settings.methods],
        column_labels=[CIRCUIT_LABELS[c] for c in settings.circuits],
    )
    runs = defaultdict(list)
    for cell, record in run_grid(CampaignSpec.from_settings(settings), settings, store):
        runs[cell.method, cell.circuit].append(record)
    for (method, circuit), records in runs.items():
        table.set(METHOD_LABELS[method], CIRCUIT_LABELS[circuit], str(aggregate(records)))
    return table


# --- Tables II & III (metric breakdowns) ----------------------------------------------


def _metric_row(circuit_name: str, metrics: Dict[str, float]) -> Dict[str, str]:
    circuit = get_circuit(circuit_name)
    row = {}
    for definition in circuit.metric_definitions():
        value = metrics.get(definition.name)
        if value is None:
            row[definition.name] = "-"
        else:
            row[definition.name] = f"{value * definition.display_scale:.3g}"
    return row


def metric_breakdown_table(
    circuit_name: str,
    settings: Optional[ExperimentSettings] = None,
    title: str = "",
    store: Optional[RunStore] = None,
) -> Table:
    """Best-design metric breakdown for every method on one circuit."""
    settings = settings or ExperimentSettings()
    circuit = get_circuit(circuit_name)
    metric_defs = circuit.metric_definitions()
    column_labels = [f"{m.name} [{m.unit}]" for m in metric_defs] + ["FoM"]
    table = Table(
        title=title or f"Metrics ({CIRCUIT_LABELS[circuit_name]})",
        row_labels=[METHOD_LABELS[m] for m in settings.methods],
        column_labels=column_labels,
    )
    spec = replace(CampaignSpec.from_settings(settings), circuits=[circuit_name])
    runs = defaultdict(list)
    for cell, record in run_grid(spec, settings, store):
        runs[cell.method].append(record)
    for method, records in runs.items():
        best = max(records, key=lambda r: r.best_reward)
        row = _metric_row(circuit_name, best.best_metrics)
        for definition, label in zip(metric_defs, column_labels):
            table.set(METHOD_LABELS[method], label, row[definition.name])
        table.set(METHOD_LABELS[method], "FoM", str(aggregate(records)))
    return table


#: The metric emphasised by each GCN-RL-k row of Table II.
TABLE2_EMPHASIS = {
    "GCN-RL-1": "bandwidth",
    "GCN-RL-2": "gain",
    "GCN-RL-3": "power",
    "GCN-RL-4": "noise",
    "GCN-RL-5": "peaking",
}


def table2_two_tia(
    settings: Optional[ExperimentSettings] = None,
    emphasis_factor: float = 10.0,
    store: Optional[RunStore] = None,
) -> Table:
    """Table II: Two-TIA metric breakdown plus the weighted-FoM variants.

    The last five rows re-run GCN-RL with a 10x larger weight on one metric
    each (bandwidth, gain, power, noise, peaking) and no hard spec, exactly as
    described in Section IV-A of the paper.
    """
    settings = settings or ExperimentSettings()
    base = metric_breakdown_table(
        "two_tia", settings, title="Table II (Two-TIA)", store=store
    )
    circuit = get_circuit("two_tia")
    metric_defs = circuit.metric_definitions()
    column_labels = [f"{m.name} [{m.unit}]" for m in metric_defs]

    spec = CampaignSpec(
        methods=["gcn_rl"],
        circuits=["two_tia"],
        technologies=[settings.technology],
        seeds=settings.seeds,
        steps=settings.steps,
        weight_overrides=[
            {metric: emphasis_factor} for metric in TABLE2_EMPHASIS.values()
        ],
        apply_spec=False,
    )
    runs = defaultdict(list)
    for cell, record in run_grid(spec, settings, store):
        (metric,) = cell.weight_overrides  # {metric: emphasis_factor}
        runs[metric].append(record)
    for row_name, metric in TABLE2_EMPHASIS.items():
        base.row_labels.append(row_name)
        best = max(runs[metric], key=lambda r: r.best_reward)
        row = _metric_row("two_tia", best.best_metrics)
        for definition, label in zip(metric_defs, column_labels):
            base.set(row_name, label, row[definition.name])
        base.set(row_name, "FoM", "-")
    return base


def table3_two_volt(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Table:
    """Table III: Two-Volt metric breakdown for every method."""
    return metric_breakdown_table(
        "two_volt", settings, title="Table III (Two-Volt)", store=store
    )


# --- Table IV (technology transfer) -----------------------------------------------------


def table4_technology_transfer(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Table:
    """Table IV: transfer from 180nm to other nodes on Two-TIA and Three-TIA."""
    settings = settings or ExperimentSettings()
    rows = []
    table = Table(
        title="Table IV (tech transfer)",
        row_labels=rows,
        column_labels=list(settings.transfer_targets),
    )
    for circuit in ("two_tia", "three_tia"):
        experiment = technology_transfer_experiment(circuit, settings, store=store)
        label_base = CIRCUIT_LABELS[circuit]
        no_transfer_row = f"{label_base} (no transfer)"
        transfer_row = f"{label_base} (transfer from 180nm)"
        rows.extend([no_transfer_row, transfer_row])
        for target in settings.transfer_targets:
            table.set(
                no_transfer_row, target, str(aggregate(experiment.no_transfer[target]))
            )
            table.set(
                transfer_row, target, str(aggregate(experiment.transfer[target]))
            )
    return table


# --- Table V (topology transfer) ---------------------------------------------------------


def table5_topology_transfer(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Table:
    """Table V: knowledge transfer between the Two-TIA and Three-TIA topologies."""
    settings = settings or ExperimentSettings()
    directions = [("two_tia", "three_tia"), ("three_tia", "two_tia")]
    column_labels = [
        f"{CIRCUIT_LABELS[src]} -> {CIRCUIT_LABELS[dst]}" for src, dst in directions
    ]
    table = Table(
        title="Table V (topology transfer)",
        row_labels=["No Transfer", "NG-RL Transfer", "GCN-RL Transfer"],
        column_labels=column_labels,
    )
    for (source, target), column in zip(directions, column_labels):
        experiment = topology_transfer_experiment(source, target, settings, store=store)
        table.set("No Transfer", column, str(aggregate(experiment.no_transfer)))
        table.set("NG-RL Transfer", column, str(aggregate(experiment.ng_transfer)))
        table.set("GCN-RL Transfer", column, str(aggregate(experiment.gcn_transfer)))
    return table
