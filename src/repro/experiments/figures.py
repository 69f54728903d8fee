"""Builders for the learning-curve figures of the paper (Figures 5, 7, 8).

Plotting libraries are not available offline, so each figure is produced as a
:class:`FigureData` object holding the numeric series (step index vs. best
FoM so far) plus helpers to render an ASCII sketch and to export CSV.  The
series are exactly what the paper plots; a user with matplotlib installed can
plot them directly.  Every figure runs its cells as campaign cells through
:func:`~repro.experiments.runner.run_grid`: Figure 5 shares them with
Table I, Figures 7 and 8 with Tables IV and V.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.config import CIRCUIT_LABELS, METHOD_LABELS, ExperimentSettings
from repro.experiments.records import max_learning_curve, mean_learning_curve
from repro.experiments.runner import run_grid
from repro.experiments.transfer import (
    technology_transfer_experiment,
    topology_transfer_experiment,
)
from repro.store import CampaignSpec, RunStore


@dataclass
class FigureData:
    """Numeric data of one figure panel: named best-so-far curves."""

    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, np.ndarray] = field(default_factory=dict)

    def add_series(self, name: str, values: np.ndarray) -> None:
        """Add one named curve."""
        self.series[name] = np.asarray(values, dtype=float)

    def to_csv(self) -> str:
        """Export all curves as CSV text (step, one column per series)."""
        if not self.series:
            return "step\n"
        length = max(len(v) for v in self.series.values())
        names = list(self.series)
        lines = ["step," + ",".join(names)]
        for i in range(length):
            row = [str(i)]
            for name in names:
                values = self.series[name]
                row.append(f"{values[min(i, len(values) - 1)]:.6g}")
            lines.append(",".join(row))
        return "\n".join(lines)

    def render_ascii(self, width: int = 60, height: int = 12) -> str:
        """Render a coarse ASCII plot of all curves (for terminal reports)."""
        if not self.series:
            return f"{self.title}: (no data)"
        all_values = np.concatenate([v for v in self.series.values() if len(v)])
        lo, hi = float(np.min(all_values)), float(np.max(all_values))
        if hi <= lo:
            hi = lo + 1.0
        grid = [[" "] * width for _ in range(height)]
        markers = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        legend = []
        for idx, (name, values) in enumerate(self.series.items()):
            marker = markers[idx % len(markers)]
            legend.append(f"{marker}={name}")
            if len(values) == 0:
                continue
            xs = np.linspace(0, width - 1, len(values)).astype(int)
            ys = ((values - lo) / (hi - lo) * (height - 1)).astype(int)
            for x, y in zip(xs, ys):
                grid[height - 1 - y][x] = marker
        lines = [f"{self.title}  [{self.ylabel}: {lo:.2f} .. {hi:.2f}]"]
        lines.extend("|" + "".join(row) for row in grid)
        lines.append("+" + "-" * width + f"> {self.xlabel}")
        lines.append("legend: " + ", ".join(legend))
        return "\n".join(lines)


def figure5_learning_curves(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Dict[str, FigureData]:
    """Figure 5: best-FoM learning curves of every method on each circuit."""
    settings = settings or ExperimentSettings()
    methods = [m for m in settings.methods if m != "human"]
    spec = replace(CampaignSpec.from_settings(settings), methods=methods)
    runs = defaultdict(list)
    for cell, record in run_grid(spec, settings, store):
        runs[cell.circuit, cell.method].append(record)
    figures: Dict[str, FigureData] = {}
    for circuit in settings.circuits:
        figure = FigureData(
            title=f"Figure 5 — {CIRCUIT_LABELS[circuit]}",
            xlabel="simulation step",
            ylabel="max FoM",
        )
        for method in methods:
            curve = max_learning_curve(runs[circuit, method])
            figure.add_series(METHOD_LABELS[method], curve)
        figures[circuit] = figure
    return figures


def figure7_technology_transfer_curves(
    settings: Optional[ExperimentSettings] = None,
    circuit: str = "three_tia",
    store: Optional[RunStore] = None,
) -> Dict[str, FigureData]:
    """Figure 7: transfer vs no-transfer learning curves per target node."""
    settings = settings or ExperimentSettings()
    experiment = technology_transfer_experiment(circuit, settings, store=store)
    figures: Dict[str, FigureData] = {}
    for target in settings.transfer_targets:
        figure = FigureData(
            title=f"Figure 7 — {CIRCUIT_LABELS[circuit]} 180nm -> {target}",
            xlabel="simulation step",
            ylabel="max FoM",
        )
        figure.add_series(
            "Transfer", mean_learning_curve(experiment.transfer[target])
        )
        figure.add_series(
            "No transfer", mean_learning_curve(experiment.no_transfer[target])
        )
        figures[target] = figure
    return figures


def figure8_topology_transfer_curves(
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
) -> Dict[str, FigureData]:
    """Figure 8: topology-transfer learning curves for both directions."""
    settings = settings or ExperimentSettings()
    directions = [("two_tia", "three_tia"), ("three_tia", "two_tia")]
    figures: Dict[str, FigureData] = {}
    for source, target in directions:
        experiment = topology_transfer_experiment(source, target, settings, store=store)
        key = f"{source}_to_{target}"
        figure = FigureData(
            title=(
                f"Figure 8 — {CIRCUIT_LABELS[source]} -> {CIRCUIT_LABELS[target]}"
            ),
            xlabel="simulation step",
            ylabel="max FoM",
        )
        figure.add_series(
            "GCN-RL transfer", mean_learning_curve(experiment.gcn_transfer)
        )
        figure.add_series(
            "NG-RL transfer", mean_learning_curve(experiment.ng_transfer)
        )
        figure.add_series(
            "No transfer", mean_learning_curve(experiment.no_transfer)
        )
        figures[key] = figure
    return figures
