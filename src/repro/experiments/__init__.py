"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.config import (
    CIRCUIT_LABELS,
    METHOD_LABELS,
    ExperimentSettings,
)
from repro.experiments.figures import (
    FigureData,
    figure5_learning_curves,
    figure7_technology_transfer_curves,
    figure8_topology_transfer_curves,
)
from repro.experiments.driver import DriverStep, OptimizationDriver
from repro.experiments.records import (
    AggregateResult,
    RunRecord,
    aggregate,
    max_learning_curve,
    mean_learning_curve,
)
from repro.experiments.runner import (
    ALL_METHODS,
    build_environment,
    build_strategy,
    clear_run_cache,
    default_run_store,
    run_grid,
    run_key_for,
    run_method,
)
from repro.experiments.tables import (
    Table,
    metric_breakdown_table,
    table1_fom_comparison,
    table2_two_tia,
    table3_two_volt,
    table4_technology_transfer,
    table5_topology_transfer,
)
from repro.experiments.transfer import (
    TechnologyTransferResult,
    TopologyTransferResult,
    technology_transfer_experiment,
    topology_transfer_experiment,
)

__all__ = [
    "ExperimentSettings",
    "METHOD_LABELS",
    "CIRCUIT_LABELS",
    "RunRecord",
    "AggregateResult",
    "aggregate",
    "mean_learning_curve",
    "max_learning_curve",
    "ALL_METHODS",
    "OptimizationDriver",
    "DriverStep",
    "run_method",
    "run_grid",
    "run_key_for",
    "build_environment",
    "build_strategy",
    "clear_run_cache",
    "default_run_store",
    "Table",
    "table1_fom_comparison",
    "table2_two_tia",
    "table3_two_volt",
    "table4_technology_transfer",
    "table5_topology_transfer",
    "metric_breakdown_table",
    "FigureData",
    "figure5_learning_curves",
    "figure7_technology_transfer_curves",
    "figure8_topology_transfer_curves",
    "TechnologyTransferResult",
    "TopologyTransferResult",
    "technology_transfer_experiment",
    "topology_transfer_experiment",
]
