"""Knowledge-transfer experiments (Tables IV & V, Figures 7 & 8).

Each experiment is a list of fine-tune cells run through
:func:`~repro.experiments.runner.run_grid`, exactly like Tables I–III.  A
transfer fine-tune is an RL :class:`~repro.store.RunRequest` on the target
task whose ``parent`` is the source-task pretraining run — an ordinary
stored ``gcn_rl``/``ng_rl`` run at seed 0 — and the no-transfer arm is the
same cell without a parent.  Every fine-tune gets ``settings.transfer_steps``
episodes, the first ``settings.transfer_warmup`` of them (at most all but
one) random warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentSettings
from repro.experiments.records import RunRecord
from repro.experiments.runner import run_grid
from repro.store import RunRequest, RunStore


def _fine_tune_warmup(settings: ExperimentSettings) -> int:
    """Warm-up episodes of a fine-tune, clamped as ``rl_warmup`` clamps.

    At least one episode acts with the policy, so a transferred policy is
    always used.
    """
    return min(settings.transfer_warmup, settings.transfer_steps - 1)


@dataclass
class TechnologyTransferResult:
    """Transfer-vs-scratch comparison for one circuit across target nodes."""

    circuit: str
    source_technology: str
    target_technologies: List[str]
    transfer: Dict[str, List[RunRecord]] = field(default_factory=dict)
    no_transfer: Dict[str, List[RunRecord]] = field(default_factory=dict)


def technology_transfer_experiment(
    circuit_name: str,
    settings: Optional[ExperimentSettings] = None,
    source_technology: str = "180nm",
    use_gcn: bool = True,
    store: Optional[RunStore] = None,
) -> TechnologyTransferResult:
    """Reproduce Table IV: train at 180nm, fine-tune at the other nodes.

    For every target node and seed the same warm-up seeds are used for the
    transfer and no-transfer arms (as in the paper, so their warm-up FoMs
    match) and both arms receive ``settings.transfer_steps`` total episodes.
    """
    settings = settings or ExperimentSettings()
    method = "gcn_rl" if use_gcn else "ng_rl"
    source = RunRequest(
        method, circuit_name, source_technology, settings.pretrain_steps, 0
    )
    cells = [
        RunRequest(
            method,
            circuit_name,
            target,
            settings.transfer_steps,
            seed,
            warmup=_fine_tune_warmup(settings),
            parent=parent,
        )
        for target in settings.transfer_targets
        for seed in range(settings.seeds)
        for parent in (source, None)
    ]
    result = TechnologyTransferResult(
        circuit=circuit_name,
        source_technology=source_technology,
        target_technologies=list(settings.transfer_targets),
    )
    for cell, record in run_grid(None, settings, store, cells=cells):
        arm = result.transfer if cell.parent is not None else result.no_transfer
        arm.setdefault(cell.technology, []).append(record)
    return result


@dataclass
class TopologyTransferResult:
    """GCN vs non-GCN topology-transfer comparison for one direction."""

    source_circuit: str
    target_circuit: str
    technology: str
    gcn_transfer: List[RunRecord] = field(default_factory=list)
    ng_transfer: List[RunRecord] = field(default_factory=list)
    no_transfer: List[RunRecord] = field(default_factory=list)


def topology_transfer_experiment(
    source_circuit: str,
    target_circuit: str,
    settings: Optional[ExperimentSettings] = None,
    technology: str = "180nm",
    store: Optional[RunStore] = None,
) -> TopologyTransferResult:
    """Reproduce Table V: transfer between Two-TIA and Three-TIA topologies.

    Three arms are compared on the target circuit with the same fine-tuning
    budget: GCN-RL with transferred weights, NG-RL with transferred weights,
    and GCN-RL trained from scratch.  Topology transfer requires the
    dimension-independent (scalar-index) state encoding.
    """
    settings = settings or ExperimentSettings()

    def source(method: str) -> RunRequest:
        return RunRequest(
            method,
            source_circuit,
            technology,
            settings.pretrain_steps,
            0,
            transferable_state=True,
        )

    # Result attribute -> (fine-tune method, parent run).
    arms = {
        "gcn_transfer": ("gcn_rl", source("gcn_rl")),
        "ng_transfer": ("ng_rl", source("ng_rl")),
        "no_transfer": ("gcn_rl", None),
    }
    cells = [
        RunRequest(
            method,
            target_circuit,
            technology,
            settings.transfer_steps,
            seed,
            warmup=_fine_tune_warmup(settings),
            transferable_state=True,
            parent=parent,
        )
        for seed in range(settings.seeds)
        for method, parent in arms.values()
    ]
    result = TopologyTransferResult(
        source_circuit=source_circuit,
        target_circuit=target_circuit,
        technology=technology,
    )
    names = list(arms)
    for index, (_, record) in enumerate(run_grid(None, settings, store, cells=cells)):
        getattr(result, names[index % len(names)]).append(record)
    return result
