"""Knowledge-transfer experiments (Tables IV & V, Figures 7 & 8)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.config import ExperimentSettings
from repro.experiments.records import RunRecord
from repro.experiments.runner import build_environment, default_agent_config
from repro.rl.agent import AgentConfig, GCNRLAgent
from repro.rl.transfer import train_agent
from repro.store import RunKey, RunStore, make_run_key

_PRETRAINED_CACHE: Dict[Tuple, Dict] = {}
_TRANSFER_CACHE: Dict[RunKey, RunRecord] = {}

#: Pretrained weights, or a lazy thunk producing them on first use.
PretrainedWeights = Union[Dict, Callable[[], Dict]]


def clear_transfer_cache() -> None:
    """Drop cached pretrained agents and transfer runs (used in tests)."""
    _PRETRAINED_CACHE.clear()
    _TRANSFER_CACHE.clear()


def _transfer_agent_config(
    settings: ExperimentSettings, use_gcn: bool, warmup: int
) -> AgentConfig:
    config = default_agent_config(settings.transfer_steps, settings, use_gcn)
    config.warmup = warmup
    return config


def pretrain_weights(
    circuit_name: str,
    technology: str,
    settings: ExperimentSettings,
    use_gcn: bool = True,
    transferable_state: bool = False,
    seed: int = 0,
) -> Dict:
    """Train a source agent and return its weights (cached per configuration)."""
    evaluator_config = settings.evaluator_config()
    key = (
        circuit_name,
        technology,
        settings.pretrain_steps,
        use_gcn,
        transferable_state,
        seed,
        evaluator_config.cache_key(),
    )
    if key in _PRETRAINED_CACHE:
        return _PRETRAINED_CACHE[key]
    environment = build_environment(
        circuit_name,
        technology,
        transferable_state=transferable_state,
        evaluator_config=evaluator_config,
    )
    try:
        config = default_agent_config(settings.pretrain_steps, settings, use_gcn)
        agent = GCNRLAgent(environment, config=config, seed=seed)
        train_agent(agent, settings.pretrain_steps)
        weights = agent.state_dict()
    finally:
        environment.evaluator.close()
    _PRETRAINED_CACHE[key] = weights
    return weights


def transfer_run_key(
    circuit_name: str,
    technology: str,
    settings: ExperimentSettings,
    seed: int,
    use_gcn: bool,
    transferable_state: bool,
    pretrained: bool,
    label: str,
    source: str = "",
) -> RunKey:
    """Canonical store key of one fine-tuning run.

    Besides the run coordinates, the key covers the warm-up split, the agent
    flavour, the state encoding, the settings' evaluator stack, and — when
    weights are transferred — the source task (circuit or node) and the
    budget those weights were trained with.  Leaving the source out would
    let fine-tunes from different pretraining sources alias to the same
    stored record.
    """
    extra = {
        "transfer_warmup": settings.transfer_warmup,
        "use_gcn": use_gcn,
        "transferable_state": transferable_state,
        "pretrain_steps": settings.pretrain_steps if pretrained else 0,
        "source": source if pretrained else "",
    }
    return make_run_key(
        label,
        circuit_name,
        technology,
        settings.transfer_steps,
        seed,
        evaluator_key=settings.evaluator_config().cache_key(),
        extra=extra,
    )


def _finetune(
    circuit_name: str,
    technology: str,
    settings: ExperimentSettings,
    seed: int,
    use_gcn: bool,
    transferable_state: bool,
    pretrained: Optional[PretrainedWeights],
    label: str,
    store: Optional[RunStore] = None,
    source: str = "",
) -> RunRecord:
    """Train (or fine-tune) an agent on the target task with a small budget.

    ``pretrained`` may be a weights dict or a zero-argument callable that
    produces one; the callable is only invoked on a cache/store miss, so a
    fully-stored experiment never pays for pretraining.
    """
    store_key = transfer_run_key(
        circuit_name,
        technology,
        settings,
        seed,
        use_gcn,
        transferable_state,
        pretrained is not None,
        label,
        source=source,
    )
    if store_key in _TRANSFER_CACHE:
        return _TRANSFER_CACHE[store_key]
    if store is not None:
        stored = store.get(store_key)
        if stored is not None:
            _TRANSFER_CACHE[store_key] = stored
            return stored

    environment = build_environment(
        circuit_name,
        technology,
        transferable_state=transferable_state,
        evaluator_config=settings.evaluator_config(),
    )
    try:
        config = _transfer_agent_config(settings, use_gcn, settings.transfer_warmup)
        agent = GCNRLAgent(environment, config=config, seed=seed)
        if pretrained is not None:
            weights = pretrained() if callable(pretrained) else pretrained
            agent.load_state_dict(weights)
        train_agent(agent, settings.transfer_steps)
        record = RunRecord(
            method=label,
            circuit=circuit_name,
            technology=technology,
            seed=seed,
            steps=settings.transfer_steps,
            best_reward=environment.best_reward,
            best_metrics=dict(environment.best_metrics or {}),
            rewards=list(environment.rewards()),
            extra={"transfer": label},
        )
    finally:
        environment.evaluator.close()
    _TRANSFER_CACHE[store_key] = record
    if store is not None:
        store.put(store_key, record)
    return record


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
    result = TechnologyTransferResult(
        circuit=circuit_name,
        source_technology=source_technology,
        target_technologies=list(settings.transfer_targets),
    )
    # Lazy: pretraining (the dominant cost) only happens if some transfer
    # cell is actually missing from the cache/store; pretrain_weights itself
    # memoises, so at most one source run is paid per process.
    pretrained = lambda: pretrain_weights(  # noqa: E731
        circuit_name, source_technology, settings, use_gcn=use_gcn
    )
    for target in settings.transfer_targets:
        transfer_runs, scratch_runs = [], []
        for seed in range(settings.seeds):
            transfer_runs.append(
                _finetune(
                    circuit_name,
                    target,
                    settings,
                    seed,
                    use_gcn,
                    False,
                    pretrained,
                    "transfer",
                    store=store,
                    source=source_technology,
                )
            )
            scratch_runs.append(
                _finetune(
                    circuit_name,
                    target,
                    settings,
                    seed,
                    use_gcn,
                    False,
                    None,
                    "no_transfer",
                    store=store,
                )
            )
        result.transfer[target] = transfer_runs
        result.no_transfer[target] = scratch_runs
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
    result = TopologyTransferResult(
        source_circuit=source_circuit,
        target_circuit=target_circuit,
        technology=technology,
    )
    # Lazy for the same reason as in technology_transfer_experiment: a
    # fully-stored experiment must not pay for source-task pretraining.
    gcn_weights = lambda: pretrain_weights(  # noqa: E731
        source_circuit, technology, settings, use_gcn=True, transferable_state=True
    )
    ng_weights = lambda: pretrain_weights(  # noqa: E731
        source_circuit, technology, settings, use_gcn=False, transferable_state=True
    )
    for seed in range(settings.seeds):
        result.gcn_transfer.append(
            _finetune(
                target_circuit,
                technology,
                settings,
                seed,
                True,
                True,
                gcn_weights,
                f"gcn_transfer_from_{source_circuit}",
                store=store,
                source=source_circuit,
            )
        )
        result.ng_transfer.append(
            _finetune(
                target_circuit,
                technology,
                settings,
                seed,
                False,
                True,
                ng_weights,
                f"ng_transfer_from_{source_circuit}",
                store=store,
                source=source_circuit,
            )
        )
        result.no_transfer.append(
            _finetune(
                target_circuit,
                technology,
                settings,
                seed,
                True,
                True,
                None,
                "no_transfer_topology",
                store=store,
            )
        )
    return result
