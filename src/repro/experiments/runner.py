"""Run one optimization method on one circuit, backed by a run store.

Every completed run is written to a :class:`~repro.store.RunStore` under its
canonical :class:`~repro.store.RunKey`; an identical request is served from
the store instead of re-simulating.  The default store is an in-process
:class:`~repro.store.MemoryStore`; passing ``store=`` a
:class:`~repro.store.SqliteStore` makes runs durable across processes.

Every paper table and figure runs through :func:`run_grid`: its cells
execute on a :class:`~repro.store.Campaign` — under leases, with retries and
quarantine — so Table I and Figure 5 share their runs, Table II reuses the
Two-TIA runs of Table I, and tables sharing a store share cells instead of
computing them twice.  A transfer fine-tune (Tables IV/V, Figures 7/8) is an
RL cell naming a ``parent`` run: :func:`run_method` starts it from the
parent's stored final weights, computing the parent first when the store
has none.

Every method — black-box baselines, the human expert and the RL agents —
executes through one :class:`~repro.experiments.driver.OptimizationDriver`
loop over the ask/tell :class:`~repro.optim.Strategy` protocol, so budget
accounting, per-step callbacks and mid-run checkpoint/resume behave
identically across methods.  With ``checkpoint_every`` set the driver files
periodic checkpoints under the run's key; a killed run re-requested later
resumes from its last checkpoint instead of restarting.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.library import get_circuit
from repro.env.environment import SizingEnvironment
from repro.env.fom import default_fom_config
from repro.eval import Evaluator, EvaluatorConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.driver import OptimizationDriver, StepCallback
from repro.experiments.records import RunRecord
from repro.optim.registry import get_strategy, list_optimizers
from repro.optim.strategy import Strategy
from repro.rl.agent import AgentConfig
from repro.store import (
    Campaign,
    CampaignSpec,
    MemoryStore,
    RunKey,
    RunRequest,
    RunStore,
    make_run_key,
)

#: Methods needing the RL agent configuration (warm-up schedule in the key).
RL_METHODS = ("gcn_rl", "ng_rl")

#: All runnable methods — the strategy registry is the single source of truth.
ALL_METHODS = tuple(list_optimizers())

#: Process-wide default store (what the old ``_RUN_CACHE`` dict used to be).
_DEFAULT_STORE = MemoryStore()


def default_run_store() -> RunStore:
    """The process-wide in-memory store used when no ``store=`` is given."""
    return _DEFAULT_STORE


def clear_run_cache() -> None:
    """Drop all runs from the default in-process store (useful in tests)."""
    _DEFAULT_STORE.clear()


def build_environment(
    circuit_name: str,
    technology: str,
    weight_overrides: Optional[Mapping[str, float]] = None,
    apply_spec: bool = True,
    transferable_state: bool = False,
    evaluator_config: Optional[EvaluatorConfig] = None,
    evaluator: Optional[Evaluator] = None,
) -> SizingEnvironment:
    """Construct the standard experiment environment for a circuit.

    With ``evaluator`` given (a shared, typically unbound evaluator), the
    environment gets a per-circuit bound view of it instead of a private
    stack — campaigns and cluster workers use this to funnel every cell's
    traffic through one evaluator, whose caches and batches then span
    circuits; the view's ``close()`` is a no-op, so the shared evaluator
    survives the runner's per-run cleanup.
    """
    circuit = get_circuit(circuit_name, technology)
    if evaluator is not None:
        evaluator = evaluator.bind(circuit)
    else:
        evaluator = (evaluator_config or EvaluatorConfig()).build(circuit)
    fom = default_fom_config(
        circuit,
        weight_overrides=weight_overrides,
        apply_spec=apply_spec,
        evaluator=evaluator,
    )
    return SizingEnvironment(
        circuit,
        fom_config=fom,
        transferable_state=transferable_state,
        evaluator=evaluator,
    )


def default_agent_config(
    steps: int,
    settings: ExperimentSettings,
    use_gcn: bool,
    warmup: Optional[int] = None,
) -> AgentConfig:
    """Agent hyper-parameters used throughout the experiment harness.

    ``warmup`` replaces the settings' warm-up schedule when given.
    """
    return AgentConfig(
        use_gcn=use_gcn,
        warmup=settings.rl_warmup(steps) if warmup is None else int(warmup),
        num_gcn_layers=4,
        hidden_dim=48,
    )


def build_strategy(
    method: str,
    environment: SizingEnvironment,
    steps: int,
    seed: int,
    settings: Optional[ExperimentSettings] = None,
    warmup: Optional[int] = None,
) -> Strategy:
    """Instantiate the registered strategy the runner uses for ``method``.

    The RL methods receive the harness's standard agent configuration (the
    warm-up schedule is ``warmup``, else the one the budget and settings
    imply); every other strategy is constructed with its registry defaults.
    """
    settings = settings or ExperimentSettings()
    if method in RL_METHODS:
        config = default_agent_config(
            steps, settings, use_gcn=(method == "gcn_rl"), warmup=warmup
        )
        return get_strategy(method, environment, seed=seed, config=config)
    return get_strategy(method, environment, seed=seed)


def run_key_for(
    method: str,
    circuit_name: str,
    technology: str = "180nm",
    steps: int = 80,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
    weight_overrides: Optional[Mapping[str, float]] = None,
    apply_spec: bool = True,
    evaluator_config: Optional[EvaluatorConfig] = None,
    warmup: Optional[int] = None,
    transferable_state: bool = False,
    parent: Optional[RunRequest] = None,
) -> RunKey:
    """Canonical store key of the run :func:`run_method` would produce.

    The key must cover every setting that can change the produced record:
    besides the obvious (method, circuit, node, budget, seed), that is the
    canonicalised weight overrides, the spec toggle, the evaluator stack,
    and — for the RL methods — the warm-up schedule (``warmup``, else the
    one the settings object implies).  The state encoding and the parent
    run (by its key id, which covers the parent's own budget, source task
    and ancestry) enter ``extra`` only when set, so keys of ordinary runs
    are unchanged.  Leaving any of them out would let two different
    configurations alias to the same stored record.
    """
    settings = settings or ExperimentSettings()
    evaluator_config = evaluator_config or settings.evaluator_config()
    extra = {}
    if method in RL_METHODS:
        extra["warmup"] = settings.rl_warmup(steps) if warmup is None else int(warmup)
    if transferable_state:
        extra["transferable_state"] = True
    if parent is not None:
        extra["parent"] = parent.key(settings, evaluator_config).key_id()
    return make_run_key(
        method,
        circuit_name,
        technology,
        steps,
        seed,
        weight_overrides=weight_overrides,
        apply_spec=apply_spec,
        evaluator_key=evaluator_config.cache_key(),
        extra=extra,
    )


def run_method(
    method: str,
    circuit_name: str,
    technology: str = "180nm",
    steps: int = 80,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
    weight_overrides: Optional[Mapping[str, float]] = None,
    apply_spec: bool = True,
    use_cache: bool = True,
    evaluator_config: Optional[EvaluatorConfig] = None,
    evaluator: Optional[Evaluator] = None,
    store: Optional[RunStore] = None,
    checkpoint_every: int = 0,
    callbacks: Sequence[StepCallback] = (),
    pause_check: Optional[Callable[[], bool]] = None,
    warmup: Optional[int] = None,
    transferable_state: bool = False,
    parent: Optional[RunRequest] = None,
) -> Optional[RunRecord]:
    """Run one sizing method and return its :class:`RunRecord`.

    Args:
        method: Any registered strategy name (``human``, ``random``, ``es``,
            ``bo``, ``mace``, ``ng_rl``, ``gcn_rl``, ...).
        circuit_name: Benchmark circuit registry name.
        technology: Technology node name.
        steps: Simulation budget (ignored for ``human``).
        seed: Random seed.
        settings: Experiment settings (warm-up schedule for the RL agents,
            default evaluator stack).
        weight_overrides: Optional FoM weight multipliers (Table II variants).
        apply_spec: Enforce the circuit's hard spec in the FoM.
        use_cache: Reuse a previous identical run — or resume its mid-run
            checkpoint — from the store if present.
        evaluator_config: Evaluator stack override; defaults to the one in
            ``settings``.  Still determines the run-cache key when a shared
            ``evaluator`` is passed, so pass the config the shared evaluator
            was built from.
        evaluator: Shared evaluator to bind this run's environment to
            (see :func:`build_environment`); the per-run ``close()`` then
            leaves it alive for the caller's next run.
        store: Run store to read/write.  Defaults to the process-wide
            in-memory store; pass a persistent backend to make runs durable.
            An explicitly given store is always written to (even with
            ``use_cache=False``, which only disables *reading*).
        checkpoint_every: Persist the driver's full mid-run state to the
            store every K ask/tell steps (0 disables periodic checkpoints).
        callbacks: Per-step driver callbacks (progress streaming, telemetry,
            early stop); forwarded verbatim to the
            :class:`~repro.experiments.driver.OptimizationDriver`.  Note a
            run served straight from the store never steps, so callbacks
            only fire on actual execution.
        pause_check: Forwarded to the driver — polled before each ask/tell
            cycle; truthy pauses the run (a final checkpoint is written and
            ``None`` returned; re-running the same request later resumes
            from it), an exception aborts it without touching the store
            (cluster lease-loss path).
        warmup: RL warm-up episodes; ``None`` keeps
            ``settings.rl_warmup(steps)``.
        transferable_state: Build the environment with the
            topology-independent state encoding (topology transfer).
        parent: The RL run whose final actor/critic weights this RL run
            starts from.  They are read from ``store``; a parent with no
            stored weights is first run through this function (same store,
            evaluator, ``pause_check`` and checkpoint cadence).  A run and
            its parent must share one state encoding, and a parent on
            another circuit needs ``transferable_state``.

    Every RL run stored here also stores its final weights
    (``store.put_weights``), written before the record, so any stored RL
    run can serve as a parent.

    Returns:
        The completed :class:`RunRecord`, or ``None`` when ``pause_check``
        paused the run (or its parent's) before the budget was spent.
    """
    settings = settings or ExperimentSettings()
    evaluator_config = evaluator_config or settings.evaluator_config()
    key = run_key_for(
        method,
        circuit_name,
        technology=technology,
        steps=steps,
        seed=seed,
        settings=settings,
        weight_overrides=weight_overrides,
        apply_spec=apply_spec,
        evaluator_config=evaluator_config,
        warmup=warmup,
        transferable_state=transferable_state,
        parent=parent,
    )
    target_store = store if store is not None else _DEFAULT_STORE
    if use_cache:
        cached = target_store.get(key)
        if cached is not None:
            return cached

    weights = None
    if parent is not None:
        if method not in RL_METHODS or parent.method not in RL_METHODS:
            raise ValueError(f"only RL runs have weights: {parent.method} -> {method}")
        if parent.transferable_state != transferable_state or (
            parent.circuit != circuit_name and not transferable_state
        ):
            raise ValueError(
                f"{circuit_name} cannot start from {parent.circuit} weights: a run "
                "and its parent share one state encoding, and transfer between "
                "topologies needs transferable_state=True"
            )
        weights = _parent_weights(
            parent,
            settings,
            evaluator_config,
            evaluator,
            target_store,
            checkpoint_every,
            pause_check,
        )
        if weights is None:
            return None

    environment = build_environment(
        circuit_name,
        technology,
        weight_overrides,
        apply_spec,
        transferable_state=transferable_state,
        evaluator_config=evaluator_config,
        evaluator=evaluator,
    )

    try:
        budget = 1 if method == "human" else steps
        strategy = build_strategy(method, environment, steps, seed, settings, warmup)
        if weights is not None:
            # Before the driver runs: a resumed checkpoint overrides them.
            strategy.agent.load_state_dict(weights)
        driver = OptimizationDriver(
            strategy,
            environment,
            budget=budget,
            store=target_store,
            run_key=key,
            checkpoint_every=checkpoint_every,
            callbacks=callbacks,
            resume=use_cache,
            pause_check=pause_check,
        )
        result = driver.run()
    finally:
        # Release the evaluator even when the strategy/driver raises.  A
        # shared evaluator's bound view makes this a no-op, so campaign-wide
        # evaluators survive their cells.
        environment.evaluator.close()

    if not driver.finished:
        # Paused by pause_check: the checkpoint holds the partial state.
        return None

    record = RunRecord(
        method=method,
        circuit=circuit_name,
        technology=technology,
        seed=seed,
        steps=budget,
        best_reward=result.best_reward,
        best_metrics=dict(result.best_metrics),
        rewards=list(result.rewards),
        wall_time_s=result.wall_time_s,
        step_evaluations=list(result.step_evaluations),
    )
    if use_cache or store is not None:
        if method in RL_METHODS:
            # Before the record: a stored RL record implies stored weights.
            target_store.put_weights(key, pickle.dumps(strategy.agent.state_dict()))
        target_store.put(key, record)
        # The completed record supersedes any mid-run checkpoint.
        target_store.delete_checkpoint(key)
    return record


def _parent_weights(
    parent: RunRequest,
    settings: ExperimentSettings,
    evaluator_config: EvaluatorConfig,
    evaluator: Optional[Evaluator],
    store: RunStore,
    checkpoint_every: int,
    pause_check: Optional[Callable[[], bool]],
) -> Optional[Dict]:
    """The final weights of ``parent``, running it first when none are stored.

    A parent record filed without weights (by code that stored none) is run
    again without reading that record; runs are deterministic, so the
    re-put record is bit-identical.  ``None`` means ``pause_check`` paused
    the parent run.
    """
    key = parent.key(settings, evaluator_config)
    blob = store.get_weights(key)
    if blob is None:
        record = run_method(
            parent.method,
            parent.circuit,
            technology=parent.technology,
            steps=parent.steps,
            seed=parent.seed,
            settings=settings,
            weight_overrides=parent.weight_overrides,
            apply_spec=parent.apply_spec,
            use_cache=key not in store,
            evaluator_config=evaluator_config,
            evaluator=evaluator,
            store=store,
            checkpoint_every=checkpoint_every,
            pause_check=pause_check,
            warmup=parent.warmup,
            transferable_state=parent.transferable_state,
            parent=parent.parent,
        )
        if record is None:
            return None
        blob = store.get_weights(key)
    return pickle.loads(blob)


def run_grid(
    spec: Optional[CampaignSpec],
    settings: Optional[ExperimentSettings] = None,
    store: Optional[RunStore] = None,
    cells: Optional[Sequence[RunRequest]] = None,
) -> List[Tuple[RunRequest, RunRecord]]:
    """Run a grid as campaign cells; ``(cell, record)`` pairs in sweep order.

    The cells — the spec's grid, or the explicit ``cells`` list — run on a
    :class:`~repro.store.Campaign` over ``store`` (default: the
    process-wide store), so cells already in the store are read back and
    the rest are claimed under leases, retried and, when they keep failing,
    quarantined.  A grid left with a quarantined or unfinished cell raises
    ``RuntimeError`` naming each quarantined cell and its marker, so a table
    never renders with a hole.
    """
    campaign = Campaign(
        spec,
        store if store is not None else _DEFAULT_STORE,
        settings=settings,
        cells=cells,
    )
    report = campaign.run()
    if report.remaining or report.quarantined:
        markers = [
            f"{cell.method} {cell.circuit} {cell.technology} seed={cell.seed}"
            + (f" {dict(cell.weight_overrides)}" if cell.weight_overrides else "")
            + (f" from {cell.parent.circuit} {cell.parent.technology}" if cell.parent else "")
            + f": {campaign.store.get_quarantine(campaign.key_for(cell))}"
            for cell in campaign.quarantined()
        ]
        raise RuntimeError("; ".join([report.summary()] + markers))
    return list(zip(campaign.requests(), report.records))
