"""Run one optimization method on one circuit, backed by a run store.

Tables and figures share runs: Table I and Figure 5 need exactly the same
experiments, and Table II reuses the Two-TIA runs of Table I.  Every
completed run is therefore written to a :class:`~repro.store.RunStore` under
its canonical :class:`~repro.store.RunKey`; an identical request is served
from the store instead of re-simulating.  The default store is an in-process
:class:`~repro.store.MemoryStore` (the behaviour of the old ``_RUN_CACHE``
dict); passing ``store=`` a :class:`~repro.store.SqliteStore` makes runs
durable across processes, which is what the :class:`~repro.store.Campaign`
orchestrator builds on.

Every method — black-box baselines, the human expert and the RL agents —
executes through one :class:`~repro.experiments.driver.OptimizationDriver`
loop over the ask/tell :class:`~repro.optim.Strategy` protocol, so budget
accounting, per-step callbacks and mid-run checkpoint/resume behave
identically across methods.  With ``checkpoint_every`` set the driver files
periodic checkpoints under the run's key; a killed run re-requested later
resumes from its last checkpoint instead of restarting.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

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
from repro.store import MemoryStore, RunKey, RunStore, make_run_key

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
    steps: int, settings: ExperimentSettings, use_gcn: bool
) -> AgentConfig:
    """Agent hyper-parameters used throughout the experiment harness."""
    return AgentConfig(
        use_gcn=use_gcn,
        warmup=settings.rl_warmup(steps),
        num_gcn_layers=4,
        hidden_dim=48,
    )


def build_strategy(
    method: str,
    environment: SizingEnvironment,
    steps: int,
    seed: int,
    settings: Optional[ExperimentSettings] = None,
) -> Strategy:
    """Instantiate the registered strategy the runner uses for ``method``.

    The RL methods receive the harness's standard agent configuration (the
    warm-up schedule depends on the budget and settings); every other
    strategy is constructed with its registry defaults.
    """
    settings = settings or ExperimentSettings()
    if method in RL_METHODS:
        config = default_agent_config(steps, settings, use_gcn=(method == "gcn_rl"))
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
) -> RunKey:
    """Canonical store key of the run :func:`run_method` would produce.

    The key must cover every setting that can change the produced record:
    besides the obvious (method, circuit, node, budget, seed), that is the
    canonicalised weight overrides, the spec toggle, the evaluator stack,
    and — for the RL methods — the warm-up schedule the settings object
    implies.  Leaving any of them out would let two different configurations
    alias to the same stored record.
    """
    settings = settings or ExperimentSettings()
    evaluator_config = evaluator_config or settings.evaluator_config()
    extra = {}
    if method in RL_METHODS:
        extra["warmup"] = settings.rl_warmup(steps)
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
    max_steps: Optional[int] = None,
    callbacks: Sequence[StepCallback] = (),
    pause_check: Optional[Callable[[], bool]] = None,
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
        max_steps: Pause the run after this many ask/tell steps, writing a
            final checkpoint, and return ``None`` (the record is incomplete).
            Re-running the same request later resumes from the checkpoint.
        callbacks: Per-step driver callbacks (progress streaming, telemetry,
            early stop); forwarded verbatim to the
            :class:`~repro.experiments.driver.OptimizationDriver`.  Note a
            run served straight from the store never steps, so callbacks
            only fire on actual execution.
        pause_check: Forwarded to the driver — polled before each ask/tell
            cycle; truthy pauses the run like ``max_steps`` (checkpoint
            written, ``None`` returned), an exception aborts it without
            touching the store (cluster lease-loss path).

    Returns:
        The completed :class:`RunRecord`, or ``None`` when ``max_steps``
        paused the run before the budget was spent.
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
    )
    target_store = store if store is not None else _DEFAULT_STORE
    if use_cache:
        cached = target_store.get(key)
        if cached is not None:
            return cached

    environment = build_environment(
        circuit_name,
        technology,
        weight_overrides,
        apply_spec,
        evaluator_config=evaluator_config,
        evaluator=evaluator,
    )

    try:
        budget = 1 if method == "human" else steps
        strategy = build_strategy(method, environment, steps, seed, settings)
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
        result = driver.run(max_steps=max_steps)
    finally:
        # Release worker pools even when the strategy/driver raises.  A
        # shared evaluator's bound view makes this a no-op, so campaign-wide
        # evaluators survive their cells.
        environment.evaluator.close()

    if not driver.finished:
        # Paused by max_steps: the checkpoint holds the partial state.
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
        target_store.put(key, record)
        # The completed record supersedes any mid-run checkpoint.
        target_store.delete_checkpoint(key)
    return record


def run_methods(
    methods,
    circuit_name: str,
    settings: Optional[ExperimentSettings] = None,
    technology: Optional[str] = None,
    steps: Optional[int] = None,
    seeds: Optional[int] = None,
    **kwargs,
) -> Dict[str, list]:
    """Run several methods across seeds; returns ``{method: [RunRecord, ...]}``.

    Extra keyword arguments (``store=``, ``use_cache=``, ...) are forwarded
    to :func:`run_method`.
    """
    settings = settings or ExperimentSettings()
    # Explicit None checks: 0 is a legitimate caller value for steps/seeds
    # (an empty sweep) and must not fall back to the settings defaults.
    if technology is None:
        technology = settings.technology
    if steps is None:
        steps = settings.steps
    if seeds is None:
        seeds = settings.seeds
    results: Dict[str, list] = {}
    for method in methods:
        records = []
        run_seeds = 1 if method == "human" else seeds
        for seed in range(run_seeds):
            records.append(
                run_method(
                    method,
                    circuit_name,
                    technology=technology,
                    steps=steps,
                    seed=seed,
                    settings=settings,
                    **kwargs,
                )
            )
        results[method] = records
    return results
