"""Span tracer of the benchmark's traced runs.

``install`` wraps the public entry points of each layer with spans that
record self time (a span's duration minus the part its child spans cover,
per thread) and counts; ``uninstall`` puts the original functions back.
Nothing here runs in an untraced rep: ``installed`` lets the benchmark
check that no wrapper is left over.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Attribute marking a wrapper installed by this module.
MARK = "__e2ebench_span__"

#: Spans whose self time is a residual of a layer, not named work.
RESIDUAL_SPANS = ("driver", "env", "eval")


class Tracer:
    """Thread-safe accumulator of span self times, calls and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive time and calls of spans with no same-name ancestor.
        self.outer_s: Dict[str, float] = defaultdict(float)
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def call(self, name: str, fn: Callable, args, kwargs, observe=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        outermost = all(frame[0] != name for frame in stack)
        frame = [name, 0.0]
        stack.append(frame)
        done = observe(self, args, outermost) if observe is not None else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if outermost:
                    self.outer_s[name] += duration
                    self.outer_calls[name] += 1
        if done is not None:
            done(result)
        return result

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "outer_s": dict(self.outer_s),
                "outer_calls": dict(self.outer_calls),
                "counters": dict(self.counters),
            }


# --- observers: counts taken where the work happens --------------------------------


def _observe_driver(tracer, args, outermost):
    driver = args[0]
    before = driver.step
    return lambda result: tracer.count("driver.steps", driver.step - before)


def _observe_eval(tracer, args, outermost):
    evaluator, requests = args[0], args[1]
    from repro.eval.vectorized import VectorizedEvaluator

    fallbacks = (
        evaluator.stats.scalar_fallbacks
        if isinstance(evaluator, VectorizedEvaluator)
        else None
    )

    def done(results):
        if fallbacks is not None:
            tracer.count("eval.fallback_designs", evaluator.stats.scalar_fallbacks - fallbacks)
        if outermost:
            tracer.count("eval.designs", len(requests))
            tracer.count(
                "eval.sim_failed",
                sum(
                    1
                    for result in results
                    if getattr(result, "metrics", {}).get("simulation_failed", 0.0)
                ),
            )

    return done


def _observe_cache(tracer, args, outermost):
    return lambda results: tracer.count(
        "eval.cache_hits", sum(1 for result in results if result.cached)
    )


def _observe_checkpoint_put(tracer, args, outermost):
    tracer.count("store.checkpoint_bytes", len(args[2]))
    return None


# --- targets ----------------------------------------------------------------------


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


Target = Tuple[object, str, str, Optional[Callable]]


def targets() -> List[Target]:
    """``(owner, attribute, span, observer)`` of every wrapped entry point."""
    import repro.circuits.ldo as ldo
    import repro.eval.vectorized as vectorized
    import repro.spice.batch.dc as batch_dc
    from repro.circuits.base import CircuitDesign
    from repro.circuits.library import list_circuits
    from repro.env.environment import SizingEnvironment
    from repro.env.fom import FoMConfig
    from repro.env.normalized import NormalizedEnv
    from repro.eval.base import Evaluator
    from repro.eval.caching import CachingEvaluator
    from repro.experiments.driver import OptimizationDriver
    from repro.optim.registry import list_optimizers
    from repro.optim.strategy import Strategy
    from repro.resilience.resilient import ResilientEvaluator
    from repro.spice.batch.template import BatchTemplate
    from repro.store import RunStore

    list_circuits()
    list_optimizers()  # imports every registered strategy module
    found: List[Target] = [
        (OptimizationDriver, "run", "driver", _observe_driver),
        (OptimizationDriver, "save_checkpoint", "store.checkpoint", None),
        (FoMConfig, "compute", "env.fom", None),
        (NormalizedEnv, "vector_to_sizing", "env.denormalize", None),
        (NormalizedEnv, "actions_to_sizing", "env.denormalize", None),
        (Evaluator, "evaluate_requests", "eval", _observe_eval),
        (CachingEvaluator, "evaluate_requests", "eval", _observe_cache),
        (ResilientEvaluator, "evaluate_requests", "eval", _observe_eval),
        (ResilientEvaluator, "evaluate_outcomes", "eval", _observe_eval),
        (BatchTemplate, "__init__", "spice.template", None),
        (BatchTemplate, "subset", "spice.template", None),
        (vectorized, "batch_dc_operating_point", "spice.dc", None),
        (batch_dc, "batch_newton", "spice.dc.newton", None),
        (vectorized, "batch_ac_analysis", "spice.ac", None),
        (vectorized, "batch_noise_analysis", "spice.noise", None),
        (ldo, "transient_analysis", "spice.transient", None),
        (ldo, "dc_operating_point", "spice.scalar_eval", None),
        (ldo, "ac_analysis", "spice.scalar_eval", None),
    ]
    for name in ("evaluate_sizings", "step_batch", "evaluate_normalized_batch", "random_batch"):
        found.append((SizingEnvironment, name, "env", None))
    for cls in _subclasses(Strategy):
        for name in ("ask", "tell"):
            if name in vars(cls):
                found.append((cls, name, f"strategy.{name}", None))
    for cls in _subclasses(CircuitDesign):
        for name, span in (
            ("build_circuit", "circuits.build"),
            ("metrics_from_solutions", "circuits.measure"),
            ("evaluate", "spice.scalar_eval"),
        ):
            if name in vars(cls):
                found.append((cls, name, span, None))
    for cls in _subclasses(RunStore):
        if "put" in vars(cls):
            found.append((cls, "put", "store.put", None))
        if "put_checkpoint" in vars(cls):
            found.append((cls, "put_checkpoint", "store.checkpoint", _observe_checkpoint_put))
    return found


def _wrap(tracer: Tracer, span: str, fn: Callable, observe) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(span, fn, args, kwargs, observe)

    setattr(wrapper, MARK, span)
    return wrapper


Patch = Tuple[object, str, Callable]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every target; returns what :func:`uninstall` needs."""
    patches: List[Patch] = []
    try:
        for owner, name, span, observe in targets():
            original = vars(owner)[name]
            if hasattr(original, MARK):
                raise RuntimeError(f"{owner!r}.{name} is already traced")
            setattr(owner, name, _wrap(tracer, span, original, observe))
            patches.append((owner, name, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore the original functions, newest patch first."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
    patches.clear()


def installed() -> List[str]:
    """``owner.attribute`` of every target that is currently wrapped."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in targets()
        if hasattr(vars(owner)[name], MARK)
    ]


# --- per-layer metrics ------------------------------------------------------------

#: Per-layer metric names and units, in report order.
LAYER_METRICS: Dict[str, str] = {
    "driver.self_s": "s",
    "driver.steps": "count",
    "strategy.ask_s": "s",
    "strategy.tell_s": "s",
    "env.self_s": "s",
    "eval.busy_s": "s",
    "eval.batches": "count",
    "eval.designs": "count",
    "eval.batch_mean": "designs",
    "eval.fallback_designs": "count",
    "eval.cache_hits": "count",
    "eval.sim_failed": "count",
    "eval.busy_frac": "ratio",
    "circuits.build_s": "s",
    "circuits.measure_s": "s",
    "spice.template_s": "s",
    "spice.dc_s": "s",
    "spice.dc_calls": "count",
    "spice.ac_s": "s",
    "spice.noise_s": "s",
    "spice.scalar_eval_s": "s",
    "spice.transient_s": "s",
    "spice.transient_calls": "count",
    "store.checkpoint_s": "s",
    "store.checkpoints": "count",
    "store.checkpoint_bytes": "bytes",
    "store.put_s": "s",
    "coalescer.batches": "count",
    "coalescer.factor": "designs",
    "coalescer.peek_hits": "count",
    "coalescer.inflight_hits": "count",
    "coalescer.failures": "count",
    "coalescer.rejected": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def covered_s(trace: Dict[str, Dict[str, float]]) -> float:
    """Self time spent in named leaf spans (all but the layer residuals)."""
    return sum(
        seconds for span, seconds in trace["self_s"].items() if span not in RESIDUAL_SPANS
    )


def layer_metrics(
    trace: Dict[str, Dict[str, float]], reps: int, wall_s: float
) -> Dict[str, float]:
    """Per-rep layer metrics from a trace accumulated over ``reps`` reps.

    ``wall_s`` is the traced wall time of those reps together.  Coalescer,
    coverage and overhead metrics are filled in by the caller.
    """
    own = trace["self_s"]
    calls = trace["calls"]
    outer_s = trace["outer_s"]
    counters = trace["counters"]

    def self_s(*spans: str) -> float:
        return sum(own.get(span, 0.0) for span in spans) / reps

    batches = trace["outer_calls"].get("eval", 0)
    designs = counters.get("eval.designs", 0.0)
    metrics = {
        "driver.self_s": self_s("driver"),
        "driver.steps": counters.get("driver.steps", 0.0) / reps,
        "strategy.ask_s": self_s("strategy.ask"),
        "strategy.tell_s": self_s("strategy.tell"),
        # The layer's own work is denormalising, FoM and history.
        "env.self_s": self_s("env", "env.fom", "env.denormalize"),
        "eval.busy_s": outer_s.get("eval", 0.0) / reps,
        "eval.batches": batches / reps,
        "eval.designs": designs / reps,
        "eval.batch_mean": designs / batches if batches else 0.0,
        "eval.fallback_designs": counters.get("eval.fallback_designs", 0.0) / reps,
        "eval.cache_hits": counters.get("eval.cache_hits", 0.0) / reps,
        "eval.sim_failed": counters.get("eval.sim_failed", 0.0) / reps,
        "eval.busy_frac": outer_s.get("eval", 0.0) / wall_s,
        "circuits.build_s": self_s("circuits.build"),
        "circuits.measure_s": self_s("circuits.measure"),
        "spice.template_s": self_s("spice.template"),
        "spice.dc_s": self_s("spice.dc", "spice.dc.newton"),
        "spice.dc_calls": calls.get("spice.dc.newton", 0) / reps,
        "spice.ac_s": self_s("spice.ac"),
        "spice.noise_s": self_s("spice.noise"),
        "spice.scalar_eval_s": self_s("spice.scalar_eval"),
        "spice.transient_s": self_s("spice.transient"),
        "spice.transient_calls": calls.get("spice.transient", 0) / reps,
        "store.checkpoint_s": outer_s.get("store.checkpoint", 0.0) / reps,
        "store.checkpoints": trace["outer_calls"].get("store.checkpoint", 0) / reps,
        "store.checkpoint_bytes": counters.get("store.checkpoint_bytes", 0.0) / reps,
        "store.put_s": self_s("store.put"),
    }
    for name in LAYER_METRICS:
        metrics.setdefault(name, 0.0)
    return metrics


def merge(traces: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several :meth:`Tracer.to_dict` snapshots."""
    total: Dict[str, Dict[str, float]] = {
        key: defaultdict(float) for key in ("self_s", "calls", "outer_s", "outer_calls", "counters")
    }
    for trace in traces:
        for key, values in trace.items():
            for name, value in values.items():
                total[key][name] += value
    return {key: dict(values) for key, values in total.items()}
