"""The :class:`Evaluator` protocol — the single entry point to the simulator.

Every optimization method in the reproduction (GCN-RL, NG-RL, random search,
ES, BO, MACE) is simulation-in-the-loop: the dominant cost of a run is the
sequence of circuit evaluations it requests.  This module defines the batched
evaluation contract that decouples *what* is evaluated from *how*:

* :class:`EvalRequest` — one (circuit, technology, sizing) evaluation unit;
  the currency of the whole evaluation stack.
* :class:`EvalResult` — one request's measured metrics.
* :class:`EvaluatorStats` — running counters every evaluator maintains.
* :class:`Evaluator` — the abstract batched interface.  The canonical entry
  point is :meth:`Evaluator.evaluate_requests`, which accepts an arbitrarily
  *mixed* batch (any circuits, any technologies, interleaved) and returns
  results in request order; backends implement the per-circuit hook
  :meth:`Evaluator._evaluate_bucket` and inherit the bucketing/scatter
  machinery, while wrappers (cache, resilience, chaos) override
  ``evaluate_requests`` itself.  The per-circuit
  :meth:`Evaluator.evaluate_batch` is a thin adapter that wraps sizings as
  requests for the bound circuit.
* :class:`BoundEvaluator` — a per-circuit view of a shared evaluator, so
  many environments (campaign cells, service buckets) can funnel traffic
  into one evaluator whose lifetime outlives each of them.

Implementations must be *deterministic in order*: ``evaluate_requests(r)[i]``
always corresponds to ``r[i]``, whatever bucketing, stacking or caching
happens underneath, so optimization histories are reproducible bit-for-bit.
"""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.base import CircuitDesign
from repro.circuits.parameters import Sizing


class ThreadSafeCounters:
    """Mixin giving a stats dataclass a mutation lock.

    Stats objects are shared across threads — the coalescer flushes batches
    via ``asyncio.to_thread``, campaign workers share one evaluator — so
    read-modify-write counter updates (``stats.x += 1``) race without a
    guard.  Mutation sites hold ``with stats.lock:``; snapshot methods
    (``to_dict``) take the same lock so a reader never sees a torn batch of
    updates.

    The lock is created in ``__post_init__`` rather than as a dataclass
    field, so generated ``__eq__``/``__repr__`` and ``to_dict`` payloads are
    unaffected; ``__getstate__``/``__setstate__`` drop and recreate it so
    stats embedded in driver checkpoints still pickle.
    """

    def __post_init__(self) -> None:
        self.lock = threading.Lock()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()


@dataclass(frozen=True)
class EvalRequest:
    """One design evaluation: which circuit, which node, which sizing.

    Attributes:
        circuit: Circuit registry name (case-insensitive).
        technology: Technology node name (e.g. ``"180nm"``).
        sizing: The refined physical sizing to simulate.
    """

    circuit: str
    technology: str
    sizing: Sizing

    @property
    def bucket(self) -> Tuple[str, str]:
        """Topology-compatibility key requests are batched under.

        Two requests may share a stacked solve only when both the topology
        *and* the model cards match, so the key is (circuit, technology) —
        exactly how the service coalescer already bucketed submissions.
        """
        return (self.circuit.lower(), self.technology)


@dataclass
class EvalResult:
    """Outcome of simulating one design point.

    Attributes:
        sizing: The (refined) physical sizing that was evaluated.
        metrics: Every measured performance metric of the design.
        cached: Whether the result was served from a cache instead of a
            fresh simulation.
    """

    sizing: Sizing
    metrics: Dict[str, float]
    cached: bool = False


@dataclass
class EvaluatorStats(ThreadSafeCounters):
    """Running counters of an evaluator's activity.

    Attributes:
        num_batches: Number of batch calls served (``evaluate_requests`` or
            ``evaluate_batch`` — the adapter counts once).
        num_designs: Total designs evaluated (including cache hits).
        num_simulations: Designs that actually reached the simulator.
        cache_hits: Designs served from a cache.
        cache_evictions: Cache entries dropped due to capacity.
        scalar_fallbacks: Designs that left the vectorized fast path and were
            simulated serially (no analysis plan / incompatible topology).
        total_time: Wall-clock seconds spent inside batch evaluation.
    """

    num_batches: int = 0
    num_designs: int = 0
    num_simulations: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    scalar_fallbacks: int = 0
    total_time: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of designs served from cache (0 when nothing was asked)."""
        if self.num_designs == 0:
            return 0.0
        return self.cache_hits / self.num_designs

    def to_dict(self) -> Dict[str, float]:
        """Consistent snapshot for logging and reports."""
        with self.lock:
            return {
                "num_batches": self.num_batches,
                "num_designs": self.num_designs,
                "num_simulations": self.num_simulations,
                "cache_hits": self.cache_hits,
                "cache_evictions": self.cache_evictions,
                "scalar_fallbacks": self.scalar_fallbacks,
                "total_time": self.total_time,
                "hit_rate": self.hit_rate,
            }


class Evaluator(abc.ABC):
    """Batched design-evaluation service: requests in, metrics out.

    The evaluator owns *no* optimization state — it is a pure mapping from
    refined physical sizings to metric dictionaries.  Reward (FoM) compution
    stays in the environment, so the same evaluator (and its cache) can be
    shared by runs with different FoM weightings.

    An evaluator may be *bound* to one circuit (the classic per-environment
    use; ``evaluate_batch`` needs it) or *unbound* (``circuit=None``), in
    which case it serves arbitrarily mixed :class:`EvalRequest` batches and
    resolves circuits lazily from the registry.
    """

    def __init__(self, circuit: Optional[CircuitDesign] = None):
        self._circuit = circuit
        self._circuits: Dict[Tuple[str, str], CircuitDesign] = {}
        self._circuits_lock = threading.Lock()
        if circuit is not None:
            key = (circuit.name.lower(), circuit.technology.name)
            self._circuits[key] = circuit
        self.stats = EvaluatorStats()

    @property
    def circuit(self) -> CircuitDesign:
        """The bound circuit design; raises when the evaluator is unbound."""
        if self._circuit is None:
            # API misuse, not an evaluation failure: nothing was simulated.
            raise RuntimeError(  # repro-lint: ignore[failure-taxonomy]
                f"{type(self).__name__} is not bound to a circuit; use "
                "evaluate_requests() with explicit EvalRequests, or bind() "
                "a per-circuit view"
            )
        return self._circuit

    @property
    def bound(self) -> bool:
        """Whether this evaluator is pinned to a single circuit."""
        return self._circuit is not None

    def bind(self, circuit: CircuitDesign) -> "Evaluator":
        """A per-circuit view of this evaluator whose ``close()`` is a no-op.

        Environments built around the view funnel all their traffic (and
        stats, and cache state) into this shared evaluator; closing the view
        — as ``run_method`` does after every run — leaves the shared
        evaluator alive for the next cell.
        """
        return BoundEvaluator(self, circuit)

    def _resolve_circuit(self, name: str, technology: str) -> CircuitDesign:
        """Circuit design for a request bucket, resolved once and cached."""
        key = (name.lower(), technology)
        with self._circuits_lock:
            circuit = self._circuits.get(key)
            if circuit is None:
                # Lazy import: the circuit registry must stay importable
                # without pulling the evaluation stack in, and vice versa.
                from repro.circuits.library import get_circuit

                circuit = get_circuit(name, technology)
                self._circuits[key] = circuit
        return circuit

    def _evaluate_bucket(
        self, circuit: CircuitDesign, sizings: Sequence[Sizing]
    ) -> List[EvalResult]:
        """Evaluate one topology-compatible group; backends implement this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _evaluate_bucket()"
        )

    def evaluate_requests(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        """Evaluate a mixed batch; result ``i`` always matches request ``i``.

        Requests are grouped by :attr:`EvalRequest.bucket` (first-seen
        order, preserving each bucket's internal order), every group runs
        through :meth:`_evaluate_bucket`, and results scatter back to
        request positions.
        """
        requests = list(requests)
        start = time.perf_counter()
        buckets: Dict[Tuple[str, str], List[int]] = {}
        for index, request in enumerate(requests):
            buckets.setdefault(request.bucket, []).append(index)
        results: List[Optional[EvalResult]] = [None] * len(requests)
        for indices in buckets.values():
            first = requests[indices[0]]
            circuit = self._resolve_circuit(first.circuit, first.technology)
            bucket_results = self._evaluate_bucket(
                circuit, [requests[i].sizing for i in indices]
            )
            for index, result in zip(indices, bucket_results):
                results[index] = result
        with self.stats.lock:
            self.stats.num_batches += 1
            self.stats.num_designs += len(requests)
            self.stats.num_simulations += len(requests)
            self.stats.total_time += time.perf_counter() - start
        return results

    def evaluate_batch(self, sizings: Sequence[Sizing]) -> List[EvalResult]:
        """Per-circuit adapter: evaluate sizings against the bound circuit."""
        circuit = self.circuit
        name, technology = circuit.name, circuit.technology.name
        return self.evaluate_requests(
            [EvalRequest(name, technology, sizing) for sizing in sizings]
        )

    def evaluate(self, sizing: Sizing) -> EvalResult:
        """Evaluate a single sizing against the bound circuit (batch of one)."""
        return self.evaluate_batch([sizing])[0]

    def peek(self, request: EvalRequest) -> Optional[Dict[str, float]]:
        """Already-known metrics for ``request``, or ``None`` (never simulates).

        The hook batch schedulers (the service's cross-client coalescer) use
        to serve stored results without entering a simulator batch.  Plain
        evaluators know nothing, so the default is ``None``;
        :class:`~repro.eval.caching.CachingEvaluator` overrides it with a
        non-mutating cache lookup keyed exactly like its evaluation dedup
        (:func:`~repro.eval.caching.request_cache_key`), so a peek hit can
        never diverge from a real evaluation.
        """
        return None

    def close(self) -> None:
        """Release any resources the evaluator holds; safe to call repeatedly."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        """One-line summary used by logs and reports."""
        target = self._circuit.name if self._circuit is not None else "mixed"
        return f"{type(self).__name__}({target})"


class BoundEvaluator(Evaluator):
    """Per-circuit view of a shared evaluator.

    Traffic, stats and cache state all belong to the shared evaluator; the
    view only pins the circuit (so environments can pair with it) and makes
    :meth:`close` a no-op (the shared evaluator's owner closes it).
    """

    def __init__(self, shared: Evaluator, circuit: CircuitDesign):
        self.shared = shared
        self._circuit = circuit
        # Seed the shared resolution cache so its bucketing reuses this very
        # circuit object instead of re-building one from the registry.
        key = (circuit.name.lower(), circuit.technology.name)
        shared._circuits.setdefault(key, circuit)
        self._circuits = shared._circuits

    @property
    def stats(self) -> EvaluatorStats:
        return self.shared.stats

    def evaluate_requests(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        return self.shared.evaluate_requests(requests)

    def peek(self, request: EvalRequest) -> Optional[Dict[str, float]]:
        return self.shared.peek(request)

    def close(self) -> None:
        """No-op: the shared evaluator outlives its per-circuit views."""

    def describe(self) -> str:
        return (
            f"BoundEvaluator({self._circuit.name} -> {self.shared.describe()})"
        )
