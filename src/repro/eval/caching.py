"""LRU-caching evaluator: never simulate the same design request twice.

Optimizers frequently revisit design points — the refinement step snaps
sizings to the technology grid and matching groups, so distinct raw actions
often collapse onto the same physical design.  The cache keys on the
(circuit, technology, *quantized* refined sizing) triple of the
:class:`~repro.eval.base.EvalRequest`, which makes it exact: two keys are
equal only if the simulator would receive (up to float formatting) the same
netlist of the same circuit, so a hit can never change results — and one
cache can safely serve arbitrarily mixed cross-circuit traffic.

:func:`request_cache_key` is the one canonical key function; the service
coalescer's two dedup layers (in-flight futures and stored-result peeks)
and this cache all share it, so no layer can ever disagree about which
requests are "the same design".
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.parameters import Sizing
from repro.eval.base import EvalRequest, EvalResult, Evaluator

#: Significant digits retained in cache keys.  Refined sizings are already
#: grid-snapped, so 12 digits distinguishes every representable design while
#: absorbing sub-ULP formatting noise.
CACHE_KEY_DIGITS = 12

CacheKey = Tuple[Tuple[str, str, str], ...]

RequestKey = Tuple[str, str, CacheKey]


def sizing_cache_key(sizing: Sizing, digits: int = CACHE_KEY_DIGITS) -> CacheKey:
    """Canonical hashable key for a sizing (sorted, quantized)."""
    entries = []
    for component in sorted(sizing):
        params = sizing[component]
        for name in sorted(params):
            entries.append((component, name, f"{float(params[name]):.{digits}g}"))
    return tuple(entries)


def request_cache_key(
    request: EvalRequest, digits: int = CACHE_KEY_DIGITS
) -> RequestKey:
    """Canonical hashable key for an :class:`EvalRequest`.

    ``(circuit, technology, quantized sizing)`` — the one key function every
    dedup layer (result caches, the coalescer's in-flight map, peeks) uses,
    so the same design of *different* circuits can never collide.
    """
    return (
        request.circuit.lower(),
        request.technology,
        sizing_cache_key(request.sizing, digits),
    )


class CachingEvaluator(Evaluator):
    """Wraps another evaluator with an LRU result cache.

    Args:
        inner: The evaluator that performs cache-miss simulations (its own
            batching is preserved — all misses of a batch are forwarded in
            a single inner batch).  May be unbound, in which
            case this wrapper is unbound too and serves mixed requests.
        max_size: Maximum number of cached designs; least-recently-used
            entries are evicted beyond it.
        key_digits: Significant digits used when quantizing key values.
    """

    def __init__(
        self,
        inner: Evaluator,
        max_size: int = 4096,
        key_digits: int = CACHE_KEY_DIGITS,
    ):
        super().__init__(inner._circuit)
        if max_size < 1:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self.inner = inner
        self.max_size = max_size
        self.key_digits = key_digits
        self._cache: "OrderedDict[RequestKey, Dict[str, float]]" = OrderedDict()
        # Protects ``_cache``: the coalescer peeks from the event loop while
        # flush batches mutate the LRU from ``asyncio.to_thread`` workers.
        self._cache_lock = threading.Lock()

    def __len__(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    def clear(self) -> None:
        """Drop every cached result (statistics are kept)."""
        with self._cache_lock:
            self._cache.clear()

    def peek(self, request: EvalRequest) -> Optional[Dict[str, float]]:
        """Cached metrics for ``request`` without touching stats or LRU order.

        Keys exactly like :meth:`evaluate_requests`, so a hit is guaranteed
        to equal what a real evaluation would return; the returned dict is a
        copy, so callers can never mutate the cache.  Wrapped evaluators are
        consulted too (a deeper cache may know the design).
        """
        with self._cache_lock:
            metrics = self._cache.get(
                request_cache_key(request, self.key_digits)
            )
            if metrics is not None:
                return dict(metrics)
        return self.inner.peek(request)

    def _store(self, key: RequestKey, metrics: Dict[str, float]) -> None:
        with self._cache_lock:
            self._cache[key] = dict(metrics)
            self._cache.move_to_end(key)
            evictions = 0
            while len(self._cache) > self.max_size:
                self._cache.popitem(last=False)
                evictions += 1
        if evictions:
            with self.stats.lock:
                self.stats.cache_evictions += evictions

    def evaluate_requests(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        """Serve hits from the cache; forward all misses as one inner batch."""
        requests = list(requests)
        start = time.perf_counter()
        keys = [request_cache_key(request, self.key_digits) for request in requests]

        # Resolve hits up front and collect the unique missing keys in
        # first-occurrence order, so a design duplicated within one batch is
        # simulated only once.  ``resolved`` snapshots every needed metrics
        # dict, so assembly survives same-batch LRU evictions (batches larger
        # than ``max_size``).
        resolved: Dict[RequestKey, Dict[str, float]] = {}
        miss_keys: List[RequestKey] = []
        miss_requests: List[EvalRequest] = []
        first_miss: Dict[RequestKey, int] = {}
        with self._cache_lock:
            for index, (key, request) in enumerate(zip(keys, requests)):
                if key in self._cache:
                    if key not in resolved:
                        resolved[key] = self._cache[key]
                    self._cache.move_to_end(key)
                elif key not in first_miss:
                    first_miss[key] = index
                    miss_keys.append(key)
                    miss_requests.append(request)

        if miss_requests:
            inner_results = self.inner.evaluate_requests(miss_requests)
            for key, result in zip(miss_keys, inner_results):
                resolved[key] = dict(result.metrics)
                self._store(key, result.metrics)

        results = []
        hits = 0
        for index, (key, request) in enumerate(zip(keys, requests)):
            cached = first_miss.get(key) != index
            if cached:
                hits += 1
            # Copy metrics so callers can never mutate a cached entry.
            results.append(
                EvalResult(
                    sizing=request.sizing,
                    metrics=dict(resolved[key]),
                    cached=cached,
                )
            )
        with self.stats.lock:
            self.stats.cache_hits += hits
            self.stats.num_batches += 1
            self.stats.num_designs += len(results)
            self.stats.num_simulations += len(miss_requests)
            self.stats.total_time += time.perf_counter() - start
        return results

    def close(self) -> None:
        """Close the wrapped evaluator."""
        self.inner.close()

    def describe(self) -> str:
        """One-line summary used by logs and reports."""
        return (
            f"CachingEvaluator(max_size={self.max_size}, "
            f"inner={self.inner.describe()})"
        )
