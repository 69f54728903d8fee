"""Result records and aggregation helpers for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


@dataclass
class RunRecord:
    """Result of one optimization run (one method, circuit, node, seed).

    Attributes:
        method: Method registry name (``"gcn_rl"``, ``"bo"``, ...).
        circuit: Circuit registry name.
        technology: Technology node name.
        seed: Random seed of the run.
        steps: Simulation budget used.
        best_reward: Best FoM found.
        best_metrics: Raw metrics of the best design.
        rewards: Per-step rewards (for learning curves).
        extra: Free-form annotations; the harness's own runs leave it
            empty (a fine-tune's source is in its run key's ``parent``).
        wall_time_s: Wall-clock seconds the optimization loop consumed
            (accumulated across checkpoint/resume cycles), so learning
            curves can be plotted against wall-clock as well as sim-count.
        step_evaluations: Simulator evaluations per ask/tell driver step,
            in order (``sum(step_evaluations) == len(rewards)``).
    """

    method: str
    circuit: str
    technology: str
    seed: int
    steps: int
    best_reward: float
    best_metrics: Dict[str, float] = field(default_factory=dict)
    rewards: List[float] = field(default_factory=list)
    extra: Dict[str, str] = field(default_factory=dict)
    wall_time_s: float = 0.0
    step_evaluations: List[int] = field(default_factory=list)

    def best_so_far(self) -> np.ndarray:
        """Running maximum of the reward."""
        if not self.rewards:
            return np.asarray([self.best_reward])
        return np.maximum.accumulate(np.asarray(self.rewards, dtype=float))

    def to_dict(self) -> Dict:
        """JSON-serializable dict form (exact round-trip via `from_dict`).

        Numpy scalars are coerced to plain floats — ``float(np.float64(x))``
        is value-preserving, so serialization never perturbs results.
        """
        return {
            "method": self.method,
            "circuit": self.circuit,
            "technology": self.technology,
            "seed": int(self.seed),
            "steps": int(self.steps),
            "best_reward": float(self.best_reward),
            "best_metrics": {k: float(v) for k, v in self.best_metrics.items()},
            "rewards": [float(r) for r in self.rewards],
            "extra": dict(self.extra),
            "wall_time_s": float(self.wall_time_s),
            "step_evaluations": [int(n) for n in self.step_evaluations],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            method=data["method"],
            circuit=data["circuit"],
            technology=data["technology"],
            seed=int(data["seed"]),
            steps=int(data["steps"]),
            best_reward=float(data["best_reward"]),
            best_metrics={
                k: float(v) for k, v in data.get("best_metrics", {}).items()
            },
            rewards=[float(r) for r in data.get("rewards", [])],
            extra=dict(data.get("extra", {})),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            step_evaluations=[int(n) for n in data.get("step_evaluations", [])],
        )


@dataclass
class AggregateResult:
    """Mean and standard deviation of the best FoM across seeds."""

    mean: float
    std: float
    count: int
    best_metrics: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        if self.count <= 1:
            return f"{self.mean:.2f}"
        return f"{self.mean:.2f} ± {self.std:.2f}"


def aggregate(records: Sequence[RunRecord]) -> AggregateResult:
    """Aggregate several runs of the same configuration."""
    if not records:
        return AggregateResult(mean=float("nan"), std=float("nan"), count=0)
    values = np.asarray([r.best_reward for r in records], dtype=float)
    best = max(records, key=lambda r: r.best_reward)
    return AggregateResult(
        mean=float(np.mean(values)),
        std=float(np.std(values)),
        count=len(records),
        best_metrics=dict(best.best_metrics),
    )


def mean_learning_curve(
    records: Sequence[RunRecord], length: Optional[int] = None
) -> np.ndarray:
    """Average best-so-far curve across runs, truncated to a common length."""
    if not records:
        return np.asarray([])
    curves = [r.best_so_far() for r in records]
    if length is None:
        length = min(len(c) for c in curves)
    curves = [c[:length] for c in curves if len(c) >= length]
    return np.mean(np.vstack(curves), axis=0)


def max_learning_curve(
    records: Sequence[RunRecord], length: Optional[int] = None
) -> np.ndarray:
    """Per-step maximum best-so-far curve across runs (as plotted in Fig. 5)."""
    if not records:
        return np.asarray([])
    curves = [r.best_so_far() for r in records]
    if length is None:
        length = min(len(c) for c in curves)
    curves = [c[:length] for c in curves if len(c) >= length]
    return np.max(np.vstack(curves), axis=0)
