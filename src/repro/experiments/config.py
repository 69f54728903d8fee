"""Experiment settings with environment-variable overrides.

The paper runs 10,000 simulation steps per method and 5-hour BO budgets; this
reproduction keeps every experiment's *protocol* identical but scales the step
budgets so the whole suite runs on a laptop CPU in minutes.  Budgets can be
raised towards the paper's scale through environment variables:

* ``REPRO_STEPS`` — per-method search budget for Tables I–III / Figure 5.
* ``REPRO_SEEDS`` — number of independent runs per configuration.
* ``REPRO_PRETRAIN_STEPS`` — source-task training budget for transfer.
* ``REPRO_TRANSFER_STEPS`` — fine-tuning budget (paper: 300 = 100 warm-up +
  200 exploration).
* ``REPRO_WARMUP_FRACTION`` — fraction of the budget used as RL warm-up.
* ``REPRO_EVAL_BACKEND`` / ``REPRO_EVAL_WORKERS`` / ``REPRO_EVAL_CACHE`` —
  evaluator stack used for every simulator call (see
  :class:`repro.eval.EvaluatorConfig`).
* ``REPRO_STORE_DIR`` — directory of the persistent (SQLite) run store every
  completed run is written to (see :mod:`repro.store`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

from repro.eval import BACKENDS, EvaluatorConfig
from repro.store import RunStore, open_run_store


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return max(int(value), 1)
    except ValueError:
        return default


def _env_nonneg_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return max(int(value), 0)
    except ValueError:
        return default


def _env_choice(name: str, default: str, choices) -> str:
    value = os.environ.get(name)
    if value in choices:
        return value
    return default


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        return default


def _env_list(name: str, default: List[str]) -> List[str]:
    value = os.environ.get(name)
    if not value:
        return list(default)
    items = [item.strip() for item in value.split(",") if item.strip()]
    return items or list(default)


@dataclass
class ExperimentSettings:
    """Budgets and seeds shared by the experiment harness.

    Attributes:
        steps: Simulation budget per optimization run (paper: 10,000).
        seeds: Number of repeated runs per configuration (paper: 3).
        pretrain_steps: Source-task budget for transfer experiments.
        transfer_steps: Fine-tuning budget on the target task (paper: 300).
        transfer_warmup: Warm-up episodes inside the transfer budget
            (paper: 100).
        warmup_fraction: RL warm-up fraction of ``steps``.
        circuits: Circuits included in Table I / Figure 5.
        methods: Methods included in Table I / Figure 5.
        technology: Default technology node (paper designs at 180nm).
        transfer_targets: Target nodes of Table IV / Figure 7.
        eval_backend: Evaluation backend (``local``, ``thread``, ``process``,
            ``vectorized``).
        eval_workers: Worker-pool size; 0 means the machine's CPU count.
        eval_cache_size: LRU design-cache capacity; 0 disables caching.
        store_dir: Run-store directory; empty keeps runs in process memory.
    """

    steps: int = field(default_factory=lambda: _env_int("REPRO_STEPS", 80))
    seeds: int = field(default_factory=lambda: _env_int("REPRO_SEEDS", 2))
    pretrain_steps: int = field(
        default_factory=lambda: _env_int("REPRO_PRETRAIN_STEPS", 120)
    )
    transfer_steps: int = field(
        default_factory=lambda: _env_int("REPRO_TRANSFER_STEPS", 60)
    )
    transfer_warmup: int = field(
        default_factory=lambda: _env_int("REPRO_TRANSFER_WARMUP", 20)
    )
    warmup_fraction: float = field(
        default_factory=lambda: _env_float("REPRO_WARMUP_FRACTION", 0.33)
    )
    circuits: List[str] = field(
        default_factory=lambda: _env_list(
            "REPRO_CIRCUITS", ["two_tia", "two_volt", "three_tia", "ldo"]
        )
    )
    methods: List[str] = field(
        default_factory=lambda: _env_list(
            "REPRO_METHODS",
            ["human", "random", "es", "bo", "mace", "ng_rl", "gcn_rl"],
        )
    )
    technology: str = "180nm"
    transfer_targets: List[str] = field(
        default_factory=lambda: ["250nm", "130nm", "65nm", "45nm"]
    )
    eval_backend: str = field(
        default_factory=lambda: _env_choice("REPRO_EVAL_BACKEND", "local", BACKENDS)
    )
    eval_workers: int = field(
        default_factory=lambda: _env_nonneg_int("REPRO_EVAL_WORKERS", 0)
    )
    eval_cache_size: int = field(
        default_factory=lambda: _env_nonneg_int("REPRO_EVAL_CACHE", 0)
    )
    store_dir: str = field(default_factory=lambda: os.environ.get("REPRO_STORE_DIR", ""))

    def rl_warmup(self, steps: int) -> int:
        """Number of RL warm-up episodes for a given budget."""
        return max(5, min(int(steps * self.warmup_fraction), steps - 1))

    def evaluator_config(self) -> EvaluatorConfig:
        """The evaluator stack every run of this settings object uses."""
        return EvaluatorConfig(
            backend=self.eval_backend,
            max_workers=self.eval_workers or None,
            cache_size=self.eval_cache_size,
        )

    def build_run_store(self) -> RunStore:
        """Open the run store these settings describe (a fresh handle).

        A store directory means a :class:`~repro.store.SqliteStore` in it;
        no directory means a :class:`~repro.store.MemoryStore`.
        """
        backend = "sqlite" if self.store_dir else "memory"
        return open_run_store(backend, self.store_dir or None)


#: Method display names as used in the paper's tables.
METHOD_LABELS = {
    "human": "Human",
    "random": "Random",
    "es": "ES",
    "bo": "BO",
    "mace": "MACE",
    "ng_rl": "NG-RL",
    "gcn_rl": "GCN-RL",
}

#: Circuit display names as used in the paper's tables.
CIRCUIT_LABELS = {
    "two_tia": "Two-TIA",
    "two_volt": "Two-Volt",
    "three_tia": "Three-TIA",
    "ldo": "LDO",
}
