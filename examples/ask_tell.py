"""Ask/tell quickstart: a custom 20-line strategy + mid-run kill & resume.

Every optimization method in this repo — random search, ES, BO, MACE, the
human expert and the GCN-RL agents — speaks the same stepwise protocol:
``ask()`` proposes candidate designs, the ``OptimizationDriver`` evaluates
them through the environment's evaluator, and ``tell()`` feeds the outcomes
back.  This demo shows the two things that buys you:

1. writing a brand-new method is ~20 lines (a (1+λ)-style hill climber),
   and it immediately gets batch evaluation, budget accounting, per-step
   callbacks and checkpointing for free;
2. any strategy can be killed mid-run and resumed from its last store
   checkpoint, finishing bit-identically to an uninterrupted run.

Run with:
    PYTHONPATH=src python examples/ask_tell.py [--budget 48]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments import OptimizationDriver, build_environment
from repro.optim import Strategy, get_strategy, register_strategy
from repro.store import MemoryStore, make_run_key


@register_strategy
class HillClimber(Strategy):
    """(1+λ) hill climber: sample around the incumbent, keep the best."""

    name = "hill_climber"

    def __init__(self, environment, seed: int = 0, step_size: float = 0.15):
        super().__init__(environment, seed)
        self.step_size = step_size
        self.center = np.zeros(self.dimension)
        self.best = -np.inf

    def ask(self) -> list:
        batch = min(8, self.budget_remaining())
        offsets = self.rng.standard_normal((batch, self.dimension))
        return self.vector_proposals(self.center + self.step_size * offsets)

    def tell(self, proposals, results) -> None:
        rewards = self.rewards_of(results)
        if rewards.max() > self.best:
            self.best = float(rewards.max())
            self.center = proposals[int(rewards.argmax())].vector

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(center=self.center.copy(), best=self.best)
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.center = np.asarray(state["center"], dtype=float).copy()
        self.best = float(state["best"])


def demo_custom_strategy(budget: int) -> None:
    print(f"=== custom ask/tell strategy ({budget} evaluations) ===")
    environment = build_environment("two_tia", "180nm")
    try:
        driver = OptimizationDriver(
            HillClimber(environment, seed=0),
            budget=budget,
            callbacks=[
                lambda event: print(
                    f"  step {event.step:2d}: {event.evaluated:3d}/{event.budget} evals, "
                    f"best FoM {event.best_reward:+.4f} ({event.wall_time_s:.2f}s)"
                )
            ],
        )
        result = driver.run()
        print(f"best FoM {result.best_reward:+.4f} in {result.wall_time_s:.2f}s")
    finally:
        environment.evaluator.close()


def demo_kill_and_resume(budget: int) -> None:
    print(f"\n=== mid-run kill & resume (ES, {budget} evaluations) ===")
    store = MemoryStore()
    key = make_run_key("es", "two_tia", "180nm", budget, 0)

    # First run, standing in for a killed process: checkpoint every step,
    # stop after 2 ask/tell steps.
    environment = build_environment("two_tia", "180nm")
    try:
        driver = OptimizationDriver(
            get_strategy("es", environment, seed=0),
            budget=budget,
            store=store,
            run_key=key,
            checkpoint_every=1,
        )
        partial = driver.run(max_steps=2)
        if driver.finished:
            print(
                f"budget of {budget} fits in 2 ask/tell steps — nothing to "
                "kill; raise --budget to see a real mid-run pause"
            )
        else:
            print(
                f"killed after step {len(partial.step_evaluations)}: "
                f"{partial.num_evaluations}/{budget} evals, checkpoint saved"
            )
    finally:
        environment.evaluator.close()

    # Second run, standing in for a new process: a *fresh* strategy +
    # environment resume from the stored checkpoint (strategy state +
    # history + RNG stream) and finish.
    environment = build_environment("two_tia", "180nm")
    try:
        driver = OptimizationDriver(
            get_strategy("es", environment, seed=0),
            budget=budget,
            store=store,
            run_key=key,
        )
        resumed = driver.run()
        print(f"resumed (resumed={driver.resumed}) and finished: "
              f"{resumed.num_evaluations}/{budget} evals, best {resumed.best_reward:+.4f}")
    finally:
        environment.evaluator.close()

    # Reference: the same run uninterrupted — learning curves must match
    # bit for bit (same asks, same RNG stream, same evaluator batches).
    environment = build_environment("two_tia", "180nm")
    try:
        reference = OptimizationDriver(
            get_strategy("es", environment, seed=0), budget=budget
        ).run()
    finally:
        environment.evaluator.close()
    identical = np.array_equal(np.asarray(resumed.rewards), np.asarray(reference.rewards))
    print(f"bit-identical to an uninterrupted run: {identical}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=48, help="evaluations per demo")
    args = parser.parse_args()
    demo_custom_strategy(args.budget)
    demo_kill_and_resume(args.budget)


if __name__ == "__main__":
    main()
