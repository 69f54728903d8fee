"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not tables from the paper; they probe the ingredients of the GCN-RL
agent that the paper argues for implicitly:

* GCN depth — the paper stacks 7 layers for a global receptive field.
* Graph aggregation — GCN-RL vs NG-RL on a reward that depends on neighbour
  agreement (only the GCN can see neighbours).
* Reward baseline — the exponential-moving-average baseline of Algorithm 1.

Each ablation uses a fast synthetic reward on the real Two-TIA topology so
the comparison isolates the agent machinery from simulator noise.
"""

import numpy as np
import pytest
from conftest import run_once

#: Paper-artifact benchmark: excluded from the fast tier-1 CI matrix.
pytestmark = pytest.mark.slow


from repro.circuits import get_circuit
from repro.env import SizingEnvironment
from repro.env.environment import StepResult
from repro.experiments import OptimizationDriver
from repro.rl import AgentConfig, GCNRLStrategy


class NeighbourAgreementEnvironment(SizingEnvironment):
    """Reward is high when adjacent components choose similar actions.

    This synthetic objective is deliberately graph-structured: the optimal
    action of a component depends on its neighbours, so an agent that sees
    the adjacency (GCN-RL) has an advantage over one that does not (NG-RL).
    """

    def __init__(self, circuit):
        super().__init__(circuit)
        self._adjacency = circuit.adjacency()
        rng = np.random.default_rng(7)
        self._targets = rng.uniform(-0.6, 0.6, size=circuit.num_components)

    def step(self, actions) -> StepResult:
        actions = np.asarray(actions, dtype=float)
        mean_action = actions.mean(axis=1)
        mismatch = 0.0
        edges = 0
        n = len(mean_action)
        for i in range(n):
            for j in range(i + 1, n):
                if self._adjacency[i, j] > 0:
                    target_gap = self._targets[i] - self._targets[j]
                    mismatch += (mean_action[i] - mean_action[j] - target_gap) ** 2
                    edges += 1
        reward = 1.0 - mismatch / max(edges, 1)
        index = len(self.history)
        self._record(reward, {"synthetic": reward}, {})
        return StepResult(reward=reward, metrics={}, sizing={}, step_index=index)


def _train(env, use_gcn, num_layers, episodes, baseline_decay=0.95, seed=0):
    config = AgentConfig(
        use_gcn=use_gcn,
        num_gcn_layers=num_layers,
        hidden_dim=32,
        warmup=20,
        batch_size=32,
        updates_per_episode=3,
        reward_baseline_decay=baseline_decay,
    )
    strategy = GCNRLStrategy(env, seed=seed, config=config)
    return OptimizationDriver(strategy, budget=episodes).run().best_reward


EPISODES = 120


def test_ablation_gcn_depth(benchmark):
    """Deeper GCN stacks should not hurt on the graph-structured objective."""

    def run():
        results = {}
        for depth in (1, 4, 7):
            env = NeighbourAgreementEnvironment(get_circuit("two_tia"))
            results[depth] = _train(env, True, depth, EPISODES)
        return results

    results = run_once(benchmark, run)
    print()
    for depth, best in results.items():
        print(f"  GCN depth {depth}: best synthetic reward {best:.3f}")
    assert max(results.values()) > 0.5
    # The deepest stack should be competitive with the shallowest.
    assert results[7] >= results[1] - 0.15


def test_ablation_gcn_vs_ng_on_graph_objective(benchmark):
    """GCN-RL should match or beat NG-RL when the reward is graph-structured."""

    def run():
        gcn_env = NeighbourAgreementEnvironment(get_circuit("two_tia"))
        ng_env = NeighbourAgreementEnvironment(get_circuit("two_tia"))
        return {
            "gcn": _train(gcn_env, True, 4, EPISODES),
            "ng": _train(ng_env, False, 4, EPISODES),
        }

    results = run_once(benchmark, run)
    print()
    print(f"  GCN-RL {results['gcn']:.3f} vs NG-RL {results['ng']:.3f}")
    assert results["gcn"] >= results["ng"] - 0.1


def test_ablation_reward_baseline(benchmark):
    """The EMA reward baseline should not degrade final performance."""

    class QuadraticEnvironment(SizingEnvironment):
        def __init__(self, circuit):
            super().__init__(circuit)

        def step(self, actions) -> StepResult:
            actions = np.asarray(actions, dtype=float)
            reward = 1.0 - float(np.mean((actions - 0.35) ** 2))
            index = len(self.history)
            self._record(reward, {}, {})
            return StepResult(reward=reward, metrics={}, sizing={}, step_index=index)

    def run():
        with_baseline = _train(
            QuadraticEnvironment(get_circuit("two_tia")), True, 3, EPISODES,
            baseline_decay=0.95,
        )
        without_baseline = _train(
            QuadraticEnvironment(get_circuit("two_tia")), True, 3, EPISODES,
            baseline_decay=0.0,
        )
        return {"with": with_baseline, "without": without_baseline}

    results = run_once(benchmark, run)
    print()
    print(f"  with baseline {results['with']:.3f}, without {results['without']:.3f}")
    assert results["with"] > 0.5
