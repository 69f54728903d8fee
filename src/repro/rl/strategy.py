"""The GCN-RL / NG-RL agents behind the ask/tell :class:`Strategy` protocol.

This is the agent's only training loop.  One training episode is one
ask/tell cycle: :meth:`ask` produces the action matrix (the actor's
exploration action, or — during warm-up — every remaining random warm-up
episode at once, sampled in episode order from the agent's RNG and
simulated as one evaluator batch), the driver simulates it through the
environment, and :meth:`tell` replays the learning side of the episode
(replay buffer, reward baseline, network updates, exploration decay,
training log) in episode order.

Two registry names map to the same wrapper: ``gcn_rl`` (graph aggregation
on) and ``ng_rl`` (the paper's no-graph ablation).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.optim.registry import register_strategy
from repro.optim.strategy import Proposal, Strategy
from repro.rl.agent import AgentConfig, GCNRLAgent, TrainingRecord


@register_strategy
class GCNRLStrategy(Strategy):
    """DDPG GCN actor-critic agent speaking the ask/tell protocol."""

    name = "gcn_rl"
    #: Default graph-aggregation flavour when no config is given.
    use_gcn = True

    def __init__(
        self,
        environment=None,
        seed: int = 0,
        config: Optional[AgentConfig] = None,
        agent: Optional[GCNRLAgent] = None,
    ):
        if agent is not None:
            environment = agent.environment
        if environment is None:
            raise ValueError("provide an environment or a pre-built agent")
        super().__init__(environment, seed)
        if agent is None:
            config = config or AgentConfig(use_gcn=self.use_gcn)
            agent = GCNRLAgent(environment, config=config, seed=seed)
        self.agent = agent
        # Episode context captured by ask() and consumed by tell();
        # transient between the two (checkpoints happen at step
        # boundaries, and the driver replays an interrupted ask).
        self._pending_states: Optional[np.ndarray] = None  # repro-lint: ignore[checkpoint-completeness]
        self._pending_warmup = False  # repro-lint: ignore[checkpoint-completeness]
        self._best_before = -np.inf  # repro-lint: ignore[checkpoint-completeness]

    @classmethod
    def from_agent(cls, agent: GCNRLAgent) -> "GCNRLStrategy":
        """Wrap an existing agent without rebuilding it."""
        return cls(agent=agent)

    def ask(self) -> List[Proposal]:
        agent = self.agent
        states, _ = agent._observe()
        self._pending_states = states
        self._best_before = agent.environment.best_reward
        warmup_left = agent.config.warmup - agent._episode
        if warmup_left > 0:
            # Warm-up episodes perform no network updates, so all their
            # action matrices are sampled up front (the identical RNG stream
            # as sequential sampling) and simulated as one evaluator batch.
            count = min(warmup_left, self.budget_remaining())
            self._pending_warmup = True
            return [Proposal(actions=agent.random_actions()) for _ in range(count)]
        self._pending_warmup = False
        return [Proposal(actions=agent.act(explore=True))]

    def tell(self, proposals: Sequence[Proposal], results: Sequence) -> None:
        agent = self.agent
        states = self._pending_states
        if self._pending_warmup:
            running_best = self._best_before
            for proposal, result in zip(proposals, results):
                agent.replay_buffer.add(states, proposal.actions, result.reward)
                agent._update_baseline(result.reward)
                running_best = max(running_best, result.reward)
                agent.training_log.append(
                    TrainingRecord(
                        episode=agent._episode,
                        reward=result.reward,
                        best_reward=running_best,
                        critic_loss=float("nan"),
                        exploration_sigma=agent.noise.sigma,
                        warmup=True,
                    )
                )
                agent._episode += 1
            return
        result = results[0]
        agent.replay_buffer.add(states, proposals[0].actions, result.reward)
        agent._update_baseline(result.reward)
        critic_loss = float("nan")
        for _ in range(agent.config.updates_per_episode):
            critic_loss = agent._update_networks()
        agent.noise.step()
        agent.training_log.append(
            TrainingRecord(
                episode=agent._episode,
                reward=result.reward,
                best_reward=agent.environment.best_reward,
                critic_loss=critic_loss,
                exploration_sigma=agent.noise.sigma,
                warmup=False,
            )
        )
        agent._episode += 1

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["agent"] = self.agent.training_state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.agent.load_training_state_dict(state["agent"])


@register_strategy
class NGRLStrategy(GCNRLStrategy):
    """The paper's NG-RL ablation: the same agent without graph aggregation."""

    name = "ng_rl"
    use_gcn = False
