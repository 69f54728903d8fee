"""DDPG agent with GCN actor-critic (Algorithm 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.circuits.components import MAX_ACTION_DIM, TYPE_ORDER
from repro.env.environment import SizingEnvironment
from repro.nn.losses import mse_loss, mse_loss_grad
from repro.nn.optim import Adam, clip_gradients
from repro.rl.networks import GCNActor, GCNCritic
from repro.rl.noise import TruncatedGaussianNoise
from repro.rl.replay_buffer import ReplayBuffer


@dataclass
class AgentConfig:
    """Hyper-parameters of the GCN-RL / NG-RL agent.

    Attributes:
        hidden_dim: Width of the hidden layers.
        num_gcn_layers: Number of stacked GCN layers (7 in the paper).
        use_gcn: If False, graph aggregation is disabled (NG-RL ablation).
        actor_lr / critic_lr: Adam learning rates.
        batch_size: Replay-buffer samples per policy update (``Ns``).
        warmup: Number of random warm-up episodes (``W``).
        buffer_capacity: Replay-buffer size.
        reward_baseline_decay: Exponential-moving-average factor for the
            reward baseline ``B``.
        noise_sigma / noise_sigma_final / noise_decay: Exploration noise.
        grad_clip: Global-norm gradient clip for both networks.
        updates_per_episode: Gradient updates performed after each episode.
    """

    hidden_dim: int = 64
    num_gcn_layers: int = 7
    use_gcn: bool = True
    actor_lr: float = 5e-3
    critic_lr: float = 5e-3
    batch_size: int = 48
    warmup: int = 30
    buffer_capacity: int = 10000
    reward_baseline_decay: float = 0.95
    noise_sigma: float = 0.7
    noise_sigma_final: float = 0.08
    noise_decay: float = 0.97
    grad_clip: float = 5.0
    updates_per_episode: int = 5


@dataclass
class TrainingRecord:
    """Per-episode training log entry."""

    episode: int
    reward: float
    best_reward: float
    critic_loss: float = float("nan")
    exploration_sigma: float = float("nan")
    warmup: bool = False


class GCNRLAgent:
    """GCN-RL circuit designer agent (DDPG with a GCN actor-critic).

    The same class implements the NG-RL ablation (``config.use_gcn=False``).
    The agent holds the networks and the learning state; the episode loop
    is :class:`~repro.rl.strategy.GCNRLStrategy` under the
    :class:`~repro.experiments.driver.OptimizationDriver`.  Its actor-critic
    weights (:meth:`state_dict`) are the unit of knowledge transfer:
    ``run_method`` loads a parent run's stored final weights into a fresh
    agent on the target task.
    """

    def __init__(
        self,
        environment: SizingEnvironment,
        config: Optional[AgentConfig] = None,
        seed: int = 0,
    ):
        self.config = config or AgentConfig()
        self.rng = np.random.default_rng(seed)
        self.environment = environment
        self.state_dim = environment.state_dim
        self.action_dim = MAX_ACTION_DIM

        net_rng = np.random.default_rng(seed + 1)
        self.actor = GCNActor(
            self.state_dim,
            hidden_dim=self.config.hidden_dim,
            num_gcn_layers=self.config.num_gcn_layers,
            action_dim=self.action_dim,
            use_gcn=self.config.use_gcn,
            rng=net_rng,
        )
        self.critic = GCNCritic(
            self.state_dim,
            hidden_dim=self.config.hidden_dim,
            num_gcn_layers=self.config.num_gcn_layers,
            action_dim=self.action_dim,
            use_gcn=self.config.use_gcn,
            rng=net_rng,
        )
        # Parameter lists are immutable after construction; collecting them
        # once keeps zero_grad/clip out of the attribute-tree walk on the
        # per-update hot path.
        self._actor_params = self.actor.parameters()
        self._critic_params = self.critic.parameters()
        self.actor_optimizer = Adam(self._actor_params, lr=self.config.actor_lr)
        self.critic_optimizer = Adam(self._critic_params, lr=self.config.critic_lr)
        self.noise = TruncatedGaussianNoise(
            initial_sigma=self.config.noise_sigma,
            final_sigma=self.config.noise_sigma_final,
            decay=self.config.noise_decay,
        )
        self.replay_buffer = ReplayBuffer(self.config.buffer_capacity)
        self.reward_baseline: Optional[float] = None
        self.training_log: List[TrainingRecord] = []
        self._episode = 0
        self._cached_type_indices: Optional[np.ndarray] = None
        self._cached_observation: Optional[tuple] = None

    # --- environment handling -----------------------------------------------------
    def _type_indices(self) -> np.ndarray:
        """Component-type index per node (computed once per agent)."""
        if self._cached_type_indices is None:
            self._cached_type_indices = np.asarray(
                [
                    TYPE_ORDER.index(comp.ctype)
                    for comp in self.environment.circuit.components
                ],
                dtype=int,
            )
        return self._cached_type_indices

    def _observe(self):
        """The environment's (states, adjacency) pair, computed once.

        Both arrays are deterministic functions of the agent's circuit and
        technology, so they are computed once per agent instead of on every
        act/update.
        """
        if self._cached_observation is None:
            self._cached_observation = self.environment.observe()
        return self._cached_observation

    # --- acting -----------------------------------------------------------------------
    def act(self, explore: bool = False) -> np.ndarray:
        """Compute the actor's action matrix for the current environment."""
        states, adjacency = self._observe()
        actions = self.actor.forward(states, adjacency, self._type_indices())
        if explore:
            actions = self.noise.perturb(actions, self.rng)
        return actions

    def random_actions(self) -> np.ndarray:
        """Uniformly random action matrix (warm-up phase)."""
        return self.rng.uniform(
            -1.0, 1.0, size=(self.environment.num_components, self.action_dim)
        )

    # --- learning ---------------------------------------------------------------------
    def _update_baseline(self, reward: float) -> float:
        decay = self.config.reward_baseline_decay
        if self.reward_baseline is None:
            self.reward_baseline = reward
        else:
            self.reward_baseline = decay * self.reward_baseline + (1 - decay) * reward
        return self.reward_baseline

    def _update_networks(self) -> float:
        """One critic + actor update from a replay-buffer batch.

        The whole replay batch goes through the critic as one stacked
        ``(B, n, F)`` forward/backward — a handful of large matmuls instead
        of ``batch_size`` sequential graph passes — with the MSE averaged
        in-graph.  The update consumes the identical RNG stream as
        :meth:`_update_networks_loop` and reproduces its weights to stacked-
        reduction precision (~1e-12 over a full training run).
        """
        if len(self.replay_buffer) < 2:
            return float("nan")
        _, adjacency = self._observe()
        type_indices = self._type_indices()
        critic_loss = self._update_critic_batched(adjacency, type_indices)
        self._update_actor(adjacency, type_indices)
        return critic_loss

    def _update_networks_loop(self) -> float:
        """Per-sample reference implementation of :meth:`_update_networks`.

        Runs the critic update as ``batch_size`` sequential single-graph
        forward/backward passes — the pre-batching training path, preserved
        operation for operation.  Kept as the ground truth for the
        batched/sequential parity tests and the RL throughput benchmark.
        """
        if len(self.replay_buffer) < 2:
            return float("nan")
        _, adjacency = self._observe()
        type_indices = self._type_indices()
        critic_loss = self._update_critic_loop(adjacency, type_indices)
        self._update_actor(adjacency, type_indices)
        return critic_loss

    def _update_critic_batched(
        self, adjacency: np.ndarray, type_indices: np.ndarray
    ) -> float:
        """One stacked critic update: minimise mean_b (R_b - B - Q(S_b, A_b))^2."""
        batch = self.replay_buffer.sample(self.config.batch_size, self.rng)
        baseline = self.reward_baseline or 0.0
        for param in self._critic_params:
            param.zero_grad()
        targets = batch.rewards - baseline
        predictions = self.critic.forward(
            batch.states, batch.actions, adjacency, type_indices
        )
        critic_loss = mse_loss(predictions, targets)
        self.critic.backward(mse_loss_grad(predictions, targets))
        clip_gradients(self._critic_params, self.config.grad_clip)
        self.critic_optimizer.step()
        return float(critic_loss)

    def _update_critic_loop(
        self, adjacency: np.ndarray, type_indices: np.ndarray
    ) -> float:
        """Per-sample critic update (reference for parity and benchmarks)."""
        batch = self.replay_buffer.sample(self.config.batch_size, self.rng)
        baseline = self.reward_baseline or 0.0
        for param in self._critic_params:
            param.zero_grad()
        critic_loss = 0.0
        for transition in batch:
            target = transition.reward - baseline
            prediction = self.critic.forward(
                transition.states, transition.actions, adjacency, type_indices
            )
            critic_loss += mse_loss(np.array([prediction]), np.array([target]))
            grad = mse_loss_grad(np.array([prediction]), np.array([target]))
            self.critic.backward(float(grad[0]) / len(batch))
        critic_loss /= len(batch)
        clip_gradients(self._critic_params, self.config.grad_clip)
        self.critic_optimizer.step()
        return float(critic_loss)

    def _update_actor(
        self, adjacency: np.ndarray, type_indices: np.ndarray
    ) -> None:
        """One actor ascent step on dQ/da (shared by both critic paths)."""
        states, _ = self._observe()
        for param in self._actor_params:
            param.zero_grad()
        for param in self._critic_params:
            param.zero_grad()
        actions = self.actor.forward(states, adjacency, type_indices)
        self.critic.forward(states, actions, adjacency, type_indices)
        _, grad_actions = self.critic.backward(1.0)
        # Gradient ascent on Q: feed -dQ/da so the Adam step minimises -Q.
        self.actor.backward(-grad_actions)
        clip_gradients(self._actor_params, self.config.grad_clip)
        self.actor_optimizer.step()
        # The critic's parameter gradients from the actor pass are discarded.
        for param in self._critic_params:
            param.zero_grad()

    # --- results / persistence -----------------------------------------------------------
    @property
    def best_reward(self) -> float:
        """Best FoM found so far in the agent's environment."""
        return self.environment.best_reward

    @property
    def best_sizing(self):
        """Best sizing found so far in the agent's environment."""
        return self.environment.best_sizing

    # Deliberately weights-only (the unit of knowledge transfer); the
    # complete mid-run state is training_state_dict() below.
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:  # repro-lint: ignore[checkpoint-completeness]
        """Weights of both networks (used for knowledge transfer)."""
        return {"actor": self.actor.state_dict(), "critic": self.critic.state_dict()}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Load actor/critic weights saved by :meth:`state_dict`."""
        self.actor.load_state_dict(state["actor"])
        self.critic.load_state_dict(state["critic"])

    def training_state_dict(self) -> Dict:
        """The *complete* mid-run training state (checkpointing).

        Unlike :meth:`state_dict` (weights only, the unit of knowledge
        transfer), this covers everything a bit-identical resume needs:
        weights, both Adam moment sets, the replay buffer, the reward
        baseline, the exploration schedule, the episode counter, the
        training log and the agent's RNG stream.
        """
        return {
            "weights": self.state_dict(),
            "actor_optimizer": self.actor_optimizer.state_dict(),
            "critic_optimizer": self.critic_optimizer.state_dict(),
            "replay_buffer": self.replay_buffer.state_dict(),
            "reward_baseline": self.reward_baseline,
            "noise": self.noise.state_dict(),
            "episode": int(self._episode),
            "rng": self.rng.bit_generator.state,
            "training_log": [replace(record) for record in self.training_log],
        }

    def load_training_state_dict(self, state: Dict) -> None:
        """Restore a checkpoint saved by :meth:`training_state_dict`."""
        self.load_state_dict(state["weights"])
        self.actor_optimizer.load_state_dict(state["actor_optimizer"])
        self.critic_optimizer.load_state_dict(state["critic_optimizer"])
        self.replay_buffer.load_state_dict(state["replay_buffer"])
        self.reward_baseline = state["reward_baseline"]
        self.noise.load_state_dict(state["noise"])
        self._episode = int(state["episode"])
        self.rng.bit_generator.state = state["rng"]
        self.training_log = [replace(record) for record in state["training_log"]]
