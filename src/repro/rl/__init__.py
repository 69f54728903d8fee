"""Reinforcement-learning agent (DDPG + GCN) behind the ask/tell protocol."""

from repro.rl.agent import AgentConfig, GCNRLAgent, TrainingRecord
from repro.rl.networks import GCNActor, GCNCritic
from repro.rl.noise import TruncatedGaussianNoise
from repro.rl.replay_buffer import ReplayBuffer, Transition, TransitionBatch
from repro.rl.strategy import GCNRLStrategy, NGRLStrategy

__all__ = [
    "AgentConfig",
    "GCNRLAgent",
    "TrainingRecord",
    "GCNActor",
    "GCNCritic",
    "TruncatedGaussianNoise",
    "ReplayBuffer",
    "Transition",
    "TransitionBatch",
    "GCNRLStrategy",
    "NGRLStrategy",
]
