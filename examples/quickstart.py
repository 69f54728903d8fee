"""Quickstart: size the two-stage transimpedance amplifier with GCN-RL.

Runs a short GCN-RL search on the Two-TIA benchmark circuit at 180nm, then
prints the best Figure of Merit, the corresponding performance metrics and
the physical transistor sizes the agent chose.  Also demonstrates the batch
evaluation API (``evaluate_normalized_batch``), the evaluator configuration
every simulator call goes through, and a store-backed campaign sweep that
persists runs and resumes without re-executing finished cells.

Usage:
    python examples/quickstart.py [--steps 150] [--workers 4] [--cache-size 256]
    python examples/quickstart.py --eval-backend vectorized   # stacked solves
    python examples/quickstart.py --store-dir runs   # persist the demo sweep
"""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from repro.circuits import get_circuit
from repro.env import SizingEnvironment, default_fom_config
from repro.eval import EvaluatorConfig
from repro.rl import AgentConfig, GCNRLAgent
from repro.store import Campaign, CampaignSpec, open_run_store


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=150, help="simulation budget")
    parser.add_argument("--circuit", default="two_tia", help="benchmark circuit name")
    parser.add_argument("--technology", default="180nm", help="technology node")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="evaluate batches on a process pool of this size (0 = serial)",
    )
    parser.add_argument(
        "--eval-backend",
        choices=["local", "thread", "process", "vectorized"],
        default=None,
        help="evaluation backend; 'vectorized' stamps whole batches into "
        "stacked matrices and solves them with single LAPACK calls "
        "(default: local, or process when --workers is set)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=0, help="LRU design cache (0 = off)"
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="persist the demo sweep here (default: a temporary directory)",
    )
    args = parser.parse_args()

    # 1) Pick a circuit and a technology node and wrap them in an environment.
    #    Every simulator call goes through one Evaluator: serial by default,
    #    a process pool and/or an LRU cache when requested.
    circuit = get_circuit(args.circuit, args.technology)
    print(circuit.describe())
    backend = args.eval_backend or ("process" if args.workers else "local")
    evaluator = EvaluatorConfig(
        backend=backend,
        max_workers=args.workers or None,
        cache_size=args.cache_size,
    ).build(circuit)
    print(f"Evaluator: {evaluator.describe()}")
    environment = SizingEnvironment(
        circuit, default_fom_config(circuit), evaluator=evaluator
    )

    # 2) The human-expert reference design gives a baseline FoM.
    expert = environment.evaluate_sizing(circuit.expert_sizing())
    print(f"\nHuman expert reference FoM: {expert.reward:.3f}")

    # 3) Batch API: score a whole population of normalised designs in one
    #    call — this is the path every black-box baseline uses internally.
    population = np.random.default_rng(0).uniform(
        -1.0, 1.0, size=(16, environment.parameter_dimension)
    )
    batch = environment.evaluate_normalized_batch(population)
    print(
        f"Random population of {len(batch)}: "
        f"best FoM {max(r.reward for r in batch):.3f}"
    )
    environment.reset_history()

    # 4) Train the GCN-RL agent (DDPG with a GCN actor-critic).
    config = AgentConfig(warmup=max(10, args.steps // 4))
    agent = GCNRLAgent(environment, config, seed=0)
    print(f"\nTraining GCN-RL for {args.steps} steps...")
    for record in agent.train(args.steps):
        if (record.episode + 1) % 25 == 0:
            print(
                f"  step {record.episode + 1:4d}  reward {record.reward:6.3f}  "
                f"best {record.best_reward:6.3f}"
            )

    # 5) Report the best design found.
    print(f"\nBest FoM found: {environment.best_reward:.3f}")
    print("Best design metrics:")
    for definition in circuit.metric_definitions():
        value = environment.best_metrics[definition.name] * definition.display_scale
        print(f"  {definition.name:>12s}: {value:10.4g} {definition.unit}")
    print("\nBest transistor sizes:")
    for name, params in environment.best_sizing.items():
        pretty = ", ".join(f"{k}={v:.3g}" for k, v in params.items())
        print(f"  {name:>4s}: {pretty}")

    stats = evaluator.stats
    print(
        f"\nEvaluator served {stats.num_designs} designs in "
        f"{stats.num_batches} batches ({stats.num_simulations} simulations, "
        f"{stats.cache_hits} cache hits)"
    )
    evaluator.close()

    # 6) Store-backed sweeps: a Campaign expands a grid spec, persists every
    #    completed run in a RunStore under its canonical key, and skips cells
    #    already present — so a killed sweep resumes exactly where it stopped
    #    (re-run with the same --store-dir to see everything skipped).
    store_dir = args.store_dir or tempfile.mkdtemp(prefix="repro-quickstart-")
    store = open_run_store("sqlite", store_dir)
    spec = CampaignSpec(
        methods=["human", "random"],
        circuits=[args.circuit],
        technologies=[args.technology],
        seeds=2,
        steps=20,
    )
    campaign = Campaign(spec, store)
    print(f"\nCampaign sweep into {store_dir}:")
    print("  " + campaign.run().summary())
    print("  " + campaign.run().summary() + "  <- resumed: nothing re-executed")
    best = max(store.query(circuit=args.circuit), key=lambda r: r.best_reward)
    print(f"  best stored run: {best.method} (FoM {best.best_reward:.3f})")
    store.close()


if __name__ == "__main__":
    main()
