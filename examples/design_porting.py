"""Design porting: transfer sizing knowledge from 180nm to a new node.

Reproduces the paper's technology-transfer workflow (Section III-E, Table IV)
on a small budget: a GCN-RL run on the Two-TIA at 180nm is stored together
with its final actor-critic weights, and a run on the 45nm version of the
circuit names it as its ``parent``, so its agent starts from those weights.
A run trained from scratch with the same target-node budget provides the
"no transfer" comparison.

Usage:
    python examples/design_porting.py [--target 45nm]
"""

from __future__ import annotations

import argparse

from repro.experiments import run_method
from repro.store import MemoryStore, RunRequest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default="two_tia")
    parser.add_argument("--source", default="180nm")
    parser.add_argument("--target", default="45nm")
    parser.add_argument("--pretrain-steps", type=int, default=120)
    parser.add_argument("--transfer-steps", type=int, default=60)
    args = parser.parse_args()
    store = MemoryStore()

    # 1) Train the source agent at the source technology node.  The store
    #    keeps the run's record and its final weights (the transferable
    #    knowledge) under one run key.
    print(f"Pre-training GCN-RL on {args.circuit} @ {args.source} "
          f"({args.pretrain_steps} steps)...")
    source = RunRequest("gcn_rl", args.circuit, args.source, args.pretrain_steps, 0)
    pretrained = run_method(
        "gcn_rl", args.circuit, args.source, steps=args.pretrain_steps, store=store
    )
    print(f"  source-node best FoM: {pretrained.best_reward:.3f}")
    weights = store.get_weights(source.key())
    print(f"  stored actor-critic weights: {len(weights) / 1024:.0f} KB")

    # 2) Fine-tune on the target node, starting from the source run's weights.
    print(f"\nPorting the design to {args.target} "
          f"({args.transfer_steps} fine-tuning steps)...")
    transfer = run_method(
        "gcn_rl", args.circuit, args.target, steps=args.transfer_steps, seed=1,
        store=store, parent=source,
    )

    # 3) Train a fresh agent on the target node with the same budget.
    scratch = run_method(
        "gcn_rl", args.circuit, args.target, steps=args.transfer_steps, seed=1,
        store=store,
    )

    print("\nResults on the target node (same fine-tuning budget):")
    print(f"  with knowledge transfer : FoM {transfer.best_reward:.3f}")
    print(f"  trained from scratch    : FoM {scratch.best_reward:.3f}")
    if transfer.best_reward >= scratch.best_reward:
        print("  -> transfer matched or beat from-scratch training, as in the paper")
    else:
        print("  -> from-scratch won this run; increase the budgets to reduce noise")


if __name__ == "__main__":
    main()
