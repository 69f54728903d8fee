"""Topology transfer: reuse knowledge from the Two-TIA on the Three-TIA.

Reproduces the paper's topology-transfer experiment (Section III-E, Table V)
at a small budget.  Every run uses the dimension-independent state encoding
(``transferable_state``: scalar component index instead of a one-hot), so
the same GCN actor-critic can process either topology graph.  The example
compares three runs on the Three-TIA with the same budget:

* GCN-RL starting from a Two-TIA GCN-RL run's weights (the paper's method),
* NG-RL (no graph aggregation) starting from a Two-TIA NG-RL run's weights,
* GCN-RL trained from scratch.

Usage:
    python examples/topology_transfer.py
"""

from __future__ import annotations

import argparse

from repro.experiments import run_method
from repro.store import RunRequest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--source", default="two_tia")
    parser.add_argument("--target", default="three_tia")
    parser.add_argument("--pretrain-steps", type=int, default=120)
    parser.add_argument("--transfer-steps", type=int, default=60)
    args = parser.parse_args()

    print(f"Pre-training on {args.source} @ 180nm ({args.pretrain_steps} steps)...")
    sources = {
        method: RunRequest(
            method, args.source, "180nm", args.pretrain_steps, 0,
            transferable_state=True,
        )
        for method in ("gcn_rl", "ng_rl")
    }
    source_fom = {
        method: run_method(
            method, args.source, "180nm", steps=args.pretrain_steps,
            transferable_state=True,
        ).best_reward
        for method in sources
    }
    print(f"  source FoM: GCN-RL {source_fom['gcn_rl']:.3f}, "
          f"NG-RL {source_fom['ng_rl']:.3f}")

    def fine_tune(method, parent=None):
        return run_method(
            method, args.target, "180nm", steps=args.transfer_steps, seed=1,
            transferable_state=True, parent=parent,
        ).best_reward

    print(f"\nFine-tuning on {args.target} ({args.transfer_steps} steps each)...")
    gcn_transfer = fine_tune("gcn_rl", sources["gcn_rl"])
    ng_transfer = fine_tune("ng_rl", sources["ng_rl"])
    scratch = fine_tune("gcn_rl")

    print("\nThree-TIA results with the same fine-tuning budget (Table V protocol):")
    print(f"  GCN-RL transfer : {gcn_transfer:.3f}")
    print(f"  NG-RL transfer  : {ng_transfer:.3f}")
    print(f"  no transfer     : {scratch:.3f}")
    print(
        "\nThe paper's claim: the GCN is what makes topology transfer work — "
        "NG-RL transfer should sit near the no-transfer level while GCN-RL "
        "transfer converges higher."
    )


if __name__ == "__main__":
    main()
