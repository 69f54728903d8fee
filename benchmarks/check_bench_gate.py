#!/usr/bin/env python
"""CI benchmark gate for the evaluator and RL-training throughput report.

Reads the ``BENCH_evaluator.json`` produced by the throughput benchmarks and
fails (exit code 1) when any of:

* the vectorized SPICE backend does not beat serial evaluation by the
  acceptance margin (``--min-speedup``, default 3x on the 32-design Two-TIA
  batch),
* the cross-topology mixed workload (a uniform two_tia/three_tia/two_volt
  request mix through one unbound evaluator) does not beat its serial
  reference by ``--min-mixed-speedup`` (default 3x), or any design of the
  mix left the vectorized fast path (``scalar_fallback_designs`` must be 0
  — the batched homotopy retires the per-design scalar bail-out),
* the LDO's stacked path (stacked DC and settling transients over one
  13-design chunk) does not beat serial LDO evaluation by
  ``--min-ldo-speedup`` (default 3x; stacking only the transients, with
  one DC solve per design, measured 1.6–2.3x, the stacked DC 3.8–4.5x),
  or any design of the chunk fell back to the scalar path,
* the batched RL critic update does not beat the per-sample update loop by
  ``--min-rl-speedup`` (default 3x designs-trained/sec at batch size 48),
* the optimization service's cross-client batch coalescing averages fewer
  than ``--min-coalescing`` designs per issued simulator batch (default 2x
  under 8 concurrent clients),
* the distributed campaign sweep duplicated any simulator evaluation
  (``campaign_workers.duplicated_simulations`` must be 0 — gated
  unconditionally), or its parallel speedup over the serial sweep fell
  below ``--min-campaign-speedup`` (default 1.5x; only enforced when the
  report's ``machine.parallelism`` — two processes' measured throughput
  over one's on a CPU-bound burn — reaches ``PARALLELISM_GATE`` in
  ``bench_report.py``: two workers time-slicing one core, or a shared VM
  that reports two cores but delivers ~1.2x, cannot beat serial, so the
  number is recorded there, not gated), or
* vectorized / LDO-stacked / batched-RL throughput regressed below
  ``--regression-factor`` times the committed baseline
  (``benchmarks/BENCH_evaluator.json``).  The factor is deliberately
  generous because absolute rates vary across runner hardware; the speedup
  *ratios* are the portable signal.

One-design batches (``serial_b1`` / ``vectorized_b1``, two_tia) are printed
as recorded, not gated.

Usage:
    python benchmarks/check_bench_gate.py REPORT [--baseline BASELINE]
        [--min-speedup 3.0] [--min-mixed-speedup 3.0] [--min-ldo-speedup 3.0]
        [--min-rl-speedup 3.0] [--min-coalescing 2.0] [--min-campaign-speedup 1.5]
        [--regression-factor 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_report import PARALLELISM_GATE


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path, help="freshly produced report")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_evaluator.json",
        help="committed baseline report (default: benchmarks/BENCH_evaluator.json)",
    )
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--min-mixed-speedup", type=float, default=3.0)
    parser.add_argument("--min-ldo-speedup", type=float, default=3.0)
    parser.add_argument("--min-rl-speedup", type=float, default=3.0)
    parser.add_argument("--min-coalescing", type=float, default=2.0)
    parser.add_argument("--min-campaign-speedup", type=float, default=1.5)
    parser.add_argument("--regression-factor", type=float, default=0.5)
    args = parser.parse_args(argv)

    report = _load(args.report)
    backends = report.get("backends", {})
    baseline = _load(args.baseline) if args.baseline.exists() else {}
    baseline_backends = baseline.get("backends", {})
    if not args.baseline.exists():
        print(
            f"note: no committed baseline at {args.baseline}; "
            "skipping regression checks"
        )
    failures = []

    serial = backends.get("serial", {}).get("designs_per_sec")
    vectorized = backends.get("vectorized", {}).get("designs_per_sec")
    if not serial or not vectorized:
        failures.append(
            "report is missing serial and/or vectorized throughput "
            f"(backends present: {sorted(backends)})"
        )
    else:
        speedup = vectorized / serial
        print(
            f"serial={serial:.1f}/s vectorized={vectorized:.1f}/s "
            f"speedup={speedup:.2f}x (required: {args.min_speedup:.1f}x)"
        )
        if speedup < args.min_speedup:
            failures.append(
                f"vectorized speedup {speedup:.2f}x is below the acceptance "
                f"margin of {args.min_speedup:.1f}x over serial"
            )

    mixed_serial = backends.get("mixed_serial", {}).get("designs_per_sec")
    mixed_entry = backends.get("mixed_workload", {})
    mixed = mixed_entry.get("designs_per_sec")
    if not mixed_serial or not mixed:
        failures.append(
            "report is missing mixed_serial and/or mixed_workload throughput "
            f"(backends present: {sorted(backends)})"
        )
    else:
        fallbacks = mixed_entry.get("scalar_fallback_designs")
        if fallbacks is None:
            failures.append(
                "mixed_workload entry has no scalar_fallback_designs count"
            )
        elif fallbacks != 0:
            # Unconditional: a fallback means a design left the vectorized
            # fast path — the batched homotopy must cover the whole mix.
            failures.append(
                f"mixed workload pushed {fallbacks} design(s) onto the "
                "scalar fallback path; the batched homotopy must cover all"
            )
        mixed_speedup = mixed / mixed_serial
        print(
            f"mixed serial={mixed_serial:.1f}/s vectorized={mixed:.1f}/s "
            f"speedup={mixed_speedup:.2f}x fallbacks="
            f"{mixed_entry.get('scalar_fallback_designs', '?')} "
            f"(required: {args.min_mixed_speedup:.1f}x)"
        )
        if mixed_speedup < args.min_mixed_speedup:
            failures.append(
                f"mixed-workload speedup {mixed_speedup:.2f}x is below the "
                f"acceptance margin of {args.min_mixed_speedup:.1f}x over "
                "serial"
            )

    ldo_serial = backends.get("ldo_serial", {}).get("designs_per_sec")
    ldo_entry = backends.get("ldo_vectorized", {})
    ldo = ldo_entry.get("designs_per_sec")
    if not ldo_serial or not ldo:
        failures.append(
            "report is missing ldo_serial and/or ldo_vectorized throughput "
            f"(backends present: {sorted(backends)})"
        )
    else:
        ldo_fallbacks = ldo_entry.get("scalar_fallback_designs")
        if ldo_fallbacks != 0:
            failures.append(
                f"LDO chunk pushed {ldo_fallbacks} design(s) onto the scalar "
                "fallback path; its stacked path must cover all"
            )
        ldo_speedup = ldo / ldo_serial
        print(
            f"ldo serial={ldo_serial:.1f}/s vectorized={ldo:.1f}/s "
            f"speedup={ldo_speedup:.2f}x (required: {args.min_ldo_speedup:.1f}x)"
        )
        if ldo_speedup < args.min_ldo_speedup:
            failures.append(
                f"LDO stacked speedup {ldo_speedup:.2f}x is below the "
                f"acceptance margin of {args.min_ldo_speedup:.1f}x over serial"
            )

    rl_loop = backends.get("rl_update_loop", {}).get("designs_per_sec")
    rl_batched = backends.get("rl_update_batched", {}).get("designs_per_sec")
    if not rl_loop or not rl_batched:
        failures.append(
            "report is missing rl_update_loop and/or rl_update_batched "
            f"throughput (backends present: {sorted(backends)})"
        )
    else:
        rl_speedup = rl_batched / rl_loop
        print(
            f"rl_update loop={rl_loop:.1f}/s batched={rl_batched:.1f}/s "
            f"speedup={rl_speedup:.2f}x (required: {args.min_rl_speedup:.1f}x)"
        )
        if rl_speedup < args.min_rl_speedup:
            failures.append(
                f"batched RL update speedup {rl_speedup:.2f}x is below the "
                f"acceptance margin of {args.min_rl_speedup:.1f}x over the "
                "per-sample loop"
            )

    serial_b1 = backends.get("serial_b1", {}).get("designs_per_sec")
    vectorized_b1 = backends.get("vectorized_b1", {}).get("designs_per_sec")
    if serial_b1 and vectorized_b1:
        print(
            f"B=1 serial={serial_b1:.1f}/s vectorized={vectorized_b1:.1f}/s "
            f"speedup={vectorized_b1 / serial_b1:.2f}x (recorded, not gated)"
        )

    service = backends.get("service", {})
    coalescing = service.get("coalescing_factor")
    if not coalescing:
        failures.append(
            "report is missing the service coalescing entry "
            f"(backends present: {sorted(backends)})"
        )
    else:
        print(
            f"service coalescing={coalescing:.2f}x designs/batch over "
            f"{service.get('clients', '?')} clients "
            f"(required: {args.min_coalescing:.1f}x)"
        )
        if coalescing < args.min_coalescing:
            failures.append(
                f"service coalescing factor {coalescing:.2f}x is below the "
                f"acceptance margin of {args.min_coalescing:.1f}x designs "
                "per simulator batch"
            )

    campaign_serial = backends.get("campaign_serial", {}).get("designs_per_sec")
    campaign_workers = backends.get("campaign_workers", {})
    campaign_rate = campaign_workers.get("designs_per_sec")
    if not campaign_serial or not campaign_rate:
        failures.append(
            "report is missing campaign_serial and/or campaign_workers "
            f"throughput (backends present: {sorted(backends)})"
        )
    else:
        duplicated = campaign_workers.get("duplicated_simulations")
        if duplicated is None:
            failures.append(
                "campaign_workers entry has no duplicated_simulations count"
            )
        elif duplicated != 0:
            # Unconditional: a duplicated simulation means the lease
            # protocol double-executed a cell — wrong on any hardware.
            failures.append(
                f"distributed sweep duplicated {duplicated} simulator "
                "evaluation(s); the lease protocol must guarantee zero"
            )
        campaign_speedup = campaign_rate / campaign_serial
        parallelism = report.get("machine", {}).get("parallelism") or 0.0
        print(
            f"campaign serial={campaign_serial:.1f}/s "
            f"workers={campaign_rate:.1f}/s "
            f"speedup={campaign_speedup:.2f}x duplicated="
            f"{campaign_workers.get('duplicated_simulations', '?')} "
            f"parallelism={parallelism:.2f}x"
        )
        if parallelism >= PARALLELISM_GATE:
            if campaign_speedup < args.min_campaign_speedup:
                failures.append(
                    f"campaign parallel speedup {campaign_speedup:.2f}x is "
                    "below the acceptance margin of "
                    f"{args.min_campaign_speedup:.1f}x over the serial sweep"
                )
        else:
            print(
                f"campaign speedup {campaign_speedup:.2f}x recorded, not gated "
                f"(measured parallelism {parallelism:.2f}x < {PARALLELISM_GATE}x)"
            )

    for backend_name, measured in (
        ("vectorized", vectorized),
        ("ldo_vectorized", ldo),
        ("rl_update_batched", rl_batched),
    ):
        if not measured:
            continue
        baseline_rate = baseline_backends.get(backend_name, {}).get(
            "designs_per_sec"
        )
        if not baseline_rate:
            continue
        floor = args.regression_factor * baseline_rate
        print(
            f"baseline {backend_name}={baseline_rate:.1f}/s "
            f"regression floor={floor:.1f}/s measured={measured:.1f}/s"
        )
        if measured < floor:
            failures.append(
                f"{backend_name} throughput {measured:.1f}/s regressed below "
                f"{args.regression_factor:.2f}x the committed baseline "
                f"({baseline_rate:.1f}/s)"
            )

    if failures:
        for failure in failures:
            print(f"BENCH GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
