"""End-to-end benchmark of the repository: one command, four workloads.

Usage (from the checkout root)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``rl_two_tia``, ``sweep_mixed``, ``ldo_es``, ``served_mixed``
(see ``e2ebench/README.md`` for why each exists).  An untraced run
(``--trace 0``) reports the end-to-end metrics; a traced run (``--trace 1``)
runs each seed untraced and then with spans around every layer's entry
points, and reports the per-layer metrics.  Every run checks its outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the failure fraction, the checks and the
provenance.  The full result is also written under
``.bench_build/e2ebench/results/``.  The program exits with 2 without a
result when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics and their units, in report order.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "designs_per_s": "1/s",
    "job_s": "s",
    "best_fom": "fom",
    "peak_rss_mb": "MB",
}

#: A run must end within 180 s; its processes are stopped past this.
RUN_LIMIT_S = 170.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# --- in-process workloads ---------------------------------------------------------


def _spawn_child(
    name: str, seeds: List[int], seconds: float, traced: bool, deadline: float
) -> Dict:
    spawned = time.monotonic()
    process = subprocess.Popen(
        [
            sys.executable,
            str(workloads.BENCH_DIR / "child.py"),
            name,
            ",".join(str(seed) for seed in seeds),
            repr(seconds),
            "1" if traced else "0",
            repr(spawned),
        ],
        stdout=subprocess.PIPE,
        env=workloads.child_env(),
        cwd=str(workloads.ROOT),
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{name} run exceeded {RUN_LIMIT_S}s")
    if process.returncode != 0:
        raise RuntimeError(f"{name} process exited with code {process.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def _check_reps(name: str, reps: List[Dict], golden, problems: List[str]) -> None:
    """Best FoM per seed: equal across reps and equal to the recorded value."""
    first: Dict[int, List[float]] = {}
    for rep in reps:
        if "error" in rep:
            problems.append(f"{name} seed {rep['seed']} raised: {rep['error'].splitlines()[-1]}")
            continue
        seed, best = rep["seed"], rep["best"]
        if seed in first and first[seed] != best:
            problems.append(f"{name} seed {seed} is not reproducible: {first[seed]} != {best}")
        first.setdefault(seed, best)
        if golden is not None:
            expected = golden[name][str(seed)]
            if len(best) != len(expected) or not all(
                workloads.fom_matches(value, target) for value, target in zip(best, expected)
            ):
                problems.append(f"{name} seed {seed} best FoM {best} != recorded {expected}")


def _counts(name: str, reps: List[Dict]):
    budget = workloads.BUDGETS[name]
    attempted = budget * len(reps)
    failed = sum(budget if "error" in rep else budget - rep["designs"] for rep in reps)
    return attempted, failed


def run_in_process(name: str, seeds: List[int], seconds: float, traced: bool, golden):
    workload = workloads.WORKLOADS[name]
    groups = [seeds[i :: workload.processes] for i in range(workload.processes)]
    groups = [group for group in groups if group]
    deadline = time.monotonic() + RUN_LIMIT_S
    children = [
        _spawn_child(name, group, seconds / len(groups), traced, deadline) for group in groups
    ]
    problems: List[str] = []
    untraced = [rep for child in children for rep in child["reps"]]
    leftovers = sorted({w for child in children for w in child["leftover_wrappers"]})
    if leftovers:
        problems.append(f"trace wrappers installed during untraced reps: {leftovers}")
    tracedreps = [rep for child in children for rep in child.get("traced", [])]
    _check_reps(name, untraced + tracedreps, golden, problems)
    attempted, failed = _counts(name, untraced + tracedreps)
    done = [rep for rep in untraced if "error" not in rep]
    missing = set(seeds) - {rep["seed"] for rep in done}
    if missing:
        problems.append(f"{name}: no completed rep for seeds {sorted(missing)}")
        return problems, attempted, failed, None

    if traced:
        good = [rep for rep in tracedreps if "error" not in rep]
        if len(good) != len(tracedreps):
            return problems, attempted, failed, None
        trace = spans.merge([rep["trace"] for rep in good])
        traced_wall = sum(rep["wall_s"] for rep in good)
        untraced_wall = sum(rep["wall_s"] for rep in done)
        metrics = spans.layer_metrics(trace, len(good), traced_wall)
        metrics["trace.coverage"] = spans.covered_s(trace) / traced_wall
        metrics["trace.overhead"] = traced_wall / untraced_wall
        return problems, attempted, failed, metrics

    walls = [rep["wall_s"] for rep in done]
    by_seed = {rep["seed"]: rep["best"] for rep in done}
    p50 = statistics.median(percentile(rep["steps_ms"], 50) for rep in done)
    p90 = statistics.median(percentile(rep["steps_ms"], 90) for rep in done)
    metrics = {
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "wall_s": statistics.median(walls),
        "step_p50_ms": p50,
        "step_p90_ms": p90,
        # In process, a request is one driver step (or campaign cell).
        "req_p50_ms": p50,
        "req_p90_ms": p90,
        "designs_per_s": statistics.median(rep["designs"] / rep["wall_s"] for rep in done),
        # A job is one optimization run: a rep, or one campaign cell.
        "job_s": p50 / 1e3 if name == "sweep_mixed" else statistics.median(walls),
        "best_fom": statistics.fmean(statistics.fmean(best) for best in by_seed.values()),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }
    return problems, attempted, failed, metrics


# --- served workload --------------------------------------------------------------


def run_served(seeds: List[int], traced: bool, golden):
    problems: List[str] = []
    plain, traced_instances = [], []
    for seed in seeds:
        plain.append(workloads.served_instance(seed, traced=False))
        if traced:
            traced_instances.append(workloads.served_instance(seed, traced=True))
    attempted = failed = 0
    for instance in plain + traced_instances:
        rng = random.Random(f"served-sample:{instance['seed']}")
        problems.extend(workloads.check_served(instance, golden, rng))
        attempted += sum(len(sizings) for _, sizings, _ in instance["results"]) + 1
        failed += instance["failed"] + int(instance["job"].get("status") != "done")
    sim_failed = sum(workloads.simulation_failures(instance) for instance in plain)
    print(f"served designs with simulation_failed: {sim_failed}")

    if traced:
        trace = spans.merge([instance["trace"]["spans"] for instance in traced_instances])
        traced_wall = sum(instance["wall_s"] for instance in traced_instances)
        untraced_wall = sum(instance["wall_s"] for instance in plain)
        metrics = spans.layer_metrics(trace, len(traced_instances), traced_wall)
        covered = spans.covered_s(trace)
        residual = sum(trace["self_s"].get(span, 0.0) for span in spans.RESIDUAL_SPANS)
        # Server threads overlap, so coverage is taken over traced busy time.
        metrics["trace.coverage"] = covered / (covered + residual)
        metrics["trace.overhead"] = traced_wall / untraced_wall
        for metric, key in (
            ("coalescer.batches", "batches_issued"),
            ("coalescer.factor", "coalescing_factor"),
            ("coalescer.peek_hits", "peek_hits"),
            ("coalescer.inflight_hits", "inflight_hits"),
            ("coalescer.failures", "failures"),
            ("coalescer.rejected", "rejected"),
        ):
            metrics[metric] = statistics.fmean(
                instance["stats"]["coalescer"][key] for instance in traced_instances
            )
        return problems, attempted, failed, metrics

    p50 = statistics.median(percentile(i["latencies_ms"], 50) for i in plain)
    p90 = statistics.median(percentile(i["latencies_ms"], 90) for i in plain)
    metrics = {
        "setup_s": statistics.median(instance["setup_s"] for instance in plain),
        "wall_s": statistics.median(instance["wall_s"] for instance in plain),
        # A client loop's step is one evaluate round trip.
        "step_p50_ms": p50,
        "step_p90_ms": p90,
        "req_p50_ms": p50,
        "req_p90_ms": p90,
        "designs_per_s": statistics.median(
            sum(len(sizings) for _, sizings, _ in i["results"]) / i["window_s"] for i in plain
        ),
        "job_s": statistics.median(instance["job_s"] for instance in plain),
        "best_fom": statistics.fmean(
            float(instance["job"]["record"]["best_reward"]) for instance in plain
        ),
        "peak_rss_mb": statistics.median(instance["peak_rss_mb"] for instance in plain),
    }
    return problems, attempted, failed, metrics


# --- provenance -------------------------------------------------------------------


def _git_commit():
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(workloads.ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(workloads.SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(name: str, seed: int, pool: List[int]) -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": name,
        "seed": seed,
        "pool_seeds": pool,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: workloads.child_env()[var] for var in workloads.BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
    }


# --- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree to measure at {workloads.SRC}", file=sys.stderr)
        return 2
    for var in workloads.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(workloads.SRC))

    name, traced = args.workload, bool(args.trace)
    workload = workloads.WORKLOADS[name]
    golden = None if workloads.SMALL else workloads.load_golden()
    count = workload.trace_seeds if traced else workload.seeds
    pool = workloads.pool_seeds(name, args.seed, count, golden)
    started = time.monotonic()
    if name == "served_mixed":
        problems, attempted, failed, metrics = run_served(pool, traced, golden)
    else:
        problems, attempted, failed, metrics = run_in_process(
            name, pool, args.seconds, traced, golden
        )
    units = spans.LAYER_METRICS if traced else E2E_METRICS
    if metrics is None:
        metrics = {}
    correct = not problems and bool(metrics)

    for metric, unit in units.items():
        if metric in metrics:
            print(f"{metric:24s} {metrics[metric]:.6g} {unit}")
    print(f"{'fail_frac':24s} {failed / attempted if attempted else 0.0:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'passed' if correct else 'FAILED'}; run took "
          f"{time.monotonic() - started:.1f}s")
    info = provenance(name, args.seed, pool)
    print("provenance: " + json.dumps(info, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in units.items()
            if metric in metrics
        },
    }
    results_dir = workloads.TMP_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(
            dict(result, fail_frac=failed / attempted if attempted else 0.0,
                 problems=problems, provenance=info),
            handle,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
