"""The four end-to-end workloads and the evaluator stack they all share.

Each in-process workload is a sequence of *repetitions* ("reps").  One rep
spends a fixed simulation budget with one workload seed drawn from a pool
of ``POOL_SIZE`` seeds, so its best FoM can be checked against the value
recorded for that pool seed in ``golden.json``.  The benchmark's ``--seed``
only chooses which pool seeds a run uses (``pool_seeds``): the same
``--seed`` always yields the same designs, and every run is fully checked.

``repro`` is imported inside the functions, so the orchestrator can import
this module before ``src`` is on ``sys.path`` and without paying for numpy.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

#: Checkout root (the directory holding ``src/`` and this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Scratch space for stores and server logs; listed in ``.gitignore``.
TMP_ROOT = ROOT / ".bench_build" / "e2ebench"

#: Workload seeds a run draws from; ``golden.json`` covers all of them.
POOL_SIZE = 64
TECHNOLOGY = "180nm"

#: Smoke size for the benchmark's own tests.  No FoM is recorded for it, so
#: its runs check reproducibility and served-vs-direct equality only.
SMALL = os.environ.get("E2EBENCH_SMALL") == "1"

RL_STEPS = 8 if SMALL else 60
SWEEP_METHODS = ("es", "random")
SWEEP_CIRCUITS = ("two_tia", "three_tia", "two_volt")
SWEEP_STEPS = 16 if SMALL else 64
LDO_STEPS = 4 if SMALL else 26

#: Served traffic: per connection, REQUESTS requests of DESIGNS designs
#: each, REPEATS of which repeat designs generated earlier in the plan.
SERVED_CIRCUITS = ("two_tia", "three_tia", "two_volt")
SERVED_REQUESTS = 2 if SMALL else 12
SERVED_DESIGNS = 8
SERVED_REPEATS = 2
#: Served designs compared against a direct in-process evaluation.
SERVED_SAMPLE = 12
#: Latency charged to a failed request: it misses any latency limit.
FAILED_REQUEST_MS = 180_000.0

#: Relative tolerance of the best-FoM check against ``golden.json``.
FOM_RTOL = 1e-9


def eval_config():
    """The one evaluator stack every workload uses: the vectorized engine.

    Every open engine item targets this stack, so the benchmark measures it
    rather than the default ``local`` one.
    """
    from repro.eval import EvaluatorConfig

    return EvaluatorConfig(backend="vectorized")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        why: The one-line reason the workload exists.
        seeds: Pool seeds per untraced run (best FoM is their mean).
        trace_seeds: Pool seeds per traced run (each run untraced, then
            traced).
        processes: Fresh processes per run; set-up time is their median.
            ``served_mixed`` starts one server per seed.
    """

    name: str
    why: str
    seeds: int
    trace_seeds: int
    processes: int


_WORKLOADS = (
    Workload(
        "rl_two_tia",
        "the paper's gcn_rl method, one design per step after warm-up: "
        "NN update and B=1 engine latency, no store or coalescer",
        seeds=6,
        trace_seeds=3,
        processes=3,
    ),
    Workload(
        "sweep_mixed",
        "es and random campaign over three circuits on sqlite with "
        "checkpoint_every=1: engine-bound batches plus store I/O",
        seeds=6,
        trace_seeds=3,
        processes=3,
    ),
    Workload(
        "ldo_es",
        "es on the LDO: every design takes the scalar transient "
        "fallback, so batched-engine changes should not move it",
        seeds=4,
        trace_seeds=2,
        processes=2,
    ),
    Workload(
        "served_mixed",
        "two closed-loop clients plus a gcn_rl job in one server: "
        "coalescer, cache dedup and resilient wrapper under load",
        seeds=5,
        trace_seeds=2,
        processes=5,
    ),
)
if SMALL:
    _WORKLOADS = tuple(
        Workload(w.name, w.why, seeds=2, trace_seeds=1, processes=1) for w in _WORKLOADS
    )
WORKLOADS: Dict[str, Workload] = {w.name: w for w in _WORKLOADS}


def pool_seeds(workload: str, seed: int, count: int, golden=None) -> List[int]:
    """The ``count`` distinct pool seeds a run of ``workload`` uses.

    Best FoM varies more from seed to seed than a run can average away, so
    the pool is ordered by recorded best FoM, cut into ``count`` strata of
    neighbours, and ``seed`` picks one pool seed in each (stratified
    sampling).  The served job is a ``rl_two_tia`` run and uses its strata.
    Without recorded values (smoke size) the pool is sampled plainly.
    """
    rng = random.Random(f"{workload}:{seed}")
    if golden is None:
        return rng.sample(range(POOL_SIZE), count)
    recorded = golden["rl_two_tia" if workload == "served_mixed" else workload]
    order = sorted(range(POOL_SIZE), key=lambda s: (sum(recorded[str(s)]) / len(recorded[str(s)]), s))
    return [
        order[rng.randrange(i * POOL_SIZE // count, (i + 1) * POOL_SIZE // count)]
        for i in range(count)
    ]


def load_golden() -> Dict[str, Dict[str, object]]:
    """Recorded best FoM per workload and pool seed (see record_golden.py)."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fom_matches(value: float, expected: float) -> bool:
    """Whether a best FoM matches its recorded value."""
    return math.isclose(value, expected, rel_tol=FOM_RTOL, abs_tol=1e-12)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    ``src`` leads ``PYTHONPATH`` so the checkout's own code is imported, and
    BLAS is pinned to one thread so numerics and timings do not depend on
    how busy the machine is.
    """
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


# --- in-process reps --------------------------------------------------------------


def prepare(workload: str) -> None:
    """Resolve the workload's circuits and FoM calibrations before timing.

    This is the lazy set-up the first run would otherwise pay; it ends the
    set-up phase of a process.
    """
    from repro.circuits.library import get_circuit
    from repro.env.fom import default_fom_config
    from repro.optim.registry import list_optimizers
    from repro.store import Campaign  # noqa: F401  (import cost is set-up)

    list_optimizers()  # imports every strategy module

    circuits = {
        "rl_two_tia": ("two_tia",),
        "sweep_mixed": SWEEP_CIRCUITS,
        "ldo_es": ("ldo",),
    }[workload]
    for name in circuits:
        default_fom_config(get_circuit(name, TECHNOLOGY))


def _rep(seed, wall, steps_ms, best, designs) -> Dict[str, object]:
    return {"seed": seed, "wall_s": wall, "steps_ms": steps_ms, "best": best, "designs": designs}


def _driver_rep(method: str, circuit: str, steps: int, seed: int, warmup: bool):
    from repro.experiments.runner import run_method

    marks: List[float] = []
    start = time.perf_counter()
    record = run_method(
        method,
        circuit,
        technology=TECHNOLOGY,
        steps=steps,
        seed=seed,
        evaluator_config=eval_config(),
        use_cache=False,
        callbacks=[lambda event: marks.append(time.perf_counter())],
    )
    wall = time.perf_counter() - start
    # The first RL step is the one warm-up batch; later steps ask one design.
    times = marks if warmup else [start] + marks
    steps_ms = [1e3 * (b - a) for a, b in zip(times, times[1:])]
    return _rep(
        seed,
        wall,
        steps_ms,
        [float(record.best_reward)],
        len(record.rewards),
    )


def rl_rep(seed: int) -> Dict[str, object]:
    """One gcn_rl run on two_tia through ``run_method``, with no store."""
    return _driver_rep("gcn_rl", "two_tia", RL_STEPS, seed, warmup=True)


def ldo_rep(seed: int) -> Dict[str, object]:
    """One es run on the LDO through ``run_method``, with no store."""
    return _driver_rep("es", "ldo", LDO_STEPS, seed, warmup=False)


def sweep_rep(seed: int) -> Dict[str, object]:
    """One campaign on a fresh sqlite store, one shared evaluator.

    A step of this workload is one campaign cell (one ``run_method`` call);
    cell latencies come from the campaign's progress callback.
    """
    from dataclasses import replace

    from repro.store import Campaign, CampaignSpec, open_run_store

    spec = CampaignSpec(
        methods=list(SWEEP_METHODS),
        circuits=list(SWEEP_CIRCUITS),
        technologies=[TECHNOLOGY],
        seeds=1,
        steps=SWEEP_STEPS,
    )
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="sweep-", dir=TMP_ROOT)
    try:
        store = open_run_store("sqlite", directory)
        campaign = Campaign(spec, store, evaluator_config=eval_config())
        # CampaignSpec seeds cells 0..seeds-1; the workload seed replaces 0.
        cells = [replace(request, seed=seed) for request in spec.expand()]
        campaign.requests = lambda: cells
        marks: List[float] = []
        start = time.perf_counter()
        report = campaign.run(
            checkpoint_every=1,
            progress=lambda request, outcome: marks.append(time.perf_counter()),
        )
        wall = time.perf_counter() - start
        store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if report.executed != len(cells) or len(report.records) != len(cells):
        raise RuntimeError(f"campaign did not execute every cell: {report.summary()}")
    times = [start] + marks
    return _rep(
        seed,
        wall,
        [1e3 * (b - a) for a, b in zip(times, times[1:])],
        [float(record.best_reward) for record in report.records],
        sum(len(record.rewards) for record in report.records),
    )


#: Designs each in-process rep must evaluate.
BUDGETS = {
    "rl_two_tia": RL_STEPS,
    "sweep_mixed": SWEEP_STEPS * len(SWEEP_METHODS) * len(SWEEP_CIRCUITS),
    "ldo_es": LDO_STEPS,
}

REPS = {"rl_two_tia": rl_rep, "sweep_mixed": sweep_rep, "ldo_es": ldo_rep}


# --- served traffic ---------------------------------------------------------------


def served_plan(seed: int):
    """Requests of the two connections: ``[[(circuit, sizings), ...], ...]``.

    Requests cycle through the circuits; in each request ``SERVED_REPEATS``
    of the ``SERVED_DESIGNS`` designs repeat a design generated earlier for
    the same circuit (possibly in the same request), chosen from the seed.
    """
    import numpy as np

    from repro.circuits.library import get_circuit

    rng = np.random.default_rng(seed)
    circuits = {name: get_circuit(name, TECHNOLOGY) for name in SERVED_CIRCUITS}
    seen: Dict[str, list] = {name: [] for name in SERVED_CIRCUITS}
    plan: List[list] = [[], []]
    for index in range(SERVED_REQUESTS):
        for connection in (0, 1):
            name = SERVED_CIRCUITS[(index + connection) % len(SERVED_CIRCUITS)]
            fresh = [
                circuits[name].random_sizing(rng)
                for _ in range(SERVED_DESIGNS - SERVED_REPEATS)
            ]
            seen[name].extend(fresh)
            repeats = [
                seen[name][int(rng.integers(len(seen[name])))]
                for _ in range(SERVED_REPEATS)
            ]
            sizings = fresh + repeats
            order = rng.permutation(len(sizings))
            plan[connection].append((name, [sizings[i] for i in order]))
    return plan


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _wait_healthy(port: int, process: subprocess.Popen, timeout: float = 60.0) -> None:
    from repro.service import ServiceClient

    deadline = time.monotonic() + timeout
    while True:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with code {process.returncode}")
        try:
            with ServiceClient(port=port, timeout=10.0, retry=1) as client:
                if client.health().get("status") == "ok":
                    return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become healthy")
        time.sleep(0.005)


def served_instance(seed: int, traced: bool) -> Dict[str, object]:
    """Start a server, drive the traffic and the job, stop it.

    Connection 1 (this thread) submits the job fire-and-forget, runs its
    evaluate loop, then waits for the job result; connection 2 runs its loop
    on one extra thread.  Returns timings, results, the server's ``/stats``
    and, when ``traced``, the server-side trace.
    """
    from repro.service import ServiceClient
    from repro.service.client import ServiceError

    plan = served_plan(seed)
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="served-", dir=TMP_ROOT)
    port = _free_port()
    serve_args = [
        "serve",
        "--eval-backend",
        eval_config().backend,
        "--store-dir",
        os.path.join(workdir, "store"),
        "--port",
        str(port),
    ]
    trace_path = os.path.join(workdir, "trace.json")
    if traced:
        command = [sys.executable, str(BENCH_DIR / "traced_serve.py"), trace_path] + serve_args
    else:
        command = [sys.executable, "-m", "repro.experiments"] + serve_args
    log = open(os.path.join(workdir, "server.log"), "wb")
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=str(ROOT)
    )
    try:
        _wait_healthy(port, process)
        setup_s = time.monotonic() - spawned

        loops: List[Dict[str, object]] = [{}, {}]

        def run_loop(connection: int, client: ServiceClient) -> None:
            latencies, results, failed = [], [], 0
            loops[connection]["start"] = time.perf_counter()
            for circuit, sizings in plan[connection]:
                sent = time.perf_counter()
                try:
                    reply = client.evaluate(circuit, sizings, technology=TECHNOLOGY)
                except ServiceError:
                    latencies.append(FAILED_REQUEST_MS)
                    failed += len(sizings)
                    results.append((circuit, sizings, None))
                    continue
                latencies.append(1e3 * (time.perf_counter() - sent))
                results.append((circuit, sizings, reply))
            loops[connection].update(
                end=time.perf_counter(), latencies=latencies, results=results, failed=failed
            )

        with ServiceClient(port=port, timeout=60.0) as first, ServiceClient(
            port=port, timeout=60.0
        ) as second:
            start = time.perf_counter()
            job_id = first.submit_run(
                "gcn_rl", "two_tia", technology=TECHNOLOGY, steps=RL_STEPS, seed=seed
            )
            other = threading.Thread(target=run_loop, args=(1, second))
            other.start()
            try:
                run_loop(0, first)
                job = first.result(job_id, wait=True)
                job_s = time.perf_counter() - start
            finally:
                other.join(timeout=170)
            if other.is_alive():
                raise RuntimeError("second connection did not finish")
            wall = time.perf_counter() - start
            stats = first.stats()
        peak_rss = _peak_rss_mb(process.pid)
    finally:
        if process.poll() is None:
            process.send_signal(2)  # SIGINT: the server's graceful stop
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        log.close()
    try:
        trace = None
        if traced:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    window = max(loop["end"] for loop in loops) - min(loop["start"] for loop in loops)
    return {
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall,
        "job_s": job_s,
        "job": job,
        "window_s": window,
        "latencies_ms": [ms for loop in loops for ms in loop["latencies"]],
        "results": [item for loop in loops for item in loop["results"]],
        "failed": sum(loop["failed"] for loop in loops),
        "stats": stats,
        "peak_rss_mb": peak_rss,
        "trace": trace,
    }


def expected_job_fom(seed: int, golden) -> float:
    """Best FoM the served job must reach: its in-process ``rl_two_tia`` twin."""
    if golden is None:
        return rl_rep(seed)["best"][0]
    return golden["rl_two_tia"][str(seed)][0]


def check_served(instance: Dict[str, object], golden, rng: random.Random) -> List[str]:
    """Output checks of one served instance; returns the problems found.

    The job must reach its recorded best FoM, and a sample of served designs
    is re-evaluated directly in this process on the same evaluator stack and
    must give the same metrics.
    """
    from repro.eval.base import EvalRequest

    problems: List[str] = []
    job = instance["job"]
    seed = instance["seed"]
    if job.get("status") != "done":
        problems.append(f"served job for seed {seed} ended {job.get('status')!r}")
    else:
        best = float(job["record"]["best_reward"])
        expected = expected_job_fom(seed, golden)
        if not fom_matches(best, expected):
            problems.append(f"served job best FoM {best!r} != recorded {expected!r} (seed {seed})")
    served = []
    for circuit, sizings, reply in instance["results"]:
        if reply is None:
            continue
        if len(reply) != len(sizings):
            problems.append(f"{circuit} request returned {len(reply)} results for {len(sizings)}")
            continue
        served.extend((circuit, sizing, item["metrics"]) for sizing, item in zip(sizings, reply))
    if not served:
        return problems + ["no served results to check"]
    sample = rng.sample(served, min(SERVED_SAMPLE, len(served)))
    evaluator = eval_config().build()
    try:
        direct = evaluator.evaluate_requests(
            [EvalRequest(circuit, TECHNOLOGY, sizing) for circuit, sizing, _ in sample]
        )
    finally:
        evaluator.close()
    for (circuit, _, metrics), result in zip(sample, direct):
        if metrics != result.metrics:
            problems.append(f"served {circuit} metrics differ from direct evaluation")
    return problems


def simulation_failures(instance: Dict[str, object]) -> int:
    """Served designs whose metrics carry ``simulation_failed``."""
    return sum(
        1
        for _, _, reply in instance["results"]
        if reply is not None
        for item in reply
        if item["metrics"].get("simulation_failed", 0.0)
    )
