"""Command-line entry point for regenerating the paper's tables and figures.

Runs can be persisted to a durable store (``--store-dir`` or
``REPRO_STORE_DIR``: a SQLite database in that directory), which makes every
target incremental across invocations and enables campaign-style workflows:

* ``sweep`` — run the methods × circuits × technologies × seeds grid on one
  in-process campaign worker, skipping cells already in the store
  (kill-and-resume safe).  With ``--workers N`` the grid is executed by N
  local worker processes over the shared store directory (leases +
  work-stealing; see :mod:`repro.cluster`).
* ``worker`` — join an in-progress distributed sweep from another process
  on the same host: claim, execute and steal cells until the grid drains
  (SIGTERM checkpoints mid-method and releases cleanly).
* ``ls`` — list the runs currently in the store (with coordinate filters);
  ``--status`` shows per-cell sweep state (pending / leased / done) instead.
* ``export`` — dump stored runs as JSON for downstream analysis.
* ``serve`` — start the long-lived optimization service (cross-client batch
  coalescing, supervised runs, lossless restart; see :mod:`repro.service`).
* ``client`` — one-shot requests against a running server.

Examples:
    python -m repro.experiments table1 --steps 100 --seeds 2
    python -m repro.experiments table1 --eval-backend vectorized
    python -m repro.experiments sweep --store-dir runs
    python -m repro.experiments sweep --store-dir runs --workers 4
    python -m repro.experiments worker --store-dir runs --worker-id lab-box-1
    python -m repro.experiments ls --store-dir runs --method gcn_rl
    python -m repro.experiments ls --store-dir runs --status
    python -m repro.experiments export --store-dir runs --output runs.json
    python -m repro.experiments serve --store-dir runs --port 8711
    python -m repro.experiments client --request run --method es --circuit two_tia
    python -m repro.experiments client --request evaluate --circuit two_tia --random 8
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.eval import BACKENDS
from repro.experiments.config import ExperimentSettings
from repro.optim.registry import list_optimizers, unknown_method_message
from repro.experiments.figures import (
    figure5_learning_curves,
    figure7_technology_transfer_curves,
    figure8_topology_transfer_curves,
)
from repro.experiments.tables import (
    table1_fom_comparison,
    table2_two_tia,
    table3_two_volt,
    table4_technology_transfer,
    table5_topology_transfer,
)
from repro.store import Campaign, CampaignSpec, RunStore
from repro.store.sqlite import reject_jsonl_directory

TARGETS = ["table1", "table2", "table3", "table4", "table5", "figure5", "figure7", "figure8"]
STORE_COMMANDS = ["sweep", "worker", "ls", "export"]
SERVICE_COMMANDS = ["serve", "client"]


def _build_settings(args: argparse.Namespace) -> ExperimentSettings:
    settings = ExperimentSettings()
    if args.methods:
        # Method choices (and the did-you-mean hint) come straight from the
        # strategy registry — the single source of truth for all methods.
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        known = set(list_optimizers())
        for method in methods:
            if method not in known:
                raise ValueError(unknown_method_message(method))
        settings.methods = methods
    if args.steps:
        settings.steps = args.steps
    if args.seeds:
        settings.seeds = args.seeds
    if args.pretrain_steps:
        settings.pretrain_steps = args.pretrain_steps
    if args.transfer_steps:
        settings.transfer_steps = args.transfer_steps
    if args.eval_backend:
        settings.eval_backend = args.eval_backend
    # --workers only sizes the sweep's campaign worker processes; anywhere
    # else it would be silently ignored, so refuse it.
    if args.workers is not None and args.target != "sweep":
        raise ValueError("--workers applies to sweep only")
    # --max-runs bounds the in-process sweep; N worker processes each drain
    # the grid, so the bound would be silently dropped.
    if args.workers is not None and args.workers > 1 and args.max_runs is not None:
        raise ValueError("--max-runs cannot be combined with --workers")
    # Explicit None check: --cache-size 0 (caching off) is meaningful.
    if args.cache_size is not None:
        settings.eval_cache_size = args.cache_size
    if args.store_dir:
        settings.store_dir = args.store_dir
    # Fail fast on a bad evaluator stack or store directory before any run starts.
    settings.evaluator_config()
    if settings.store_dir:
        reject_jsonl_directory(settings.store_dir)
    return settings


def _open_store(settings: ExperimentSettings) -> Optional[RunStore]:
    """The run store the CLI should use (``None`` = runner's default)."""
    if not settings.store_dir:
        return None
    return settings.build_run_store()


def _emit_figures(figures) -> None:
    for figure in figures.values():
        print(figure.render_ascii())
        print()


def _campaign_spec(settings: ExperimentSettings, args) -> CampaignSpec:
    """The sweep grid: an explicit ``--spec`` JSON (or @file), else settings."""
    spec_text = getattr(args, "spec", None)
    if spec_text:
        if spec_text.startswith("@"):
            with open(spec_text[1:], "r", encoding="utf-8") as handle:
                spec_text = handle.read()
        return CampaignSpec.from_dict(json.loads(spec_text))
    technologies = None
    if args.technologies:
        technologies = [t.strip() for t in args.technologies.split(",") if t.strip()]
    return CampaignSpec.from_settings(settings, technologies=technologies)


def _sweep(settings: ExperimentSettings, store: Optional[RunStore], args) -> None:
    if store is None:
        # A sweep's entire point is persistence; silently executing into a
        # throwaway in-memory store would discard every result on exit.
        print("no store configured (use --store-dir)")
        return
    spec = _campaign_spec(settings, args)
    campaign = Campaign(spec, store, settings=settings)

    if args.workers is not None and args.workers > 1:
        # Distributed sweep: N worker processes over the shared store
        # directory; per-cell progress prints on each worker's stdout.
        report = campaign.run(
            workers=args.workers,
            checkpoint_every=1
            if args.checkpoint_every is None
            else args.checkpoint_every,
        )
        print(report.summary())
        return

    def progress(request, outcome):
        print(
            f"  [{outcome:>8s}] {request.method} {request.circuit} "
            f"{request.technology} seed={request.seed} steps={request.steps}"
        )

    report = campaign.run(
        max_runs=args.max_runs,
        progress=progress,
        checkpoint_every=10 if args.checkpoint_every is None else args.checkpoint_every,
    )
    print(report.summary())


def _worker(settings: ExperimentSettings, store: Optional[RunStore], args) -> None:
    import signal

    from repro.cluster import CampaignWorker, make_owner_id
    from repro.resilience import RetryPolicy

    if store is None:
        print("no store configured (use --store-dir)")
        return
    spec = _campaign_spec(settings, args)
    campaign = Campaign(spec, store, settings=settings)
    worker = CampaignWorker(
        campaign,
        worker_id=make_owner_id(args.worker_id) if args.worker_id else None,
        ttl=args.ttl,
        checkpoint_every=1 if args.checkpoint_every is None else args.checkpoint_every,
        poll_interval=args.poll,
        retry=RetryPolicy(max_attempts=args.cell_retries),
        progress=lambda assignment, outcome: print(
            f"  [{outcome:>8s}] {assignment.request.method} "
            f"{assignment.request.circuit} {assignment.request.technology} "
            f"seed={assignment.request.seed} steps={assignment.request.steps}"
            + (" (stolen)" if assignment.stolen else "")
            + (" (resumed)" if assignment.resumed else ""),
            flush=True,
        ),
    )
    # SIGTERM/SIGINT → checkpoint mid-method at the next ask/tell boundary,
    # release the lease, and exit cleanly; another worker resumes the cell.
    previous = {
        signum: signal.signal(signum, lambda *_: worker.request_stop())
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"worker {worker.worker_id} joining sweep on {store.describe()}", flush=True)
    try:
        report = worker.run(max_cells=args.max_cells)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(report.summary(), flush=True)


def _service_config(settings: ExperimentSettings, args):
    """Build the server configuration from settings + serve flags."""
    from repro.service import ServiceConfig
    from repro.service.config import DEFAULT_CACHE_SIZE

    kwargs = {}
    if args.host:
        kwargs["host"] = args.host
    if args.port is not None:
        kwargs["port"] = args.port
    if args.checkpoint_every is not None:
        kwargs["checkpoint_every"] = args.checkpoint_every
    if args.linger_ms is not None:
        kwargs["linger_ms"] = args.linger_ms
    if args.max_pending is not None:
        kwargs["max_pending"] = args.max_pending
    # The coalescer's dedup substrate is the design cache, so serving with
    # the batch default of 0 would silently disable stored-result dedup.
    cache = settings.eval_cache_size or DEFAULT_CACHE_SIZE
    return ServiceConfig(
        store_dir=settings.store_dir,
        eval_backend=settings.eval_backend,
        cache_size=cache,
        **kwargs,
    )


def _serve(settings: ExperimentSettings, args) -> None:
    from repro.service import run_service

    config = _service_config(settings, args)
    if not config.store_dir:
        print(
            "warning: serving from an in-memory store — run results and "
            "restart recovery will not survive this process "
            "(use --store-dir for lossless restart)"
        )
    run_service(config)


def _load_client_sizings(args) -> list:
    """Sizings for a one-shot evaluate: inline JSON, @file, or random."""
    if args.sizings:
        text = args.sizings
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        sizings = json.loads(text)
        if isinstance(sizings, dict):
            sizings = [sizings]
        return sizings
    import numpy as np

    from repro.circuits.library import get_circuit

    circuit = get_circuit(args.circuit, args.technology or "180nm")
    rng = np.random.default_rng(args.seed or 0)
    return [circuit.random_sizing(rng) for _ in range(args.random)]


def _client(settings: ExperimentSettings, args) -> None:
    from repro.service import DEFAULT_PORT, ServiceClient

    host = args.host or "127.0.0.1"
    port = args.port if args.port is not None else DEFAULT_PORT
    request = args.request
    with ServiceClient(host=host, port=port) as client:
        if request == "health":
            payload = client.health()
        elif request == "stats":
            payload = client.stats()
        elif request == "jobs":
            payload = {"jobs": client.jobs()}
        elif request == "result":
            if not args.job_id:
                raise SystemExit("--request result needs --job-id")
            payload = client.result(args.job_id, wait=not args.no_wait)
        elif request == "evaluate":
            if not args.circuit and not args.sizings:
                raise SystemExit(
                    "--request evaluate needs --circuit (and --random N or --sizings)"
                )
            results = client.evaluate(
                args.circuit,
                _load_client_sizings(args),
                technology=args.technology or "180nm",
            )
            payload = {"results": results}
        else:  # run
            if not args.method or not args.circuit:
                raise SystemExit("--request run needs --method and --circuit")
            known = set(list_optimizers())
            if args.method not in known:
                raise SystemExit(unknown_method_message(args.method))
            if args.no_wait:
                job_id = client.submit_run(
                    args.method,
                    args.circuit,
                    technology=args.technology or "180nm",
                    steps=args.steps or 80,
                    seed=args.seed or 0,
                    checkpoint_every=args.checkpoint_every,
                )
                payload = {"job_id": job_id}
            else:
                def progress(frame):
                    print(
                        f"  step {frame['step']:>4d}  "
                        f"evaluated {frame['evaluated']}/{frame['budget']}  "
                        f"best {frame['best_reward']:.4f}"
                    )

                payload = client.run(
                    args.method,
                    args.circuit,
                    technology=args.technology or "180nm",
                    steps=args.steps or 80,
                    seed=args.seed or 0,
                    checkpoint_every=args.checkpoint_every,
                    on_progress=progress,
                )
    print(json.dumps(payload, indent=2, sort_keys=True))


def _ls(settings: ExperimentSettings, store: Optional[RunStore], args) -> None:
    if store is None:
        print("no store configured (use --store-dir)")
        return
    if args.status:
        _ls_status(settings, store, args)
        return
    records = store.query(
        method=args.method or None,
        circuit=args.circuit or None,
        technology=args.technology or None,
        seed=args.seed,
    )
    print(f"{len(records)} run(s) in {store.describe()}")
    order = sorted(
        records, key=lambda r: (r.circuit, r.technology, r.method, r.seed)
    )
    for record in order:
        print(
            f"  {record.method:>24s}  {record.circuit:10s} {record.technology:6s} "
            f"seed={record.seed} steps={record.steps} "
            f"best_reward={record.best_reward:.4f}"
        )


def _ls_status(settings: ExperimentSettings, store: RunStore, args) -> None:
    """Per-cell sweep state (pending / leased-by-whom / done) with counts."""
    from repro.cluster import CELL_STATES, cell_states, lease_store_for

    spec = _campaign_spec(settings, args)
    campaign = Campaign(spec, store, settings=settings)
    lease_store = lease_store_for(store)
    states = cell_states(campaign, lease_store)
    now = lease_store.now()
    print(f"sweep status on {store.describe()}")
    for cell in states:
        print(f"  {cell.describe(now)}")
    counts = {state: 0 for state in CELL_STATES}
    for cell in states:
        counts[cell.state] += 1
    # New counters append at the end: the resume-smoke CI job greps the
    # prefix of this line.
    print(
        f"cells: total={len(states)} done={counts['done']} "
        f"leased={counts['leased']} expired={counts['expired']} "
        f"pending={counts['pending']} quarantined={counts['quarantined']}"
    )


def _export(store: Optional[RunStore], args) -> None:
    if store is None:
        print("no store configured (use --store-dir)")
        return
    rows = [stored.to_dict() for stored in store.items()]
    rows.sort(key=lambda row: json.dumps(row["key"], sort_keys=True))
    text = json.dumps(rows, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"exported {len(rows)} run(s) to {args.output}")
    else:
        print(text)


def main(argv: List[str] = None) -> int:
    """Run the requested experiment target(s) and print the results."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "target",
        choices=TARGETS + ["all"] + STORE_COMMANDS + SERVICE_COMMANDS,
        help=(
            "what to regenerate, a store command (sweep / ls / export), or a "
            "service command (serve / client)"
        ),
    )
    parser.add_argument("--steps", type=int, default=None, help="search budget per run")
    parser.add_argument("--seeds", type=int, default=None, help="runs per configuration")
    parser.add_argument("--pretrain-steps", type=int, default=None)
    parser.add_argument("--transfer-steps", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "sweep only: number of campaign worker processes over the "
            "shared store (distributed execution)"
        ),
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="LRU design-cache capacity (0 disables caching)",
    )
    parser.add_argument(
        "--eval-backend",
        choices=BACKENDS,
        default=None,
        help="how simulator batches are evaluated",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "run-store directory: completed runs, checkpoints and leases "
            "persist to a SQLite database (runs.sqlite) in it"
        ),
    )
    parser.add_argument(
        "--technologies",
        default=None,
        help="comma-separated technology nodes for the sweep grid",
    )
    parser.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated method names for the sweep/table grids "
            f"(registered: {', '.join(list_optimizers())})"
        ),
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help=(
            "stop the in-process sweep after this many executed runs "
            "(resume later); not with --workers"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help=(
            "persist each run's mid-run driver state to the store every K "
            "ask/tell steps, so a killed sweep/server resumes mid-method "
            "(0 disables; default: 10 for sweep, REPRO_SERVE_CHECKPOINT_EVERY "
            "or 1 for serve)"
        ),
    )
    parser.add_argument(
        "--spec",
        default=None,
        help=(
            "worker/sweep: campaign grid as inline JSON or @file (the "
            "launcher passes this to workers so every process executes the "
            "identical grid); default: the grid implied by settings"
        ),
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="worker: stable worker name (owner id becomes host:pid:name)",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=30.0,
        help=(
            "worker: lease time-to-live in seconds — a worker silent this "
            "long is presumed dead and its cell becomes stealable"
        ),
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="worker: seconds between scans when all remaining cells are leased",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="worker: exit after visiting this many cells (default: run to drain)",
    )
    parser.add_argument(
        "--cell-retries",
        type=int,
        default=3,
        help=(
            "worker: attempts per cell before it is quarantined as "
            "poisoned (never handed out again)"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help=(
            "serve: admission-control bound on queued designs; beyond it "
            "submissions fail fast with a retryable 'overloaded' error "
            "(default: REPRO_SERVE_MAX_PENDING or 0 = unbounded)"
        ),
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="ls: show per-cell sweep state (pending/leased/done) instead of runs",
    )
    parser.add_argument(
        "--method", default=None, help="filter for ls/export: method name"
    )
    parser.add_argument(
        "--circuit", default=None, help="filter for ls/export: circuit name"
    )
    parser.add_argument(
        "--technology", default=None, help="filter for ls/export: technology node"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="filter for ls/export: seed"
    )
    parser.add_argument(
        "--output", default=None, help="output file for export (default: stdout)"
    )
    parser.add_argument(
        "--host",
        default=None,
        help="serve/client: server address (default: REPRO_SERVE_HOST or 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve/client: server port (default: REPRO_SERVE_PORT or 8711)",
    )
    parser.add_argument(
        "--linger-ms",
        type=float,
        default=None,
        help=(
            "serve: coalescing window in ms — how long an evaluate request "
            "waits for same-circuit company before a simulator batch is issued"
        ),
    )
    parser.add_argument(
        "--request",
        choices=["health", "stats", "jobs", "evaluate", "run", "result"],
        default="health",
        help="client: which request to send",
    )
    parser.add_argument(
        "--sizings",
        default=None,
        help=(
            "client evaluate: sizings as inline JSON (a list of "
            "component->parameter->value objects) or @file"
        ),
    )
    parser.add_argument(
        "--random",
        type=int,
        default=4,
        help="client evaluate: generate this many random sizings (with --seed)",
    )
    parser.add_argument(
        "--job-id", default=None, help="client result: the job to fetch"
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help=(
            "client: don't block — submit runs fire-and-forget (returns the "
            "job id) and fetch results without waiting"
        ),
    )
    args = parser.parse_args(argv)
    try:
        settings = _build_settings(args)
    except ValueError as error:
        parser.error(str(error))

    if args.target in SERVICE_COMMANDS:
        if args.target == "serve":
            _serve(settings, args)
        else:
            _client(settings, args)
        return 0

    store = _open_store(settings)
    try:
        if args.target in STORE_COMMANDS:
            if args.target == "sweep":
                _sweep(settings, store, args)
            elif args.target == "worker":
                _worker(settings, store, args)
            elif args.target == "ls":
                _ls(settings, store, args)
            elif args.target == "export":
                _export(store, args)
            return 0

        targets = TARGETS if args.target == "all" else [args.target]
        for target in targets:
            if target == "table1":
                print(table1_fom_comparison(settings, store=store).render())
            elif target == "table2":
                print(table2_two_tia(settings, store=store).render())
            elif target == "table3":
                print(table3_two_volt(settings, store=store).render())
            elif target == "table4":
                print(table4_technology_transfer(settings, store=store).render())
            elif target == "table5":
                print(table5_topology_transfer(settings, store=store).render())
            elif target == "figure5":
                _emit_figures(figure5_learning_curves(settings, store=store))
            elif target == "figure7":
                _emit_figures(figure7_technology_transfer_curves(settings, store=store))
            elif target == "figure8":
                _emit_figures(figure8_topology_transfer_curves(settings, store=store))
            print()
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
