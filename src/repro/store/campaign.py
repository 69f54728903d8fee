"""Declarative experiment campaigns over a :class:`RunStore`.

A :class:`CampaignSpec` describes a grid of runs — methods × circuits ×
technologies × seeds × weight-overrides — exactly the shape of the paper's
Tables I–V.  A :class:`Campaign` binds the spec to a store and executes only
the cells the store does not already hold, so a campaign killed mid-sweep
resumes by simply re-running it: finished cells are skipped, the remaining
ones are computed, and the final records are bit-identical to an
uninterrupted sweep (every run is deterministic given its key).

The orchestrator is intentionally thin: run identity lives in
:class:`~repro.store.base.RunKey`, persistence in the store, and execution
in :class:`repro.cluster.CampaignWorker` — one in-process worker, or N
worker processes — which claims each cell under a lease and runs it through
:func:`repro.experiments.runner.run_method`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

from repro.store.base import RunKey, RunStore

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from repro.eval import EvaluatorConfig
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.records import RunRecord


@dataclass
class RunRequest:
    """One grid cell of a campaign (the arguments of one ``run_method``)."""

    method: str
    circuit: str
    technology: str
    steps: int
    seed: int
    weight_overrides: Optional[Mapping[str, float]] = None
    apply_spec: bool = True

    def key(
        self,
        settings: Optional["ExperimentSettings"] = None,
        evaluator_config: Optional["EvaluatorConfig"] = None,
    ) -> RunKey:
        """The canonical key ``run_method`` will store this cell under."""
        # Lazy import: repro.experiments.runner imports repro.store.
        from repro.experiments.runner import run_key_for

        return run_key_for(
            self.method,
            self.circuit,
            technology=self.technology,
            steps=self.steps,
            seed=self.seed,
            settings=settings,
            weight_overrides=self.weight_overrides,
            apply_spec=self.apply_spec,
            evaluator_config=evaluator_config,
        )


@dataclass
class CampaignSpec:
    """A declarative grid of runs.

    Attributes:
        methods: Method registry names.  ``"human"`` expands to a single
            seed (the expert design is deterministic), as in ``run_methods``.
        circuits: Circuit registry names.
        technologies: Technology node names.
        seeds: Number of seeds per cell (``range(seeds)``).
        steps: Simulation budget per run.
        weight_overrides: FoM-weighting axis; each entry is one override
            mapping (``None`` = the paper's default weighting).
        apply_spec: Enforce the circuit's hard spec in the FoM.
    """

    methods: Sequence[str]
    circuits: Sequence[str]
    technologies: Sequence[str] = ("180nm",)
    seeds: int = 1
    steps: int = 80
    weight_overrides: Sequence[Optional[Mapping[str, float]]] = (None,)
    apply_spec: bool = True

    def expand(self) -> List[RunRequest]:
        """Every grid cell, in deterministic sweep order."""
        requests = []
        for circuit in self.circuits:
            for technology in self.technologies:
                for overrides in self.weight_overrides:
                    for method in self.methods:
                        run_seeds = 1 if method == "human" else self.seeds
                        for seed in range(run_seeds):
                            requests.append(
                                RunRequest(
                                    method=method,
                                    circuit=circuit,
                                    technology=technology,
                                    steps=self.steps,
                                    seed=seed,
                                    weight_overrides=overrides,
                                    apply_spec=self.apply_spec,
                                )
                            )
        return requests

    @classmethod
    def from_settings(
        cls,
        settings: "ExperimentSettings",
        technologies: Optional[Sequence[str]] = None,
    ) -> "CampaignSpec":
        """The Table I / Figure 5 grid implied by experiment settings."""
        return cls(
            methods=list(settings.methods),
            circuits=list(settings.circuits),
            technologies=list(technologies or [settings.technology]),
            seeds=settings.seeds,
            steps=settings.steps,
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form (the cluster launcher ships specs to
        worker processes as one ``--spec`` argument)."""
        return {
            "methods": list(self.methods),
            "circuits": list(self.circuits),
            "technologies": list(self.technologies),
            "seeds": int(self.seeds),
            "steps": int(self.steps),
            "weight_overrides": [
                dict(overrides) if overrides is not None else None
                for overrides in self.weight_overrides
            ],
            "apply_spec": bool(self.apply_spec),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        return cls(
            methods=list(data["methods"]),
            circuits=list(data["circuits"]),
            technologies=list(data.get("technologies", ("180nm",))),
            seeds=int(data.get("seeds", 1)),
            steps=int(data.get("steps", 80)),
            weight_overrides=[
                dict(overrides) if overrides is not None else None
                for overrides in data.get("weight_overrides", (None,))
            ],
            apply_spec=bool(data.get("apply_spec", True)),
        )


@dataclass
class CampaignReport:
    """Outcome of one :meth:`Campaign.run` sweep, read from the store.

    Attributes:
        total: Number of cells in the grid.
        executed: Cells whose record reached the store during this sweep
            (from this sweep's workers, or from any other process sharing
            the store).
        skipped: Cells that already had a record when the sweep started.
        quarantined: Cells marked poisoned in the store (terminally failed
            after bounded retries; see ``RunStore.put_quarantine``).  They
            are excluded from ``remaining`` — a drained sweep with
            quarantined cells counts as complete, with the count surfaced.
        interrupted: ``True`` when cells remain: ``max_runs`` stopped the
            sweep early, or a worker stopped before the grid drained.
        records: One record per cell with a record, in sweep order.
    """

    total: int
    executed: int = 0
    skipped: int = 0
    quarantined: int = 0
    interrupted: bool = False
    records: List[RunRecord] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        """Cells the sweep did not finish (0 unless interrupted)."""
        return self.total - self.executed - self.skipped - self.quarantined

    def summary(self) -> str:
        """Stable one-line form (grep target of the CI resume smoke job)."""
        state = "interrupted" if self.interrupted else "complete"
        text = (
            f"sweep {state}: total={self.total} executed={self.executed} "
            f"skipped={self.skipped} remaining={self.remaining}"
        )
        if self.quarantined:
            text += f" quarantined={self.quarantined}"
        return text


class Campaign:
    """Executes the missing cells of a grid spec against a run store.

    An explicit ``cells`` list replaces the spec's grid (the service runs
    each job as a one-cell campaign); such a campaign runs in-process only.
    """

    def __init__(
        self,
        spec: Optional[CampaignSpec],
        store: RunStore,
        settings: Optional["ExperimentSettings"] = None,
        evaluator_config: Optional["EvaluatorConfig"] = None,
        cells: Optional[Sequence[RunRequest]] = None,
    ):
        self.spec = spec
        self.store = store
        self.settings = settings
        self.evaluator_config = evaluator_config
        self.cells = cells
        # key_for memo: computing a RunKey reconstructs ExperimentSettings
        # (and, for RL methods, the warm-up schedule) per call — harmless
        # once, hot when cluster workers poll pending()/status() between
        # cells.  Keys are pure functions of the request + the bound
        # settings/evaluator_config, so the cache never invalidates.
        self._key_cache: Dict[tuple, RunKey] = {}

    def key_for(self, request: RunRequest) -> RunKey:
        """The (memoized) canonical store key of one grid cell."""
        overrides = request.weight_overrides
        cache_key = (
            request.method,
            request.circuit,
            request.technology,
            request.steps,
            request.seed,
            tuple(sorted(overrides.items())) if overrides is not None else None,
            request.apply_spec,
        )
        key = self._key_cache.get(cache_key)
        if key is None:
            key = request.key(self.settings, self.evaluator_config)
            self._key_cache[cache_key] = key
        return key

    def requests(self) -> List[RunRequest]:
        """Every cell of the grid (or the explicit cell list), in sweep order."""
        return list(self.cells) if self.cells is not None else self.spec.expand()

    def pending(self) -> List[RunRequest]:
        """Cells not yet present in the store and not quarantined.

        Quarantined cells are excluded so a sweep with a poison cell still
        *drains* — workers exit instead of livelocking on a cell that can
        never complete.  ``RunStore.delete_quarantine`` re-queues a cell.
        """
        return [
            request
            for request in self.requests()
            if self.key_for(request) not in self.store
            and self.store.get_quarantine(self.key_for(request)) is None
        ]

    def quarantined(self) -> List[RunRequest]:
        """Cells marked poisoned in the store (no final record, quarantined)."""
        return [
            request
            for request in self.requests()
            if self.key_for(request) not in self.store
            and self.store.get_quarantine(self.key_for(request)) is not None
        ]

    def status(self) -> Dict[str, int]:
        """``{"total", "completed", "pending", "quarantined"}`` counts."""
        total = len(self.requests())
        pending = len(self.pending())
        quarantined = len(self.quarantined())
        return {
            "total": total,
            "completed": total - pending - quarantined,
            "pending": pending,
            "quarantined": quarantined,
        }

    def run(
        self,
        max_runs: Optional[int] = None,
        progress: Optional[Callable[[RunRequest, str], None]] = None,
        checkpoint_every: int = 0,
        workers: Optional[int] = None,
    ) -> CampaignReport:
        """Sweep the grid, executing only cells missing from the store.

        Every cell runs on a :class:`repro.cluster.CampaignWorker`, which
        claims it under a lease, renews the lease from a heartbeat while
        the method runs, retries a cell that raises and quarantines it once
        the retries are spent.  So a ``sweep`` and any ``worker`` processes
        on one store share its cells instead of computing them twice.  A
        killed sweep resumes at two granularities: cells whose final record
        reached the store are skipped outright, and — when checkpointing is
        on — a cell killed *mid-run* resumes from its last driver
        checkpoint instead of re-simulating from step zero.

        Args:
            max_runs: Stop after this many claimed cells (the worker's
                ``max_cells``; cells already done are free); bounds a
                session.
            progress: Optional ``callback(request, outcome)``, called per
                cell this sweep claims with the worker's outcome:
                ``"executed"`` or ``"quarantined"`` — or ``"skipped"`` /
                ``"lost"`` when another process finished or took over the
                cell first.  Cells done before the sweep are not announced.
            checkpoint_every: Forwarded to every run's driver — persist the
                mid-run state every K ask/tell steps (0 disables).
            workers: Run the sweep on this many local worker processes over
                the campaign's store directory
                (:class:`repro.cluster.ClusterLauncher`) instead of one
                in-process worker.  Requires a
                :class:`~repro.store.SqliteStore` and a grid spec;
                incompatible with ``max_runs``, and ``progress`` is not
                called (per-cell progress prints on each worker's stdout).
        """
        # Lazy import: repro.cluster imports this module.
        from repro.cluster import CampaignWorker, ClusterLauncher

        requests = self.requests()
        done_before = [self.key_for(request) in self.store for request in requests]
        cluster = None
        if workers is not None and workers > 1:
            if max_runs is not None:
                raise ValueError(
                    "workers is incompatible with max_runs (it bounds the "
                    "in-process sweep)"
                )
            cluster = ClusterLauncher(
                self.spec,
                store_dir=self._store_directory(),
                workers=workers,
                settings=self.settings,
                evaluator_config=self.evaluator_config,
                checkpoint_every=checkpoint_every or 1,
            ).run()
        else:

            def notify(assignment, outcome: str) -> None:
                progress(assignment.request, outcome)

            CampaignWorker(
                self,
                checkpoint_every=checkpoint_every,
                progress=notify if progress is not None else None,
            ).run(max_cells=max_runs)

        report = CampaignReport(total=len(requests))
        for request, was_done in zip(requests, done_before):
            key = self.key_for(request)
            record = self.store.get(key)
            if record is not None:
                report.records.append(record)
                if was_done:
                    report.skipped += 1
                else:
                    report.executed += 1
            elif self.store.get_quarantine(key) is not None:
                report.quarantined += 1
        report.interrupted = report.remaining > 0
        if report.interrupted and cluster is not None and not cluster.ok():
            raise RuntimeError(
                f"distributed sweep incomplete: {report.summary()}; "
                f"worker exit codes {cluster.exit_codes}"
            )
        return report

    def _store_directory(self) -> str:
        """Directory of the bound store, for worker spawns."""
        # Lazy import keeps repro.store.campaign free of backend modules.
        from repro.store.sqlite import SqliteStore

        if not isinstance(self.store, SqliteStore):
            raise ValueError(
                "a distributed sweep needs a directory-backed (sqlite) store "
                f"shared between workers; got {type(self.store).__name__}"
            )
        return self.store.directory
