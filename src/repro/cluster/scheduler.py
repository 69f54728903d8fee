"""Cell scheduling over a shared store: claims, steals, and status.

The scheduler is the read-modify-claim half of a worker: scan the campaign
grid in sweep order, skip cells whose record is already in the run store,
claim the first cell nobody holds — and, when everything left is leased,
steal the first cell whose lease has *expired* (its worker stopped
heartbeating: presumed dead).  A stolen cell resumes from the straggler's
latest driver checkpoint, so the simulations it already paid for are kept.

The same scan, minus the claiming, powers ``ls --status``
(:func:`cell_states`): every cell is exactly one of ``done``, ``leased``
(live), ``expired`` (stealable), ``pending`` or ``quarantined`` (its
execution terminally failed after bounded retries — never handed out
again until the quarantine is lifted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cluster.leases import Lease, LeaseStore
from repro.store.base import RunKey
from repro.store.campaign import Campaign, RunRequest

#: The mutually exclusive states of a campaign cell.
CELL_STATES = ("done", "leased", "expired", "pending", "quarantined")


@dataclass
class Assignment:
    """One claimed cell handed to a worker for execution.

    Attributes:
        request: The grid cell to execute.
        key: Its canonical store key.
        lease: The lease the worker now holds (renew it while running).
        stolen: The claim went over another owner's expired lease.
        resumed: A driver checkpoint existed at claim time — execution will
            continue mid-method instead of starting from step zero.
    """

    request: RunRequest
    key: RunKey
    lease: Lease
    stolen: bool = False
    resumed: bool = False


class WorkScheduler:
    """Claims pending campaign cells (and steals expired ones) for one owner."""

    def __init__(
        self,
        campaign: Campaign,
        lease_store: LeaseStore,
        owner: str,
        ttl: float,
        clock: Callable[[], float] = time.time,
    ):
        self.campaign = campaign
        self.lease_store = lease_store
        self.owner = owner
        self.ttl = float(ttl)
        self._clock = clock

    def _resumed(self, key: RunKey) -> bool:
        return self.campaign.store.get_checkpoint(key) is not None

    def next_assignment(self) -> Optional[Assignment]:
        """Claim the next executable cell, or ``None`` if nothing is claimable.

        Unclaimed cells win over steals: stealing re-simulates whatever the
        straggler computed after its last checkpoint, so it is a last
        resort.  ``None`` means either the sweep is finished
        (:meth:`outstanding` == 0) or every remaining cell is under a live
        lease — the caller should poll again after a wait.
        """
        stealable: List[RunRequest] = []
        now = self._clock()
        for request in self.campaign.requests():
            key = self.campaign.key_for(request)
            if key in self.campaign.store:
                continue
            if self.campaign.store.get_quarantine(key) is not None:
                # Poisoned cell: bounded retries were already spent on it;
                # handing it out again would livelock the sweep.
                continue
            lease = self.lease_store.get(key)
            if lease is None or lease.owner == self.owner:
                claimed = self.lease_store.claim(key, self.owner, self.ttl)
                if claimed is not None:
                    return Assignment(
                        request=request,
                        key=key,
                        lease=claimed,
                        stolen=False,
                        resumed=self._resumed(key),
                    )
                # Lost the race to a concurrent claimant; treat as leased.
                continue
            if lease.expired(now):
                stealable.append(request)
        for request in stealable:
            key = self.campaign.key_for(request)
            claimed = self.lease_store.claim(key, self.owner, self.ttl)
            if claimed is not None:
                return Assignment(
                    request=request,
                    key=key,
                    lease=claimed,
                    stolen=True,
                    resumed=self._resumed(key),
                )
        return None

    def outstanding(self) -> int:
        """Cells whose final record is not in the store yet."""
        return len(self.campaign.pending())

    def reclaim_expired(self) -> List[Lease]:
        """Drop every expired lease so pending scans see those cells free."""
        return self.lease_store.reclaim_expired()


@dataclass
class CellState:
    """Status of one campaign cell, for ``ls --status``."""

    request: RunRequest
    key: RunKey
    state: str  # one of CELL_STATES
    lease: Optional[Lease] = None

    def describe(self, now: Optional[float] = None) -> str:
        """Human-oriented one-line form."""
        request = self.request
        text = (
            f"[{self.state}] {request.method} {request.circuit} "
            f"{request.technology} seed={request.seed} steps={request.steps}"
        )
        if self.lease is not None:
            text += f"  by {self.lease.owner}"
            if now is not None:
                text += f" age={self.lease.age(now):.1f}s"
        return text


def cell_states(
    campaign: Campaign,
    lease_store: LeaseStore,
    clock: Callable[[], float] = time.time,
) -> List[CellState]:
    """Per-cell state of a (possibly running) sweep, in sweep order."""
    now = clock()
    states = []
    for request in campaign.requests():
        key = campaign.key_for(request)
        if key in campaign.store:
            states.append(CellState(request=request, key=key, state="done"))
            continue
        if campaign.store.get_quarantine(key) is not None:
            states.append(
                CellState(request=request, key=key, state="quarantined")
            )
            continue
        lease = lease_store.get(key)
        if lease is None:
            states.append(CellState(request=request, key=key, state="pending"))
        elif lease.expired(now):
            states.append(
                CellState(request=request, key=key, state="expired", lease=lease)
            )
        else:
            states.append(
                CellState(request=request, key=key, state="leased", lease=lease)
            )
    return states
