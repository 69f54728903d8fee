"""Optimization-as-a-service: the long-lived process in front of the library.

The :mod:`repro.service` package turns the Evaluator protocol and the
checkpointable ask/tell driver into a server any number of clients share:

* :class:`OptimizationService` / :func:`run_service` — the asyncio server
  (newline-delimited JSON frames plus a thin HTTP adapter on one port).
* :class:`BatchCoalescer` — merges concurrent evaluate requests for the
  same circuit×technology bucket into shared simulator batches, deduped
  against in-flight work and already-stored results.
* :class:`RunSupervisor` — queues run requests as run-store cells and runs
  each on an in-process :class:`~repro.cluster.CampaignWorker` that streams
  per-step progress and checkpoints under a lease; a restarted server adopts
  every unfinished queued cell from its checkpoint (lossless restart).
* :class:`ServiceClient` — the blocking stdlib-socket client.
* :class:`ServiceConfig` — declarative server configuration
  (``REPRO_SERVE_*`` environment overrides).
* :class:`ServerThread` — an in-process server for tests and demos.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.coalescer import (
    BatchCoalescer,
    CoalescerStats,
    EvaluationError,
    OverloadedError,
)
from repro.service.config import DEFAULT_PORT, ServiceConfig
from repro.service.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    evaluate_request,
    run_request,
    validate_request,
)
from repro.service.server import OptimizationService, ServerThread, run_service
from repro.service.supervisor import Job, RunSupervisor

__all__ = [
    "OptimizationService",
    "run_service",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceConfig",
    "DEFAULT_PORT",
    "BatchCoalescer",
    "CoalescerStats",
    "EvaluationError",
    "OverloadedError",
    "RunSupervisor",
    "Job",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "validate_request",
    "evaluate_request",
    "run_request",
]
