"""The asyncio optimization server: NDJSON actor front-end + HTTP adapter.

Architecture (the proactor/supervised-actor pattern: one event loop owns all
routing and bookkeeping; blocking work — simulator batches, optimization
steps — runs in worker threads and reports back via thread-safe callbacks):

* one :class:`~repro.service.coalescer.BatchCoalescer` merges every
  connection's evaluate traffic into shared simulator batches, and
* one :class:`~repro.service.supervisor.RunSupervisor` queues run requests
  as run-store cells and executes each on an in-process campaign worker,
  with progress streaming and adoption of unfinished cells at start.

Both protocols share one port: a connection whose first line is an HTTP
request line (``GET /health HTTP/1.1``) gets a single JSON response and a
close; anything else is treated as a stream of newline-delimited JSON frames
(the native protocol, see :mod:`repro.service.protocol`).  The HTTP adapter
is deliberately thin — no streaming, ``POST /run`` returns a job id to poll
via ``GET /result/<job_id>`` — so ``curl`` works against a live server
without any client library.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from typing import Any, Dict, Optional
from urllib.parse import urlsplit

from repro.service.config import ServiceConfig
from repro.service.coalescer import (
    BatchCoalescer,
    EvaluationError,
    OverloadedError,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    validate_request,
)
from repro.service.supervisor import RunSupervisor

logger = logging.getLogger("repro.service")

#: Methods that mark a connection's first line as HTTP rather than NDJSON.
_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")


class OptimizationService:
    """One long-lived server process: sockets, coalescer, run supervisor."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.coalescer = BatchCoalescer(
            evaluator_config=self.config.evaluator_config(),
            linger_s=self.config.linger_ms / 1000.0,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            retry_policy=self.config.retry_policy(),
            chaos=self.config.chaos_config(),
        )
        self.supervisor = RunSupervisor(
            store_dir=self.config.store_dir,
            default_checkpoint_every=self.config.checkpoint_every,
            evaluator_config=self.config.evaluator_config(),
        )
        self.started_at: Optional[float] = None
        self.connections = 0
        self.frames_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # --- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and adopt every unfinished queued run."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        adopted = self.supervisor.adopt_pending()
        logger.info(
            "service started on %s:%d (%d run(s) re-adopted)",
            self.config.host,
            self.port,
            len(adopted),
        )

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful stop: close the socket, pause the jobs, release evaluators.

        Running jobs are *not* run to completion: each checkpoints at its
        next ask/tell boundary and releases its cell, which stays queued for
        the next server to adopt.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.supervisor.stop()
        self.coalescer.close()

    # --- shared handlers ----------------------------------------------------------
    async def _handle_evaluate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        results = await self.coalescer.submit(
            request["circuit"], request["technology"], request["sizings"]
        )
        return {"type": "result", "results": results}

    def _handle_health(self) -> Dict[str, Any]:
        jobs = self.supervisor.stats()
        return {
            "type": "health",
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections": self.connections,
            "frames_served": self.frames_served,
            "jobs": jobs,
        }

    def _handle_stats(self) -> Dict[str, Any]:
        payload = self.coalescer.snapshot()
        payload["type"] = "stats"
        payload["jobs"] = self.supervisor.stats()
        payload["config"] = self.config.describe()
        return payload

    # --- NDJSON protocol ----------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._handle_http(first, reader, writer)
                return
            line = first
            while line:
                await self._serve_frame(line, reader, writer)
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancels open handlers; ending the coroutine
                # normally here keeps StreamReaderProtocol's done-callback
                # (which calls task.exception()) from tripping on a
                # cancelled task.  Nothing runs after this point.
                pass

    async def _send(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()
        self.frames_served += 1

    async def _serve_frame(
        self, line: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_id = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            request = validate_request(frame)
            kind = request["type"]
            if kind == "evaluate":
                response = await self._handle_evaluate(request)
            elif kind == "run":
                await self._serve_run(request, writer)
                return
            elif kind == "result":
                payload = await self.supervisor.result(
                    request["job_id"], wait=request["wait"]
                )
                response = {"type": "result"}
                response.update(payload)
            elif kind == "jobs":
                response = {"type": "jobs", "jobs": self.supervisor.describe_jobs()}
            elif kind == "health":
                response = self._handle_health()
            else:  # stats
                response = self._handle_stats()
        except (ProtocolError, EvaluationError, KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            response = error_frame(
                message,
                request_id,
                kind=getattr(error, "kind", None),
                retryable=getattr(error, "retryable", None),
                attempts=getattr(error, "attempts", None),
            )
        if request_id is not None:
            response["id"] = request_id
        await self._send(writer, response)

    async def _serve_run(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Submit a run job; optionally stream its progress on this connection."""
        job = self.supervisor.submit(
            request["method"], request["circuit"], request["technology"],
            request["steps"], request["seed"], request.get("checkpoint_every"),
        )
        accepted = {"type": "accepted", "job_id": job.job_id}
        if request.get("id") is not None:
            accepted["id"] = request["id"]
        await self._send(writer, accepted)
        if not request["stream"]:
            return
        queue = self.supervisor.subscribe(job.job_id)
        try:
            while True:
                frame = await queue.get()
                await self._send(writer, frame)
                if frame["type"] in ("result", "error"):
                    return
        finally:
            # A disconnected subscriber never stops the job itself.
            self.supervisor.unsubscribe(job.job_id, queue)

    # --- HTTP adapter -------------------------------------------------------------
    async def _handle_http(
        self, first: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, _ = first.decode("latin-1").split(None, 2)
        except ValueError:
            await self._http_respond(writer, 400, {"error": "malformed request line"})
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > MAX_FRAME_BYTES:
            await self._http_respond(writer, 413, {"error": "body too large"})
            return
        body = await reader.readexactly(content_length) if content_length else b""
        path = urlsplit(target).path
        try:
            status, payload = await self._http_route(method, path, body)
        except OverloadedError as error:
            status, payload = 503, {
                "error": str(error),
                "kind": "overloaded",
                "retryable": True,
            }
        except (ProtocolError, EvaluationError, KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            status, payload = 400, {"error": message}
            kind = getattr(error, "kind", None)
            if kind is not None:
                payload["kind"] = kind
                payload["retryable"] = bool(getattr(error, "retryable", False))
        except json.JSONDecodeError as error:
            status, payload = 400, {"error": f"body is not valid JSON: {error}"}
        await self._http_respond(writer, status, payload)

    async def _http_route(self, method: str, path: str, body: bytes):
        """Map one HTTP request onto the native frame handlers."""
        if method == "GET" and path == "/health":
            return 200, self._handle_health()
        if method == "GET" and path == "/stats":
            return 200, self._handle_stats()
        if method == "GET" and path.startswith("/result/"):
            job_id = path[len("/result/"):]
            payload = await self.supervisor.result(job_id, wait=True)
            return 200, payload
        if method == "GET" and path == "/jobs":
            return 200, {"jobs": self.supervisor.describe_jobs()}
        if method == "POST" and path == "/evaluate":
            request = validate_request(
                dict(json.loads(body.decode("utf-8")), type="evaluate")
            )
            return 200, await self._handle_evaluate(request)
        if method == "POST" and path == "/run":
            request = validate_request(
                dict(json.loads(body.decode("utf-8")), type="run", stream=False)
            )
            job = self.supervisor.submit(
                request["method"], request["circuit"], request["technology"],
                request["steps"], request["seed"], request.get("checkpoint_every"),
            )
            return 202, {"job_id": job.job_id}
        return 404, {"error": f"no route for {method} {path}"}

    async def _http_respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 413: "Payload Too Large",
                   503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        self.frames_served += 1


def run_service(config: Optional[ServiceConfig] = None) -> None:
    """Blocking entry point: serve until interrupted (the CLI's ``serve``)."""

    async def _main() -> None:
        service = OptimizationService(config)
        await service.start()
        # The startup banner is machine-readable on purpose: smoke tests and
        # wrapper scripts parse the host:port out of the first line.
        print(
            f"repro.service listening on {service.config.host}:{service.port} "
            f"({service.config.describe()})",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A service running on a background thread (tests, demos, notebooks).

    Usage::

        with ServerThread(ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig(port=0)
        # The attributes below are written only by the server thread before
        # it sets ``_ready``; readers block on ``_ready.wait()`` first, so
        # the Event's memory ordering is the synchronization.
        self.service: Optional[OptimizationService] = None  # guarded-by: self._ready handshake
        self.port: Optional[int] = None  # guarded-by: self._ready handshake
        self._loop: Optional[asyncio.AbstractEventLoop] = None  # guarded-by: self._ready handshake
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None  # guarded-by: self._ready handshake

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            # Harness startup failure, not an evaluation failure.
            raise RuntimeError(  # repro-lint: ignore[failure-taxonomy]
                "service thread failed to start within 30s"
            )
        if self._startup_error is not None:
            raise RuntimeError(  # repro-lint: ignore[failure-taxonomy]
                "service failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.service = OptimizationService(self.config)
        try:
            self._loop.run_until_complete(self.service.start())
            self.port = self.service.port
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.stop())
            # Drain leftover tasks (open connection handlers, run jobs) so
            # closing the loop never destroys a pending task.
            leftovers = asyncio.all_tasks(self._loop)
            for task in leftovers:
                task.cancel()
            if leftovers:
                self._loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
            self._loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
