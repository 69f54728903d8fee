"""Tests for the optimization service: codec, coalescing, dedup, restart."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.eval import EvaluatorConfig
from repro.service import (
    ProtocolError,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    decode_frame,
    encode_frame,
    validate_request,
)
from repro.service.supervisor import JOURNAL_NAME, JobSpec, RunSupervisor

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _random_sizings(count: int, seed: int = 7, circuit_name: str = "two_tia"):
    circuit = get_circuit(circuit_name, "180nm")
    rng = np.random.default_rng(seed)
    return [circuit.random_sizing(rng) for _ in range(count)]


# --- protocol codec ---------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_is_bit_identical(self):
        frame = {
            "type": "result",
            "id": 3,
            "metrics": {"gain": 123.456789012345678, "bw": 1.8121296380182965e7},
            "nested": {"list": [1, 2.5, "x", None, True]},
        }
        assert decode_frame(encode_frame(frame)) == frame

    def test_roundtrip_preserves_float_bits(self):
        values = [0.1 + 0.2, 1e-300, np.pi, 2.0 ** -1074, 1.7976931348623157e308]
        frame = {"type": "stats", "values": values}
        decoded = decode_frame(encode_frame(frame))
        assert [v.hex() for v in decoded["values"]] == [v.hex() for v in values]

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"")
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            decode_frame(b'{"no_type": 1}\n')
        with pytest.raises(ProtocolError):
            encode_frame({"no_type": 1})

    def test_validate_evaluate(self):
        sizings = [{"M1": {"w": 1e-6, "l": 1e-7}}]
        normalized = validate_request(
            {"type": "evaluate", "circuit": "two_tia", "sizings": sizings}
        )
        assert normalized["technology"] == "180nm"
        assert normalized["sizings"] == sizings
        with pytest.raises(ProtocolError):
            validate_request({"type": "evaluate", "circuit": "two_tia", "sizings": []})
        with pytest.raises(ProtocolError):
            validate_request(
                {"type": "evaluate", "circuit": "two_tia", "sizings": [{"M1": 3}]}
            )

    def test_validate_run_defaults(self):
        normalized = validate_request(
            {"type": "run", "method": "es", "circuit": "two_tia"}
        )
        assert normalized["steps"] == 80
        assert normalized["seed"] == 0
        assert normalized["stream"] is True
        with pytest.raises(ProtocolError):
            validate_request({"type": "run", "method": "es", "circuit": "x", "steps": 0})
        with pytest.raises(ProtocolError):
            validate_request({"type": "teleport"})


# --- coalescing -------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_clients_share_batches_bit_identically(self):
        """≥8 concurrent clients -> fewer simulator batches than requests,
        coalescing factor ≥ 2, results bit-identical to direct evaluation."""
        n_clients = 8
        per_client = 2
        all_sizings = _random_sizings(n_clients * per_client, seed=11)
        config = ServiceConfig(port=0, linger_ms=150.0)
        with ServerThread(config) as server:
            barrier = threading.Barrier(n_clients)
            outputs = [None] * n_clients
            errors = []

            def worker(index: int):
                chunk = all_sizings[index * per_client : (index + 1) * per_client]
                try:
                    with ServiceClient(port=server.port) as client:
                        barrier.wait(timeout=30)
                        outputs[index] = client.evaluate("two_tia", chunk)
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors

            with ServiceClient(port=server.port) as client:
                stats = client.stats()["coalescer"]

        assert stats["requests"] == n_clients
        assert stats["designs_flushed"] == n_clients * per_client
        # The acceptance criterion: strictly fewer batches than requests,
        # with a mean coalescing factor of at least 2 designs per batch.
        assert stats["batches_issued"] < stats["requests"]
        assert stats["coalescing_factor"] >= 2.0

        # Bit-identical to a direct, un-coalesced local evaluation.
        direct = EvaluatorConfig(backend="local", cache_size=0).build(
            get_circuit("two_tia", "180nm")
        )
        try:
            reference = direct.evaluate_batch(all_sizings)
        finally:
            direct.close()
        served = [result for chunk in outputs for result in chunk]
        for out, ref in zip(served, reference):
            assert out["metrics"] == ref.metrics

    def test_repeat_request_is_served_without_simulation(self):
        sizings = _random_sizings(4, seed=23)
        with ServerThread(ServiceConfig(port=0, linger_ms=5.0)) as server:
            with ServiceClient(port=server.port) as client:
                first = client.evaluate("two_tia", sizings)
                before = client.stats()["evaluator"]["num_simulations"]
                second = client.evaluate("two_tia", sizings)
                after_stats = client.stats()
        assert [r["metrics"] for r in first] == [r["metrics"] for r in second]
        assert all(r["cached"] for r in second)
        assert after_stats["evaluator"]["num_simulations"] == before
        assert after_stats["coalescer"]["peek_hits"] == len(sizings)

    def test_duplicate_designs_in_one_batch_share_a_future(self):
        sizing = _random_sizings(1, seed=31)[0]
        with ServerThread(ServiceConfig(port=0, linger_ms=50.0)) as server:
            results = [None, None]

            def worker(index: int):
                with ServiceClient(port=server.port) as client:
                    results[index] = client.evaluate("two_tia", [sizing])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            with ServiceClient(port=server.port) as client:
                stats = client.stats()["coalescer"]
        assert results[0][0]["metrics"] == results[1][0]["metrics"]
        # One design simulated, the duplicate attached to the shared future.
        assert stats["designs_flushed"] == 1
        assert stats["inflight_hits"] + stats["peek_hits"] == 1

    def test_evaluate_unknown_circuit_is_an_error_frame(self):
        with ServerThread(ServiceConfig(port=0)) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError):
                    client.evaluate("no_such_circuit", _random_sizings(1))
                # The connection survives the error and serves the next request.
                assert client.health()["status"] == "ok"


# --- supervised runs --------------------------------------------------------------
class TestRuns:
    def test_run_matches_direct_run_method(self):
        from repro.experiments.runner import run_method

        with ServerThread(ServiceConfig(port=0)) as server:
            progress = []
            with ServiceClient(port=server.port) as client:
                record = client.run(
                    "random",
                    "two_tia",
                    steps=3,
                    seed=5,
                    on_progress=progress.append,
                )
                jobs = client.jobs()
        reference = run_method(
            "random",
            "two_tia",
            steps=3,
            seed=5,
            evaluator_config=EvaluatorConfig(backend="local", cache_size=4096),
        )
        assert record["rewards"] == [float(r) for r in reference.rewards]
        assert record["best_reward"] == float(reference.best_reward)
        assert progress, "streaming run must push progress frames"
        # `steps` is an evaluation budget; the driver may cover it in fewer
        # ask/tell iterations, but the final frame must account for all of it.
        assert progress[-1]["evaluated"] >= 3
        assert jobs[0]["status"] == "done"

    def test_submit_then_result_roundtrip(self):
        with ServerThread(ServiceConfig(port=0)) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_run("random", "two_tia", steps=2, seed=1)
                payload = client.result(job_id, wait=True)
        assert payload["status"] == "done"
        assert payload["record"]["method"] == "random"
        assert len(payload["record"]["rewards"]) >= 2

    def test_unknown_method_is_an_error_frame(self):
        with ServerThread(ServiceConfig(port=0)) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError, match="[Uu]nknown"):
                    client.run("definitely_not_a_method", "two_tia", steps=2)


# --- journal / adoption -----------------------------------------------------------
class TestJournal:
    def test_pending_from_journal_tolerates_torn_tail(self, tmp_path):
        supervisor = RunSupervisor(store_dir=str(tmp_path))
        done = JobSpec(
            job_id="aaa", method="es", circuit="two_tia", technology="180nm",
            steps=4, seed=0, checkpoint_every=1,
        )
        alive = JobSpec(
            job_id="bbb", method="random", circuit="two_tia", technology="180nm",
            steps=4, seed=1, checkpoint_every=1, eval_cache_size=64,
        )
        supervisor._journal_append("submitted", {"job": done.to_dict()})
        supervisor._journal_append("submitted", {"job": alive.to_dict()})
        supervisor._journal_append("done", {"job_id": "aaa"})
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submitted", "job": {"job_id": "to')  # torn
        pending = supervisor.pending_from_journal()
        assert [spec.job_id for spec in pending] == ["bbb"]
        assert pending[0] == alive

    def test_kill_server_midrun_restart_resumes_bit_identically(self, tmp_path):
        """SIGKILL the server mid-run; a restart re-adopts the journaled job
        and its resumed record matches an uninterrupted reference exactly."""
        from repro.experiments.runner import run_method

        store_dir = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)

        def start_server():
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.experiments", "serve",
                    "--port", "0", "--store-dir", store_dir,
                    "--checkpoint-every", "1",
                ],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            return proc, port

        proc, port = start_server()
        try:
            with ServiceClient(port=port) as client:
                job_id = client.submit_run(
                    "es", "two_tia", steps=60, seed=0, checkpoint_every=1
                )
                # Wait until the run has demonstrably stepped (checkpoint
                # written) but is still in flight, then pull the plug.
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    job = client.jobs()[0]
                    if job["status"] != "running":
                        pytest.fail(f"run finished before the kill: {job}")
                    if job["step"] >= 1 and job["evaluated"] < 50:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("run never reported progress")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        journal = tmp_path / "store" / JOURNAL_NAME
        assert journal.exists()
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        assert events[0]["event"] == "submitted"
        assert not any(row["event"] == "done" for row in events)

        proc2, port2 = start_server()
        try:
            with ServiceClient(port=port2, timeout=300.0) as client:
                jobs = client.jobs()
                assert [j["job_id"] for j in jobs] == [job_id]
                assert jobs[0]["adopted"] is True
                payload = client.result(job_id, wait=True)
        finally:
            os.kill(proc2.pid, signal.SIGKILL)
            proc2.wait(timeout=30)

        assert payload["status"] == "done"
        resumed = payload["record"]
        reference = run_method(
            "es",
            "two_tia",
            steps=60,
            seed=0,
            evaluator_config=EvaluatorConfig(backend="local", cache_size=4096),
        )
        assert len(resumed["rewards"]) == len(reference.rewards)
        assert resumed["rewards"] == [float(r) for r in reference.rewards]
        assert resumed["best_reward"] == float(reference.best_reward)
        assert resumed["best_metrics"] == {
            k: float(v) for k, v in reference.best_metrics.items()
        }


# --- HTTP adapter -----------------------------------------------------------------
class TestHttpAdapter:
    def test_health_stats_and_evaluate_over_http(self):
        sizings = _random_sizings(2, seed=41)
        with ServerThread(ServiceConfig(port=0, linger_ms=5.0)) as server:
            base = f"http://127.0.0.1:{server.port}"
            health = json.load(urllib.request.urlopen(f"{base}/health"))
            assert health["status"] == "ok"

            body = json.dumps(
                {"circuit": "two_tia", "technology": "180nm", "sizings": sizings}
            ).encode("utf-8")
            request = urllib.request.Request(
                f"{base}/evaluate",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            payload = json.load(urllib.request.urlopen(request))
            assert len(payload["results"]) == 2
            assert all("metrics" in r for r in payload["results"])

            stats = json.load(urllib.request.urlopen(f"{base}/stats"))
            assert stats["coalescer"]["designs_submitted"] == 2

    def test_http_404_for_unknown_route(self):
        with ServerThread(ServiceConfig(port=0)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope")
            assert excinfo.value.code == 404
