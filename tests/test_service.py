"""Tests for the optimization service: codec, coalescing, dedup, restart."""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.eval import EvaluatorConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_key_for
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
from repro.service.supervisor import RunSupervisor
from repro.store import SqliteStore, make_run_key

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

    def test_unknown_circuit_or_technology_is_refused_at_submission(self):
        with ServerThread(ServiceConfig(port=0)) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError, match="unknown circuit 'no_such_circuit'"):
                    client.submit_run("es", "no_such_circuit")
                with pytest.raises(ServiceError, match="unknown technology node '7nm'"):
                    client.submit_run("es", "two_tia", technology="7nm")
                assert client.jobs() == []
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/run",
                data=json.dumps({"method": "es", "circuit": "no_such_circuit"}).encode(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            excinfo.value.close()
            assert excinfo.value.code == 400


# --- run queue / adoption ---------------------------------------------------------
_PAYLOAD = {
    "checkpoint_every": 1,
    "evaluator": {"backend": "local", "cache_size": 0},
    "warmup_fraction": 0.33,
}


def _adopt_queued(store_dir: str):
    """Adopt every queued cell of ``store_dir`` and wait until each job ends."""

    async def adopt():
        supervisor = RunSupervisor(store_dir=store_dir)
        jobs = supervisor.adopt_pending()
        await asyncio.gather(*(job.finished.wait() for job in jobs))
        await supervisor.stop()
        return jobs

    return asyncio.run(adopt())


@contextlib.contextmanager
def _serving(store_dir: str):
    """``serve`` in a subprocess on an ephemeral port; yields (process, port).

    A server still running when the block ends is SIGKILLed.
    """
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0", "--store-dir", store_dir,
            "--checkpoint-every", "1",
        ],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            yield proc, int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        finally:
            if proc.poll() is None:
                proc.kill()


def _wait_midrun(client: ServiceClient, budget: int) -> None:
    """Poll until the only job has stepped but spent under half its budget."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        job = client.jobs()[0]
        if job["status"] != "running":
            pytest.fail(f"run finished before the interruption: {job}")
        if job["step"] >= 1 and job["evaluated"] < budget // 2:
            return
        time.sleep(0.02)
    pytest.fail("run never reported progress")


def _table_rows(store_dir, table: str) -> list:
    """Rows of one ``runs.sqlite`` table, read without opening a store
    (an open vacuums the leases of dead local processes)."""
    path = os.path.join(str(store_dir), "runs.sqlite")
    with contextlib.closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        return conn.execute(f"SELECT * FROM {table}").fetchall()


def _assert_matches_uninterrupted(record, method: str, steps: int) -> None:
    from repro.experiments.runner import run_method

    reference = run_method(
        method,
        "two_tia",
        steps=steps,
        seed=0,
        evaluator_config=EvaluatorConfig(backend="local", cache_size=4096),
    )
    assert len(record["rewards"]) == len(reference.rewards)
    assert record["rewards"] == [float(r) for r in reference.rewards]
    assert record["best_reward"] == float(reference.best_reward)
    assert record["best_metrics"] == {
        k: float(v) for k, v in reference.best_metrics.items()
    }


class TestRunQueue:
    def test_queued_cell_on_a_retired_backend_is_quarantined_at_adoption(self, tmp_path):
        retired_key = make_run_key(
            "random", "two_tia", "180nm", 2, 0,
            evaluator_key=("evaluator", "process", None, 0),
        )
        valid_key = run_key_for(
            "random", "two_tia", steps=2, seed=0,
            evaluator_config=EvaluatorConfig(backend="local", cache_size=0),
        )
        with SqliteStore(tmp_path) as store:
            store.put_queued(
                retired_key,
                dict(_PAYLOAD, evaluator={"backend": "process", "cache_size": 0}),
            )
            store.put_queued(valid_key, _PAYLOAD)

        retired, valid = _adopt_queued(str(tmp_path))
        assert retired.adopted and retired.status == "failed"
        assert retired.error.startswith("unknown backend 'process'")
        assert valid.adopted and valid.status == "done"
        with SqliteStore(tmp_path) as store:
            assert store.get_quarantine(retired_key)["message"] == retired.error
            assert store.get(retired_key) is None
            assert store.get(valid_key) is not None
        # The next start runs neither again.
        assert _adopt_queued(str(tmp_path)) == []

    def test_queue_row_whose_key_no_longer_rebuilds_fails_instead_of_running(
        self, tmp_path
    ):
        # Queued under a 0.5 warm-up fraction, with a payload that says 0.33.
        key = run_key_for(
            "gcn_rl", "two_tia", steps=40, seed=0,
            settings=ExperimentSettings(warmup_fraction=0.5),
            evaluator_config=EvaluatorConfig(backend="local", cache_size=0),
        )
        with SqliteStore(tmp_path) as store:
            store.put_queued(key, _PAYLOAD)

        (job,) = _adopt_queued(str(tmp_path))
        assert job.status == "failed"
        assert key.canonical() in job.error
        assert '["warmup",13]' in job.error
        with SqliteStore(tmp_path) as store:
            assert store.get_quarantine(key) is not None
            assert store.get(key) is None
            assert store.get_checkpoint(key) is None
        assert _adopt_queued(str(tmp_path)) == []

    def test_identical_submissions_share_one_job_and_one_execution(self, tmp_path):
        with ServerThread(ServiceConfig(port=0, store_dir=str(tmp_path))) as server:
            with ServiceClient(port=server.port) as client:
                first = client.submit_run("random", "two_tia", steps=4, seed=3)
                second = client.submit_run("random", "two_tia", steps=4, seed=3)
                payload = client.result(first, wait=True)
                third = client.submit_run("random", "two_tia", steps=4, seed=3)
                jobs = client.jobs()
        assert first == second == third
        assert [job["job_id"] for job in jobs] == [first]
        assert payload["status"] == "done"
        assert len(_table_rows(tmp_path, "runs")) == 1
        assert len(_table_rows(tmp_path, "queue")) == 1

    def test_back_to_back_jobs_run_concurrently_and_stop_pauses_them(self, tmp_path):
        server = ServerThread(ServiceConfig(port=0, store_dir=str(tmp_path))).start()
        try:
            with ServiceClient(port=server.port) as client:
                for seed in (0, 1):
                    client.submit_run("es", "two_tia", steps=3000, seed=seed)
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    jobs = client.jobs()
                    assert all(job["status"] == "running" for job in jobs), jobs
                    if all(job["step"] >= 1 for job in jobs):
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail(f"the jobs never both stepped: {jobs}")
        finally:
            server.stop()
        # Both cells paused unfinished: checkpointed, no record, no lease,
        # and no job thread is still stepping.
        checkpoints = _table_rows(tmp_path, "checkpoints")
        assert len(checkpoints) == 2
        assert _table_rows(tmp_path, "runs") == []
        assert _table_rows(tmp_path, "leases") == []
        time.sleep(0.5)
        assert _table_rows(tmp_path, "checkpoints") == checkpoints

    def test_kill_server_midrun_restart_resumes_bit_identically(self, tmp_path):
        """SIGKILL the server mid-run; a restart adopts the queued cell and
        its resumed record matches an uninterrupted reference exactly."""
        store_dir = str(tmp_path / "store")
        with _serving(store_dir) as (proc, port):
            with ServiceClient(port=port) as client:
                job_id = client.submit_run(
                    "es", "two_tia", steps=60, seed=0, checkpoint_every=1
                )
                # Wait until the run has demonstrably stepped (checkpoint
                # written) but is still in flight; leaving the block pulls
                # the plug.
                _wait_midrun(client, 100)

        # The queue row and the dead server's lease survive the kill.
        (queued,) = _table_rows(store_dir, "queue")
        (lease,) = _table_rows(store_dir, "leases")
        assert queued[0] == lease[0] and queued[0].startswith(job_id)
        assert lease[4] == proc.pid
        assert _table_rows(store_dir, "runs") == []

        with _serving(store_dir) as (_, port):
            with ServiceClient(port=port, timeout=300.0) as client:
                jobs = client.jobs()
                assert [j["job_id"] for j in jobs] == [job_id]
                assert jobs[0]["adopted"] is True
                payload = client.result(job_id, wait=True)

        assert _table_rows(store_dir, "leases") == []
        assert len(_table_rows(store_dir, "runs")) == 1
        assert payload["status"] == "done"
        _assert_matches_uninterrupted(payload["record"], "es", 60)

    def test_sigint_midrun_pauses_and_restart_resumes_bit_identically(self, tmp_path):
        """A graceful stop leaves the run unfinished — checkpointed, with no
        record and no lease — and the next server finishes it bit-identically."""
        store_dir = str(tmp_path / "store")
        with _serving(store_dir) as (proc, port):
            with ServiceClient(port=port) as client:
                job_id = client.submit_run(
                    "es", "two_tia", steps=400, seed=0, checkpoint_every=1
                )
                _wait_midrun(client, 400)
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)  # the server exits on its own

        assert _table_rows(store_dir, "runs") == []
        assert len(_table_rows(store_dir, "checkpoints")) == 1
        assert _table_rows(store_dir, "leases") == []

        with _serving(store_dir) as (_, port):
            with ServiceClient(port=port, timeout=300.0) as client:
                assert client.jobs()[0]["adopted"] is True
                payload = client.result(job_id, wait=True)

        assert payload["status"] == "done"
        _assert_matches_uninterrupted(payload["record"], "es", 400)


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
