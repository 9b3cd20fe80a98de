"""Tests for the shared-memory worker pool (`repro.service.pool`)."""

import gc
import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.serving.infer import InferenceEngine
from repro.service.pool import WorkerPool
from repro.service.shm import created_segments

from test_service_shm import make_snapshot


def collect_results(pool, request_ids, timeout=30.0):
    """Gather one result per request id; fails the test on any error relay."""
    results = {}
    deadline = time.monotonic() + timeout
    while len(results) < len(request_ids) and time.monotonic() < deadline:
        item = pool.get_result(timeout=0.5)
        if item is None:
            continue
        kind, request_id, payload = item
        assert kind == "result", payload.get("error")
        results[request_id] = payload
    assert sorted(results) == sorted(request_ids), "missing results"
    return results


def decode_rows(payload):
    """The θ matrix of a reply, whose rows arrive as JSON text."""
    return np.array([json.loads(row) for row in payload["rows"]])


@pytest.fixture
def pool():
    worker_pool = WorkerPool(
        make_snapshot(0), num_workers=2, options={"seed": 0}, version=1
    )
    yield worker_pool
    worker_pool.close()


class TestServing:
    def test_results_match_in_process_server(self, pool):
        snapshot = make_snapshot(0)
        documents = [[0, 1, 2, 3], [5, 6], [7, 7, 8]]
        reference = InferenceEngine(snapshot).infer_ids(documents)
        pool.submit(0, documents)
        payload = collect_results(pool, [0])[0]
        # EM fold-in is deterministic: a worker over the shared buffer must
        # produce exactly what an in-process engine over the same phi does,
        # and each row's text is exactly what json.dumps makes of it.
        np.testing.assert_allclose(decode_rows(payload), reference, rtol=0, atol=1e-12)
        assert payload["rows"] == [
            json.dumps(row).encode() for row in decode_rows(payload).tolist()
        ]
        assert payload["version"] == 1
        assert payload["num_topics"] == snapshot.num_topics

    def test_id_arrays_are_accepted_and_clamped(self, pool):
        documents = [np.array([0, 1, 2, 3]), np.array([5, -1, 6, 30])]
        pool.submit(0, documents)
        payload = collect_results(pool, [0])[0]
        reference = InferenceEngine(make_snapshot(0)).infer_ids([[0, 1, 2, 3], [5, 6]])
        np.testing.assert_allclose(decode_rows(payload), reference, rtol=0, atol=1e-12)

    def test_many_requests_fan_out_and_all_complete(self, pool):
        request_ids = list(range(12))
        for request_id in request_ids:
            pool.submit(request_id, [[request_id % 5, 1, 2]])
        results = collect_results(pool, request_ids)
        for payload in results.values():
            theta = decode_rows(payload)
            np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    def test_string_tokens_and_oov_ids_are_handled(self, pool):
        pool.submit(0, [["w0", "w1", "not-in-vocab"], [0, 999999]])
        payload = collect_results(pool, [0])[0]
        theta = decode_rows(payload)
        assert theta.shape[0] == 2
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    def test_worker_error_is_relayed_not_fatal(self, pool):
        pool.submit(0, [[None]])  # unencodable document
        kind, request_id, payload = pool.get_result(timeout=30.0)
        assert (kind, request_id) == ("error", 0)
        assert "error" in payload
        # The worker survived the bad request and keeps serving.
        pool.submit(1, [[0, 1]])
        collect_results(pool, [1])


class TestBufferIdentity:
    def test_all_workers_share_one_segment_zero_copy(self, pool):
        diagnostics = pool.diagnostics()
        assert len(diagnostics) == 2
        # THE acceptance criterion: one phi copy across N workers, asserted
        # via shared-memory buffer identity — every worker names the same
        # segment and its engine phi shares memory with the attached buffer.
        assert len({d["segment"] for d in diagnostics}) == 1
        assert all(d["zero_copy"] for d in diagnostics)
        assert {d["segment"] for d in diagnostics} == {pool.current.segment_name}


class TestHotSwap:
    def test_swap_broadcasts_and_reaps_old_generation(self, pool):
        pool.swap(make_snapshot(9), version=2)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and pool.live_generations != [2]:
            pool.poll_control()
            time.sleep(0.05)
        assert pool.live_generations == [2]
        pool.submit(0, [[0, 1, 2]])
        payload = collect_results(pool, [0])[0]
        assert payload["version"] == 2
        reference = InferenceEngine(make_snapshot(9)).infer_ids([[0, 1, 2]])
        np.testing.assert_allclose(decode_rows(payload), reference, rtol=0, atol=1e-12)

    def test_swap_to_same_version_is_ignored_by_workers(self, pool):
        pool.swap(make_snapshot(0), version=1)
        time.sleep(0.3)
        pool.poll_control()
        pool.submit(0, [[0]])
        assert collect_results(pool, [0])[0]["version"] == 1


class TestLifecycle:
    def test_dead_worker_is_recycled(self, pool):
        victim = pool._workers[0].process
        victim.terminate()
        victim.join(timeout=5)
        recycled = 0
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and not recycled:
            recycled = pool.check_workers()
            time.sleep(0.05)
        assert recycled == 1
        assert pool.recycled == 1
        assert pool.alive_workers() == 2
        request_ids = list(range(4))
        for request_id in request_ids:
            pool.submit(request_id, [[0, 1]])
        collect_results(pool, request_ids)

    def test_close_unlinks_every_segment_and_is_idempotent(self):
        before = created_segments()
        pool = WorkerPool(make_snapshot(0), num_workers=2)
        pool.swap(make_snapshot(1), version=1)
        assert len(created_segments()) == len(before) + 2
        stopped = pool.close()
        assert created_segments() == before
        assert len(stopped) == 2
        assert all("telemetry" in payload for payload in stopped)
        assert pool.close() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="only forked workers inherit the parent's heap",
    )
    def test_parent_heap_is_frozen_before_fork(self):
        # A frozen object is out of every collected generation, so no full
        # collection in a worker rewrites its header and unshares its page.
        inherited = [object()]
        pool = WorkerPool(make_snapshot(0), num_workers=1)
        try:
            assert not any(obj is inherited for obj in gc.get_objects())
        finally:
            pool.close()

    def test_submit_after_close_raises(self):
        pool = WorkerPool(make_snapshot(0), num_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, [[0]])
