"""Tests for the asyncio HTTP serving tier (`repro.service.http`)."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

import repro
from repro.api import LDA
from repro.serving.infer import InferenceEngine
from repro.serving.server import TopicServer
from repro.service import ServiceConfig, TopicService, parse_http_address
from repro.streaming.registry import ModelRegistry

from test_service_shm import make_snapshot


def http_get(url, timeout=30.0):
    """(status, headers, body bytes) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def http_post(url, payload, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def service():
    config = ServiceConfig(port=0, num_workers=2, poll_interval=0.05, seed=0)
    with TopicService(make_snapshot(0), config=config).start() as started:
        yield started


class TestParseHttpAddress:
    def test_accepted_spellings(self):
        assert parse_http_address("0.0.0.0:8080") == ("0.0.0.0", 8080)
        assert parse_http_address("8080") == ("127.0.0.1", 8080)
        assert parse_http_address(8080) == ("127.0.0.1", 8080)
        assert parse_http_address(("::1", 9000)) == ("::1", 9000)
        assert parse_http_address(":8080") == ("127.0.0.1", 8080)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_http_address("no-port-here")


class TestEndpoints:
    def test_infer_matches_in_process_server(self, service):
        documents = [[0, 1, 2, 3], [5, 6]]
        status, body = http_post(service.url + "/infer", {"documents": documents})
        assert status == 200
        reference = TopicServer(InferenceEngine(make_snapshot(0))).infer_batch(
            documents
        )
        # EM fold-in is deterministic: HTTP serving over the shared buffer
        # returns exactly what an in-process server over the same phi does.
        np.testing.assert_allclose(np.array(body["theta"]), reference)
        assert body["version"] == 0
        assert body["num_topics"] == 4

    def test_infer_accepts_string_tokens(self, service):
        status, body = http_post(
            service.url + "/infer", {"documents": [["w0", "w1", "never-seen"]]}
        )
        assert status == 200
        np.testing.assert_allclose(np.array(body["theta"]).sum(axis=1), 1.0)

    def test_infer_validates_body(self, service):
        for payload in ({}, {"documents": []}, {"documents": "nope"},
                        {"documents": [{"a": 1}]}, {"documents": [[1.5]]}):
            status, body = http_post(service.url + "/infer", payload)
            assert status == 400, payload
            assert "error" in body

    def test_method_and_route_errors(self, service):
        assert http_get(service.url + "/infer")[0] == 405
        assert http_post(service.url + "/healthz", {})[0] == 405
        assert http_get(service.url + "/no-such-route")[0] == 404

    def test_top_topics(self, service):
        status, _, body = http_get(service.url + "/top-topics?words=3")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["topics"]) == 4
        assert all(len(topic) == 3 for topic in payload["topics"])
        assert http_get(service.url + "/top-topics?words=-1")[0] == 400

    def test_healthz(self, service):
        status, _, body = http_get(service.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["workers_alive"] == 2

    def test_stats_after_traffic(self, service):
        http_post(service.url + "/infer", {"documents": [[0, 1]]})
        status, _, body = http_get(service.url + "/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["requests"] >= 1
        assert payload["workers"] == 2
        assert payload["in_flight"] == 0
        assert set(payload["latency_ms"]) == {"p50_ms", "p95_ms", "p99_ms"}
        assert payload["latency_ms"]["p50_ms"] > 0

    def test_diagnostics_prove_single_copy(self, service):
        infos = service.diagnostics()
        assert len(infos) == 2
        assert len({info["segment"] for info in infos}) == 1
        assert all(info["zero_copy"] for info in infos)


def raw_exchange(url, request, timeout=30.0):
    """Send raw request bytes; return everything read until the server closes."""
    parts = urlsplit(url)
    address = (parts.hostname, parts.port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedRequests:
    """Requests the parser rejects get a JSON error and a close, never b''."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"POST /infer HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", 413),
            (b"POST /infer HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /infer HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=[
            "body-too-large",
            "negative-length",
            "non-integer-length",
            "malformed-request-line",
        ],
    )
    def test_rejected_with_status_and_close(self, service, request_bytes, status):
        response = raw_exchange(service.url, request_bytes)
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} "), response
        assert "Connection: close" in lines[1:]
        assert "error" in json.loads(body)


class TestMetrics:
    @staticmethod
    def parse_prometheus(text):
        """Strict-enough 0.0.4 parse: returns {name: value} for samples."""
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part and value_part, f"malformed sample line: {line!r}"
            float(value_part)  # must parse as a number
            name = name_part.split("{", 1)[0]
            assert name.replace("_", "").replace(":", "").isalnum(), line
            samples[name_part] = float(value_part)
        return samples

    def test_metrics_is_prometheus_0_0_4(self, service):
        http_post(service.url + "/infer", {"documents": [[0, 1, 2]]})
        status, headers, body = http_get(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        samples = self.parse_prometheus(body.decode("utf-8"))
        names = {key.split("{", 1)[0] for key in samples}
        assert "service_requests" in names
        assert "service_workers_alive" in names


class TestAdmissionAndTimeouts:
    def test_saturated_service_sheds_load_with_503(self):
        config = ServiceConfig(
            port=0, num_workers=1, max_pending=0, poll_interval=0.05
        )
        with TopicService(make_snapshot(0), config=config).start() as service:
            status, body = http_post(service.url + "/infer", {"documents": [[0]]})
            assert status == 503
            assert body["error"] == "overloaded"
            status, _, raw = http_get(service.url + "/stats")
            assert json.loads(raw)["rejected"] >= 1

    def test_slow_request_times_out_with_504(self):
        config = ServiceConfig(
            port=0,
            num_workers=1,
            request_timeout=1e-4,
            num_iterations=300,
            poll_interval=0.05,
        )
        with TopicService(make_snapshot(0), config=config).start() as service:
            documents = [[i % 30 for i in range(200)] for _ in range(20)]
            status, body = http_post(service.url + "/infer", {"documents": documents})
            assert status == 504
            assert body["error"] == "timeout"
            status, _, raw = http_get(service.url + "/stats")
            assert json.loads(raw)["timed_out"] >= 1
            # The late worker result is dropped; the service stays healthy.
            assert http_get(service.url + "/healthz")[0] == 200


class TestHotSwapUnderLoad:
    def test_publish_during_concurrent_load_is_seamless(self):
        registry = ModelRegistry()
        first = registry.publish(make_snapshot(0))
        config = ServiceConfig(port=0, num_workers=2, poll_interval=0.05)
        with TopicService(registry=registry, config=config).start() as service:
            assert service.served_version == first.version
            responses = []
            failures = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        status, body = http_post(
                            service.url + "/infer",
                            {"documents": [[0, 1, 2], [3, 4]]},
                        )
                    except Exception as error:  # noqa: BLE001 - test harness
                        failures.append(repr(error))
                        return
                    responses.append((status, body))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.4)
            second = registry.publish(make_snapshot(9))
            # Keep hammering until a response arrives on the new version.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if any(
                    response[1].get("version") == second.version
                    for response in responses
                    if response[0] == 200
                ):
                    break
                time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

            assert not failures, failures
            assert responses
            # Satellite criterion: zero request errors across the swap...
            assert {status for status, _ in responses} == {200}
            # ...every response from exactly the old or the new version...
            versions = {body["version"] for _, body in responses}
            assert versions <= {first.version, second.version}
            # ...the new version actually took over...
            assert second.version in versions
            assert service.served_version == second.version
            # ...and every θ row is a distribution.
            for _, body in responses:
                np.testing.assert_allclose(
                    np.array(body["theta"]).sum(axis=1), 1.0, rtol=1e-9
                )
            status, _, raw = http_get(service.url + "/stats")
            stats = json.loads(raw)
            assert stats["hot_swaps"] == 1
            assert stats["served_version"] == second.version


class TestFacadeIntegration:
    def test_lda_serve_http(self, small_corpus):
        model = LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=2)
        with model.serve(http=0, num_workers=1) as service:
            assert isinstance(service, TopicService)
            status, body = http_post(service.url + "/infer", {"documents": [[0, 1]]})
            assert status == 200
            assert len(body["theta"][0]) == 5

    def test_service_requires_snapshot_or_registry(self):
        with pytest.raises(ValueError, match="snapshot or a registry"):
            TopicService()

    def test_empty_registry_is_rejected(self):
        with pytest.raises(ValueError, match="no published version"):
            TopicService(registry=ModelRegistry())


class TestLifecycle:
    def test_close_is_idempotent_and_double_start_rejected(self):
        service = TopicService(
            make_snapshot(0), config=ServiceConfig(num_workers=1)
        ).start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()
        service.close()
        service.close()


def _children(pid):
    """PIDs whose parent is ``pid`` (from ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


def _shm_segments():
    return {entry.name for entry in Path("/dev/shm").glob("psm_*")}


@pytest.mark.skipif(
    not (Path("/proc").is_dir() and Path("/dev/shm").is_dir()),
    reason="needs /proc and /dev/shm",
)
class TestSigterm:
    def test_sigterm_stops_workers_and_unlinks_the_segment(self, tmp_path):
        model = make_snapshot(0).save(tmp_path / "model.npz")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        before = _shm_segments()
        host = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--http", "127.0.0.1:0", "--http-workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        children = []
        try:
            banner = host.stdout.readline()
            url = re.search(r"on (http://\S+)", banner)
            assert url, banner
            assert http_get(url.group(1) + "/healthz")[0] == 200
            children = _children(host.pid)
            # Two pool workers plus the multiprocessing resource tracker.
            assert len(children) >= 2, children
            assert _shm_segments() - before, "the pool shares no segment"
            host.send_signal(signal.SIGTERM)
            returncode = host.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(map(_alive, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in children if _alive(pid)]
            assert not _shm_segments() - before
            assert returncode == 0
        finally:
            # Never leak a failed run's processes or segment into the suite.
            for pid in [host.pid, *children]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            host.wait(timeout=30)
            host.stdout.close()
            for name in _shm_segments() - before:
                (Path("/dev/shm") / name).unlink(missing_ok=True)

