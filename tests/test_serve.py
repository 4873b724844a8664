"""Serving tests (repro.serve): byte-identity, backpressure, deadlines.

The load-bearing guarantees:

* **Differential**: a deterministic service run — any arrival order, any
  batch cuts — produces responses byte-identical (canonical bytes) to
  one-at-a-time direct inference, for 100+ mixed-network requests.
* **Overload**: with a bounded queue and offered load beyond capacity,
  excess requests get explicit 429-style shed responses, every request
  gets *some* response, and the accepted ones are still byte-correct.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import obs
from repro.reliability import FaultInjector, RetryPolicy
from repro.reliability.faults import parse_faults
from repro.serve import (
    InferenceService,
    MicroBatcher,
    ModelRepository,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    build_requests,
    canonical_response_bytes,
    direct_response,
    percentile,
    run_load,
    summarize,
)

from repro.serve.models import execute_batch

SERVE_NETWORKS = ("alex", "cnnS")


@pytest.fixture(scope="module")
def repo() -> ModelRepository:
    """One calibrated tiny-scale repository shared by the whole module."""
    config = ServeConfig(scale="tiny", networks=SERVE_NETWORKS, use_cache=False)
    repository = ModelRepository(config.paper_config())
    for name in SERVE_NETWORKS:
        repository.entry(name)
    return repository


def det_config(**overrides) -> ServeConfig:
    # Closed-loop runs submit the whole workload up front, so the queue
    # must hold it — backpressure is exercised separately (TestOverload).
    kwargs = dict(
        scale="tiny", networks=SERVE_NETWORKS, deterministic=True,
        use_cache=False, queue_limit=256,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def drive(repo, config, requests, rate=None, seed=0, policy=None, injector=None):
    """Start a service, run one workload through it, stop it."""

    async def _go():
        service = InferenceService(
            config, repo=repo, policy=policy, injector=injector
        )
        await service.start()
        try:
            return await run_load(service, requests, rate=rate, seed=seed)
        finally:
            await service.stop()

    return asyncio.run(_go())


def canon(result) -> dict[str, bytes]:
    return {
        rid: canonical_response_bytes(resp)
        for rid, resp in result.responses.items()
    }


class TestDifferential:
    """Batched == unbatched, byte for byte (the PR's acceptance bar)."""

    N = 104  # >= 100 mixed-network requests, per the acceptance criterion

    @pytest.fixture(scope="class")
    def workload(self) -> list[ServeRequest]:
        return build_requests(self.N, networks=list(SERVE_NETWORKS), seed=11)

    @pytest.fixture(scope="class")
    def reference(self, repo, workload) -> dict[str, bytes]:
        """Direct one-at-a-time inference — no batching, no service."""
        return {
            request.id: canonical_response_bytes(direct_response(repo, request))
            for request in workload
        }

    def test_batched_matches_direct(self, repo, workload, reference):
        result = drive(repo, det_config(max_batch=7), workload)
        assert result.by_status() == {"ok": self.N}
        assert canon(result) == reference

    def test_arrival_order_and_cuts_do_not_matter(
        self, repo, workload, reference
    ):
        """Permuted arrivals + different batch boundaries, same bytes."""
        permuted = [
            workload[i] for r in range(3) for i in range(r, self.N, 3)
        ]
        assert [r.id for r in permuted] != [r.id for r in workload]
        result = drive(repo, det_config(max_batch=3), permuted)
        assert result.by_status() == {"ok": self.N}
        assert canon(result) == reference

    def test_batches_actually_formed(self, repo, workload):
        """The differential runs exercise real multi-request batches."""
        result = drive(repo, det_config(max_batch=7), workload[:28])
        sizes = {resp.batch_size for resp in result.responses.values()}
        assert max(sizes) == 7


class TestThresholdedDifferential:
    """Pruned activations (whole zero windows and channels) change no byte."""

    N = 24

    def test_thresholded_requests_match_direct(self, repo):
        """A mixed-network batch with thresholded requests, whose pruned
        activations leave zero columns in the conv patch matrices and
        zero FC inputs, answers byte-identically to direct inference."""
        requests = build_requests(
            self.N - 6, networks=list(SERVE_NETWORKS), seed=21
        ) + build_requests(
            6, networks=list(SERVE_NETWORKS), seed=22,
            thresholds={"conv1": 0.5, "conv2": 0.5},
        )
        requests = [
            dataclasses.replace(request, id=f"s{index:06d}")
            for index, request in enumerate(requests)
        ]
        result = drive(repo, det_config(max_batch=5), requests)
        assert result.by_status() == {"ok": self.N}
        assert canon(result) == {
            request.id: canonical_response_bytes(direct_response(repo, request))
            for request in requests
        }


class TestForwardDepth:
    """A batch that reads no logits stops its forward at the last conv
    layer; a batch with any classify request walks the whole network.
    Either way every reply equals the full, unbatched direct forward."""

    @staticmethod
    def batch(kinds, thresholds=None, probe=False):
        return [
            ServeRequest(
                id=f"d{index}", kind=kind, network="alex",
                image_seed=100 + index,
                image_index=0 if probe else None,
                thresholds=thresholds,
                backend="cnv2" if kind == "timing" and index % 2 else None,
            )
            for index, kind in enumerate(kinds)
        ]

    @pytest.mark.parametrize("probe", [False, True], ids=["seeded", "probe"])
    @pytest.mark.parametrize("thresholds", [None, {"conv1": 0.5, "conv2": 0.5}])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("classify", "zero_fraction", "timing", "timing"),
            ("zero_fraction", "timing", "timing"),
        ],
        ids=["with-classify", "conv-inputs-only"],
    )
    def test_coalesced_batch_matches_direct(self, repo, kinds, thresholds, probe):
        requests = self.batch(kinds, thresholds, probe)
        replies = execute_batch(repo, requests)
        assert [canonical_response_bytes(r) for r in replies] == [
            canonical_response_bytes(direct_response(repo, r)) for r in requests
        ]


class TestOverload:
    def test_bounded_queue_sheds_and_survives(self, repo):
        """Offered load >> capacity: explicit sheds, correct accepts."""
        config = ServeConfig(
            scale="tiny", networks=SERVE_NETWORKS, use_cache=False,
            max_batch=2, queue_limit=3, workers=1, linger_ms=1.0,
        )
        requests = build_requests(30, networks=list(SERVE_NETWORKS), seed=5)
        result = drive(repo, config, requests, rate=2000.0, seed=5)
        summary = summarize(result)

        # Every request got exactly one explicit response — nothing lost,
        # nothing buffered beyond the queue bound.
        assert summary["requests"] == 30
        assert (
            summary["ok"] + summary["shed"] + summary["timeout"]
            + summary["error"] == 30
        )
        assert summary["shed"] > 0, "overload never tripped the queue bound"
        assert summary["ok"] > 0, "overload starved every request"
        assert summary["error"] == 0

        for response in result.responses.values():
            if response.status == "shed":
                assert response.payload["queue_limit"] == 3
                doc = json.loads(canonical_response_bytes(response))
                assert doc["code"] == 429

        # The accepted requests still answer byte-identically to direct
        # inference — overload degrades capacity, never correctness.
        by_id = {request.id: request for request in requests}
        checked = 0
        for rid, response in result.responses.items():
            if response.status != "ok":
                continue
            expected = canonical_response_bytes(direct_response(repo, by_id[rid]))
            assert canonical_response_bytes(response) == expected
            checked += 1
        assert checked == summary["ok"]


class TestDeadlines:
    def test_expired_deadline_times_out_without_computing(self, repo):
        requests = build_requests(
            4, networks=["alex"], kinds=["classify"], seed=2,
            deadline_ms=0.001,
        )
        result = drive(repo, det_config(max_batch=2), requests)
        assert result.by_status() == {"timeout": 4}
        for response in result.responses.values():
            doc = json.loads(canonical_response_bytes(response))
            assert doc["code"] == 504
            assert "deadline" in doc["payload"]["error"]

    def test_generous_deadline_completes(self, repo):
        requests = build_requests(
            2, networks=["alex"], kinds=["classify"], seed=2,
            deadline_ms=60_000.0,
        )
        result = drive(repo, det_config(max_batch=2), requests)
        assert result.by_status() == {"ok": 2}


class TestFaultsAndRetries:
    def test_injected_batch_fault_is_retried(self, repo):
        """CNVLUTIN_FAULTS-style 'serve:batch=raise@0' costs one retry."""
        injector = FaultInjector(rules=parse_faults("serve:batch=raise@0"))
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, backoff_max=0.0, seed=7
        )
        requests = build_requests(
            2, networks=["alex"], kinds=["classify"], seed=3
        )
        before = obs.get_metrics().snapshot()["counters"].get("serve.retries", 0)
        result = drive(
            repo, det_config(max_batch=2), requests,
            policy=policy, injector=injector,
        )
        assert result.by_status() == {"ok": 2}
        after = obs.get_metrics().snapshot()["counters"]["serve.retries"]
        assert after == before + 1

    def test_exhausted_retries_become_error_responses(self, repo):
        injector = FaultInjector(
            rules=parse_faults("serve:batch=raise@0;serve:batch=raise@1")
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, backoff_max=0.0, seed=7
        )
        requests = build_requests(
            2, networks=["alex"], kinds=["classify"], seed=3
        )
        result = drive(
            repo, det_config(max_batch=2), requests,
            policy=policy, injector=injector,
        )
        assert result.by_status() == {"error": 2}
        for response in result.responses.values():
            assert "InjectedFault" in response.payload["error"]

    def test_unknown_network_is_an_error_not_a_crash(self, repo):
        request = ServeRequest(id="x", kind="classify", network="nosuch")
        result = drive(repo, det_config(), [request])
        response = result.responses["x"]
        assert response.status == "error"
        assert "unknown network" in response.payload["error"]


class TestServeMetrics:
    def test_serve_namespaces_populated(self, repo):
        requests = build_requests(6, networks=list(SERVE_NETWORKS), seed=9)
        drive(repo, det_config(max_batch=3), requests)
        snapshot = obs.get_metrics().snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"] >= 6
        assert counters["serve.batches"] >= 2
        assert counters["serve.completed"] >= 6
        histograms = snapshot["histograms"]
        assert histograms["serve.batch_size"]["count"] >= 2
        assert histograms["serve.batch_size"]["max"] >= 3
        assert histograms["serve.latency_ms"]["count"] >= 6
        assert "serve.queue_depth" in snapshot["gauges"]

    def test_batch_span_emitted(self, repo, tmp_path):
        obs.enable_tracing()
        try:
            requests = build_requests(
                3, networks=["alex"], kinds=["classify"], seed=13
            )
            drive(repo, det_config(max_batch=3), requests)
            trace_path = tmp_path / "serve-trace.json"
            obs.write_chrome_trace(trace_path)
        finally:
            obs.disable_tracing()
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "serve.batch" in names
        assert "engine.run_stack" in names


class TestMicroBatcher:
    """Pure batcher logic — no service, no models."""

    @staticmethod
    def entry(rid: str, network: str = "alex", thresholds=None):
        request = ServeRequest(
            id=rid, kind="classify", network=network, thresholds=thresholds
        )
        return SimpleNamespace(request=request, future=None)

    def test_cuts_full_batch_at_max(self):
        batcher = MicroBatcher(max_batch=3, linger_s=1.0)
        assert batcher.add(self.entry("a"), now=0.0) is None
        assert batcher.add(self.entry("b"), now=0.0) is None
        batch = batcher.add(self.entry("c"), now=0.0)
        assert batch is not None and batch.reason == "full"
        assert [e.request.id for e in batch.entries] == ["a", "b", "c"]

    def test_linger_deadline_cuts_partial_batch(self):
        batcher = MicroBatcher(max_batch=8, linger_s=0.010)
        batcher.add(self.entry("a"), now=0.0)
        assert batcher.due(now=0.005) == []
        assert batcher.next_due(now=0.005) == pytest.approx(0.005)
        due = batcher.due(now=0.011)
        assert len(due) == 1 and due[0].reason == "linger"

    def test_deterministic_mode_ignores_the_clock(self):
        batcher = MicroBatcher(max_batch=2, linger_s=0.001, deterministic=True)
        batcher.add(self.entry("a"), now=0.0)
        assert batcher.due(now=999.0) == []
        assert batcher.next_due(now=999.0) is None
        flushed = batcher.flush()
        assert len(flushed) == 1 and flushed[0].reason == "flush"

    def test_groups_by_network_and_thresholds(self):
        batcher = MicroBatcher(max_batch=2, linger_s=1.0)
        assert batcher.add(self.entry("a", "alex"), now=0.0) is None
        assert batcher.add(self.entry("b", "cnnS"), now=0.0) is None
        batch = batcher.add(self.entry("c", "alex"), now=0.0)
        assert batch is not None and batch.network == "alex"
        thresholded = batcher.add(
            self.entry("d", "cnnS", thresholds={"conv1": 0.5}), now=0.0
        )
        assert thresholded is None  # distinct group from plain cnnS
        remaining = batcher.flush()
        assert [len(b.entries) for b in remaining] == [1, 1]
        assert {b.thresholds_key for b in remaining} == {
            (), (("conv1", 0.5),)
        }


class TestRequestSchema:
    def test_json_roundtrip(self):
        request = ServeRequest(
            id="q1", kind="timing", network="alex", image_seed=42,
            thresholds={"conv1": 0.25}, deadline_ms=100.0,
        )
        assert ServeRequest.from_json(request.to_json()) == request

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest.from_json(
                '{"id": "a", "kind": "classify", "network": "alex", "bogus": 1}'
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest(id="a", kind="meditate", network="alex")

    def test_canonical_bytes_exclude_schedule_metadata(self):
        response = ServeResponse(
            id="a", status="ok", kind="classify", network="alex",
            payload={"top1": 3}, latency_ms=12.5, batch_size=4,
        )
        doc = json.loads(canonical_response_bytes(response))
        assert doc == {
            "id": "a", "status": "ok", "code": 200, "kind": "classify",
            "network": "alex", "payload": {"top1": 3},
        }

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101)


class TestTcpServer:
    def test_json_lines_roundtrip(self, tmp_path):
        """`repro-serve serve` answers pipelined JSON lines and exits."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["CNVLUTIN_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.cli", "serve",
                "--port", "0", "--max-requests", "2",
                "--scale", "tiny", "--networks", "alex", "--no-cache",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split(":")[-1].split()[0])
            deadline = time.monotonic() + 60
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.settimeout(30)
                lines = b"".join(
                    json.dumps(
                        {"id": rid, "kind": "classify", "network": "alex",
                         "image_seed": seed}
                    ).encode() + b"\n"
                    for rid, seed in (("t0", 1), ("t1", 2))
                )
                sock.sendall(lines)
                sock.shutdown(socket.SHUT_WR)
                raw = b""
                while raw.count(b"\n") < 2 and time.monotonic() < deadline:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            docs = [json.loads(line) for line in raw.splitlines() if line]
            assert {doc["id"] for doc in docs} == {"t0", "t1"}
            assert all(doc["status"] == "ok" for doc in docs)
            assert all(isinstance(doc["payload"]["top1"], int) for doc in docs)
            proc.wait(timeout=60)
            assert proc.returncode == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
