"""Tests for ``repro.obs``: request tracing across the serving stack.

The unit tests exercise the span machinery, sinks, and the per-tier
breakdown in isolation. The integration tests drive a real
:class:`MetasearchService` — in-process and with the multiprocess
selection pool — and a real gateway over TCP, asserting the span tree
stays connected (one trace id, every parent pointer resolving) across
the thread, event-loop, and process boundaries.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.gateway.client import GatewayClient
from repro.gateway.gateway import GatewayConfig, MetasearchGateway
from repro.obs import (
    MultiTraceSink,
    RingBufferTraceSink,
    StderrTraceSink,
    Tracer,
    collecting_trace,
    current_trace_id,
    format_tier_breakdown,
    load_spans,
    replay_spans,
    span,
    tier_breakdown,
    trace_active,
    wire_context,
)
from repro.service.resilience import RetryPolicy
from repro.service.server import MetasearchService, ServiceConfig


def make_tracer(capacity: int = 64, **kwargs):
    sink = RingBufferTraceSink(capacity, **kwargs)
    return Tracer(sink), sink


# -- span machinery ------------------------------------------------------------


class TestSpanMachinery:
    def test_span_is_noop_without_active_trace(self):
        assert not trace_active()
        assert current_trace_id() is None
        with span("orphan") as opened:
            # The shared null object: accepts the full span API,
            # records nothing.
            opened.set_outcome("degraded")
            opened.set_fingerprint("abc")
            opened.annotate(key="value")
        assert current_trace_id() is None

    def test_root_span_id_is_trace_id(self):
        tracer, sink = make_tracer()
        with span("root", tracer=tracer):
            assert trace_active()
            trace_id = current_trace_id()
        (record,) = sink.recent()
        assert record["trace_id"] == trace_id
        assert record["span_id"] == trace_id
        assert record["parent_id"] is None
        assert record["outcome"] == "ok"
        assert record["wall_ms"] >= 0.0

    def test_explicit_tracer_never_nests_a_second_root(self):
        # Under an active trace, span() opens a child of the open span
        # on the active trace's sink, whatever tracer it is given.
        tracer_a, sink_a = make_tracer()
        tracer_b, sink_b = make_tracer()
        with span("root", tracer=tracer_a):
            trace_id = current_trace_id()
            with span("x", tracer=tracer_b):
                assert current_trace_id() == trace_id
        records = {r["name"]: r for r in sink_a.recent()}
        assert set(records) == {"root", "x"}
        assert records["x"]["trace_id"] == trace_id
        assert records["x"]["parent_id"] == records["root"]["span_id"]
        assert sink_b.recent() == []

    def test_nested_spans_parent_correctly(self):
        tracer, sink = make_tracer()
        with span("root", tracer=tracer):
            with span("child"):
                with span("grandchild"):
                    pass
            with span("sibling"):
                pass
        records = {r["name"]: r for r in sink.recent()}
        assert len(records) == 4
        root = records["root"]
        assert records["child"]["parent_id"] == root["span_id"]
        assert (
            records["grandchild"]["parent_id"]
            == records["child"]["span_id"]
        )
        assert records["sibling"]["parent_id"] == root["span_id"]
        assert {r["trace_id"] for r in sink.recent()} == {
            root["trace_id"]
        }

    def test_exception_sets_error_outcome(self):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError):
            with span("root", tracer=tracer):
                with span("failing"):
                    raise RuntimeError("boom")
        records = {r["name"]: r for r in sink.recent()}
        assert records["failing"]["outcome"] == "error"
        assert records["root"]["outcome"] == "error"

    def test_explicit_outcome_survives_exception(self):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError):
            with span("root", tracer=tracer):
                with span("shedding") as opened:
                    opened.set_outcome("shed")
                    raise RuntimeError("overloaded")
        records = {r["name"]: r for r in sink.recent()}
        assert records["shedding"]["outcome"] == "shed"

    def test_fingerprint_and_attrs_in_record(self):
        tracer, sink = make_tracer()
        with span("root", fingerprint="deadbeef", tracer=tracer, phase="x"):
            with span("child") as child:
                child.set_fingerprint("cafebabe")
                child.annotate(batch=3)
        records = {r["name"]: r for r in sink.recent()}
        assert records["root"]["fingerprint"] == "deadbeef"
        assert records["root"]["attrs"] == {"phase": "x"}
        assert records["child"]["fingerprint"] == "cafebabe"
        assert records["child"]["attrs"] == {"batch": 3}

    def test_records_are_json_able(self):
        tracer, sink = make_tracer()
        with span("root", tracer=tracer):
            with span("child"):
                pass
        for record in sink.recent():
            json.dumps(record)


class TestProcessBoundary:
    def test_wire_context_round_trip(self):
        # The pool's pipe protocol in miniature: serialize the parent
        # position, collect spans "in the worker", replay them back.
        tracer, sink = make_tracer()
        with span("root", tracer=tracer):
            with span("pool.dispatch"):
                wire = wire_context()
                assert wire is not None
                parent_trace_id = current_trace_id()
        assert wire["trace_id"] == parent_trace_id

        # Worker side: no ambient trace, only the wire context.
        assert not trace_active()
        with collecting_trace(wire) as records:
            assert trace_active()
            assert current_trace_id() == parent_trace_id
            with span("pool.worker"):
                with span("worker.inner"):
                    pass
        assert not trace_active()
        assert [r["name"] for r in records] == [
            "worker.inner",
            "pool.worker",
        ]
        worker = next(r for r in records if r["name"] == "pool.worker")
        assert worker["trace_id"] == parent_trace_id
        assert worker["parent_id"] == wire["parent_id"]

        # Parent side again: replay lands the records in the sink.
        with span("second", tracer=tracer):
            replay_spans(records)
        names = [r["name"] for r in sink.recent()]
        assert "pool.worker" in names and "worker.inner" in names

    def test_wire_context_is_none_without_trace(self):
        assert wire_context() is None

    def test_collecting_trace_without_wire_collects_nothing(self):
        with collecting_trace(None) as records:
            assert not trace_active()
            with span("ignored"):
                pass
        assert records == []

    def test_replay_without_active_trace_is_noop(self):
        replay_spans([{"name": "stray"}])  # must not raise


# -- sinks ---------------------------------------------------------------------


class TestRingBufferSink:
    def test_keeps_most_recent_and_counts_drops(self):
        drops = []
        sink = RingBufferTraceSink(3, on_drop=lambda: drops.append(1))
        for index in range(5):
            sink.emit({"name": f"s{index}"})
        assert [r["name"] for r in sink.recent()] == ["s2", "s3", "s4"]
        assert sink.dropped == 2
        assert len(drops) == 2
        assert len(sink) == 3

    def test_recent_limit_and_copies(self):
        sink = RingBufferTraceSink(8)
        for index in range(4):
            sink.emit({"name": f"s{index}"})
        tail = sink.recent(2)
        assert [r["name"] for r in tail] == ["s2", "s3"]
        tail[0]["name"] = "mutated"
        assert sink.recent(2)[0]["name"] == "s2"

    def test_clear(self):
        sink = RingBufferTraceSink(4)
        sink.emit({"name": "s"})
        sink.clear()
        assert sink.recent() == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferTraceSink(0)


class TestStreamAndFileSinks:
    def test_stderr_sink_writes_ndjson(self):
        stream = io.StringIO()
        sink = StderrTraceSink(stream)
        sink.emit({"name": "a", "wall_ms": 1.0})
        sink.emit({"name": "b", "wall_ms": 2.0})
        lines = stream.getvalue().strip().split("\n")
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_multi_sink_fans_out(self):
        ring = RingBufferTraceSink(4)
        stream = io.StringIO()
        multi = MultiTraceSink(ring, StderrTraceSink(stream))
        multi.emit({"name": "a"})
        assert [r["name"] for r in ring.recent()] == ["a"]
        assert json.loads(stream.getvalue())["name"] == "a"


# -- the per-tier breakdown ----------------------------------------------------


class TestTierBreakdown:
    RECORDS = [
        {"name": "gateway.request", "wall_ms": 100.0},
        {"name": "service.serve", "wall_ms": 90.0},
        {"name": "probe.onco", "wall_ms": 30.0},
        {"name": "probe.cardio", "wall_ms": 50.0},
        {"name": "service.analyze", "wall_ms": 1.0},
        {"name": "", "wall_ms": 5.0},  # skipped: unnamed
        {"name": "service.cache"},  # skipped: no wall
    ]

    def test_collapses_probe_names_and_orders_by_total(self):
        breakdown = tier_breakdown(self.RECORDS)
        assert list(breakdown) == [
            "gateway.request",
            "service.serve",
            "probe.*",
            "service.analyze",
        ]
        probes = breakdown["probe.*"]
        assert probes["count"] == 2
        assert probes["total_ms"] == pytest.approx(80.0)
        assert probes["mean_ms"] == pytest.approx(40.0)
        assert probes["p50_ms"] == pytest.approx(30.0)
        assert probes["max_ms"] == pytest.approx(50.0)

    def test_percentiles_are_nearest_rank(self):
        # The same rule as repro.bench.percentile and the metrics
        # histograms: p50 of four spans is the second, not the third.
        records = [
            {"name": "service.serve", "wall_ms": wall}
            for wall in (40.0, 10.0, 30.0, 20.0)
        ]
        stats = tier_breakdown(records)["service.serve"]
        assert stats["p50_ms"] == 20.0
        assert stats["p95_ms"] == 40.0

    def test_format_renders_every_tier(self):
        table = format_tier_breakdown(tier_breakdown(self.RECORDS))
        lines = table.split("\n")
        assert lines[0].split()[0] == "span"
        for name in ("gateway.request", "probe.*", "service.analyze"):
            assert any(line.startswith(name) for line in lines)

    def test_format_empty(self):
        assert format_tier_breakdown({}) == "(no spans)"

    def test_load_spans_skips_blank_lines(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        path.write_text('{"name": "a"}\n\n{"name": "b"}\n')
        assert [r["name"] for r in load_spans(str(path))] == ["a", "b"]


# -- ServiceConfig knobs -------------------------------------------------------


class TestServiceConfigTrace:
    def test_default_reads_env_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert ServiceConfig().trace is False

    @pytest.mark.parametrize(
        "raw, trace, stderr",
        [("1", True, False), ("0", False, False), ("stderr", True, True)],
    )
    def test_env_values(self, monkeypatch, raw, trace, stderr):
        monkeypatch.setenv("REPRO_TRACE", raw)
        config = ServiceConfig()
        assert config.trace is trace
        assert config.trace_stderr is stderr

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "yes-please")
        with pytest.raises(ConfigurationError):
            ServiceConfig()

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert ServiceConfig(trace=False).trace is False

    def test_bad_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(trace_buffer=0)


# -- service integration -------------------------------------------------------


def make_service(trained_metasearcher, trace=True, **config_kwargs):
    config = ServiceConfig(
        max_workers=4,
        batch_size=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        trace=trace,
        **config_kwargs,
    )
    return MetasearchService(
        trained_metasearcher, config=config, sleeper=lambda s: None
    )


def probing_text(trained_metasearcher, health_queries) -> str:
    """A query that really probes at certainty=1.0 (probing is
    deterministic and content-keyed, so the throwaway service here
    replays the same probes the test's own service will see)."""
    with make_service(
        trained_metasearcher, trace=False, cache_enabled=False
    ) as service:
        for query in health_queries[40:]:
            text = " ".join(query.terms)
            if service.serve(text, k=2, certainty=1.0).probes >= 1:
                return text
    raise AssertionError("testbed produced no probing query")


def spans_by_name(records):
    by_name: dict[str, list[dict]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)
    return by_name


def assert_connected(records):
    """Every record shares one trace id and every parent resolves."""
    trace_ids = {r["trace_id"] for r in records}
    assert len(trace_ids) == 1
    ids = {r["span_id"] for r in records}
    roots = [r for r in records if r["parent_id"] is None]
    assert len(roots) == 1
    (root,) = roots
    assert root["span_id"] == root["trace_id"]
    for record in records:
        if record["parent_id"] is not None:
            assert record["parent_id"] in ids
    return root


class TestServiceTracing:
    def test_direct_serve_builds_connected_tree(
        self, trained_metasearcher, health_queries
    ):
        text = probing_text(trained_metasearcher, health_queries)
        with make_service(trained_metasearcher) as service:
            answer = service.serve(text, k=2, certainty=1.0)
            records = service.trace_spans()
        assert answer.selected
        root = assert_connected(records)
        assert root["name"] == "service.serve"
        names = spans_by_name(records)
        assert "service.analyze" in names
        assert "service.cache" in names
        # Direct-serve spans carry the model fingerprint at the root.
        assert root["fingerprint"] == service.state_fingerprint

    def test_in_process_probe_spans_are_children_of_serve(
        self, trained_metasearcher, health_queries
    ):
        # A one-probe round runs on the calling thread and a wider one
        # on the executor's pool; both open their spans directly under
        # the request's serve span. These queries make rounds of one
        # probe and of two (batch_size=2).
        with make_service(
            trained_metasearcher, pool_workers=0, cache_enabled=False
        ) as service:
            answers = [
                service.serve(" ".join(q.terms), k=2, certainty=1.0)
                for q in health_queries[40:46]
            ]
            records = service.trace_spans()
        assert max(a.probes for a in answers) >= 2
        by_trace: dict[str, list[dict]] = {}
        for record in records:
            by_trace.setdefault(record["trace_id"], []).append(record)
        assert len(by_trace) == len(answers)
        for answer, trace in zip(answers, by_trace.values()):
            root = assert_connected(trace)
            probes = [r for r in trace if r["name"].startswith("probe.")]
            assert len(probes) == answer.probes
            for probe in probes:
                assert probe["parent_id"] == root["span_id"]

    def test_cache_hit_outcome(self, trained_metasearcher, health_queries):
        text = " ".join(health_queries[42].terms)
        with make_service(trained_metasearcher) as service:
            service.serve(text, k=2, certainty=0.9)
            service.serve(text, k=2, certainty=0.9)
            records = service.trace_spans()
        cache_spans = spans_by_name(records)["service.cache"]
        assert [s["outcome"] for s in cache_spans] == ["miss", "hit"]

    def test_trace_spans_empty_when_disabled(
        self, trained_metasearcher, health_queries
    ):
        text = " ".join(health_queries[41].terms)
        with make_service(trained_metasearcher, trace=False) as service:
            service.serve(text, k=2, certainty=0.9)
            assert service.tracer is None
            assert service.trace_spans() == []

    def test_trace_spans_read_the_ring_under_stderr(
        self, trained_metasearcher, health_queries, capsys
    ):
        # The tracer writes to the ring and to stderr; trace_spans
        # reads the ring, which holds every span stderr received.
        text = " ".join(health_queries[41].terms)
        with make_service(trained_metasearcher, trace_stderr=True) as service:
            service.serve(text, k=2, certainty=0.9)
            records = service.trace_spans()
        streamed = [
            json.loads(line)["span_id"]
            for line in capsys.readouterr().err.splitlines()
        ]
        assert records
        assert [record["span_id"] for record in records] == streamed

    def test_instrument_keyset_is_trace_invariant(
        self, trained_metasearcher, health_queries
    ):
        # The obs instruments are pre-registered whether or not tracing
        # is on: enabling it must never change the metrics key-set
        # (the serving layer's stable-key-set convention).
        text = " ".join(health_queries[41].terms)
        snapshots = {}
        for trace in (False, True):
            with make_service(trained_metasearcher, trace=trace) as service:
                service.serve(text, k=2, certainty=0.9)
                snapshots[trace] = service.snapshot()
        for snapshot in snapshots.values():
            counters = snapshot["counters"]
            assert "trace_spans_total" in counters
            assert "trace_spans_dropped" in counters
            assert set(snapshot["trace"]) == {"enabled", "buffered"}
        assert set(snapshots[False]["counters"]) == set(
            snapshots[True]["counters"]
        )
        assert snapshots[False]["trace"]["enabled"] is False
        assert snapshots[True]["trace"]["enabled"] is True
        assert snapshots[True]["counters"]["trace_spans_total"] > 0
        assert (
            snapshots[True]["trace"]["buffered"]
            == snapshots[True]["counters"]["trace_spans_total"]
        )
        assert snapshots[False]["counters"]["trace_spans_total"] == 0

    def test_tracing_does_not_change_answers(
        self, trained_metasearcher, health_queries
    ):
        texts = [" ".join(q.terms) for q in health_queries[40:46]]
        with make_service(
            trained_metasearcher, trace=False, cache_enabled=False
        ) as plain:
            expected = [
                plain.serve(text, k=2, certainty=1.0).selected
                for text in texts
            ]
        with make_service(
            trained_metasearcher, trace=True, cache_enabled=False
        ) as traced:
            got = [
                traced.serve(text, k=2, certainty=1.0).selected
                for text in texts
            ]
        assert got == expected

    def test_ring_buffer_eviction_feeds_dropped_counter(
        self, trained_metasearcher, health_queries
    ):
        text = probing_text(trained_metasearcher, health_queries)
        with make_service(
            trained_metasearcher, trace_buffer=2, cache_enabled=False
        ) as service:
            service.serve(text, k=2, certainty=1.0)
            snapshot = service.snapshot()
        assert snapshot["trace"]["buffered"] == 2
        assert snapshot["counters"]["trace_spans_dropped"] > 0


class TestPoolTracing:
    def test_span_tree_survives_the_process_boundary(
        self, trained_metasearcher, health_queries
    ):
        text = probing_text(trained_metasearcher, health_queries)
        with make_service(
            trained_metasearcher,
            pool_workers=1,
            cache_enabled=False,
        ) as service:
            answer = service.serve(text, k=2, certainty=1.0)
            records = service.trace_spans()
        assert answer.selected
        root = assert_connected(records)
        assert root["name"] == "service.serve"
        names = spans_by_name(records)
        assert "pool.dispatch" in names
        # The worker-side span crossed the pipe and was replayed into
        # the parent trace, parented under the dispatch span.
        (worker,) = names["pool.worker"]
        (dispatch,) = names["pool.dispatch"]
        assert worker["trace_id"] == root["trace_id"]
        assert worker["parent_id"] == dispatch["span_id"]
        assert worker["fingerprint"] == service.state_fingerprint
        # Probe rounds run parent-side (the pool's callback protocol),
        # inside the dispatch span.
        assert answer.probes > 0
        probe_records = [
            r for r in records if r["name"].startswith("probe.")
        ]
        assert probe_records
        for probe in probe_records:
            assert probe["parent_id"] == dispatch["span_id"]

    def test_untraced_pool_payloads_carry_no_span_fields(
        self, trained_metasearcher, health_queries
    ):
        # With tracing off the wire payloads stay byte-identical to the
        # pre-tracing format: no "trace" key out, no "spans" key back.
        from repro.service.pool import PoolRequest

        request = PoolRequest(
            query=health_queries[41],
            k=2,
            threshold=0.9,
            metric_name="P1",
            fingerprint="f",
        )
        assert "trace" not in request.wire()
        text = " ".join(health_queries[41].terms)
        with make_service(
            trained_metasearcher,
            trace=False,
            pool_workers=1,
            cache_enabled=False,
        ) as service:
            answer = service.serve(text, k=2, certainty=1.0)
        assert answer.selected


class TestGatewayTracing:
    def _run_gateway_search(
        self, service, texts, *, trace_limit=256, **search_kwargs
    ):
        async def scenario():
            gateway = MetasearchGateway(service, GatewayConfig())
            await gateway.start()
            async with gateway:
                client = await GatewayClient.connect(
                    "127.0.0.1", gateway.port
                )
                try:
                    results = [
                        await client.search(text, **search_kwargs)
                        for text in texts
                    ]
                    trace = await client.trace(limit=trace_limit)
                    return results, trace
                finally:
                    await client.close()

        return asyncio.run(scenario())

    def test_gateway_request_produces_connected_tree(
        self, trained_metasearcher, health_queries
    ):
        text = probing_text(trained_metasearcher, health_queries)
        with make_service(
            trained_metasearcher, cache_enabled=False
        ) as service:
            (result,), trace = self._run_gateway_search(
                service, [text], k=2, certainty=1.0
            )
            records = service.trace_spans()
            snapshot = service.snapshot()
        assert trace["enabled"] is True
        assert [r["name"] for r in trace["spans"]] == [
            r["name"] for r in records
        ]
        root = assert_connected(records)
        assert root["name"] == "gateway.request"
        assert result["served"]["trace_id"] == root["trace_id"]
        names = spans_by_name(records)
        for name in (
            "gateway.admit",
            "gateway.queue",
            "service.serve",
            "service.analyze",
        ):
            assert name in names, f"missing {name} span"
        assert any(r["name"].startswith("probe.") for r in records)
        # The root span covers the same interval gateway_request_ms
        # measures, so the per-tier children must account for it:
        # admit + queue + serve (the three sequential stages) sum to
        # the root's wall within 5% (plus a small absolute floor for
        # scheduler noise on a fast request).
        (request_span,) = names["gateway.request"]
        staged = sum(
            names[name][0]["wall_ms"]
            for name in ("gateway.admit", "gateway.queue", "service.serve")
        )
        tolerance = max(0.05 * request_span["wall_ms"], 5.0)
        assert abs(request_span["wall_ms"] - staged) <= tolerance
        request_ms = snapshot["histograms"]["gateway_request_ms"]
        assert request_ms["count"] == 1
        assert abs(request_span["wall_ms"] - request_ms["mean"]) <= max(
            0.05 * request_ms["mean"], 5.0
        )

    def test_gateway_tree_spans_pool_and_probes(
        self, trained_metasearcher, health_queries
    ):
        # The acceptance criterion end-to-end: one request id from the
        # gateway through the service, across the pool's pipe into the
        # worker, and over the parent-side probe threads.
        text = probing_text(trained_metasearcher, health_queries)
        with make_service(
            trained_metasearcher,
            pool_workers=1,
            cache_enabled=False,
        ) as service:
            (result,), _ = self._run_gateway_search(
                service, [text], k=2, certainty=1.0
            )
            records = service.trace_spans()
        root = assert_connected(records)
        assert root["name"] == "gateway.request"
        names = spans_by_name(records)
        for name in (
            "gateway.admit",
            "gateway.queue",
            "service.serve",
            "pool.dispatch",
            "pool.worker",
        ):
            assert name in names, f"missing {name} span"
        assert any(r["name"].startswith("probe.") for r in records)
        assert result["served"]["trace_id"] == root["trace_id"]

    def test_trace_op_respects_limit(
        self, trained_metasearcher, health_queries
    ):
        texts = [" ".join(q.terms) for q in health_queries[40:43]]
        with make_service(
            trained_metasearcher, cache_enabled=False
        ) as service:
            _, trace = self._run_gateway_search(
                service, texts, trace_limit=2, k=2, certainty=0.9
            )
            all_records = service.trace_spans()
        assert len(trace["spans"]) == 2
        assert trace["spans"] == all_records[-2:]

    def test_trace_op_when_disabled(
        self, trained_metasearcher, health_queries
    ):
        text = " ".join(health_queries[41].terms)
        with make_service(
            trained_metasearcher, trace=False
        ) as service:
            (result,), trace = self._run_gateway_search(
                service, [text], k=2, certainty=0.9
            )
        assert trace == {"enabled": False, "spans": []}
        assert "trace_id" not in result["served"]
