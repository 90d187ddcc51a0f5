"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-k3 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the timed passes and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics. Either way every answer is
checked against the ``python``-backend oracle outside the timed window,
a human-readable report goes to standard error, and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 when every check passed, 3 otherwise.
See ``perfbench/WORKLOADS.md`` for what each workload loads and why.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import systems  # clears REPRO_* knobs and exposes src/ before repro loads

import numpy as np  # noqa: E402

from layers import LayerTracer  # noqa: E402
from repro.gateway.client import GatewayClient  # noqa: E402
from repro.gateway.protocol import GatewayError  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Set-up repetitions per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed passes per run, each on a fresh service (or gateway process)
#: with an equal share of the window; latency percentiles pool every
#: request of every pass (see ``end_to_end``). A closed-loop pass over
#: the query set takes a couple of seconds, so six fit; gateway-zipf
#: starts SETUP_REPEATS servers and runs a pass on every other one.
CLOSED_PASSES = 6
GATEWAY_PASSES = (SETUP_REPEATS + 1) // 2
#: Host-speed reference (see ``reference_kernel_ms``): CPU-bound times
#: are reported as on a host where the reference kernel takes this long.
REFERENCE_MS = 0.5
#: Kernel runs whose median brackets a set-up on each side.
KERNEL_REPEATS = 5
#: Certainty tolerance of the oracle comparison.
CERTAINTY_TOLERANCE = 1e-9
#: Traced runs must explain at least this share of serve wall time.
MIN_COVERAGE_PCT = 90.0

#: Closed-loop query-set sizes, as queries per second of one pass:
#: about two thirds of what the system completed when the benchmark was
#: defined, so the whole fixed set is served well inside each pass and
#: the seed only changes the order (run-to-run spread then measures the
#: system, not the sample).
PLANNED_QPS = {"paper-k3": 16.0, "federation-k1": 18.0}
#: Per-workload latency limit behind ``slo_attainment`` (ms).
LATENCY_LIMIT_MS = {
    "paper-k3": 1000.0,
    "federation-k1": 500.0,
    "gateway-zipf": 100.0,
}
#: gateway-zipf load: Poisson arrivals at a fixed rate over at most two
#: connections, queries Zipf-drawn (exponent ZIPF_S) from the universe.
GATEWAY_RATE_QPS = 150.0
GATEWAY_CONNECTIONS = 2
ZIPF_S = 1.0
#: The most popular queries, served once before timing: the measured
#: window sees a warmed cache head and a steady stream of tail misses
#: instead of a cold-start burst.
GATEWAY_WARM_RANKS = 200
SERVER_START_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_qps": "1/s",
    "slo_attainment": "ratio",
    "probes_per_query": "count",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.rd_build.self_ms": "ms",
    "core.rd_build.rds": "count",
    "core.rd_build.atoms": "count",
    "core.prune.self_ms": "ms",
    "core.prune.calls": "count",
    "core.prune.survivors": "count",
    "core.topk_build.self_ms": "ms",
    "core.topk_build.calls": "count",
    "core.best_set.self_ms": "ms",
    "core.best_set.calls": "count",
    "core.collapse.self_ms": "ms",
    "core.collapse.calls": "count",
    "core.policy.self_ms": "ms",
    "core.policy.calls": "count",
    "core.apro.self_ms": "ms",
    "service.probe.wait_ms": "ms",
    "service.probe.issued": "count",
    "service.probe.retries": "count",
    "service.probe.fallbacks": "count",
    "service.cache.self_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.puts": "count",
    "service.serve.self_ms": "ms",
    "service.pool.dispatch_ms": "ms",
    "service.pool.ipc_ms": "ms",
    "service.pool.fallbacks": "count",
    "service.pool.queue_depth_max": "count",
    "gateway.queue_wait_ms": "ms",
    "gateway.coalesce_ratio": "ratio",
    "gateway.shed": "count",
    "loadgen.lag_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "obs.coverage_pct": "%",
}

CORE_SELF = tuple(
    name
    for name in PER_LAYER_UNITS
    if name.startswith("core.") and name.endswith(".self_ms")
)


@dataclass(frozen=True)
class Record:
    """One answered request, normalized across in-process and gateway."""

    query: object
    selected: tuple
    probe_order: tuple
    certainty: float
    probes: int
    uncached: bool


@dataclass
class Phase:
    """What one measured phase sent and got back.

    ``latencies_ms`` are the reported latencies: host-speed scaled on
    the closed loops, as measured on gateway-zipf; ``raw_ms`` are the
    wall times as measured.
    """

    sent_keys: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    raw_ms: list = field(default_factory=list)
    records: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    failed: int = 0
    elapsed_s: float = 0.0


@dataclass
class Outcome:
    """Everything a workload reports."""

    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    problems: list
    notes: dict


# -- shared measurement pieces ------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


_KERNEL_ARRAYS = [np.linspace(0.0, 1.0, 48) + i for i in range(24)]


def reference_kernel_ms() -> float:
    """Time one run of a fixed kernel: the host's current speed.

    The host's cores run in slow and fast stretches, from a fraction of
    a second to tens of seconds long, in which the same CPU work takes
    from 0.6x to 2x its usual time, in CPU time as much as in wall
    time. The kernel mixes interpreter work with small numpy
    operations, as the selection code does, and runs with the garbage
    collector paused so that garbage the system left behind does not
    time it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i * i
        for array in _KERNEL_ARRAYS:
            float(np.dot(array, array[::-1])) + float((array * 1.5).max())
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


def host_kernel_ms() -> float:
    return statistics.median(
        reference_kernel_ms() for _ in range(KERNEL_REPEATS)
    )


def scaled_setup(start):
    """Run *start*; return its result and its host-speed scaled time (s).

    Set-up is CPU-bound, so its wall time is scaled by REFERENCE_MS over
    the kernel time measured just before and just after it.
    """
    before = host_kernel_ms()
    started = time.perf_counter()
    result = start()
    elapsed = time.perf_counter() - started
    after = host_kernel_ms()
    return result, elapsed * 2.0 * REFERENCE_MS / (before + after)


def end_to_end(passes, golden, k, limit_ms, setup_s, rss_mb, open_loop):
    """End-to-end metrics of *passes* over the same requests.

    Each timing is the median of the passes' own values: every pass's
    latency percentiles over all the requests it answered, and its
    throughput (closed loop, one caller: requests over their summed
    latencies; open loop: answers over the pass's duration). A slow
    stretch of the host that spans one pass then moves no metric, while
    a slow request still counts wherever it falls. ``slo_attainment``
    counts every answer within the limit against every request sent.
    Answers are identical across passes (the oracle checks every one),
    so quality counts take each request's first answer.
    """

    def median_pass(value) -> float:
        return statistics.median(value(phase) for phase in passes)

    def pass_percentile(q):
        return median_pass(lambda phase: percentile(phase.latencies_ms, q))

    answers: dict = {}
    for phase in passes:
        for key, record in zip(phase.keys, phase.records):
            answers.setdefault(key, record)
    within = sum(
        1 for phase in passes for ms in phase.latencies_ms if ms <= limit_ms
    )
    uncached = [r.probes for r in answers.values() if r.uncached]
    correct = [
        set(r.selected) == golden.topk(r.query, k) for r in answers.values()
    ]
    throughput = median_pass(
        (lambda phase: len(phase.latencies_ms) / phase.elapsed_s)
        if open_loop
        else (lambda phase: 1000.0 * len(phase.latencies_ms)
              / sum(phase.latencies_ms))
    )
    return {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": pass_percentile(50),
        "latency_p95_ms": pass_percentile(95),
        "latency_p99_ms": pass_percentile(99),
        "throughput_qps": throughput,
        "slo_attainment": within
        / sum(len(phase.sent_keys) for phase in passes),
        "probes_per_query": float(np.mean(uncached)) if uncached else 0.0,
        "correct_share": float(np.mean(correct)) if correct else 0.0,
        "peak_rss_mb": rss_mb,
    }


def oracle_problems(testbed, records, k) -> list[str]:
    """Compare every answer with the ``python``-backend oracle."""
    oracle = testbed.service(backend="python", cache_enabled=False)
    expected = {}
    problems = []
    try:
        for record in records:
            want = expected.get(record.query)
            if want is None:
                want = expected[record.query] = oracle.serve(
                    record.query, k=k, certainty=systems.CERTAINTY
                )
            if (
                record.selected != want.selected
                or record.probe_order != want.probe_order
                or abs(record.certainty - want.certainty)
                > CERTAINTY_TOLERANCE
            ):
                problems.append(
                    f"oracle mismatch on {record.query.terms}: got "
                    f"{record.selected}/{record.probe_order}/"
                    f"{record.certainty!r}, want {want.selected}/"
                    f"{want.probe_order}/{want.certainty!r}"
                )
    finally:
        oracle.shutdown()
    return problems


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_delta(before: dict, after: dict, name: str) -> float:
    return float(
        after["counters"].get(name, 0) - before["counters"].get(name, 0)
    )


def overhead_pct(traced: Phase, untraced: Phase) -> float:
    return 100.0 * (
        percentile(traced.latencies_ms, 50)
        / percentile(untraced.latencies_ms, 50)
        - 1.0
    )


# -- closed-loop in-process workloads -------------------------------------------


def closed_phase(service, queries, k, seconds, tracer=None) -> Phase:
    """One caller, one request at a time, until the set or time runs out.

    The reference kernel runs between requests, and each latency is
    scaled by REFERENCE_MS over the mean of the kernel times just
    before and just after it, so that a request served in a slow
    stretch of the host reads as one served at the reference speed.
    """
    phase = Phase()
    started = time.perf_counter()
    stop_at = started + seconds
    finished = started
    kernel_before = reference_kernel_ms()
    for index, query in enumerate(queries):
        if time.perf_counter() >= stop_at:
            break
        if tracer is not None:
            tracer.request = index
        phase.sent_keys.append(query)
        sent_at = time.perf_counter()
        answer = service.serve(query, k=k, certainty=systems.CERTAINTY)
        finished = time.perf_counter()
        kernel_after = reference_kernel_ms()
        scale = 2.0 * REFERENCE_MS / (kernel_before + kernel_after)
        kernel_before = kernel_after
        if answer.degraded is not None:
            phase.failed += 1
            continue
        raw_ms = (finished - sent_at) * 1000.0
        phase.keys.append(query)
        phase.raw_ms.append(raw_ms)
        phase.latencies_ms.append(raw_ms * scale)
        phase.records.append(
            Record(
                query=answer.query,
                selected=answer.selected,
                probe_order=answer.probe_order,
                certainty=answer.certainty,
                probes=answer.probes,
                uncached=not answer.cache_hit,
            )
        )
    phase.elapsed_s = finished - started
    return phase


def warm(service, queries, k) -> None:
    for query in queries:
        service.serve(query, k=k, certainty=systems.CERTAINTY)


def closed_loop(name, build, k, seed, seconds, trace, size=None) -> Outcome:
    budget = seconds / CLOSED_PASSES
    if size is None:
        size = max(1, round(budget * PLANNED_QPS[name]))
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    per_layer: dict = {}
    passes: list[Phase] = []
    setups: list[float] = []
    service = None
    try:
        for index in range(1 if trace else CLOSED_PASSES):
            # Set-ups are interleaved with the passes, so their median
            # samples the whole run rather than one stretch of it. Each
            # pass gets a fresh service: its cache starts empty, so no
            # query of the set is ever a hit.
            if index < (1 if trace else SETUP_REPEATS):
                testbed = None
                gc.collect()
                testbed, setup_s = scaled_setup(lambda: build(size))
                service, service_s = scaled_setup(testbed.service)
                setups.append(setup_s + service_s)
            else:
                service = testbed.service()
            order = [testbed.queries[i] for i in rng.permutation(size)]
            warm(service, testbed.warmup, k)
            passes.append(closed_phase(service, order, k, budget))
            service.shutdown()
            service = None
        peak = rss_mb()
        records = [record for phase in passes for record in phase.records]
        if trace:
            service = testbed.service()
            warm(service, testbed.warmup, k)
            before = service.snapshot()
            tracer = LayerTracer()
            with tracer.installed():
                traced = closed_phase(service, order, k, budget, tracer)
            after = service.snapshot()
            records += traced.records
            per_layer = closed_per_layer(
                tracer, traced, passes[0], before, after
            )
            if per_layer["obs.coverage_pct"] < MIN_COVERAGE_PCT:
                problems.append(
                    f"traced layers explain only "
                    f"{per_layer['obs.coverage_pct']:.1f}% of serve wall "
                    f"time (< {MIN_COVERAGE_PCT}%)"
                )
    finally:
        if service is not None:
            service.shutdown()
    problems += oracle_problems(testbed, records, k)
    return Outcome(
        end_to_end=end_to_end(
            passes,
            testbed.golden,
            k,
            LATENCY_LIMIT_MS[name],
            setups,
            peak,
            open_loop=False,
        ),
        per_layer=per_layer,
        attempted=sum(len(phase.sent_keys) for phase in passes),
        failed=sum(phase.failed for phase in passes),
        problems=problems,
        notes={
            "query_set": size,
            "answered_per_pass": [len(phase.records) for phase in passes],
            **raw_latency_notes(passes),
            "config": {
                "metasearcher": testbed.metasearcher.config,
                "service": systems.service_config("numpy"),
            },
        },
    )


def raw_latency_notes(passes) -> dict:
    """Unscaled latency percentiles (median over passes), for the report."""
    return {
        f"raw_latency_p{q}_ms": round(
            statistics.median(percentile(phase.raw_ms, q) for phase in passes),
            3,
        )
        for q in (50, 95, 99)
    }


def closed_per_layer(tracer, traced, untraced, before, after) -> dict:
    requests = max(1, len(traced.sent_keys))
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out.update(tracer.summary(requests))
    for key, counter in (
        ("service.probe.issued", "probes_issued"),
        ("service.probe.retries", "probe_retries"),
        ("service.probe.fallbacks", "probe_fallbacks"),
    ):
        out[key] = counter_delta(before, after, counter) / requests
    out["obs.trace_overhead_pct"] = overhead_pct(traced, untraced)
    return out


def paper_k3(seed, seconds, trace, size=None) -> Outcome:
    return closed_loop(
        "paper-k3", systems.build_paper, 3, seed, seconds, trace, size
    )


def federation_k1(seed, seconds, trace, size=None) -> Outcome:
    return closed_loop(
        "federation-k1", systems.build_federation, 1, seed, seconds, trace,
        size,
    )


# -- gateway-zipf: open loop against a gateway process ------------------------


class GatewayServer:
    """One ``server.py`` process, started when it printed READY."""

    def __init__(self, trace: bool) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace", str(int(trace))],
            cwd=systems.ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(SERVER_START_TIMEOUT_S, self._process.kill)
        watchdog.start()
        try:
            line = self._process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"gateway server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        """Close stdin (the stop signal); return the server's RSS line."""
        self._process.stdin.close()
        watchdog = threading.Timer(60.0, self._process.kill)
        watchdog.start()
        try:
            output = self._process.stdout.read()
            code = self._process.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"gateway server exited with code {code}")
        return json.loads(output.strip().splitlines()[-1])

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()


def gateway_schedule(seed, seconds, universe) -> list[tuple[float, int]]:
    """(offset s, query index): Poisson arrivals of Zipf-drawn queries.

    The queries are one fixed multiset of ``rate x seconds`` Zipf draws
    (popularity follows the universe's order; query 0 is the most
    popular), so every seed sends the same requests and misses the same
    distinct queries. The seed (an int or a tuple of ints) orders them
    and draws the arrival times: a Poisson process conditioned on its
    count (uniform order statistics).
    """
    count = max(1, round(GATEWAY_RATE_QPS * seconds))
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_S
    draws = np.random.default_rng(systems.TESTBED_SEED).choice(
        universe, size=count, p=weights / weights.sum()
    )
    rng = np.random.default_rng(seed)
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    return [
        (float(offset), int(query))
        for offset, query in zip(offsets, rng.permutation(draws))
    ]


async def drive(port, schedule, texts, analyzed, traced) -> tuple:
    """Send *schedule* open-loop; time each request from when it was due."""
    loop = asyncio.get_running_loop()
    clients = [
        await GatewayClient.connect("127.0.0.1", port, limit=1 << 28)
        for _ in range(GATEWAY_CONNECTIONS)
    ]
    phase = Phase(sent_keys=list(range(len(schedule))))
    results: list = [None] * len(schedule)

    async def one(index, client, query_index, due):
        try:
            result = await client.search(
                texts[query_index], k=1, certainty=systems.CERTAINTY
            )
        except GatewayError as error:
            results[index] = (due, loop.time(), None, error.code.value)
            return
        results[index] = (due, loop.time(), result, None)

    try:
        for first in range(0, GATEWAY_WARM_RANKS, GATEWAY_CONNECTIONS):
            await asyncio.gather(
                *(
                    client.search(
                        texts[first + offset], k=1, certainty=systems.CERTAINTY
                    )
                    for offset, client in enumerate(clients)
                )
            )
        before = await clients[0].stats()
        start = loop.time() + 0.1
        tasks = []
        for index, (offset, query_index) in enumerate(schedule):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags_ms.append(max(0.0, loop.time() - due) * 1000.0)
            tasks.append(
                asyncio.create_task(
                    one(
                        index,
                        clients[index % GATEWAY_CONNECTIONS],
                        query_index,
                        due,
                    )
                )
            )
        await asyncio.gather(*tasks)
        after = await clients[0].stats()
        spans = (
            (await clients[0].trace(limit=systems.TRACE_BUFFER))["spans"]
            if traced
            else []
        )
    finally:
        for client in clients:
            await client.close()
    trace_ids = set()
    finished = start
    for index, ((_offset, query_index), (due, done, result, _error)) in (
        enumerate(zip(schedule, results))
    ):
        finished = max(finished, done)
        answer = None if result is None else result["answer"]
        if answer is None or answer["degraded"] is not None:
            phase.failed += 1
            continue
        served = result["served"]
        trace_ids.add(served.get("trace_id"))
        query = analyzed[query_index]
        phase.keys.append(index)
        phase.latencies_ms.append((done - due) * 1000.0)
        phase.records.append(
            Record(
                query=query if tuple(answer["query"]) == query.terms else None,
                selected=tuple(answer["selected"]),
                probe_order=tuple(answer["probe_order"]),
                certainty=float(answer["certainty"]),
                probes=int(answer["probes"]),
                uncached=not (served["cache_hit"] or served["coalesced"]),
            )
        )
    phase.elapsed_s = finished - start
    spans = [s for s in spans if s["trace_id"] in trace_ids]
    return phase, before, after, spans


def gateway_spans(spans, requests) -> dict:
    """Per-request service/pool/gateway times from the service's spans."""
    by_id = {s["span_id"]: s for s in spans}
    child_ms: dict = {}
    for record in spans:
        parent = record["parent_id"]
        if parent in by_id:
            child_ms[parent] = child_ms.get(parent, 0.0) + record["wall_ms"]
    totals: dict = {}
    for record in spans:
        name = record["name"]
        if name.startswith("probe."):
            name = "probe"
        wall = record["wall_ms"]
        entry = totals.setdefault(name, [0.0, 0.0])
        entry[0] += wall
        entry[1] += wall - child_ms.get(record["span_id"], 0.0)
    per = 1.0 / max(1, requests)

    def wall(name):
        return totals.get(name, [0.0, 0.0])[0] * per

    def own(name):
        return totals.get(name, [0.0, 0.0])[1] * per

    request_wall = wall("gateway.request")
    return {
        "service.serve.self_ms": own("service.serve"),
        "service.cache.self_ms": wall("service.cache"),
        "service.probe.wait_ms": wall("probe"),
        "service.pool.dispatch_ms": wall("pool.dispatch"),
        # The worker span already contains the probe callbacks it
        # waited on, so what dispatch adds beyond it is lease wait plus
        # pipe transfer.
        "service.pool.ipc_ms": wall("pool.dispatch") - wall("pool.worker"),
        "gateway.queue_wait_ms": wall("gateway.queue"),
        "obs.coverage_pct": (
            100.0 * (1.0 - own("gateway.request") / request_wall)
            if request_wall
            else 0.0
        ),
    }


def gateway_counts(before, after, requests) -> dict:
    service_before, service_after = before["service"], after["service"]
    per = 1.0 / max(1, requests)
    hits = service_after["cache"]["hits"] - service_before["cache"]["hits"]
    misses = (
        service_after["cache"]["misses"] - service_before["cache"]["misses"]
    )
    gets = hits + misses
    return {
        "service.probe.issued": per
        * counter_delta(service_before, service_after, "probes_issued"),
        "service.probe.retries": per
        * counter_delta(service_before, service_after, "probe_retries"),
        "service.probe.fallbacks": per
        * counter_delta(service_before, service_after, "probe_fallbacks"),
        "service.cache.hit_ratio": hits / gets if gets else 0.0,
        "service.cache.puts": per
        * (service_after["cache"]["size"] - service_before["cache"]["size"]),
        "service.pool.fallbacks": per
        * counter_delta(service_before, service_after, "pool_fallback_total"),
        "service.pool.queue_depth_max": float(
            service_after["gauges"]["pool_queue_depth"]["high_water"]
        ),
        "gateway.coalesce_ratio": per
        * counter_delta(service_before, service_after, "gateway_coalesced"),
        "gateway.shed": per
        * counter_delta(service_before, service_after, "gateway_shed"),
    }


def replay_core(testbed, schedule, analyzed) -> dict:
    """Core-layer split of the run's request sequence, replayed in-process.

    The pool runs the core in worker processes the benchmark cannot
    wrap, so the same sequence (same queries, same order, cache on) is
    replayed through an in-process service under the layer wrappers;
    totals are divided by the run's request count.
    """
    service = testbed.service()
    tracer = LayerTracer()
    try:
        with tracer.installed():
            for index, (_offset, query_index) in enumerate(schedule):
                tracer.request = index
                service.serve(
                    analyzed[query_index], k=1, certainty=systems.CERTAINTY
                )
    finally:
        service.shutdown()
    summary = tracer.summary(len(schedule))
    return {key: value for key, value in summary.items() if key.startswith("core.")}


def gateway_zipf(seed, seconds, trace) -> Outcome:
    testbed = systems.build_paper(systems.GATEWAY_UNIVERSE)
    texts = [" ".join(query.terms) for query in testbed.queries]
    analyzed = [testbed.metasearcher.analyze(text) for text in texts]
    # Every pass sends the same requests to a fresh server, each pass in
    # its own order and arrival times, so that no single draw of the
    # bursts sets the tail.
    schedules = [
        gateway_schedule((seed, index), seconds / GATEWAY_PASSES, len(texts))
        for index in range(GATEWAY_PASSES)
    ]
    schedule = schedules[0]
    problems: list[str] = []
    per_layer: dict = {}
    passes: list[Phase] = []
    setups: list[float] = []
    peaks: list[float] = []
    server = None
    try:
        # Passes run on every other server, so the five set-ups are
        # spread over the whole run.
        for index in range(1 if trace else SETUP_REPEATS):
            server, setup_s = scaled_setup(lambda: GatewayServer(trace=False))
            setups.append(setup_s)
            if index % 2 == 0:
                phase, *_ = asyncio.run(
                    drive(
                        server.port,
                        schedules[len(passes)],
                        texts,
                        analyzed,
                        traced=False,
                    )
                )
                passes.append(phase)
            usage = server.stop()
            server = None
            if index % 2 == 0:
                peaks.append(
                    (usage["self_kb"] + usage["children_kb"] * usage["workers"])
                    / 1024.0
                )
        records = [record for phase in passes for record in phase.records]
        if trace:
            server = GatewayServer(trace=True)
            traced, before, after, spans = asyncio.run(
                drive(server.port, schedule, texts, analyzed, traced=True)
            )
            server.stop()
            server = None
            records += traced.records
            requests = len(schedule)
            per_layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
            per_layer.update(replay_core(testbed, schedule, analyzed))
            per_layer.update(gateway_counts(before, after, requests))
            per_layer.update(gateway_spans(spans, requests))
            per_layer["loadgen.lag_ms"] = float(np.mean(passes[0].lags_ms))
            per_layer["obs.trace_overhead_pct"] = overhead_pct(
                traced, passes[0]
            )
            per_layer["client_latency_ms"] = float(
                np.mean(traced.latencies_ms)
            )
    finally:
        if server is not None:
            server.kill()
    if any(record.query is None for record in records):
        problems.append("gateway analyzed a query differently from the oracle")
        records = [record for record in records if record.query is not None]
    problems += oracle_problems(testbed, records, 1)
    lags = [lag for phase in passes for lag in phase.lags_ms]
    return Outcome(
        end_to_end=end_to_end(
            passes,
            testbed.golden,
            1,
            LATENCY_LIMIT_MS["gateway-zipf"],
            setups,
            statistics.median(peaks),
            open_loop=True,
        ),
        per_layer=per_layer,
        attempted=sum(len(phase.sent_keys) for phase in passes),
        failed=sum(phase.failed for phase in passes),
        problems=problems,
        notes={
            "requests_per_pass": len(schedule),
            "distinct_queries": len({q for _o, q in schedule}),
            "rate_qps": GATEWAY_RATE_QPS,
            "max_lag_ms": max(lags),
            "config": {
                "metasearcher": testbed.metasearcher.config,
                "service": systems.gateway_service_config(trace),
                "gateway": systems.gateway_config(),
                "probe_injector": systems.probe_injector(),
            },
        },
    )


WORKLOADS = {
    "paper-k3": paper_k3,
    "federation-k1": federation_k1,
    "gateway-zipf": gateway_zipf,
}


# -- report -------------------------------------------------------------------


#: Work each workload's traced run reports above zero, so that a layer
#: that silently stops being measured shows (its time would otherwise
#: be absorbed by the wrapper around it).
CLOSED_LOOP_WORK = (
    "core.rd_build.rds",
    "core.topk_build.calls",
    "core.best_set.calls",
    "core.collapse.calls",
    "core.policy.calls",
    "service.probe.issued",
    "service.cache.puts",
)
MEASURED_WORK = {
    "paper-k3": CLOSED_LOOP_WORK,
    "federation-k1": CLOSED_LOOP_WORK
    + ("core.prune.calls", "core.prune.survivors"),
    "gateway-zipf": (
        "core.rd_build.rds",
        "core.best_set.calls",
        "service.probe.issued",
        "service.cache.hit_ratio",
        "service.pool.dispatch_ms",
        "gateway.queue_wait_ms",
    ),
}


def profile_checks(workload: str, layers: dict) -> list[tuple[str, bool]]:
    """The per-layer profile the workload was designed to show.

    These describe the code the benchmark was defined on, not rules
    every later version must keep (a change that makes ``best_set``
    cheap flips the first one), so they do not fail a run: the report
    prints them and ``test_counts.py`` asserts them.
    """
    checks = [
        (f"{name} > 0", layers[name] > 0) for name in MEASURED_WORK[workload]
    ]
    if workload == "paper-k3":
        top = max(CORE_SELF, key=lambda name: layers[name])
        return checks + [("core.best_set has the largest core self time",
                          top == "core.best_set.self_ms")]
    if workload == "federation-k1":
        return checks + [(
            "core.prune + core.rd_build exceed core.best_set",
            layers["core.prune.self_ms"] + layers["core.rd_build.self_ms"]
            > layers["core.best_set.self_ms"],
        )]
    core = sum(layers[name] for name in CORE_SELF)
    return checks + [(
        f"core self time ({core:.3f} ms/request) is a minority of client "
        f"latency ({layers['client_latency_ms']:.3f} ms)",
        core < 0.5 * layers["client_latency_ms"],
    )]


def report(args, outcome: Outcome, cleared) -> None:
    out = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", file=out)
    print(f"  host   : {json.dumps(systems.host_facts())}", file=out)
    print(f"  cleared: {cleared or 'no REPRO_* knobs'}", file=out)
    print(f"  run    : {json.dumps(systems.jsonable(outcome.notes))}", file=out)
    sent = max(1, outcome.attempted)
    print("  end-to-end:", file=out)
    for name, value in outcome.end_to_end.items():
        print(f"    {name:<20} {value:>12.4f} {END_TO_END_UNITS[name]}",
              file=out)
    print(f"    {'error_share':<20} {outcome.failed / sent:>12.4f} ratio",
          file=out)
    if outcome.per_layer:
        print("  per-layer (per measured request):", file=out)
        for name, unit in PER_LAYER_UNITS.items():
            print(f"    {name:<30} {outcome.per_layer[name]:>12.4f} {unit}",
                  file=out)
        for claim, held in profile_checks(args.workload, outcome.per_layer):
            print(f"  profile: {claim}: {'yes' if held else 'NO'}", file=out)
    for problem in outcome.problems[:20]:
        print(f"  PROBLEM: {problem}", file=out)
    print(f"  checks : {'passed' if not outcome.problems else 'FAILED'} "
          f"({len(outcome.problems)} problems)", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cleared = systems.CLEARED
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    report(args, outcome, cleared)
    if args.trace:
        metrics = {
            name: {"value": outcome.per_layer[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": outcome.end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
