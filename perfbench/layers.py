"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (see
``WRAPPED``) for the duration of a ``with tracer.installed():`` block and
records one span per call: name, start, end, parent span and request
id. Spans stay in memory; :meth:`LayerTracer.summary` turns them into
per-request self times (a span's duration minus the part its children
cover) and work counts. Nothing under ``src/`` is modified: the
wrappers are installed on the classes and module globals at run time
and restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from repro.core import probing
from repro.core.policies import GreedyUsefulnessPolicy
from repro.core.selection import RDBasedSelector
from repro.core.topk import TopKComputer
from repro.service.cache import SelectionCache
from repro.service.executor import ProbeExecutor
from repro.service.server import MetasearchService

#: (owner, attribute, layer name). ``probing`` module globals are
#: patched because ``APro`` calls the pruning functions by bare name.
WRAPPED = (
    (MetasearchService, "serve", "service.serve"),
    (SelectionCache, "get", "service.cache"),
    (SelectionCache, "put", "service.cache"),
    (ProbeExecutor, "probe_batch", "service.probe"),
    (probing.APro, "run", "core.apro"),
    (RDBasedSelector, "build_rds", "core.rd_build"),
    (probing, "support_bounds", "core.prune"),
    (probing, "prunable_mask", "core.prune"),
    (TopKComputer, "__init__", "core.topk_build"),
    (TopKComputer, "best_set", "core.best_set"),
    (TopKComputer, "collapse", "core.collapse"),
    (GreedyUsefulnessPolicy, "choose", "core.policy"),
)

#: Layers whose self time counts as "explained" serve time; everything
#: but the serve span itself.
CHILD_LAYERS = tuple(
    sorted({name for _o, _a, name in WRAPPED} - {"service.serve"})
)


class LayerTracer:
    """In-memory span recorder for the wrapped layer entry points."""

    def __init__(self) -> None:
        # One record per span: [name, start, end, parent, request].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._masked_request: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, attribute: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      tracer.request]
            tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            tracer._count(name, attribute, kwargs, result)
            return result

        return wrapper

    def _count(self, name, attribute, kwargs, result) -> None:
        """Work counts, taken after the span closed (not timed)."""
        counts = self.counts
        if name == "core.rd_build":
            indices = kwargs.get("indices")
            built = (
                range(len(result)) if indices is None else sorted(indices)
            )
            counts["core.rd_build.rds"] += len(built)
            counts["core.rd_build.atoms"] += sum(
                len(result[i].values) for i in built
            )
        elif name == "core.prune":
            counts["core.prune.calls"] += 1
            if attribute == "prunable_mask" and self._first_mask():
                counts["core.prune.survivors"] += int((~result).sum())
        elif name == "service.cache":
            if attribute == "get":
                counts["service.cache.gets"] += 1
                counts["service.cache.hits"] += result is not None
            else:
                counts["service.cache.puts"] += 1
        else:
            counts[name + ".calls"] += 1

    def _first_mask(self) -> bool:
        """Whether this is the request's first survivor computation."""
        if self._masked_request == self.request:
            return False
        self._masked_request = self.request
        return True

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the block; always restore them."""
        saved = []
        try:
            for owner, attribute, name in WRAPPED:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def self_ms(self) -> dict[str, float]:
        """Total self time per layer name, in ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _p, _r) in enumerate(self.spans):
            totals[name] += (end - start - child_time[index]) * 1000.0
        return totals

    def serve_wall_ms(self) -> float:
        """Total wall time of the outermost ``service.serve`` spans."""
        return sum(
            (end - start) * 1000.0
            for name, start, end, parent, _r in self.spans
            if name == "service.serve" and parent is None
        )

    def summary(self, requests: int) -> dict[str, float]:
        """Per-request self times and counts, plus serve-time coverage."""
        per = 1.0 / max(1, requests)
        totals = self.self_ms()
        counts = self.counts
        out = {
            f"{name}.self_ms": totals.get(name, 0.0) * per
            for name in CHILD_LAYERS + ("service.serve",)
            if name != "service.probe"
        }
        out["service.probe.wait_ms"] = totals.get("service.probe", 0.0) * per
        for key in (
            "core.rd_build.rds",
            "core.rd_build.atoms",
            "core.prune.calls",
            "core.prune.survivors",
            "core.topk_build.calls",
            "core.best_set.calls",
            "core.collapse.calls",
            "core.policy.calls",
            "service.cache.puts",
        ):
            out[key] = counts.get(key, 0.0) * per
        gets = counts.get("service.cache.gets", 0.0)
        out["service.cache.hit_ratio"] = (
            counts.get("service.cache.hits", 0.0) / gets if gets else 0.0
        )
        wall = self.serve_wall_ms()
        explained = sum(totals.get(name, 0.0) for name in CHILD_LAYERS)
        out["obs.coverage_pct"] = 100.0 * explained / wall if wall else 0.0
        return out
