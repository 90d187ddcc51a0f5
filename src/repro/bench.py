"""``repro.bench``: how a bench run is measured, judged and recorded.

Every ``bench-*`` command builds one ``bench/v1`` envelope::

    {"schema": "bench/v1", "family": ..., "environment": {...},
     "config": {...}, "results": {...}, "gates": [...]}

``results`` is the family's own measurement layout. ``gates`` is the
list of verdicts :func:`gate` builds from those results, each
``{"name", "value", "op", "target", "meets_target"}``. Every gate is
judged ``true`` or ``false`` on whatever host runs it: a verdict the
recording host could not reach is not evidence, so no gate records
one. :func:`finish` writes the envelope, prints the gate table and
returns exit code 3 on any false gate, so a bench command fails
whenever its own evidence does.

The measurement helpers are the ones every family shares: the host
block, one nearest-rank percentile, and an interleaved timer whose
paired ratio cancels machine drift between the variants it compares.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import platform
import statistics
import sys
import time
from collections.abc import Callable

import numpy as np

from repro import knobs
from repro.core.backend import default_backend_name
from repro.exceptions import ConfigurationError, ReproError
from repro.stats.rank import percentile

__all__ = [
    "SCHEMA",
    "GATE_FAILED",
    "host_fingerprint",
    "environment",
    "percentile",
    "latency_summary",
    "time_interleaved",
    "paired_ratio",
    "gate",
    "report",
    "read",
    "finish",
]

SCHEMA = "bench/v1"

#: Exit code of a bench command whose report records a false gate.
GATE_FAILED = 3

_ENVELOPE_KEYS = ("family", "environment", "config", "results", "gates")
_GATE_KEYS = {"name", "value", "op", "target", "meets_target"}

_OPS = {
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
}


def host_fingerprint() -> str:
    """Short stable id of this machine (timings compare only on it)."""
    key = "|".join(
        (platform.node(), platform.machine(), platform.processor())
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def _blas() -> str:
    """Best-effort name of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version")
        return f"{name} {version or ''}".strip()
    except Exception:  # pragma: no cover - numpy build variations
        return "unknown"


def environment() -> dict[str, object]:
    """The host facts and ``REPRO_*`` knobs a measurement depends on."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "host_fingerprint": host_fingerprint(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas(),
        "backend": default_backend_name(),
        "knobs": knobs.resolved(),
    }


def latency_summary(samples_ms: list[float]) -> dict[str, object]:
    """Sample count, p50/p95/p99 and max of millisecond samples."""
    if not samples_ms:
        return {"samples": 0}
    ordered = sorted(samples_ms)
    summary: dict[str, object] = {"samples": len(ordered)}
    for pct in (50, 95, 99):
        summary[f"p{pct}_ms"] = round(percentile(ordered, pct), 3)
    summary["max_ms"] = round(ordered[-1], 3)
    return summary


def time_interleaved(
    fns: dict[str, Callable[[], object]], rounds: int
) -> dict[str, list[float]]:
    """Millisecond samples of each variant, timed round-robin.

    Timing variants in back-to-back blocks hands later blocks caches
    and branch predictors warmed by earlier ones; one call of each per
    round gives every variant the same machine state, so sample *i*
    of two variants can be compared (see :func:`paired_ratio`).
    Insertion order of *fns* is the round-robin order.
    """
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            started = time.perf_counter()
            fn()
            samples[name].append((time.perf_counter() - started) * 1000.0)
    return samples


def paired_ratio(numerator: list[float], denominator: list[float]) -> float:
    """Median of per-round ``numerator / denominator`` ratios.

    The two samples of a round saw the same machine state, so their
    ratio cancels frequency drift and noisy neighbours that a ratio of
    independent medians would mistake for a code speedup.
    """
    ratios = [
        a / b if b > 0 else float("inf")
        for a, b in zip(numerator, denominator)
    ]
    return round(statistics.median(ratios), 3)


def gate(
    name: str, value: object, target: object, op: str
) -> dict[str, object]:
    """One recorded verdict: does ``value op target`` hold?

    A missing *value* is a failed measurement, never a pass.
    """
    if op not in _OPS:
        raise ConfigurationError(f"unknown gate operator {op!r}")
    return {
        "name": name,
        "value": value,
        "op": op,
        "target": target,
        "meets_target": value is not None and bool(_OPS[op](value, target)),
    }


def report(
    family: str,
    config: dict[str, object],
    results: dict[str, object],
    gates: list[dict[str, object]],
) -> dict[str, object]:
    """The ``bench/v1`` envelope of one run on this host."""
    return {
        "schema": SCHEMA,
        "family": family,
        "environment": environment(),
        "config": config,
        "results": results,
        "gates": gates,
    }


def read(path: str, family: str | None = None) -> dict[str, object]:
    """Load a ``bench/v1`` document (of *family*, when given).

    Raises :class:`~repro.exceptions.ReproError` when the file is
    unreadable, is not a ``bench/v1`` envelope, or is another family's.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(
            f"cannot read bench report {path!r}: {error}"
        ) from error
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != SCHEMA:
        raise ReproError(
            f"bench report {path!r} has unsupported schema {schema!r}, "
            f"wanted {SCHEMA!r}"
        )
    missing = [key for key in _ENVELOPE_KEYS if key not in document]
    gates = document.get("gates")
    if (
        missing
        or not isinstance(document["environment"], dict)
        or not isinstance(gates, list)
        or not all(
            isinstance(entry, dict) and _GATE_KEYS <= entry.keys()
            for entry in gates
        )
    ):
        raise ReproError(
            f"bench report {path!r} is a malformed envelope (missing "
            f"{missing or 'nothing'}; gates need {sorted(_GATE_KEYS)})"
        )
    if family is not None and document["family"] != family:
        raise ReproError(
            f"bench report {path!r} is a {document['family']!r} report, "
            f"wanted {family!r}"
        )
    return document


def _format_gates(gates: list[dict[str, object]]) -> str:
    """The gate table :func:`finish` prints."""
    width = max([len(str(g["name"])) for g in gates] + [4])
    lines = [
        f"{'gate':<{width}}  {'value':>10} {'op':<2} {'target':<10} verdict"
    ]
    for entry in gates:
        lines.append(
            f"{entry['name']:<{width}}  {entry['value']!s:>10} "
            f"{entry['op']:<2} {entry['target']!s:<10} "
            f"{'pass' if entry['meets_target'] is True else 'FAIL'}"
        )
    passed = sum(entry["meets_target"] is True for entry in gates)
    lines.append(f"gates: {passed} passed, {len(gates) - passed} failed")
    return "\n".join(lines)


def finish(document: dict[str, object], path: str | None = None) -> int:
    """Write *document* to *path* (when given), print its gate table,
    and return the command's exit code: 3 on any false gate, else 0."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Report written to {path}")
    gates = document["gates"]
    print(_format_gates(gates))
    failed = [entry for entry in gates if entry["meets_target"] is not True]
    for entry in failed:
        print(
            f"error: gate {entry['name']} failed: {entry['value']} "
            f"{entry['op']} {entry['target']} does not hold",
            file=sys.stderr,
        )
    return GATE_FAILED if failed else 0
