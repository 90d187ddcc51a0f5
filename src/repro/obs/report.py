"""Turning span records into a per-tier latency breakdown.

A traced run's span records (read back with :func:`load_spans` from
a captured ``REPRO_TRACE=stderr`` stream, or from the ring buffer
through ``MetasearchService.trace_spans`` or the ``trace`` op) answer
"which tier ate the budget" as one table: for each span name, how
many spans ran and the distribution of their wall-ms. Per-database
probe spans (``probe.corpus-3`` and friends) are collapsed into one
``probe.*`` row — the tier view cares about probe latency, not fan-out
identity; the raw span records keep the full names.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.stats.rank import percentile

__all__ = ["tier_breakdown", "format_tier_breakdown", "load_spans"]


def load_spans(path: str) -> list[dict]:
    """Read NDJSON span records from a file (blank lines skipped)."""
    import json

    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def tier_breakdown(
    records: Iterable[dict],
    collapse_prefixes: tuple[str, ...] = ("probe.",),
) -> dict[str, dict]:
    """Aggregate span records by name into per-tier latency stats.

    Returns ``{name: {count, total_ms, mean_ms, p50_ms, p95_ms,
    max_ms}}`` ordered by descending ``total_ms`` — the first row is
    where the time went. Names starting with a collapse prefix are
    grouped under ``<prefix>*``.
    """
    by_name: dict[str, list[float]] = {}
    for record in records:
        name = str(record.get("name", ""))
        wall = record.get("wall_ms")
        if not name or wall is None:
            continue
        for prefix in collapse_prefixes:
            if name.startswith(prefix):
                name = prefix + "*"
                break
        by_name.setdefault(name, []).append(float(wall))
    breakdown: dict[str, dict] = {}
    for name, walls in by_name.items():
        walls.sort()
        breakdown[name] = {
            "count": len(walls),
            "total_ms": sum(walls),
            "mean_ms": sum(walls) / len(walls),
            "p50_ms": percentile(walls, 50),
            "p95_ms": percentile(walls, 95),
            "max_ms": walls[-1],
        }
    return dict(
        sorted(
            breakdown.items(),
            key=lambda item: item[1]["total_ms"],
            reverse=True,
        )
    )


def format_tier_breakdown(breakdown: dict[str, dict]) -> str:
    """Render :func:`tier_breakdown` output as an aligned text table."""
    if not breakdown:
        return "(no spans)"
    header = ("span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "max_ms")
    rows = [header]
    for name, stats in breakdown.items():
        rows.append(
            (
                name,
                str(stats["count"]),
                f"{stats['total_ms']:.1f}",
                f"{stats['mean_ms']:.2f}",
                f"{stats['p50_ms']:.2f}",
                f"{stats['p95_ms']:.2f}",
                f"{stats['max_ms']:.2f}",
            )
        )
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(header))
    ]
    lines = []
    for index, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells.extend(
            cell.rjust(width)
            for cell, width in zip(row[1:], widths[1:], strict=True)
        )
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
