"""``bench-index``: one verdict over every committed ``BENCH_*.json``.

Every bench family writes the same ``bench/v1`` envelope
(:mod:`repro.bench`), so the index reads each file's host block and
``gates`` list and judges the set. A committed report fails the index
when it

* is unreadable or not a ``bench/v1`` envelope,
* records no gate at all, or
* records a gate whose ``meets_target`` is not ``true`` — a ``false``,
  or a ``null`` an older writer left for a gate its host did not
  judge: a verdict nobody reached is not evidence.

The index is itself a ``bench/v1`` document (family ``bench-index``)
whose gates are those three checks per file, so ``bench-index`` fails
through the same :func:`repro.bench.finish` as every bench command.
"""

from __future__ import annotations

import os
from glob import glob

from repro import bench
from repro.exceptions import ReproError

__all__ = ["build_bench_index", "index_gates", "format_bench_index"]


def _summary(name: str, path: str) -> dict[str, object]:
    try:
        document = bench.read(path)
    except ReproError as error:
        return {"file": name, "error": str(error)}
    gates = document["gates"]
    failed = [
        entry["name"] for entry in gates if entry["meets_target"] is not True
    ]
    return {
        "file": name,
        "family": document["family"],
        "cpu_count": document["environment"].get("cpu_count", 0),
        "host_fingerprint": document["environment"].get("host_fingerprint"),
        "gates": len(gates),
        "passed": len(gates) - len(failed),
        "failed": failed,
    }


def build_bench_index(directory: str = ".") -> dict[str, object]:
    """Scan *directory* for ``BENCH_*.json``; returns the index document."""
    reports = [
        _summary(os.path.basename(path), path)
        for path in sorted(glob(os.path.join(directory, "BENCH_*.json")))
    ]
    return bench.report(
        "bench-index",
        {"directory": os.path.abspath(directory)},
        {"reports": reports},
        index_gates(reports),
    )


def index_gates(reports: list[dict[str, object]]) -> list[dict[str, object]]:
    """The three checks above for each report summary."""
    gates = [bench.gate("reports", len(reports), 1, ">=")]
    for report in reports:
        name = report["file"]
        readable = "error" not in report
        gates.append(bench.gate(f"{name}.bench_v1", readable, True, "=="))
        if not readable:
            continue
        gates += [
            bench.gate(f"{name}.gates", report["gates"], 1, ">="),
            bench.gate(f"{name}.false_gates", len(report["failed"]), 0, "=="),
        ]
    return gates


def format_bench_index(document: dict[str, object]) -> str:
    """Human-readable table of the indexed reports."""
    reports = document["results"]["reports"]
    lines = [
        f"bench-index: {len(reports)} report(s) in "
        f"{document['config']['directory']}",
    ]
    for report in reports:
        if "error" in report:
            lines.append(f"  {report['file']:<20} {report['error']}")
            continue
        lines.append(
            f"  {report['file']:<20} {report['family']:<21} "
            f"cpu_count={report['cpu_count']:<3} gates: "
            f"{report['passed']} passed, {len(report['failed'])} failed"
        )
        if report["failed"]:
            lines.append(f"    failed: {', '.join(report['failed'])}")
    return "\n".join(lines)
