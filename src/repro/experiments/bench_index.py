"""``bench-index``: one verdict over every committed ``BENCH_*.json``.

Every bench family writes the same ``bench/v1`` envelope
(:mod:`repro.bench`), so the index reads each file's host block and
``gates`` list and judges the set. A committed report fails the index
when it

* is unreadable or not a ``bench/v1`` envelope,
* records no gate at all,
* records a false gate, or
* records a null verdict on a gate whose ``min_cores`` its own host
  met — a gate that host could have judged is not evidence.

The index is itself a ``bench/v1`` document (family ``bench-index``)
whose gates are those four checks per file, so ``bench-index`` fails
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
    cores = document["environment"].get("cpu_count", 0)
    gates = document["gates"]
    verdicts = [entry["meets_target"] for entry in gates]
    return {
        "file": name,
        "family": document["family"],
        "cpu_count": cores,
        "host_fingerprint": document["environment"].get("host_fingerprint"),
        "gates": len(gates),
        "passed": verdicts.count(True),
        "failed": [
            entry["name"] for entry in gates if entry["meets_target"] is False
        ],
        "not_judged": verdicts.count(None),
        "judgeable_nulls": [
            entry["name"]
            for entry in gates
            if entry["meets_target"] is None and cores >= entry["min_cores"]
        ],
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
    """The four checks above for each report summary."""
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
            bench.gate(
                f"{name}.judgeable_nulls",
                len(report["judgeable_nulls"]),
                0,
                "==",
            ),
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
            f"{report['passed']} passed, {len(report['failed'])} failed, "
            f"{report['not_judged']} not judged"
        )
        for label in ("failed", "judgeable_nulls"):
            if report[label]:
                lines.append(f"    {label}: {', '.join(report[label])}")
    return "\n".join(lines)
