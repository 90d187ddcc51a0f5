"""``bench-index``: one summary over every committed ``BENCH_*.json``.

The repo accumulates benchmark reports with per-family schemas
(``bench-core/v3``, ``bench-scale/v1``, ``schema_version: 1`` for the
serve/drift/cluster families). CI and humans both want one answer to
"what benchmarks exist, on what hardware did they run, and did any of
them record a failed target?" — without knowing each family's layout.

The index extracts only the cross-family invariants: a schema marker
(``schema`` or ``schema_version``), the recorded host fingerprint and
core count when present, and **every** ``meets_target`` verdict found
anywhere in the document (reports keep ``null`` for gates their host
could not judge — the index preserves that distinction instead of
coercing to pass/fail).
"""

from __future__ import annotations

import json
import os
from glob import glob

from repro.exceptions import ConfigurationError

__all__ = [
    "BENCH_INDEX_SCHEMA",
    "build_bench_index",
    "check_bench_index",
    "format_bench_index",
]

BENCH_INDEX_SCHEMA = "bench-index/v1"


def _find_meets_target(node: object, path: str = "") -> list[tuple[str, object]]:
    found: list[tuple[str, object]] = []
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}/{key}"
            if key == "meets_target":
                found.append((where, value))
            else:
                found.extend(_find_meets_target(value, where))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found.extend(_find_meets_target(value, f"{path}[{i}]"))
    return found


def _environment_summary(report: dict) -> dict[str, object]:
    # The families store host facts under different roofs; probe the
    # known ones and keep whatever exists.
    for key in ("environment", "machine"):
        section = report.get(key)
        if isinstance(section, dict):
            return {
                name: section[name]
                for name in ("cpu_count", "host_fingerprint", "python")
                if name in section
            }
    if "cpu_count" in report:
        return {"cpu_count": report["cpu_count"]}
    return {}


def build_bench_index(directory: str = ".") -> dict[str, object]:
    """Scan *directory* for ``BENCH_*.json`` and build the index."""
    reports: list[dict[str, object]] = []
    problems: list[str] = []
    for path in sorted(glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"{name}: unreadable ({error})")
            continue
        if not isinstance(document, dict):
            problems.append(f"{name}: top level is not an object")
            continue
        schema = document.get("schema")
        if schema is None and "schema_version" in document:
            schema = f"schema_version {document['schema_version']}"
        if schema is None:
            problems.append(f"{name}: no schema or schema_version marker")
            continue
        verdicts = [
            {"path": where, "value": value}
            for where, value in _find_meets_target(document)
        ]
        reports.append(
            {
                "file": name,
                "schema": str(schema),
                "benchmark": str(
                    document.get("benchmark")
                    or name.removeprefix("BENCH_").removesuffix(".json")
                ),
                "environment": _environment_summary(document),
                "meets_target": verdicts,
                "failed_targets": sum(
                    1 for v in verdicts if v["value"] is False
                ),
            }
        )
    return {
        "schema": BENCH_INDEX_SCHEMA,
        "directory": os.path.abspath(directory),
        "reports": reports,
        "problems": problems,
    }


def check_bench_index(index: dict[str, object]) -> list[str]:
    """Failures: unreadable/unmarked reports or a recorded false verdict."""
    if index.get("schema") != BENCH_INDEX_SCHEMA:
        raise ConfigurationError(
            f"unexpected schema {index.get('schema')!r}, "
            f"wanted {BENCH_INDEX_SCHEMA!r}"
        )
    failures = list(index["problems"])
    for report in index["reports"]:
        for verdict in report["meets_target"]:
            if verdict["value"] is False:
                failures.append(
                    f"{report['file']}: meets_target false at "
                    f"{verdict['path']}"
                )
    if not index["reports"]:
        failures.append("no BENCH_*.json reports found")
    return failures


def format_bench_index(index: dict[str, object]) -> str:
    """Human-readable table of the indexed reports."""
    lines = [
        f"bench-index: {len(index['reports'])} report(s) in "
        f"{index['directory']}",
    ]
    for report in index["reports"]:
        env = report["environment"]
        verdicts = report["meets_target"]
        if not verdicts:
            verdict = "no gates"
        elif report["failed_targets"]:
            verdict = f"{report['failed_targets']} FAILED"
        elif all(v["value"] is None for v in verdicts):
            verdict = "not judged"
        else:
            verdict = "pass"
        lines.append(
            f"  {report['file']:<22} {report['schema']:<18} "
            f"cpu_count={env.get('cpu_count', '?'):<3} "
            f"targets: {verdict}"
        )
    for problem in index["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)
