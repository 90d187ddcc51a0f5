"""Dump every answer of three fixed query cells, with one digest.

A change that must not move any answer (a performance change, a
refactor) is checked by running this script before and after it, on
each backend, and comparing the digests::

    python benchmarks/answer_dump.py --backend numpy --out answers.tsv
    python benchmarks/answer_dump.py --backend python --out answers.tsv

A change that moves answers on purpose is reported with
``--compare OTHER``, which prints every line that differs from another
dump, field by field, and exits 1 if any does::

    python benchmarks/answer_dump.py --backend numpy --out new.tsv \
        --compare old.tsv

The cells are built with the benchmark's own testbeds
(``perfbench/systems.py``, imported, never modified), and every query
runs ``Metasearcher.select(query, k, certainty=0.9)``:

* ``paper-k3``: the first 200 test queries of the paper testbed, k = 3;
* ``paper-k1``: the first 600 test queries of the paper testbed, k = 1;
* ``federation-k1``: 120 queries of the 1024-database federation, k = 1.

Each answer is one tab-separated line: cell, query terms, selected
databases, probe order and ``certainty.hex()`` (the exact float). The
script prints the line count and the SHA-256 of the file. The
``systems`` import clears inherited ``REPRO_*`` knobs, so the backend
is set only by ``--backend``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import systems  # noqa: E402  (clears REPRO_* knobs, exposes src/)

CELLS = (
    # (cell, testbed, queries, k)
    ("paper-k3", "paper", 200, 3),
    ("paper-k1", "paper", 600, 1),
    ("federation-k1", "federation", 120, 1),
)


def answer_lines(cell, testbed, k, count):
    """One line per answer of *cell* over the first *count* queries."""
    for query in testbed.queries[:count]:
        session = testbed.metasearcher.select(
            query, k, certainty=systems.CERTAINTY
        )
        yield "\t".join(
            (
                cell,
                " ".join(query.terms),
                ",".join(session.final.names),
                ",".join(record.database for record in session.records),
                session.final.expected_correctness.hex(),
            )
        )


def compare(lines, other_path) -> int:
    """Print each line that differs from *other_path*'s; 1 if any do."""
    other = other_path.read_text().splitlines()
    differing = 0
    for index in range(max(len(lines), len(other))):
        mine = lines[index].split("\t") if index < len(lines) else None
        theirs = other[index].split("\t") if index < len(other) else None
        if mine == theirs:
            continue
        differing += 1
        cell, terms = (mine or theirs)[:2]
        print(f"line {index + 1}: {cell} | {terms}")
        for position, field in enumerate(("selected", "probes", "certainty")):
            this = mine[position + 2] if mine else "(missing)"
            that = theirs[position + 2] if theirs else "(missing)"
            mark = " " if this == that else "*"
            print(f"  {mark} {field:<9} this: {this}  other: {that}")
    print(f"differ : {differing} of {len(lines)} lines vs {other_path}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("numpy", "python"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--compare",
        type=Path,
        metavar="OTHER",
        help="print the lines that differ from dump OTHER; exit 1 if any",
    )
    args = parser.parse_args(argv)
    os.environ["REPRO_BACKEND"] = args.backend

    builders = {
        "paper": lambda: systems.build_paper(
            max(count for _c, name, count, _k in CELLS if name == "paper")
        ),
        "federation": lambda: systems.build_federation(
            max(count for _c, name, count, _k in CELLS if name == "federation")
        ),
    }
    testbeds: dict = {}
    lines: list[str] = []
    for cell, name, count, k in CELLS:
        started = time.perf_counter()
        if name not in testbeds:
            testbeds[name] = builders[name]()
        cell_lines = list(answer_lines(cell, testbeds[name], k, count))
        lines += cell_lines
        print(
            f"{cell}: {len(cell_lines)} answers in "
            f"{time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
    payload = "".join(line + "\n" for line in lines).encode()
    args.out.write_bytes(payload)
    print(f"lines  : {len(lines)}")
    print(f"sha256 : {hashlib.sha256(payload).hexdigest()}")
    return compare(lines, args.compare) if args.compare else 0


if __name__ == "__main__":
    sys.exit(main())
