"""Hash every query output of the benchmark's workloads, to check that a
change to contractlab keeps them all.

    python3 tools/output_hashes.py [--src DIR] [--seeds 811,2701] [--rounds 0-2]

Run from anywhere; the library is imported once, from ``--src`` (default:
``src/`` of this checkout), and the queries are built by
``perfbench/workloads.py`` of this checkout for each seed and round given.
Each query runs in build order. Per workload, the tool prints the number of
queries and one sha256 over each query's name, the ``repr`` of its output
(or its exception's type and message) and whatever it printed. Two runs,
say against a parent commit's ``src/`` and against a change's, keep every
output when each workload's line is the same.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from run import MODULES  # noqa: E402


def library(src: Path) -> SimpleNamespace:
    """contractlab imported from ``src``, as the namespace the workloads take;
    ValueError if an earlier import came from elsewhere."""
    sys.path.insert(0, str(src))
    modules = {"package": importlib.import_module("contractlab")}
    for short in MODULES:
        modules[short] = importlib.import_module(f"contractlab.{short}")
    found = Path(modules["package"].__file__).resolve().parent
    if found != (src / "contractlab").resolve():
        raise ValueError(f"contractlab was imported from {found}, not from {src}")
    return SimpleNamespace(**modules)


def output_hash(lib, workload: str, seeds, rounds) -> tuple:
    """(query count, sha256 hex digest) of ``workload`` over every seed and
    round: each query's name, the repr of its output or its exception's type
    and message, and what it printed."""
    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
        for round_no in rounds:
            for query in workloads.WORKLOADS[workload](lib, seed, round_no):
                printed = io.StringIO()
                try:
                    with contextlib.redirect_stdout(printed), \
                            contextlib.redirect_stderr(printed):
                        result = repr(query.call())
                except Exception as exc:  # an exception is an output too
                    result = f"{type(exc).__name__}: {exc}"
                for part in (query.name, result, printed.getvalue()):
                    digest.update(part.encode())
                    digest.update(b"\0")
                count += 1
    return count, digest.hexdigest()


def _numbers(text: str) -> list:
    """'811,2701' -> [811, 2701]; '0-2' -> [0, 1, 2]."""
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", type=_numbers, default=[811, 2701])
    parser.add_argument("--rounds", type=_numbers, default=[0, 1, 2])
    args = parser.parse_args(argv)
    if not (args.src / "contractlab" / "__init__.py").is_file():
        print(f"error: no contractlab sources at {args.src}", file=sys.stderr)
        return 2
    lib = library(args.src)
    for workload in workloads.WORKLOADS:
        count, digest = output_hash(lib, workload, args.seeds, args.rounds)
        print(f"{workload}: {count} queries, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
