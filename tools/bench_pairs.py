"""Run the benchmark in pairs on two checkouts and say whether a change wins.

    python3 tools/bench_pairs.py PARENT CHANGE --workload pne-search \\
        --seed 811 --pairs 10 --seconds 35 [--out BENCH.json]

PARENT and CHANGE are source checkouts, each with its own ``perfbench/`` and
``src/``. Each pair runs ``perfbench/run.py`` once in each checkout, one
after the other, the side that goes first alternating from pair to pair
(the parent first in pair 0). For every end-to-end metric of
``BENCHMARK.json`` the tool prints each side's median and quartiles, how
many pairs the change won (ties count for neither side) and a verdict:

- ``gain``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``BENCHMARK.json`` bound, a fraction of the parent's median;
- ``flat`` otherwise.

With ``--out`` the runs and the summary are appended, as one record, to the
JSON list in that file (the file is made if it is missing).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def end_to_end() -> list:
    """The end-to-end metrics of this checkout's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics) -> dict:
    """Per metric: each side's quartiles, the change's wins, the pair count
    and the verdict (see the module docstring). ``pairs`` holds one
    ``{"parent": {name: value}, "change": {name: value}}`` per pair;
    ``metrics`` holds ``BENCHMARK.json`` entries (name, better, bound)."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        # gain > 0 when the change's median is the better one
        gain = (p_q[1] - c_q[1]) if lower else (c_q[1] - p_q[1])
        if wins >= GAIN_SHARE * len(pairs) and gain > p_q[2] - p_q[0]:
            verdict = "gain"
        elif -gain > metric["bound"] * abs(p_q[1]):
            verdict = "worse"
        else:
            verdict = "flat"
        out[name] = {"parent": p_q, "change": c_q, "wins": wins,
                     "pairs": len(pairs), "verdict": verdict}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in the {side} checkout {checkout}",
                  file=sys.stderr)
            return 2

    metrics = end_to_end()
    runs = []
    for number in range(args.pairs):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed,
                                  args.seconds)
        runs.append(pair)
        print(f"pair {number}: " + ", ".join(
            f"{side} {pair[side]['metrics'][metrics[0]['name']]['value']:.4g}"
            for side in SIDES), file=sys.stderr)

    values = [{side: {name: entry["value"]
                      for name, entry in pair[side]["metrics"].items()}
               for side in SIDES} for pair in runs]
    summary = summarize(values, metrics)
    failed = {side: sum(pair[side]["failed"] for pair in runs) for side in SIDES}
    correct = all(pair[side]["correct"] for pair in runs for side in SIDES)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs; failed parent {failed['parent']}, change "
          f"{failed['change']}; all correct: {correct}")
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        print(f"  {name}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> "
              f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}], change won "
              f"{row['wins']}/{row['pairs']}: {row['verdict']}")

    if args.out:
        records = json.loads(args.out.read_text()) if args.out.exists() else []
        records.append({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "pairs": runs, "summary": summary})
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
