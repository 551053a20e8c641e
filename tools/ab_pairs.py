"""Compare one benchmark workload on two trees, in alternating pairs.

    python tools/ab_pairs.py --parent DIR --change DIR --workload float-wide \\
        --pairs 10 --seconds 25 --seed 1

For each pair it runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` in each tree, with the interpreter that runs this script, the
parent first in odd pairs and the change first in even ones.  It prints each
run's metrics and ``failed``, then per metric each side's median and
quartiles, the change in % of the parent's median, and in how many pairs the
change read lower; a tie counts for neither side.  It exits 1 when a run
exits non-zero, reports ``failed > 0`` or ends on a line that is not a
result, and never on a timing.  Standard library only; it imports nothing
from ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict | None:
    """The result object on the last line of a run's output, or ``None``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not (isinstance(result, dict) and isinstance(result.get("metrics"), dict)
            and isinstance(result.get("failed"), int)):
        return None
    return result


def problem(code: int, result: dict | None) -> str | None:
    """Why a run with exit code ``code`` and ``result`` is bad, or ``None``."""
    if result is None:
        return f"no result on the last line (exit code {code})"
    if code:
        return f"exit code {code}"
    if result["failed"]:
        return f"{result['failed']} of {result.get('attempted', '?')} cases failed"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Per metric of the parent's results, each side's quartiles and the change."""
    lines = []
    for name, first in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
        lower = sum(c < p for p, c in zip(parent, change))
        percent = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
        lines.append(
            f"{name} ({first['unit']}): parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}], "
            f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}], {percent}, "
            f"change lower in {lower} of {len(pairs)}"
        )
    return lines


def describe(result: dict) -> str:
    shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
    return f"{shown}, failed {result['failed']}"


def run(tree: Path, args) -> tuple[int, dict | None]:
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    return proc.returncode, parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    pairs, bad = [], 0
    for i in range(1, args.pairs + 1):
        sides = ["parent", "change"] if i % 2 else ["change", "parent"]
        results = {}
        for side in sides:
            code, result = run(getattr(args, side), args)
            why = problem(code, result)
            print(f"pair {i} {side}: " + (f"BAD, {why}" if why else describe(result)),
                  flush=True)
            bad += why is not None
            if result is not None:
                results[side] = result
        if len(results) == 2:
            pairs.append((results["parent"], results["change"]))
    if pairs:
        print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
              "median [quartiles] a side:")
        for line in summarize(pairs):
            print(f"  {line}")
    if bad:
        print(f"{bad} bad runs", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
