"""Paired parent/change runs of the repo benchmark.

Usage (from any directory):

    python3 benchmarks/paired.py --parent REV [--change REV] \\
        --workload paper-warm --pairs 10 [--seed 1996] [--seconds 15]

Each revision is checked out with ``git worktree add --detach`` into a
temporary directory.  Without ``--change`` the change side is this
checkout as it stands, uncommitted edits included.  A pair runs
``perfbench/run.py --trace 0`` once per side, each from its own root,
and the side that goes first alternates: the parent in pairs 1, 3, ...
and the change in pairs 2, 4, ..., because on a shared host the first
run of a pair can be systematically faster.

The report has one line per pair with the three end-to-end metrics
(parent/change), then per metric each side's median and q1-q3, the
change/parent ratio of the medians, and the pairs the change won,
"better" read from ``BENCHMARK.json``.  The exit status is 1 if any
run is not ``correct``, has ``failed`` > 0 or produces no result.
The worktrees are removed on every exit path, Ctrl-C included.  The
script only runs perfbench; it never edits it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def order(pair: int) -> Tuple[str, str]:
    """The sides of pair ``pair`` (0-based) in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: Sequence[Dict[str, Dict[str, float]]],
              end_to_end: Sequence[dict]) -> List[dict]:
    """Per metric of ``end_to_end`` (BENCHMARK.json's list): each
    side's quartiles, the change/parent ratio of the medians, and the
    pairs in which the change was strictly better."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        row = {"name": name, "better": metric["better"],
               "parent": quartiles(parent), "change": quartiles(change),
               "pairs": len(pairs)}
        row["ratio"] = (row["change"][1] / row["parent"][1]
                        if row["parent"][1] else float("nan"))
        row["wins"] = sum((c < p) if lower else (c > p)
                          for p, c in zip(parent, change))
        rows.append(row)
    return rows


def format_pair(index: int, first: str, pair: Dict[str, Dict[str, float]],
                names: Sequence[str]) -> str:
    cells = "  ".join(
        f"{name} {pair['parent'][name]:.6g}/{pair['change'][name]:.6g}"
        for name in names)
    return f"pair {index + 1} ({first} first): {cells}"


def format_summary(rows: Sequence[dict]) -> str:
    def spread(q):
        return f"{q[1]:.6g} ({q[0]:.6g}-{q[2]:.6g})"

    lines = [f"{'metric':<14} {'better':<7} {'parent median (q1-q3)':<38} "
             f"{'change median (q1-q3)':<38} {'change/parent':>13}  wins"]
    for row in rows:
        lines.append(
            f"{row['name']:<14} {row['better']:<7} {spread(row['parent']):<38} "
            f"{spread(row['change']):<38} {row['ratio']:>13.4f}  "
            f"{row['wins']}/{row['pairs']}")
    return "\n".join(lines)


def run_perfbench(root: Path, workload: str, seed: int,
                  seconds: float) -> Optional[dict]:
    """One ``perfbench/run.py --trace 0`` run from ``root``: its final
    JSON line, or ``None`` when it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(root), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {name: entry["value"]
                             for name, entry in result["metrics"].items()}
        return result
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                   stdout=subprocess.DEVNULL)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default=None,
                        help="change revision (default: this checkout)")
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "paper-warm", "serve-mix"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in end_to_end]

    def _terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    scratch = Path(tempfile.mkdtemp(prefix="paired-"))
    worktrees = []
    ok = True
    try:
        roots = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            if rev is None:
                roots[side] = ROOT
                continue
            roots[side] = scratch / side
            worktrees.append(roots[side])
            _git("worktree", "add", "--detach", str(roots[side]), rev)
        print(f"paired: {args.workload} seed={args.seed} "
              f"seconds={args.seconds} parent={args.parent} "
              f"change={args.change or 'this checkout'}", flush=True)
        pairs = []
        for index in range(args.pairs):
            pair = {}
            for side in order(index):
                result = run_perfbench(roots[side], args.workload, args.seed,
                                       args.seconds)
                if result is None:
                    print(f"pair {index + 1}: the {side} run produced no "
                          "result", flush=True)
                    return 1
                if not result.get("correct") or result.get("failed", 0) > 0:
                    ok = False
                    print(f"pair {index + 1}: the {side} run reported "
                          f"correct={result.get('correct')} "
                          f"failed={result.get('failed')}", flush=True)
                pair[side] = result["metrics"]
            pairs.append(pair)
            print(format_pair(index, order(index)[0], pair, names), flush=True)
        print(format_summary(summarize(pairs, end_to_end)), flush=True)
        return 0 if ok else 1
    finally:
        for path in worktrees:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(path)],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
