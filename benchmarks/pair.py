#!/usr/bin/env python3
"""Paired runs of the end-to-end benchmark: a base commit against the
working tree, alternated, with the verdict of the paired protocol.

    python3 benchmarks/pair.py --workload wan754-coldstart --pairs 10
    python3 benchmarks/pair.py --workload paper15-tcp-des --base HEAD~1
    python3 benchmarks/pair.py --aa --pairs 1 --workload wan754-coldstart --seconds 1

Side A is ``--base`` (default ``HEAD``), checked out with ``git worktree
add --detach`` into a temporary directory and removed again on exit;
side B is the working tree as it stands, uncommitted edits included
(``--aa`` runs A against itself: the floor of the box).  Each side runs
the unchanged ``benchmarks/e2e/run.py`` of its own checkout, one fresh
process per run; pair *i* runs A first when *i* is even and B first
when it is odd (ABBA).  Every run must print ``golden: match`` with no
failed operation, or this program exits non-zero before it prints a
ratio.

For each end-to-end metric that ``BENCHMARK.json`` names it prints both
sides' median and quartiles, the median of the per-pair B/A ratios,
B's wins of N (ties count for neither) and a verdict: ``better`` or
``worse`` when one side wins at least nine tenths of at least ten pairs
and the medians differ by more than A's interquartile range, else
``unresolved``.  Each side is labelled with its commit, and the working
tree with ``+dirty`` when it differs from ``HEAD``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "e2e", "run.py")

#: The fewest pairs a verdict other than ``unresolved`` may rest on, and
#: the share of them the winning side must take.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order
    statistics; one value is its own three quartiles."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(
    metrics: Sequence[Dict[str, str]],
    base: Sequence[Dict[str, float]],
    change: Sequence[Dict[str, float]],
) -> List[Dict[str, object]]:
    """One row per metric from paired runs: ``base[i]`` and
    ``change[i]`` are pair *i*'s metric values, and each entry of
    *metrics* is a ``BENCHMARK.json`` end-to-end entry (``name``,
    ``unit``, ``better``)."""
    if len(base) != len(change):
        raise ValueError(f"{len(base)} base runs against {len(change)}")
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [float(run[name]) for run in base]
        b = [float(run[name]) for run in change]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        gap, spread = sign * (qb[1] - qa[1]), qa[2] - qa[0]
        verdict = "unresolved"
        if len(a) >= MIN_PAIRS and abs(gap) > spread:
            if gap > 0 and wins >= WIN_SHARE * len(a):
                verdict = "better"
            elif gap < 0 and losses >= WIN_SHARE * len(a):
                verdict = "worse"
        ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "base": qa, "change": qb, "ratio": quartiles(ratios)[1],
            "wins": wins, "pairs": len(a), "verdict": verdict,
        })
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    def f(x: float) -> str:
        return f"{x:,.0f}" if abs(x) >= 1e4 else f"{x:.4g}"

    def q(t) -> str:
        return f"{f(t[1])} [{f(t[0])}, {f(t[2])}]"

    head = ("metric", "unit", "better", "A median [q1, q3]",
            "B median [q1, q3]", "B/A", "B wins", "verdict")
    body = [(r["name"], r["unit"], r["better"], q(r["base"]), q(r["change"]),
             f"{r['ratio']:.3f}", f"{r['wins']}/{r['pairs']}", r["verdict"])
            for r in rows]
    widths = [max(len(str(line[i])) for line in [head, *body])
              for i in range(len(head))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(line, widths))
                     .rstrip() for line in [head, *body])


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", REPO_ROOT, *args], check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def _run(tree: str, label: str, args: argparse.Namespace) -> Dict[str, float]:
    """One benchmark run in *tree*; its end-to-end metric values, or
    ``SystemExit`` when the run is not a verified one."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary, last = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"pair.py: {label}: no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}") from None
    if summary.get("golden") != "match" or last.get("failed") != 0:
        raise SystemExit(
            f"pair.py: {label}: golden {summary.get('golden')!r}, failed "
            f"{last.get('failed')!r}; no ratio printed")
    return {k: v["value"] for k, v in last["metrics"].items()}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--aa", action="store_true",
                        help="run the base against itself")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    base_label = _git("rev-parse", "--short", args.base)
    if args.aa:
        change_label = base_label
    else:
        dirty = _git("status", "--porcelain")
        change_label = _git("rev-parse", "--short", "HEAD") + (
            "+dirty" if dirty else "")
    tmp = tempfile.mkdtemp(prefix="kar-pair-")
    base_tree = os.path.join(tmp, "base")
    try:
        _git("worktree", "add", "--detach", base_tree, args.base)
        trees = {"A": base_tree, "B": base_tree if args.aa else REPO_ROOT}
        runs: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                label = f"pair {i + 1}/{args.pairs} side {side}"
                runs[side].append(_run(trees[side], label, args))
                print(f"{label}: " + "  ".join(
                    f"{m['name']} {runs[side][-1][m['name']]:.6g}"
                    for m in metrics), file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "-C", REPO_ROOT, "worktree", "remove",
                        "--force", base_tree], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds:g}, alternated ABBA")
    print(f"A = {base_label} (--base {args.base})")
    print(f"B = {change_label}" + (" (A/A)" if args.aa else " (working tree)"))
    print(render(summarize(metrics, runs["A"], runs["B"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
