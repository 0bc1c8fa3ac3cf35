#!/usr/bin/env python3
"""End-to-end KAR benchmark: one workload, one seed, one process.

    python3 benchmarks/e2e/run.py --workload wan754-coldstart --seed 1
    python3 benchmarks/e2e/run.py --all --seed 1        # the five, in turn
    python3 benchmarks/e2e/run.py --workload ... --trace 1   # per-layer run
    python3 benchmarks/e2e/run.py --workload ... --quick     # smoke size
    python3 benchmarks/e2e/run.py --selfcheck --sets 2       # A/A agreement
    python3 benchmarks/e2e/run.py --regolden                 # rewrite golden.json

Inside a run: set-up (imports, fixtures, one verification pass that is
also the warm-up) -> timed repeats, each on freshly built program state
-> interference-free estimates (harness.quiet_seconds).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full summary, which ends with ``"claim": null`` — this
program measures, it never claims a gain.  See README.md beside this
file for what each workload and metric is for.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness
import metrics as M
from harness import Ops, Repeat, Tracer, median

GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEEDS = (1, 2)
DEFAULT_SECONDS = 12
MIN_REPEATS = 5
TRACE_PAIRS = 3


def _workload_classes() -> Dict[str, Any]:
    """Import the workloads (and with them the program under test)."""
    if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
        raise SystemExit(
            f"benchmarks/e2e: no program to measure: {harness.SRC_DIR}/repro "
            f"is missing"
        )
    if harness.SRC_DIR not in sys.path:
        sys.path.insert(1, harness.SRC_DIR)
    from wl_coldstart import Coldstart
    from wl_des import PaperDes
    from wl_forward import ForwardClean, ForwardStorm
    from wl_service import ServiceChurn

    classes = (Coldstart, ForwardClean, ForwardStorm, PaperDes, ServiceChurn)
    return {cls.name: cls for cls in classes}


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float = DEFAULT_SECONDS,
            trace: bool = False, quick: bool = False,
            repeats: Optional[int] = None,
            started: Optional[float] = None,
            use_golden: bool = True) -> Dict[str, Any]:
    """Run one workload once; returns the full result record."""
    started = time.perf_counter() if started is None else started
    load_start = harness.loadavg_1min()
    tracer, ops = Tracer(), Ops()
    workload = _workload_classes()[name](seed, quick, tracer, ops)
    size_key = "quick" if quick else "full"
    golden = (
        load_golden().get(size_key, {}).get(name, {}).get(str(seed))
        if use_golden else None
    )
    golden_state = "absent" if golden is None else "match"

    tracer.enabled, tracer.run_id = trace, -1
    with tracer.span("setup"):
        workload.setup()
    tracer.enabled = False

    reps: List[Repeat] = []
    ops_per_repeat = 0

    def one_repeat(traced: bool) -> None:
        nonlocal golden_state, ops_per_repeat
        gc.collect()
        before = (ops.attempted, ops.failed)
        tracer.enabled, tracer.run_id = traced, len(reps)
        rep = workload.repeat()
        tracer.enabled = False
        rep.traced, rep.run_id = traced, len(reps)
        workload.check(rep)
        # (d): the benchmark's own digest repeats, and is the golden one.
        problems = []
        if reps and rep.digest != reps[0].digest:
            problems.append("digest differs from the first repeat")
        if golden is not None:
            if rep.digest != golden["digest"]:
                problems.append("digest differs from golden.json")
            if workload.golden_facts(rep) != golden["facts"]:
                problems.append("facts differ from golden.json")
        ops.ok()  # the digest comparison is an operation of its own
        if golden is not None and (
            ops.attempted - before[0] != golden["ops_per_repeat"]
        ):
            problems.append("operation count differs from golden.json")
        if problems:
            # A wrong digest spoils every answer of the repeat.
            ops.failed = before[1] + (ops.attempted - before[0])
            ops.reasons.append(f"repeat {len(reps)}: " + "; ".join(problems))
            if any("golden" in p for p in problems):
                golden_state = "mismatch"
        ops_per_repeat = ops.attempted - before[0]
        reps.append(rep)

    setup_ops = ops.attempted
    one_repeat(traced=False)  # verification before timing; also warm-up
    setup_s = time.perf_counter() - started

    if repeats is None:
        repeats = 1 if quick else max(
            MIN_REPEATS, math.ceil(seconds / workload.nominal_repeat_s)
        )
    if trace:
        pairs = 1 if quick else TRACE_PAIRS
        for _ in range(pairs):
            one_repeat(traced=False)
            one_repeat(traced=True)
    else:
        for _ in range(repeats):
            one_repeat(traced=False)

    # Every repeat does identical work, and what a shared box adds
    # (+25-30 % here, coming and going within seconds) it only ever
    # adds: the estimate is each slice's fastest occurrence, summed.
    # Median, min and max of the whole repeats are printed beside it.
    timed = [r for r in reps[1:] if not r.traced]
    times = [r.seconds for r in timed]
    quiet_s = harness.quiet_seconds(timed)
    universal = {
        "setup_s": setup_s,
        "repeat_s": quiet_s,
        "work_per_s": timed[0].work / quiet_s,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    named = workload.named(timed, quiet_s)

    layers: Dict[str, float] = {}
    if trace:
        traced_reps = [r for r in reps if r.traced]
        fastest = min(traced_reps, key=lambda r: r.seconds)
        layers = workload.layers(
            tracer.durations(fastest.run_id), fastest, traced_reps
        )
        layers["trace.overhead_share"] = (
            harness.quiet_seconds(traced_reps) / quiet_s - 1.0
        )
        layers["trace.span_coverage"] = tracer.coverage("repeat")
        tracer.dump(os.path.join(
            harness.OUT_DIR, f"trace-{name}-seed{seed}.jsonl"
        ))
    named["failed_ops_share"] = ops.failed / ops.attempted

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": harness.environment(seed, quick, workload.sizes(), load_start),
        "work_unit": workload.work_unit,
        "golden": golden_state,
        "digest": reps[0].digest,
        "golden_facts": workload.golden_facts(reps[0]),
        "repeats": len(timed),
        "repeat_seconds": times,
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        "ops_setup": setup_ops,
        "ops_per_repeat": ops_per_repeat,
        "failed_reasons": ops.reasons[:8],
        "universal": universal,
        "named": named,
        "layers": layers,
        "spans": len(tracer),
        "claim": None,
    }


def _shown(name: str, quick: bool) -> bool:
    """``--quick`` runs are too short to time: they withhold every
    host-time figure and print counts and checks only."""
    return not quick or M.BY_NAME[name].base != "host"


def is_correct(result: Dict[str, Any]) -> bool:
    return result["ops_failed"] == 0 and result["golden"] != "mismatch"


def reported_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """The metric set the last line carries: the bounded end-to-end
    ones, or with ``--trace 1`` every per-layer one (0 where this
    workload does not exercise the layer)."""
    if result["trace"]:
        values = {**result["named"], **result["layers"]}
        out = {m.name: float(values.get(m.name, 0.0)) for m in M.PER_LAYER}
    else:
        out = {m.name: float(result["universal"][m.name]) for m in M.UNIVERSAL}
    quick = result["env"]["quick"]
    return {k: v for k, v in out.items() if _shown(k, quick)}


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": is_correct(result),
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": value, "unit": M.BY_NAME[name].unit}
            for name, value in reported_metrics(result).items()
        },
    })


def render(result: Dict[str, Any]) -> str:
    """Every metric by name, with unit and time base."""
    quick = result["env"]["quick"]
    lines = [
        f"# kar-e2e {result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])} quick={int(quick)}",
        "env " + json.dumps(result["env"], sort_keys=True),
        f"golden: {result['golden']}   digest {result['digest'][:16]}   "
        f"timed repeats n={result['repeats']}",
        f"ops_attempted {result['ops_attempted']}   "
        f"ops_failed {result['ops_failed']}",
    ]
    lines += [f"  ! {why}" for why in result["failed_reasons"]]
    times = result["repeat_seconds"]
    if times and not quick:
        lines.append(
            f"repeat seconds: median {median(times):.4f} "
            f"min {min(times):.4f} max {max(times):.4f} n={len(times)}"
        )

    def row(name: str, value: float) -> Optional[str]:
        m = M.BY_NAME[name]
        if not _shown(name, quick):
            return None
        bound = "" if m.bound is None else (
            "  exact" if m.bound == 0 else f"  bound {m.bound:.2f}"
        )
        share = ""
        if m.unit == "s" and name in result["layers"]:
            whole = result["universal"]["repeat_s"]
            share = f"  = {value / whole:6.1%} of repeat_s" if whole else ""
        return (f"  {name:42s} {value:16.6f} {m.unit:7s} {m.base:9s} "
                f"{m.better}{bound}{share}")

    lines.append("end-to-end:")
    for name, value in {**result["universal"], **result["named"]}.items():
        lines.append(row(name, value))
    if result["trace"]:
        lines.append(f"per-layer ({result['spans']} spans):")
        for m in M.LAYERS:
            if m.name in result["layers"]:
                lines.append(row(m.name, result["layers"][m.name]))
    if quick:
        lines.append("quick: host-time figures withheld (too short to time)")
    return "\n".join(line for line in lines if line is not None)


def summary_line(result: Dict[str, Any]) -> str:
    keep = {k: v for k, v in result.items() if k != "claim"}
    quick = result["env"]["quick"]
    for group in ("universal", "named", "layers"):
        keep[group] = {
            k: v for k, v in result[group].items() if _shown(k, quick)
        }
    if quick:
        keep["repeat_seconds"] = []
    keep["claim"] = None  # last key: this program never claims a gain
    return json.dumps(keep)


# ----------------------------------------------------------------------
# several runs
# ----------------------------------------------------------------------

def _child(args: Sequence[str]) -> Dict[str, Any]:
    """One run in a fresh process; returns its summary record."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run {' '.join(args)} failed ({proc.returncode})")
    return json.loads(lines[-2])


def run_all(seed: int, seconds: float, trace: bool, quick: bool) -> int:
    failed = 0
    results = []
    for name, _why in M.WORKLOADS:
        args = ["--workload", name, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(int(trace))]
        result = _child(args + (["--quick"] if quick else []))
        print(render(result))
        failed += result["ops_failed"]
        results.append(result)
    print(json.dumps({
        "workloads": {
            r["workload"]: {**r["universal"], **r["named"], **r["layers"]}
            for r in results
        },
        "ops_failed": failed,
        "claim": None,
    }))
    return 1 if failed else 0


def selfcheck(sets: int, seeds: Sequence[int], seconds: float,
              only: Optional[str] = None) -> int:
    """A/A: the same commit measured *sets* times; per metric the set
    medians, how far apart they are, the spread inside a set, and
    whether both stay inside the metric's bound."""
    runs: Dict[str, List[List[Dict[str, Any]]]] = {}
    names = [only] if only else [name for name, _why in M.WORKLOADS]
    for s in range(sets):
        for name in names:
            for seed in seeds:
                result = _child(["--workload", name, "--seed", str(seed),
                                 "--seconds", str(seconds)])
                runs.setdefault(name, [[] for _ in range(sets)])[s].append(
                    result)
                print(f"set {s + 1} {name} seed {seed}: "
                      f"repeat_s {result['universal']['repeat_s']:.4f} "
                      f"ops_failed {result['ops_failed']}", flush=True)
    unresolved = 0
    print(f"{'workload':22s} {'metric':22s} " +
          " ".join(f"{'median' + str(i + 1):>14s}" for i in range(sets)) +
          f" {'rel.diff':>9s} {'spread':>8s} {'bound':>6s}  verdict")
    for name, per_set in runs.items():
        digests = {r["digest"] for rs in per_set for r in rs
                   if r["seed"] == seeds[0]}
        for metric in M.UNIVERSAL + M.NAMED:
            if metric.workloads and name not in metric.workloads:
                continue
            groups = [
                [{**r["universal"], **r["named"]}[metric.name] for r in rs]
                for rs in per_set
            ]
            meds = [median(g) for g in groups]
            base = meds[0]
            diff = max(abs(m - base) for m in meds) / base if base else 0.0
            inner = max(harness.spread(g) for g in groups)
            bound = metric.bound or 0.0
            if bound == 0:  # exact: seed by seed, not a bit may move
                ok = all(g == groups[0] for g in groups)
            else:
                ok = diff <= bound and (
                    metric.name == "setup_s" or inner <= bound
                )
            unresolved += not ok
            print(f"{name:22s} {metric.name:22s} " +
                  " ".join(f"{m:14.6f}" for m in meds) +
                  f" {diff:9.4f} {inner:8.4f} {bound:6.2f}  "
                  f"{'PASS' if ok else 'UNRESOLVED'}")
        same = len(digests) == 1
        unresolved += not same
        print(f"{name:22s} {'digest':22s} "
              f"{'bit-equal' if same else 'DIFFERS'}")
    print(json.dumps({"selfcheck_unresolved": unresolved, "claim": None}))
    return 1 if unresolved else 0


def regolden() -> int:
    """Rewrite golden.json from this commit — refused unless checks
    (a)-(c) pass and the digest repeats."""
    golden: Dict[str, Any] = {}
    for quick in (True, False):
        size = golden.setdefault("quick" if quick else "full", {})
        for name, _why in M.WORKLOADS:
            for seed in GOLDEN_SEEDS:
                result = measure(name, seed, quick=quick, repeats=1,
                                 use_golden=False)
                if result["ops_failed"]:
                    print(render(result))
                    raise SystemExit(
                        f"refusing to regolden: {name} seed {seed} fails "
                        f"its own checks"
                    )
                size.setdefault(name, {})[str(seed)] = {
                    "digest": result["digest"],
                    "ops_per_repeat": result["ops_per_repeat"],
                    "facts": result["golden_facts"],
                }
                print(f"golden {'quick' if quick else 'full'} {name} "
                      f"seed {seed}: {result['digest'][:16]}", flush=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in M.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="host seconds of timed repeats to aim for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: checks and counts, no timings")
    parser.add_argument("--all", action="store_true",
                        help="every workload, one process each")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds for --selfcheck")
    parser.add_argument("--regolden", action="store_true")
    args = parser.parse_args(argv)

    _workload_classes()  # fail before any output when there is no program
    if args.regolden:
        return regolden()
    if args.selfcheck:
        seeds = [int(s) for s in args.seeds.split(",")]
        return selfcheck(args.sets, seeds, args.seconds, args.workload)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.quick)
    if not args.workload:
        parser.error("one of --workload, --all, --selfcheck, --regolden")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick, started=_PROCESS_START)
    print(render(result))
    print(summary_line(result))
    print(contract_line(result))
    return 0 if is_correct(result) else 1


if __name__ == "__main__":
    sys.exit(main())
