"""Shared machinery of the end-to-end benchmark.

Spans, operation accounting, small statistics, the cProfile grouping
and the environment stamp.  Nothing here knows a workload: a workload
(``wl_*.py``) builds the program's inputs from the seed, runs one
*repeat* on fresh program state and hands back a :class:`Repeat`;
``run.py`` owns the repeat loop and the output.

Host time and simulated time never share a variable here: every
``*_s``/``*_us``/``*_ms`` value produced by this module is host time
from ``time.perf_counter``.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import platform
import pstats
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: The program's own simulation RNG seed: an input held fixed, so
#: ``--seed`` moves only what the benchmark generates.
SIM_SEED = 20160628
#: Hop budget stamped on every epoch-model flow.
TTL = 64


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class _NullSpan:
    """What ``Tracer.span`` hands out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._index = tracer._open(name)

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer._stack.append(self._index)
        tracer.starts[self._index] = time.perf_counter()

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.ends[self._index] = end
        tracer._stack.pop()
        return False


class Tracer:
    """In-memory span recorder around the benchmark's own calls.

    A span is ``name, start, end, parent, run_id`` (``parent`` is the
    index of the enclosing span, ``-1`` for a root; ``run_id`` names the
    repeat).  Spans are kept as five parallel columns — tens of
    thousands of small per-span objects would make every later garbage
    collection, and with it every later repeat, slower — and written as
    JSONL once, by :meth:`dump`, after measuring is over.  With
    ``enabled`` False a ``with tracer.span(...)`` costs one attribute
    test.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = 0
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.run_ids: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        return len(self.names) - 1

    def span(self, name: str) -> Any:
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span the caller timed itself (a request latency the
        benchmark measures with or without tracing)."""
        if self.enabled:
            index = self._open(name)
            self.starts[index] = start
            self.ends[index] = end

    # -- analysis ------------------------------------------------------
    def durations(self, run_id: int) -> Dict[str, float]:
        """Summed span duration per name within one repeat."""
        out: Dict[str, float] = {}
        for name, start, end, rid in zip(
            self.names, self.starts, self.ends, self.run_ids
        ):
            if rid == run_id:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> List[float]:
        """Per span: duration minus what its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def coverage(self, root_name: str) -> float:
        """Share of the *root_name* spans' time their children cover."""
        roots = {i for i, n in enumerate(self.names) if n == root_name}
        total = sum(self.ends[i] - self.starts[i] for i in roots)
        covered = sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent in roots
        )
        return covered / total if total > 0 else 0.0

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in zip(
                self.names, self.starts, self.ends, self.parents,
                self.run_ids,
            ):
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "run_id": rid,
                }) + "\n")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

class Ops:
    """Attempted/failed operation counts, with the first few reasons.

    An operation is a benchmark-level unit with a checkable answer; it
    fails when the program's output is wrong — never because a
    simulated packet was dropped.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < 8:
            self.reasons.append(why)

    def expect(self, cond: bool, why: str, n: int = 1) -> bool:
        if cond:
            self.ok(n)
        else:
            self.fail(why, n)
        return bool(cond)


class Laps:
    """Consecutive slices of one repeat's measured body.

    Every repeat of a run does the same work in the same order, so slice
    *k* of one repeat is comparable with slice *k* of any other — which
    is what lets :func:`quiet_seconds` discard interference slice by
    slice instead of repeat by repeat.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._last = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last)
        self._last = now


@dataclass
class Repeat:
    """What one repeat of a workload hands back.

    ``slices`` are host seconds of consecutive parts of the measured
    body (their sum is ``seconds``); ``work`` is the workload's own unit
    of completed work (mesh routes, hops, simulated microseconds,
    requests); ``digest`` is the benchmark's own sha256 over selected
    simulated fields; ``facts`` are counts and simulated values;
    ``samples`` are host-time latency lists in seconds.
    """

    slices: List[float]
    work: float
    digest: str
    facts: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    traced: bool = False
    run_id: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.slices)


def quiet_seconds(reps: Sequence[Repeat]) -> float:
    """Host seconds of one repeat with interference taken out: for each
    slice its fastest occurrence in any repeat, summed.

    Interference on a shared box only ever adds time, and here it comes
    and goes within seconds, so whole repeats are rarely free of it
    while every slice sooner or later is.  With one slice per repeat
    this is the fastest repeat.
    """
    return sum(min(column) for column in zip(*(r.slices for r in reps)))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return float(ordered[rank])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the figure the
    acceptance procedure compares with a metric's bound."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def sha256_json(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# cProfile self-time shares
# ----------------------------------------------------------------------

#: Module groups whose self time the per-layer budget names; everything
#: else under ``repro`` or the benchmark itself lands in ``other``.
PROFILE_GROUPS: Tuple[str, ...] = (
    "sim.vector", "sim.engine", "sim.link", "sim.node", "sim.trace",
    "sim.rng", "switches.core", "switches.deflection", "switches.edge",
    "transport.tcp", "transport.host", "numpy", "builtins", "stdlib",
    "other",
)


def _profile_group(filename: str, funcname: str) -> str:
    if filename == "~":
        # C functions carry no file; numpy's are recognisable by name.
        return "numpy" if "numpy" in funcname else "builtins"
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    if marker in path and "/site-packages/" not in path:
        dotted = path.split(marker, 1)[1][:-3].replace("/", ".")
        return dotted if dotted in PROFILE_GROUPS else "other"
    if "/numpy/" in path:
        return "numpy"
    if path.startswith(HERE.replace(os.sep, "/")):
        return "other"
    return "stdlib"


def profile_shares(body: Callable[[], Any]) -> Dict[str, float]:
    """Run *body* under cProfile; self-time share per module group.

    cProfile taxes Python calls and not native code, so these shares
    find candidates — they never feed a time metric.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        body()
    finally:
        prof.disable()
    totals = {g: 0.0 for g in PROFILE_GROUPS}
    for (filename, _line, funcname), row in pstats.Stats(prof).stats.items():
        totals[_profile_group(filename, funcname)] += row[2]  # tottime
    whole = sum(totals.values())
    return {g: (t / whole if whole else 0.0) for g, t in totals.items()}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def git_commit() -> str:
    """HEAD's commit hash read straight from ``.git`` (no subprocess);
    ``unknown`` outside a git checkout."""
    git_dir = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg_1min() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def environment(seed: int, quick: bool, sizes: Dict[str, Any],
                load_start: float) -> Dict[str, Any]:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": affinity,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "load_1min_start": load_start,
        "load_1min_end": loadavg_1min(),
        "git_commit": git_commit(),
        "seed": seed,
        "quick": quick,
        "sizes": sizes,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the benchmark's own view of a topology
# ----------------------------------------------------------------------

class GraphCopy:
    """Plain-data copy of a topology, walked only by benchmark code.

    ``ports[node][p]`` is the neighbour on port *p*; route decoding
    (check (a)) applies ``R % switch_id`` to this copy, so it depends on
    no decoder of the program's.
    """

    def __init__(self, graph: Any):
        from repro.topology import NodeKind

        self._core = NodeKind.CORE
        self.kind: Dict[str, str] = {}
        self.switch_id: Dict[str, int] = {}
        self.ports: Dict[str, List[str]] = {}
        for info in graph.nodes():
            name = info.name
            self.kind[name] = info.kind
            if info.switch_id is not None:
                self.switch_id[name] = int(info.switch_id)
            self.ports[name] = [
                graph.neighbor_on_port(name, p) for p in range(info.degree)
            ]

    def port_to(self, node: str, neighbour: str) -> int:
        return self.ports[node].index(neighbour)

    def decode(self, src_edge: str, out_port: int, route_id: int,
               limit: int) -> List[str]:
        """Hop by hop from *src_edge*: the nodes a packet carrying
        *route_id* visits until it leaves the core (or *limit* hops)."""
        path = [src_edge]
        ports = self.ports[src_edge]
        if not 0 <= out_port < len(ports):
            return path
        node = ports[out_port]
        path.append(node)
        for _ in range(limit):
            if self.kind[node] != self._core:
                break
            port = route_id % self.switch_id[node]
            nbrs = self.ports[node]
            if port >= len(nbrs):
                break
            node = nbrs[port]
            path.append(node)
        return path


def seeded_pairs(rng: Any, edges: Sequence[str], count: int
                 ) -> List[Tuple[str, str]]:
    """*count* distinct ordered (src, dst) edge pairs, sorted."""
    edges = list(edges)
    want = min(count, len(edges) * (len(edges) - 1))
    pairs = set()
    while len(pairs) < want:
        pairs.add(tuple(rng.sample(edges, 2)))
    return sorted(pairs)


def group_by_dst(pairs: Iterable[Tuple[str, str]]) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for src, dst in pairs:
        out.setdefault(dst, []).append(src)
    return out
