"""``repro bench encoding`` — the cross-backend x cross-assigner study.

For each Topology Zoo cell the benchmark measures, per encoding backend
(:data:`repro.rns.backends.BACKEND_NAMES`):

* **bits/route** — median and max route-ID bits over all-pairs shortest
  paths (the routes bulk provisioning installs), for the backend's
  native ID assignment *and* the header-bit-optimal ``weighted``
  assigner, with the headline **% reduction vs greedy**;
* **encode ops/sec** — controller-side encodes of a fixed path batch
  through the backend's encoder;
* **decode ops/sec** — the per-packet switch decode (``R mod s`` vs the
  carry-less GF(2) remainder), per hop.

Honesty rules match the other benches — and go one further, as the
issue demands: **before any timing**, every backend is driven through
the real differential machinery — the ``backend`` verify oracle
(encoder contract fuzzing, XSR's full-sim walk-model equivalence) and
the ``walk`` oracle — on freshly generated fuzz cases, and every timed
route in every cell is decoded back to its ports hop by hop (the
integer ring additionally held to the CRT definition: ``0 <= R < M``
with ``M`` the product of the route's switch IDs).  A speedup or a bit saving over
wrong answers is neither.  Timing repeats are interleaved across backends so scheduling
drift hits all alike; the minimum wall time per backend is reported.
CI runs ``--quick`` and asserts only the verification flags, never
wall-clock.

Results land in ``BENCH_encoding.json``.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.artifact import finish_artifact
from repro.experiments.header_overhead import ZOO_CELLS, zoo_overhead
from repro.rns.backends import BACKEND_NAMES, backend_by_name
from repro.rns.encoder import Hop, RouteEncoder
from repro.topology.graph import PortGraph
from repro.topology.zoo import load_zoo_graph

__all__ = ["CELLS", "run_encoding_bench", "render_encoding_bench"]

#: Topology cells: committed Topology Zoo fixtures.  ``path_hops`` caps
#: sampled path length so the batch is comparable across topologies.
CELLS: Dict[str, Dict[str, Any]] = {
    "abilene": dict(topology="abilene"),
    "synthwan754": dict(topology="synthwan754"),
}

#: Distinct sampled shortest paths per timed batch (small enough to
#: stay cache-resident, large enough that a pass is not loop overhead).
_BATCH = 64

#: Fuzz cases driven through the verify oracles before any timing.
_ORACLE_CASES = 2


def _shortest_path(
    graph: PortGraph, src: str, dst: str
) -> Optional[List[str]]:
    """BFS node path src -> dst over the core graph."""
    parent: Dict[str, Optional[str]] = {src: None}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for nb in graph.neighbors(node):
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    return None


def _sample_hop_batch(
    graph: PortGraph, rng: random.Random
) -> List[List[Hop]]:
    """A batch of real shortest-path hop lists over the topology."""
    names = sorted(graph.switch_ids())
    ids = graph.switch_ids()
    batch: List[List[Hop]] = []
    attempts = 0
    while len(batch) < _BATCH and attempts < _BATCH * 40:
        attempts += 1
        src, dst = rng.sample(names, 2)
        path = _shortest_path(graph, src, dst)
        if path is None or len(path) < 3:
            continue
        batch.append([
            Hop(ids[node], graph.port_of(node, nxt))
            for node, nxt in zip(path[:-1], path[1:])
        ])
    if not batch:
        raise ValueError("topology yielded no multi-hop shortest paths")
    return batch


def _run_verify_oracles(quick: bool) -> Dict[str, Any]:
    """Drive the real verify machinery before timing anything.

    The ``backend`` oracle proves the encoder contract (the integer
    ring held to the CRT definition) and XSR's walk-model equivalence;
    the ``walk`` oracle pins the integer datapath itself.
    """
    from repro.verify.cases import case_is_buildable, generate_case
    from repro.verify.oracles import run_oracle

    wanted = 1 if quick else _ORACLE_CASES
    out: Dict[str, Any] = {}
    for oracle in ("backend", "walk"):
        checks = 0
        divergences: List[str] = []
        done = 0
        trial = 0
        while done < wanted and trial < wanted * 50:
            case = generate_case(trial)
            trial += 1
            if not case_is_buildable(case):
                continue
            result = run_oracle(oracle, case)
            checks += result.checks
            divergences.extend(d.detail for d in result.divergences[:3])
            done += 1
        out[oracle] = {
            "cases": done,
            "checks": checks,
            "ok": done == wanted and not divergences,
            "divergences": divergences,
        }
    return out


def _verify_cell_batches(
    encoders: Dict[str, RouteEncoder],
    batches: Dict[str, List[List[Hop]]],
) -> bool:
    """Every timed route must decode back to its ports, hop by hop.

    Integer-ring routes must also be the unique CRT solution: with the
    decode-back check, ``0 <= R < M == prod(ids)`` pins ``R`` exactly.
    """
    for name, batch in batches.items():
        encoder = encoders[name]
        for hops in batch:
            route = encoder.encode(hops)
            ids = [h.switch_id for h in hops]
            ports = [h.port for h in hops]
            if encoder.decode(route.route_id, ids) != ports:
                return False
            if encoder.header_bits(route.modulus) != route.bit_length:
                return False
            if name == "crt" and not (
                0 <= route.route_id < route.modulus == math.prod(ids)
            ):
                return False
    return True


def _time_encodes(encoder, batch: Sequence[Sequence[Hop]], iters: int) -> float:
    encode = encoder.encode
    start = time.perf_counter()
    for _ in range(iters):
        for hops in batch:
            encode(hops)
    return time.perf_counter() - start


def _time_decodes(
    port_at, systems: Sequence[Tuple[int, List[int]]], iters: int
) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        for rid, ids in systems:
            for s in ids:
                port_at(rid, s)
    return time.perf_counter() - start


def run_encoding_bench(
    cells: Optional[Sequence[str]] = None,
    seed: int = 1,
    quick: bool = False,
    repeats: Optional[int] = None,
    iters: Optional[int] = None,
    out: Optional[str] = "BENCH_encoding.json",
) -> Dict[str, Any]:
    """Run the backend x assigner matrix; optionally write *out*.

    ``quick`` trims iterations and oracle cases for CI smoke runs; the
    per-route decode-back verification still covers every timed route
    at full strength (it is not iteration-scaled).
    """
    if cells is None:
        cells = tuple(CELLS)
    for name in cells:
        if name not in CELLS:
            raise ValueError(f"unknown cell {name!r}; choose from {sorted(CELLS)}")
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if iters is None:
        iters = 2 if quick else 10
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    oracles = _run_verify_oracles(quick)
    oracles_ok = all(o["ok"] for o in oracles.values())

    cell_records: List[Dict[str, Any]] = []
    for name in cells:
        topology = CELLS[name]["topology"]
        rng = random.Random(seed * 6007 + len(topology))

        # The header-bit study: all-pairs bits per (backend, assigner),
        # the % reduction the optimal assigner buys.
        bit_rows = {
            (r.backend, r.assigner): r
            for r in zoo_overhead(topologies=(topology,), cells=ZOO_CELLS)
        }
        greedy = bit_rows[("crt", "greedy")]
        weighted = bit_rows[("crt", "weighted")]
        reduction_pct = (
            100.0 * (greedy.median_bits - weighted.median_bits)
            / greedy.median_bits
        )

        # Timed batches: real shortest paths under each backend's own
        # ID assignment (the graph a controller would actually run).
        graphs = {
            b: load_zoo_graph(
                topology, id_strategy=backend_by_name(b).id_strategy
            )
            for b in BACKEND_NAMES
        }
        batches = {
            b: _sample_hop_batch(graphs[b], random.Random(rng.getrandbits(32)))
            for b in BACKEND_NAMES
        }
        encoders = {b: backend_by_name(b) for b in BACKEND_NAMES}
        bit_identical = _verify_cell_batches(encoders, batches)
        systems = {
            b: [
                (encoders[b].encode(hops).route_id,
                 [h.switch_id for h in hops])
                for hops in batches[b]
            ]
            for b in BACKEND_NAMES
        }

        encode_times: Dict[str, List[float]] = {b: [] for b in BACKEND_NAMES}
        decode_times: Dict[str, List[float]] = {b: [] for b in BACKEND_NAMES}
        for _ in range(repeats):
            # Interleaved: one pass per backend per repeat, so drift
            # hits every backend alike.
            for b in BACKEND_NAMES:
                encode_times[b].append(
                    _time_encodes(encoders[b], batches[b], iters)
                )
            for b in BACKEND_NAMES:
                decode_times[b].append(
                    _time_decodes(encoders[b].port_at, systems[b], iters)
                )

        backends_out: Dict[str, Any] = {}
        for b in BACKEND_NAMES:
            enc_s = min(encode_times[b])
            dec_s = min(decode_times[b])
            encode_ops = len(batches[b]) * iters
            decode_ops = sum(len(ids) for _, ids in systems[b]) * iters
            row = bit_rows.get((b, encoders[b].id_strategy))
            backends_out[b] = {
                "encode_per_sec": round(encode_ops / enc_s),
                "decode_per_sec": round(decode_ops / dec_s),
                "encode_wall_s": round(enc_s, 6),
                "decode_wall_s": round(dec_s, 6),
                "median_bits": row.median_bits if row else None,
                "max_bits": row.max_bits if row else None,
            }

        cell_records.append({
            "cell": name,
            "topology": topology,
            "nodes": greedy.nodes,
            "pairs": greedy.pairs,
            "batch": len(batches["crt"]),
            "iters": iters,
            "backends": backends_out,
            "assigners": {
                f"{b}/{a}": {
                    "median_bits": r.median_bits,
                    "max_bits": r.max_bits,
                }
                for (b, a), r in sorted(bit_rows.items())
            },
            "weighted_reduction_pct": round(reduction_pct, 1),
            "bit_identical": bit_identical,
        })

    result: Dict[str, Any] = {
        "bench": "repro.encoding",
        "quick": quick,
        "repeats": repeats,
        "iters": iters,
        "seed": seed,
        "cells": cell_records,
        "oracles": oracles,
        "verified_before_timing": oracles_ok
        and all(c["bit_identical"] for c in cell_records),
    }
    return finish_artifact(result, out)


def render_encoding_bench(result: Dict[str, Any]) -> str:
    lines = [
        f"encoding bench — backend x assigner over the zoo corpus "
        f"(seed {result['seed']}, {result['cpu_count']} CPU(s))",
        f"  {'cell':<13} {'backend':<8} {'med bits':>8} {'max':>5} "
        f"{'enc/s':>9} {'dec/s':>9}  verified",
    ]
    for c in result["cells"]:
        for b, row in c["backends"].items():
            med = row["median_bits"]
            lines.append(
                f"  {c['cell']:<13} {b:<8} "
                f"{med if med is not None else '-':>8} "
                f"{row['max_bits'] if row['max_bits'] is not None else '-':>5} "
                f"{row['encode_per_sec']:>9} {row['decode_per_sec']:>9}  "
                f"{'yes' if c['bit_identical'] else 'NO'}"
            )
        lines.append(
            f"  {c['cell']:<13} weighted assigner cuts median route-ID "
            f"bits {c['weighted_reduction_pct']}% vs greedy"
        )
    ver = result["verified_before_timing"]
    ora = ", ".join(
        f"{k}: {v['checks']} checks over {v['cases']} case(s)"
        for k, v in result["oracles"].items()
    )
    lines.append(f"  verified before timing: {ver} ({ora})")
    return "\n".join(lines)
