"""The benchmark's own correctness checks — (a), (b) and (c) of ISSUE 11.

Each check takes plain data the program returned plus an
:class:`~harness.Ops` and records one attempted operation (failed when
the program's answer is wrong).  None of them calls a decoder, an
oracle or a digest of the program's; ``test_smoke.py`` feeds each a
deliberately wrong answer and expects a failed op.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from harness import GraphCopy, Ops

#: Structured 409 reasons the admission layer may answer with.
ADMISSION_REASONS = frozenset(
    ("insufficient-bandwidth", "latency-exceeded", "no-route")
)


# -- (a) routes decode hop by hop ---------------------------------------

def check_route_reaches(copy: GraphCopy, src_edge: str, dst_edge: str,
                        out_port: int, route_id: int, ops: Ops) -> bool:
    """``R % switch_id`` from *src_edge* must end at *dst_edge*."""
    path = copy.decode(src_edge, out_port, route_id, limit=len(copy.ports))
    return ops.expect(
        path[-1] == dst_edge,
        f"route {src_edge}>{dst_edge} id {route_id} decodes to {path[-1]}",
    )


def check_route_follows(copy: GraphCopy, node_path: Sequence[str],
                        out_port: int, route_id: int, ops: Ops) -> bool:
    """``R % switch_id`` must walk exactly *node_path*."""
    path = copy.decode(node_path[0], out_port, route_id,
                       limit=len(node_path))
    return ops.expect(
        path == list(node_path),
        f"route id {route_id} decodes to {path}, served {list(node_path)}",
    )


def check_residues(copy: GraphCopy, residues: Mapping[int, int],
                   route_id: int, ops: Ops) -> bool:
    """A detoured route no longer follows its node path; its residue
    map must still be what ``R % switch_id`` yields."""
    return ops.expect(
        all(route_id % sid == port for sid, port in residues.items()),
        f"route id {route_id} disagrees with its residue map",
    )


# -- (b) packet conservation --------------------------------------------

def check_conservation(record: Mapping[str, Any], ops: Ops,
                       clean_hops: Optional[int] = None) -> bool:
    """``injected == delivered + misdelivered + drops + live_at_end``
    with drops and hops cross-checked against the per-switch tallies;
    with *clean_hops* (no failures) every packet is delivered over
    exactly its path."""
    drops = sum(record["drop_reasons"].values())
    per_switch = list(record["switches"].values())
    fates = (
        record["delivered"] + sum(record["misdelivered"].values())
        + drops + record["live_at_end"]
    )
    good = (
        record["injected"] == fates
        and drops == sum(v[2] for v in per_switch)
        and record["hops"] == sum(v[0] for v in per_switch)
    )
    if clean_hops is not None:
        good = (
            good
            and record["delivered"] == record["injected"]
            and record["hops"] == clean_hops
            and sum(v[1] for v in per_switch) == 0
        )
    return ops.expect(
        good,
        f"conservation broken: injected {record['injected']} vs fates "
        f"{fates}, hops {record['hops']} (clean {clean_hops})",
    )


# -- (c) service responses ----------------------------------------------

def check_response(kind: str, status: int, body: Dict[str, Any], ops: Ops,
                   evicted_target: bool = False) -> bool:
    """One service response has the status its request must get.

    201/200 for served requests, 409 only with a structured admission
    reason, 404 only when the benchmark asked for a flow a flap summary
    said was evicted.
    """
    if kind == "provision":
        good = (status == 201 and "flow" in body) or (
            status == 409
            and body.get("error") in ADMISSION_REASONS
            and bool(body.get("message"))
        )
    elif kind == "get" and evicted_target:
        good = status == 404 and body.get("error") == "unknown-flow"
    elif kind in ("get", "reroute"):
        good = status == 200 and "flow" in body
    elif kind == "release":
        good = status == 200 and "released" in body
    elif kind == "flap":
        good = (
            status == 200
            and isinstance(body.get("repaired"), list)
            and isinstance(body.get("evicted"), dict)
        )
    elif kind == "audit":
        good = (
            status == 200 and body.get("ok") is True
            and not body.get("violations")
        )
    else:
        good = status == 200
    return ops.expect(
        good, f"{kind}: unexpected {status} {body.get('error', '')}".strip()
    )
