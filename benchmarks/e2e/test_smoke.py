"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload at ``--quick`` size: the metric names are the ones
``BENCHMARK.json`` declares, no operation fails, digests repeat across
two invocations and match ``golden.json``, spans nest — and each of the
benchmark's own checks counts a deliberately wrong answer as a failed
operation.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics as M  # noqa: E402
import run  # noqa: E402
from harness import GraphCopy, Ops, Tracer  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in M.WORKLOADS]


@pytest.fixture(scope="module")
def traced():
    """One quick traced run per workload (the expensive part, shared)."""
    return {
        name: run.measure(name, seed=1, trace=True, quick=True)
        for name in WORKLOAD_NAMES
    }


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(run.harness.REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared == M.benchmark_json(declared["run_seconds"])
    assert [w["name"] for w in declared["workloads"]] == WORKLOAD_NAMES
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_quick_run_is_correct_and_repeats(name, traced):
    first = run.measure(name, seed=1, quick=True)
    again = traced[name]
    for result in (first, again):
        assert result["ops_failed"] == 0, result["failed_reasons"]
        assert result["named"]["failed_ops_share"] == 0
        assert result["golden"] == "match"
        assert result["claim"] is None
    assert first["digest"] == again["digest"]
    assert first["ops_per_repeat"] == again["ops_per_repeat"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_reported_names_are_the_declared_ones(name, traced):
    result = traced[name]
    computed = {**result["named"], **result["layers"]}
    assert set(computed) <= {m.name for m in M.PER_LAYER}
    # Everything this workload is declared to produce, it produced.
    for metric in M.PER_LAYER:
        if not metric.workloads or name in metric.workloads:
            assert metric.name in computed, metric.name
    # Quick runs withhold host time; the full set is the declared one.
    full = dict(result, env=dict(result["env"], quick=False))
    assert list(run.reported_metrics(full)) == [m.name for m in M.PER_LAYER]
    assert all(
        M.BY_NAME[n].base != "host" for n in run.reported_metrics(result)
    )
    untraced = dict(full, trace=False)
    assert list(run.reported_metrics(untraced)) == [
        m.name for m in M.UNIVERSAL
    ]
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1


def test_profile_shares_sum_to_one(traced):
    for name in ("wan754-forward-storm", "paper15-tcp-des"):
        shares = [v for k, v in traced[name]["layers"].items()
                  if k.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01
    storm = traced["wan754-forward-storm"]["layers"]
    clean = traced["wan754-forward-clean"]["layers"]
    assert clean["switches.deflected_share"] == 0
    assert storm["switches.deflected_share"] > 0


def test_spans_nest():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("repeat"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
        tracer.add("b.request", tracer.starts[0], tracer.starts[0])
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]
    assert all(t >= 0 for t in tracer.self_times())
    assert [tracer.names[p] if p >= 0 else None for p in tracer.parents] == [
        None, "repeat", "a", "repeat", "repeat"
    ]
    assert 0 < tracer.coverage("repeat") <= 1


def test_traced_run_spans_nest_and_cover_the_repeat(traced):
    path = os.path.join(run.harness.OUT_DIR,
                        "trace-abilene-svc-churn-seed1.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and {s["name"] for s in spans} >= {
        "repeat", "service.churn", "service.request.provision"
    }
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    for name in WORKLOAD_NAMES:
        assert traced[name]["layers"]["trace.span_coverage"] >= 0.95


# -- a wrong answer is a failed operation -------------------------------

@pytest.fixture(scope="module")
def abilene():
    run._workload_classes()  # puts the program on sys.path
    from repro.controller.bulk import BulkProvisioner
    from repro.service import service_topology

    graph = service_topology("abilene")
    route = BulkProvisioner(graph).routes_for(
        "E-Seattle", ["E-Atlanta"])["E-Atlanta"]
    return GraphCopy(graph), route


def test_corrupted_route_id_is_a_failed_op(abilene):
    copy, route = abilene
    ops = Ops()
    rid = route.route.route_id
    assert checks.check_route_reaches(
        copy, route.src_edge, route.dst_edge, route.out_port, rid, ops)
    assert checks.check_route_follows(
        copy, route.node_path, route.out_port, rid, ops)
    assert (ops.attempted, ops.failed) == (2, 0)
    assert not checks.check_route_reaches(
        copy, route.src_edge, route.dst_edge, route.out_port, rid + 1, ops)
    assert not checks.check_route_follows(
        copy, route.node_path, route.out_port, rid + 1, ops)
    assert not checks.check_residues(copy, {7: 3}, 7 * 5 + 2, ops)
    assert (ops.attempted, ops.failed) == (5, 3)


def test_dropped_conservation_term_is_a_failed_op():
    record = {
        "injected": 10, "delivered": 6, "misdelivered": {"E-x": 1},
        "drop_reasons": {"ttl-expired": 2}, "live_at_end": 1, "hops": 30,
        "switches": {"a": [20, 3, 2], "b": [10, 0, 0]},
    }
    ops = Ops()
    assert checks.check_conservation(record, ops)
    assert not checks.check_conservation(dict(record, live_at_end=0), ops)
    assert not checks.check_conservation(dict(record, hops=31), ops)
    assert not checks.check_conservation(record, ops, clean_hops=30)
    assert (ops.attempted, ops.failed) == (4, 3)


def test_unexpected_404_is_a_failed_op():
    ops = Ops()
    gone = {"error": "unknown-flow", "message": "unknown flow 'f1'"}
    assert checks.check_response("get", 404, gone, ops, evicted_target=True)
    assert not checks.check_response("get", 404, gone, ops)
    assert not checks.check_response("release", 404, gone, ops)
    assert not checks.check_response(
        "provision", 409, {"error": "because", "message": "no"}, ops)
    assert checks.check_response(
        "provision", 409,
        {"error": "no-route", "message": "no residual path"}, ops)
    assert not checks.check_response(
        "audit", 200, {"ok": False, "violations": ["x"]}, ops)
    assert (ops.attempted, ops.failed) == (6, 4)


def test_golden_mismatch_fails_every_op_of_the_repeat(monkeypatch):
    golden = run.load_golden()
    entry = golden["quick"]["paper15-tcp-des"]["1"]
    entry["digest"] = "0" * 64
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    result = run.measure("paper15-tcp-des", seed=1, quick=True)
    assert result["golden"] == "mismatch"
    assert result["ops_failed"] == result["ops_attempted"] > 0
    assert json.loads(run.contract_line(result))["correct"] is False
