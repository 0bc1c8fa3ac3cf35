"""The vectorized epoch engine against the reference oracle.

Every test here is a bit-for-bit equality claim: the numpy batch
forwarder must reproduce the reference engine's *decisions* (output
ports, deflected flags, drop reasons) and its *RNG stream positions*,
not just aggregate counts.
"""

import dataclasses

import pytest

from repro.sim.vector import (
    EpochTopology,
    build_workload,
    iter_injections,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
)

STRATEGIES = ("none", "hp", "avp", "nip")


def small_spec(strategy="nip", seed=3, **overrides):
    base = dict(
        num_switches=6, extra_links=2, min_switch_id=23, seed=seed,
        strategy=strategy, flows=3, ttl=24, inject_per_epoch=2,
        inject_epochs=4, link_failures=1, fail_epoch=2, repair_epoch=5,
    )
    base.update(overrides)
    return synthetic_spec(**base)


class TestWorkloadBuild:
    def test_build_is_deterministic(self):
        a = build_workload(small_spec())
        b = build_workload(small_spec())
        assert a.flows == b.flows
        assert a.flips == b.flips
        assert a.topo.names == b.topo.names

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            build_workload({"kind": "no-such-kind"})

    def test_topology_port_tables_are_inverses(self):
        topo = build_workload(small_spec()).topo
        for u in range(topo.n):
            for p in range(topo.degree[u]):
                v = int(topo.peer[u][p])
                back = int(topo.peer_port[u][p])
                assert int(topo.peer[v][back]) == u
                assert int(topo.peer_port[v][back]) == p

    def test_canonical_uids_are_dense_and_epoch_major(self):
        wl = build_workload(small_spec())
        uids = [
            uid
            for epoch in range(wl.inject_epochs)
            for uid, _ in iter_injections(wl, epoch)
        ]
        assert uids == list(range(wl.injected_total))

    def test_epoch_topology_matches_graph_names(self):
        wl = build_workload(small_spec())
        assert wl.topo.names == tuple(sorted(wl.topo.names))
        assert isinstance(wl.topo, EpochTopology)

    def test_bad_flip_rejected_at_build(self):
        # Unknown link: used to be a bare KeyError mid-run.  Negative
        # epoch: used to be silently never applied.
        a, b = next(iter(build_workload(small_spec()).topo.links))
        for flip in ((1, a, "NOPE"), (-1, a, b)):
            with pytest.raises(ValueError, match="bad flip") as err:
                build_workload(small_spec(extra_flips=[flip]))
            assert repr(flip) in str(err.value)

    def test_bad_flip_rejected_on_direct_construction(self):
        # dataclasses.replace builds a new EpochWorkload through __init__.
        wl = build_workload(small_spec())
        a, b = next(iter(wl.topo.links))
        good = dataclasses.replace(wl, flips=((0, b, a),))  # either order
        assert good.flips_at(0) == ((a, b),)
        for flip in ((0, a, "NOPE"), (-1, a, b), (1.5, a, b), (0, a)):
            with pytest.raises(ValueError, match="bad flip"):
                dataclasses.replace(wl, flips=(flip,))


class TestEngineEquality:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_record_identical_per_strategy(self, strategy):
        wl = build_workload(small_spec(strategy=strategy))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record == vec.record
        assert ref.digest == vec.digest

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_record_identical_across_seeds(self, seed):
        wl = build_workload(small_spec(seed=seed, strategy="hp"))
        assert run_epoch_reference(wl).record == run_epoch_vector(wl).record

    def test_rng_fingerprint_included_and_equal(self):
        # A matching fingerprint means both engines drew the same
        # values from the same per-switch streams in the same order.
        wl = build_workload(small_spec(strategy="nip", link_failures=2))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record["rng_fingerprint"] == vec.record["rng_fingerprint"]
        assert len(ref.record["rng_fingerprint"]) == 16

    def test_per_packet_traces_identical(self):
        wl = build_workload(small_spec(strategy="avp"))
        ref = run_epoch_reference(wl, trace=True)
        vec = run_epoch_vector(wl, trace=True)
        assert ref.traces is not None and vec.traces is not None
        assert set(ref.traces) == set(vec.traces)
        for uid in ref.traces:
            assert ref.traces[uid] == vec.traces[uid], uid
        assert ref.fates == vec.fates

    def test_every_injection_has_a_fate(self):
        wl = build_workload(small_spec())
        ref = run_epoch_reference(wl, trace=True)
        assert ref.fates is not None
        r = ref.record
        terminal = (
            r["delivered"]
            + sum(r["misdelivered"].values())
            + sum(r["drop_reasons"].values())
        )
        assert len(ref.fates) == terminal
        assert r["injected"] == terminal + r["live_at_end"]

    def test_no_failures_no_deflections(self):
        wl = build_workload(small_spec(strategy="nip", link_failures=0))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record == vec.record
        assert all(c[1] == 0 for c in ref.record["switches"].values())
        assert ref.record["delivered"] == ref.record["injected"]

    def test_flips_change_the_outcome(self):
        healthy = run_epoch_vector(
            build_workload(small_spec(link_failures=0))
        )
        failed = run_epoch_vector(
            build_workload(small_spec(link_failures=1, repair_epoch=None))
        )
        assert healthy.digest != failed.digest


class TestHintMutation:
    def test_wrong_residue_hint_is_a_digest_mismatch(self):
        # Reference-vs-vector is the only cross-check the epoch path
        # has, so prove it has teeth: the vector engine trusts the
        # encode-time residue hint, the reference takes R mod s itself.
        wl = build_workload(small_spec(link_failures=0))
        ref = run_epoch_reference(wl)
        assert run_epoch_vector(wl).digest == ref.digest
        flow = wl.flows[0]
        ingress_id = int(wl.topo.switch_ids[flow.ingress])
        right = flow.residues[ingress_id]
        wrong = next(
            p for p in range(wl.topo.degree[flow.ingress])
            if p not in (right, flow.in_port)
        )
        bad_flow = dataclasses.replace(
            flow, residues={**flow.residues, ingress_id: wrong}
        )
        bad = dataclasses.replace(wl, flows=(bad_flow,) + wl.flows[1:])
        assert run_epoch_reference(bad).digest == ref.digest  # hint ignored
        assert run_epoch_vector(bad).digest != ref.digest


class TestConservation:
    def test_reference_engine_conserves_packets(self):
        wl = build_workload(
            small_spec(strategy="nip", seed=5, num_switches=7)
        )
        ref = run_epoch_reference(wl, trace=True)
        r = ref.record
        assert r["injected"] == wl.injected_total
        assert r["injected"] == (
            r["delivered"]
            + sum(r["misdelivered"].values())
            + sum(r["drop_reasons"].values())
            + r["live_at_end"]
        )
        # Replay the flip schedule beside the hop traces: a packet's
        # k-th hop happens k epochs after its injection epoch.
        down_at = {}
        down = set()
        for epoch in range(r["epochs"]):
            down ^= set(wl.flips_at(epoch))
            down_at[epoch] = frozenset(down)
        assert any(down_at.values())  # the schedule did bite
        topo = wl.topo
        per_epoch = len(wl.flows) * wl.inject_per_epoch
        for uid, hops in ref.traces.items():
            for k, (name, in_port, out_port, _) in enumerate(hops):
                peer = topo.names[int(topo.peer[topo.index[name]][out_port])]
                link = (min(name, peer), max(name, peer))
                # no dead-port forward, and NIP never returns to sender
                assert link not in down_at[uid // per_epoch + k], (uid, k)
                assert out_port != in_port, (uid, k)
