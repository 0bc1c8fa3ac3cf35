"""The vectorized epoch engine against the reference oracle.

Every test here is a bit-for-bit equality claim: the numpy batch
forwarder must reproduce the reference engine's *decisions* (output
ports, deflected flags, drop reasons) and its *RNG stream positions*,
not just aggregate counts.
"""

import collections
import dataclasses
import itertools
import random

import numpy as np
import pytest

from repro.controller.bulk import BulkProvisioner
from repro.sim.rng import RngRegistry
from repro.sim.vector import (
    CAP,
    EpochFlow,
    EpochTopology,
    EpochWorkload,
    build_workload,
    iter_injections,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
    _ChoiceWords,
    _CountingRandom,
)
from repro.switches.deflection import strategy_by_name

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

    def test_bad_flow_rejected_on_direct_construction(self):
        # An edge-node ingress used to be a bare KeyError mid-run, an
        # out-of-range one KeyError in the reference but IndexError in
        # the vector engine; a flat kernel would forward from the edge.
        wl = build_workload(small_spec())
        topo, flow = wl.topo, wl.flows[1]
        other_core = next(u for u in topo.core_indices if u != flow.ingress)
        for bad in (
            dict(ingress=flow.egress),  # an edge node
            dict(ingress=999),
            dict(ingress=-1),
            dict(ingress="SW1"),
            dict(egress=other_core),  # a core switch
            dict(egress=topo.n),
            dict(in_port=topo.degree[flow.ingress]),
            dict(in_port=-1),
            # a float TTL ran in both engines, which silently disagreed:
            # the reference compares it as is, the batch column truncates
            dict(ttl=1.5),
            dict(ttl="8"),
            dict(ttl=None),
        ):
            flows = (wl.flows[0], dataclasses.replace(flow, **bad))
            with pytest.raises(ValueError, match="bad flow #1") as err:
                dataclasses.replace(wl, flows=flows)
            assert repr(next(iter(bad.values()))) in str(err.value)

    def test_unknown_strategy_rejected_on_direct_construction(self):
        # "bogus" used to build and fail only inside run_*, None and 3
        # escaped as AttributeError (no .lower), and "NIP" ran but stamped
        # "NIP" into the record: one simulation, two digests.
        wl = build_workload(small_spec())
        for bad in ("bogus", "NIP", None, 3, ""):
            with pytest.raises(ValueError, match="unknown deflection") as err:
                dataclasses.replace(wl, strategy=bad)
            assert repr(bad) in str(err.value)
            assert all(name in str(err.value) for name in STRATEGIES)
        with pytest.raises(ValueError, match="unknown deflection"):
            build_workload(small_spec(strategy="NIP"))
        for good in STRATEGIES:
            assert dataclasses.replace(wl, strategy=good).strategy == good

    def test_negative_injection_counts_rejected(self):
        # inject_per_epoch=-1 used to run silently as zero.
        wl = build_workload(small_spec())
        for bad in (dict(inject_per_epoch=-1), dict(inject_epochs=-2)):
            with pytest.raises(ValueError, match="must be >= 0"):
                dataclasses.replace(wl, **bad)
        with pytest.raises(ValueError, match="must be >= 0"):
            build_workload(small_spec(inject_per_epoch=-1))
        idle = dataclasses.replace(wl, inject_per_epoch=0)  # zero is fine
        assert run_epoch_vector(idle).record == run_epoch_reference(idle).record

    def test_port_tables_are_padded_and_narrow(self):
        topo = build_workload(small_spec()).topo
        width = max(topo.degree)
        assert topo.peer.shape == topo.peer_port.shape == (topo.n, width)
        assert topo.peer.dtype == np.int16  # from n, not from an option
        for u in range(topo.n):
            assert (topo.peer[u][topo.degree[u]:] == -1).all()


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

    def test_out_of_range_residue_hint_is_rejected(self):
        # -1 used to be read as "the last port" (a silent digest
        # mismatch); as the table's "unknown" mark it would silently be
        # recomputed instead.  Neither: 0 <= r < switch_id or ValueError.
        wl = build_workload(small_spec(link_failures=0))
        flow = wl.flows[1]
        ingress_id = int(wl.topo.switch_ids[flow.ingress])
        for wrong in (-1, ingress_id, ingress_id + 3):
            bad_flow = dataclasses.replace(
                flow, residues={**flow.residues, ingress_id: wrong}
            )
            bad = dataclasses.replace(
                wl, flows=(wl.flows[0], bad_flow) + wl.flows[2:]
            )
            with pytest.raises(ValueError, match="bad residue hint") as err:
                run_epoch_vector(bad)
            message = str(err.value)
            assert repr(wrong) in message and "flow #1" in message
            assert wl.topo.names[flow.ingress] in message

    def test_hints_are_optional_and_foreign_ids_ignored(self):
        wl = build_workload(small_spec())
        ref = run_epoch_reference(wl)
        bare = tuple(
            dataclasses.replace(f, residues=r)
            for f, r in zip(wl.flows, (None, {}, {10**6 + 3: -5}))
        )
        assert run_epoch_vector(
            dataclasses.replace(wl, flows=bare)
        ).record == ref.record


def abilene_workload(strategy, ttl=24, flows=44, inject_per_epoch=4,
                     inject_epochs=10, down_links=4, down_epochs=5,
                     extra_flips=()):
    """Bulk-provisioned flows on the committed abilene fixture with a
    rolling fail/repair schedule over the busiest on-path core links
    (Atlanta-Houston, Denver-KansasCity, Atlanta-Washington,
    Chicago-Indianapolis), then *extra_flips*."""
    from repro.topology.generators import attach_edges
    from repro.topology.zoo import load_zoo_graph

    graph = load_zoo_graph("abilene")
    edges = attach_edges(graph)
    rng = random.Random("wide-batch")
    pairs = sorted(rng.sample(
        [(s, d) for s in edges for d in edges if s != d], flows
    ))
    bulk = BulkProvisioner(graph)
    routes = [bulk.routes_for(dst, [src])[src] for src, dst in pairs]
    topo = EpochTopology(graph)
    usage = {}
    for route in routes:
        core = route.node_path[1:-1]
        for a, b in zip(core, core[1:]):
            key = (min(a, b), max(a, b))
            usage[key] = usage.get(key, 0) + 1
    flips = []
    for i, (a, b) in enumerate(
        sorted(usage, key=lambda k: (-usage[k], k))[:down_links]
    ):
        flips += [(1 + i, a, b), (1 + i + down_epochs, a, b)]
    return EpochWorkload(
        topo=topo,
        flows=tuple(
            EpochFlow(
                route_id=r.route.route_id,
                residues=dict(r.route.residue_map()),
                ingress=topo.index[r.node_path[1]],
                in_port=graph.port_of(r.node_path[1], r.src_edge),
                egress=topo.index[r.dst_edge],
                ttl=ttl,
            )
            for r in routes
        ),
        inject_per_epoch=inject_per_epoch, inject_epochs=inject_epochs,
        max_epochs=inject_epochs + down_epochs + ttl + 4, seed=11,
        strategy=strategy, flips=tuple(flips) + tuple(extra_flips), spec={},
    )


def assert_engines_equal(wl):
    ref = run_epoch_reference(wl, trace=True)
    vec = run_epoch_vector(wl, trace=True)
    assert vec.record == ref.record
    assert vec.traces == ref.traces
    assert vec.fates == ref.fates
    assert vec.record["rng_fingerprint"] == ref.record["rng_fingerprint"]
    untraced = run_epoch_vector(wl)
    assert untraced.record == ref.record
    assert untraced.fates is None and untraced.traces is None
    return ref


def deflected_hops(wl, ref):
    """``(epoch, switch, in-port, up ports)`` of every hop the traced
    reference run deflected: a packet's k-th hop happens k epochs after
    its injection epoch, and the flip schedule replays beside it."""
    topo = wl.topo
    up = {u: set(range(topo.degree[u])) for u in range(topo.n)}
    up_at = []
    for epoch in range(ref.record["epochs"]):
        for key in wl.flips_at(epoch):
            u, pu, v, pv = topo.links[key]
            up[u] ^= {pu}
            up[v] ^= {pv}
        up_at.append({topo.names[u]: frozenset(p) for u, p in up.items()})
    per_epoch = len(wl.flows) * wl.inject_per_epoch
    for uid, hops in ref.traces.items():
        for k, (name, in_port, _, deflected) in enumerate(hops):
            if deflected:
                epoch = uid // per_epoch + k
                yield epoch, name, in_port, up_at[epoch][name]


def advanced(seed, name, words):
    """A fresh registry stream *name* moved on by *words* 32-bit words."""
    rng = RngRegistry(seed).stream(name)
    rng.getrandbits(32 * words)
    return rng


class TestChoiceWords:
    """The array draw is ``random.choice``: same indices from the same
    words, and the words it counts put a fresh stream where the scalar
    one ends.  Runs on every CI Python, so a CPython that changes
    ``_randbelow`` or ``getrandbits`` goes red here, not in a golden
    digest."""

    SEED = 5

    def check(self, names, calls):
        """Each call is ``[(stream, n, how many), ...]`` runs, listed in
        (stream, draw order) as the kernel lists them."""
        words = _ChoiceWords(self.SEED, names)
        scalar = RngRegistry(self.SEED)
        for runs in calls:
            stream = [s for s, _, m in runs for _ in range(m)]
            n = [k for _, k, m in runs for _ in range(m)]
            assert stream == sorted(stream)
            got = words.draw(
                np.array(stream, dtype=np.intp), np.array(n, dtype=np.intp)
            )
            want = [
                scalar.stream(names[s]).choice(range(k))
                for s, k in zip(stream, n)
            ]
            assert got.tolist() == want
        for name, used in zip(names, words._used.tolist()):
            assert (
                advanced(self.SEED, name, used).getstate()
                == scalar.stream(name).getstate()
            ), name

    def test_every_count_across_block_boundary_and_refill(self):
        # 1, 2, 4 and 8 reject half their words.  Per call and stream
        # ~5 draws of each n; 80 calls make >= 3,000 draws and >= 5,000
        # words a stream: past the MT block boundary (624 words) and
        # several mid-run refills of the CAP-word look-ahead.
        rng = random.Random(1)
        calls = []
        for _ in range(80):
            runs = []
            for s in range(3):
                counts = list(range(1, 10))
                rng.shuffle(counts)
                runs += [(s, k, rng.randint(1, 9)) for k in counts]
            calls.append(runs)
        draws = sum(m for runs in calls for s, _, m in runs if s == 0)
        assert draws >= 3000 and 2 * draws > 4 * CAP
        self.check(["deflect:a", "deflect:b", "deflect:c"], calls)

    def test_two_counts_in_one_stream_in_one_call(self):
        # What an in-port that has since gone down does to a NIP queue.
        self.check(["x", "y"], [
            [(0, 2, 3), (0, 3, 1), (0, 2, 4), (1, 3, 2), (1, 2, 2)],
            [(1, 1, 1)],
            [],
        ])

    def test_window_without_an_acceptance(self):
        # One draw of n=1 gets a window of 8 words and accepts a word
        # whose top bit is clear: find a stream whose first 8 all have it
        # set, so the window is consumed whole and the run goes on.
        def first_words(name):
            rng = RngRegistry(self.SEED).stream(name)
            return [rng.getrandbits(32) for _ in range(8)]

        name = next(
            name for name in map("s{}".format, itertools.count())
            if all(word >> 31 for word in first_words(name))
        )
        self.check(["other", name], [[(0, 1, 1), (1, 1, 1)], [(1, 5, 2)]])

    def test_run_longer_than_the_look_ahead(self):
        self.check(["hot", "cold"], [
            [(0, 3, 2 * CAP + 100), (0, 2, 5), (1, 4, 1)],
            [(0, 8, CAP)],
        ])

    def test_streams_that_never_draw_are_never_created(self):
        words = _ChoiceWords(self.SEED, ["a", "b", "c"])
        words.draw(np.array([1, 1]), np.array([3, 3]))
        assert set(words._registry._streams) == {"b"}


class TestCountingRandom:
    """The reference engine fingerprints a stream by the words it handed
    out; that count is the stream's position."""

    def test_count_is_the_position(self):
        # n in 1..9: every choice takes one word per try, and 1, 2, 4, 8
        # reject half; >= 3,000 draws run past the 624-word MT block.
        plain = RngRegistry(11).stream("deflect:s")
        counted = _CountingRandom(11, "deflect:s")
        pick = random.Random(2)
        for _ in range(3000):
            seq = range(pick.randint(1, 9))
            assert counted.choice(seq) == plain.choice(seq)
        assert counted.words > 2 * 624
        assert counted.getstate() == plain.getstate()
        assert (
            advanced(11, "deflect:s", counted.words).getstate()
            == plain.getstate()
        )


class TestWideBatch:
    """Equality at width: the other differentials stop at 9 switches and
    a handful of packets per epoch; these run hundreds of packets per
    epoch across every switch of a real topology."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rolling_failures_every_strategy(self, strategy):
        wl = abilene_workload(strategy)
        assert len(wl.flows) >= 40 and wl.inject_per_epoch == 4
        ref = assert_engines_equal(wl)
        r = ref.record
        assert r["hops"] > 2000
        if strategy == "none":
            assert r["drop_reasons"]["no-usable-port(none)"] > 0
        else:
            assert sum(c[1] for c in r["switches"].values()) > 100

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_storm_edges_every_strategy(self, strategy):
        # Beside the rolling schedule, Chicago (ports: Indianapolis,
        # NewYork, its edge) loses both core links at epoch 2, its edge
        # link at epoch 4, and has all three back at epoch 6.
        wl = abilene_workload(strategy, down_links=3, extra_flips=(
            (2, "Chicago", "Indianapolis"), (2, "Chicago", "NewYork"),
            (4, "Chicago", "E-Chicago"),
            (6, "Chicago", "Indianapolis"), (6, "Chicago", "NewYork"),
            (6, "Chicago", "E-Chicago"),
        ))
        ref = assert_engines_equal(wl)
        # A switch left with no candidate: a drop, and the fingerprint
        # equal to the reference's says nothing was drawn for it.
        stuck = collections.Counter(
            fate[1] for fate in ref.fates.values()
            if fate[0] == "dropped" and fate[2].startswith("no-usable-port")
        )
        assert stuck["Chicago"] > 0
        if strategy == "none":
            return
        rule = strategy_by_name(strategy)
        queues = collections.defaultdict(set)
        for epoch, name, in_port, up in deflected_hops(wl, ref):
            count, _ = rule.fallback_ports(len(up), in_port in up)
            queues[epoch, name].add((in_port in up, count))
        seen = set().union(*queues.values())
        # A packet whose in-port link failed while it was in flight ...
        assert any(not in_port_up for in_port_up, _ in seen)
        # ... which under NIP puts two candidate counts in one queue.
        if strategy == "nip":
            assert any(
                len({count for _, count in queue}) > 1
                for queue in queues.values()
            )
        # A switch left with one candidate still draws (and rejects).
        assert any(count == 1 for _, count in seen)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_hot_switch_outruns_the_look_ahead(self, strategy):
        # Ten flows, 400 packets each per epoch, the busiest link down:
        # one switch deflects more packets in an epoch than CAP words.
        wl = abilene_workload(
            strategy, ttl=10, flows=10, inject_per_epoch=400,
            inject_epochs=3, down_links=1, down_epochs=2,
        )
        ref = assert_engines_equal(wl)
        if strategy != "none":
            queue_len = collections.Counter(
                (epoch, name) for epoch, name, _, _ in deflected_hops(wl, ref)
            )
            assert max(queue_len.values()) > CAP

    def test_deflected_packets_leave_their_residue_hints(self):
        # Off-hint (flow, switch) pairs take the big-int modulo on
        # first touch instead of the table seeded from residue_map.
        wl = abilene_workload("nip")
        ref = assert_engines_equal(wl)
        per_epoch = len(wl.flows) * wl.inject_per_epoch
        ids = dict(zip(wl.topo.names, wl.topo.switch_ids.tolist()))
        off_hint = {
            (uid % per_epoch // wl.inject_per_epoch, name)
            for uid, hops in ref.traces.items()
            for name, _, _, _ in hops
            if ids[name] not in
            wl.flows[uid % per_epoch // wl.inject_per_epoch].residues
        }
        assert len(off_hint) > 20

    def test_ttl_expires_at_several_switches_in_one_epoch(self):
        # HP random-walks after the first deflection, so a short TTL
        # runs out all over the map at once.
        wl = abilene_workload("hp", ttl=7)
        ref = assert_engines_equal(wl)
        per_epoch = len(wl.flows) * wl.inject_per_epoch
        expired_at = {}
        for uid, fate in ref.fates.items():
            if fate[0] == "dropped" and fate[2] == "ttl-expired":
                epoch = uid // per_epoch + len(ref.traces[uid])
                expired_at.setdefault(epoch, set()).add(fate[1])
        assert max(len(names) for names in expired_at.values()) >= 3

    def test_wide_switch_ids_and_ttls_take_wider_columns(self):
        # Switch IDs and TTLs past 2**15 move the residue table and the
        # ttl column to int32; the outcome may not notice.
        wl = build_workload(small_spec(
            min_switch_id=2**15 + 100, ttl=2**15 + 5, strategy="hp",
            num_switches=9, flows=6, link_failures=2, repair_epoch=None,
        ))
        assert int(wl.topo.switch_ids.max()) > 2**15
        ref = assert_engines_equal(wl)
        assert sum(c[1] for c in ref.record["switches"].values()) > 0


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
