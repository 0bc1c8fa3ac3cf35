"""Sharded epoch engine: partitioning, digest gates, conservation.

The sharded runner must be indistinguishable (record, traces, fates)
from the single-core engines, and every epoch-barrier handoff must be
integrity-checked — a tampered batch is rejected, never silently
forwarded.
"""

import pytest

from repro.sim.shard import (
    HandoffError,
    ShardRunner,
    batch_to_rows,
    handoff_digest,
    partition,
    rows_to_batch,
    run_epoch_sharded,
)
from repro.sim.vector import (
    build_workload,
    iter_injections,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
)


def small_spec(strategy="nip", seed=5, **overrides):
    base = dict(
        num_switches=7, extra_links=2, min_switch_id=23, seed=seed,
        strategy=strategy, flows=3, ttl=24, inject_per_epoch=2,
        inject_epochs=4, link_failures=1, fail_epoch=2, repair_epoch=5,
    )
    base.update(overrides)
    return synthetic_spec(**base)


class TestPartition:
    def test_blocks_are_contiguous_and_cover(self):
        indices = list(range(10, 21))
        blocks = partition(indices, 3)
        assert [u for b in blocks for u in b] == indices
        assert len(blocks) == 3
        assert all(len(b) >= 1 for b in blocks)

    def test_sizes_balanced(self):
        blocks = partition(list(range(10)), 3)
        sizes = sorted(len(b) for b in blocks)
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            partition([1, 2], 3)
        with pytest.raises(ValueError):
            partition([1, 2], 0)


class TestHandoffRows:
    def test_rows_round_trip(self):
        wl = build_workload(small_spec())
        from repro.sim.vector import injection_batch

        batch = injection_batch(wl, iter_injections(wl, 0))
        rows = batch_to_rows(batch)
        back = rows_to_batch(rows)
        assert batch_to_rows(back) == rows
        assert handoff_digest(rows) == handoff_digest(batch_to_rows(back))

    def test_digest_sensitive_to_order_and_content(self):
        rows = [[0, 5, False, 2, 1, 7], [1, 5, True, 3, 0, 8]]
        assert handoff_digest(rows) != handoff_digest(rows[::-1])
        tampered = [list(r) for r in rows]
        tampered[0][1] -= 1
        assert handoff_digest(rows) != handoff_digest(tampered)


class TestDigestGate:
    def test_tampered_handoff_rejected(self):
        wl = build_workload(small_spec())
        blocks = partition(wl.topo.core_indices, 2)
        runner = ShardRunner(wl, 0, blocks)
        rows = [[0, 10, False, int(blocks[0][0]), 0, 99]]
        good = handoff_digest(rows)
        rows[0][1] = 9  # TTL mutated in transit
        with pytest.raises(HandoffError, match="digest mismatch"):
            runner.step((), (), [(rows, good)])

    def test_clean_handoff_accepted_and_counted(self):
        wl = build_workload(small_spec())
        blocks = partition(wl.topo.core_indices, 2)
        runner = ShardRunner(wl, 0, blocks)
        owned = set(blocks[0])
        mine = [
            (uid, f) for uid, f in iter_injections(wl, 0)
            if wl.flows[f].ingress in owned
        ]
        out = runner.step((), mine, [([], handoff_digest([]))])
        assert runner.handoff_checks == 1
        assert set(out) == {0, 1}
        for rows, digest in out.values():
            assert handoff_digest(rows) == digest


class TestShardedEquality:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_record_matches_reference(self, shards):
        wl = build_workload(small_spec(strategy="hp"))
        ref = run_epoch_reference(wl)
        shd = run_epoch_sharded(wl, shards=shards)
        assert shd.record == ref.record
        assert shd.meta["shards"] == shards
        assert shd.meta["handoff_checks"] > 0

    @pytest.mark.parametrize("strategy", ["none", "avp", "nip"])
    def test_all_strategies_match_vector(self, strategy):
        wl = build_workload(small_spec(strategy=strategy))
        assert (
            run_epoch_sharded(wl, shards=2).record
            == run_epoch_vector(wl).record
        )

    def test_traces_and_fates_match_reference(self):
        wl = build_workload(small_spec(strategy="nip"))
        ref = run_epoch_reference(wl, trace=True)
        shd = run_epoch_sharded(wl, shards=2, trace=True)
        assert shd.fates == ref.fates
        assert shd.traces == ref.traces

    def test_spawn_workers_match_in_process(self):
        wl = build_workload(
            small_spec(flows=2, inject_epochs=2, ttl=12)
        )
        local = run_epoch_sharded(wl, shards=2, processes=False)
        procs = run_epoch_sharded(wl, shards=2, processes=True)
        assert procs.record == local.record
        assert procs.meta["processes"] is True


class TestConservation:
    def test_reference_engine_conserves_packets(self):
        wl = build_workload(small_spec(strategy="nip"))
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

    def test_sharded_totals_conserve(self):
        # Cross-shard handoffs must neither drop nor duplicate packets:
        # every injection ends delivered, misdelivered, dropped, or live.
        wl = build_workload(small_spec(strategy="hp", link_failures=2))
        r = run_epoch_sharded(wl, shards=3).record
        assert r["injected"] == wl.injected_total
        assert r["injected"] == (
            r["delivered"]
            + sum(r["misdelivered"].values())
            + sum(r["drop_reasons"].values())
            + r["live_at_end"]
        )
