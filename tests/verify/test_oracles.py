"""The differential oracles: clean on healthy code, bookkeeping,
and the mutation-detection hook the harness self-test relies on."""

import pytest

from repro.switches.deflection import DeflectionStrategy, NotInputPort
from repro.verify import oracles
from repro.verify.cases import FuzzCase, build_scenario, generate_case
from repro.verify.harness import trial_seed
from repro.verify.oracles import (
    ORACLE_NAMES,
    Divergence,
    OracleResult,
    check_datapaths,
    check_strategy,
    check_walk,
    check_wire,
    run_case,
    run_oracle,
)

#: A small, fast case for the simulation-backed oracles.
SMALL_CASE = FuzzCase(
    seed=2, num_switches=6, extra_links=1, min_switch_id=23,
    id_strategy="prime", strategy="nip", ttl=16, rate_pps=40.0,
    traffic_s=0.3, failures=(),
)


class BrokenNip(NotInputPort):
    """Algorithm 1 with line 5 mutated: the input port is *not*
    excluded from the random fallback candidates — the exact bug NIP
    exists to prevent.  Used to prove the strategy oracle catches a
    plausible implementation slip."""

    def decide(self, healthy, in_port, computed, deflected, rng):
        if computed != in_port and computed in healthy:
            return computed, False
        if not healthy:
            return None, False
        return rng.choice(healthy), True


class TestBookkeeping:
    def test_check_counts_and_records(self):
        result = OracleResult("demo")
        assert result.check(True, lambda: "unused")
        assert not result.check(False, lambda: "boom")
        assert result.checks == 2
        assert not result.ok
        assert result.divergences == [Divergence("demo", "boom")]

    def test_to_record_round_trips_through_json(self):
        import json

        result = OracleResult("demo")
        result.check(False, lambda: "boom")
        rec = json.loads(json.dumps(result.to_record()))
        assert rec == {
            "oracle": "demo",
            "checks": 1,
            "divergences": [{"oracle": "demo", "detail": "boom"}],
        }


class TestDispatch:
    def test_oracle_names(self):
        assert ORACLE_NAMES == (
            "backend", "datapath", "strategy", "vector", "walk", "wire",
        )

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle("vibes", SMALL_CASE)

    def test_run_case_subset(self):
        results = run_case(SMALL_CASE, oracles=("strategy", "wire"))
        assert sorted(results) == ["strategy", "wire"]
        assert all(r.ok for r in results.values())


class TestOraclesCleanOnHealthyCode:
    def test_strategy_and_wire(self):
        for seed in range(4):
            case = generate_case(seed)
            assert check_strategy(case).ok, case
            assert check_wire(case).ok, case

    def test_datapath(self):
        result = check_datapaths(SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 5

    def test_walk(self):
        result = check_walk(SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 10

    def test_vector(self):
        # The epoch-model oracle: the vectorized engine is
        # decision-identical to the scalar reference on a fuzz case.
        result = run_oracle("vector", SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 10

    def test_vector_with_failures(self):
        case = generate_case(0)
        result = run_oracle("vector", case)
        assert result.ok, result.divergences[:3]

    def test_full_generated_case(self):
        # One all-oracle pass over a generated case with failures.
        case = generate_case(0)
        results = run_case(case)
        assert all(r.ok for r in results.values()), {
            name: r.divergences[:2]
            for name, r in results.items() if not r.ok
        }


class TestMutationDetection:
    def test_broken_nip_is_caught(self):
        case = SMALL_CASE  # strategy="nip"
        result = check_strategy(case, strategy=BrokenNip())
        assert not result.ok
        assert any(
            "disagrees with pseudocode" in d.detail
            for d in result.divergences
        )

    def test_broken_nip_caught_through_run_oracle(self):
        result = run_oracle("strategy", SMALL_CASE, strategy=BrokenNip())
        assert not result.ok

    def test_happy_mask_slip_is_caught(self, monkeypatch):
        """``decide`` is built from ``happy_mask`` and ``fallback_ports``,
        so the pseudocode oracles are the only independent check of a
        technique's two statements: NIP's mask without ``computed !=
        in_port`` must show within the first 20 stock trials."""
        monkeypatch.setattr(
            NotInputPort, "happy_mask",
            lambda self, usable, in_port, computed, deflected: usable,
        )
        for index in range(20):
            case = generate_case(trial_seed(0, index))
            if not run_oracle("strategy", case).ok:
                assert case.strategy == "nip"
                break
        else:
            pytest.fail("a NIP mask that forwards back out the in-port "
                        "passed 20 strategy-oracle trials")

    def test_strategy_override_ignored_by_other_oracles(self):
        # Injecting into a non-strategy oracle must not crash it.
        assert run_oracle("wire", SMALL_CASE, strategy=BrokenNip()).ok

    def test_mutated_walk_model_is_caught(self, monkeypatch):
        """Swap one entry of the strategy table handed to the *model*
        side: the shared trace-vs-verdict diff must name every packet
        whose simulated trace no longer matches."""

        class Detour(DeflectionStrategy):
            name = "none"

            def decide(self, healthy, in_port, computed, deflected, rng):
                others = [p for p in healthy if p not in (computed, in_port)]
                return (others[0], True) if others else (None, False)

        victim = build_scenario(SMALL_CASE).primary_route[0]
        real_table = oracles._no_deflection_table

        def mutated_table(graph):
            return {**real_table(graph), victim: Detour()}

        monkeypatch.setattr(oracles, "_no_deflection_table", mutated_table)
        result = check_walk(SMALL_CASE)
        details = [d.detail for d in result.divergences]
        assert any(
            d.startswith("[routed] packet #")
            and "hop trace differs from the walk model" in d
            for d in details
        ), details[:3]
        # the baseline flavours walk the simulator's own tables: untouched
        assert not any(d.startswith(("[ff]", "[arb]")) for d in details)
        # and the backend oracle's XSR run goes through the same helper
        result = run_oracle("backend", SMALL_CASE)
        assert any(
            d.detail.startswith("[xsr] packet #") for d in result.divergences
        )

    def test_vector_stream_overrun_is_caught(self, monkeypatch):
        """The flat kernel reads its streams ahead and fingerprints each
        by the words its draws took; one word too many counted on one
        drawn stream must show in the fingerprint the oracle compares."""
        from repro.sim import vector

        case = generate_case(2)  # avp, two failures: deflections happen
        assert run_oracle("vector", case).ok
        draw = vector._ChoiceWords.draw
        bumped = []

        def overrun(self, stream, n):
            out = draw(self, stream, n)
            if not bumped:
                self._used[stream[0]] += 1
                bumped.append(stream[0])
            return out

        monkeypatch.setattr(vector._ChoiceWords, "draw", overrun)
        result = run_oracle("vector", case)
        assert any(
            "record[rng_fingerprint] differs" in d.detail
            for d in result.divergences
        ), result.divergences[:3]

    def test_unreduced_integer_solve_is_caught(self, monkeypatch):
        """``R + M`` decodes to the same ports at every hop; only the
        CRT definition (``0 <= R < M``), checked without a solver,
        tells it from the route ID."""
        from repro.rns.crt import crt
        from repro.rns.encoder import RouteEncoder

        def unreduced(residues, moduli):
            route_id, modulus = crt(residues, moduli)
            return route_id + modulus, modulus

        monkeypatch.setattr(RouteEncoder, "solve", staticmethod(unreduced))
        result = run_oracle("backend", SMALL_CASE)
        details = [d.detail for d in result.divergences]
        assert any(
            d.startswith("integer encoder's route is not the CRT solution")
            for d in details
        ), details[:3]
        assert not any("[xsr]" in d for d in details)

    def test_rng_stream_drift_is_caught(self):
        class ExtraDraw(NotInputPort):
            """Right answer, wrong number of RNG draws."""

            def decide(self, healthy, in_port, computed, deflected, rng):
                verdict = super().decide(
                    healthy, in_port, computed, deflected, rng
                )
                if verdict[0] is None:
                    rng.random()  # stray draw desyncs the stream
                return verdict

        result = check_strategy(SMALL_CASE, strategy=ExtraDraw())
        assert any(
            "different RNG stream" in d.detail for d in result.divergences
        )
