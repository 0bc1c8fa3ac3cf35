"""Tests for the command-line interface (fast commands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "fifteen_node"
        assert args.deflection == "nip"
        assert args.protection == "partial"

    def test_bad_deflection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--deflection", "magic"])


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "43" in out and "Unprotected" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "KAR" in capsys.readouterr().out

    def test_topo_summary(self, capsys):
        assert main(["topo", "fifteen_node"]) == 0
        out = capsys.readouterr().out
        assert "15 core switches" in out
        assert "SW10 -> SW7 -> SW13 -> SW29" in out

    def test_topo_dot(self, capsys):
        assert main(["topo", "six_node", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph kar {")
        assert '"SW4"' in out

    def test_topo_all_scenarios(self, capsys):
        for name in ("six_node", "rnp28", "redundant_path"):
            assert main(["topo", name]) == 0


class TestFarmParser:
    def test_figure_commands_grow_farm_flags(self):
        for command in ("fig4", "fig5", "fig7", "fig8", "report",
                        "chaos"):
            args = build_parser().parse_args([command])
            assert args.jobs == 1, command  # sequential by default
            assert args.cache_dir == ".repro-cache", command
            assert not args.no_cache and not args.refresh, command
            assert not hasattr(args, "resume"), command  # the cache resumes
            assert args.progress is None, command  # auto on a tty

    def test_farm_flags_parse(self):
        args = build_parser().parse_args([
            "fig5", "--jobs", "4", "--cache-dir", "/tmp/c",
            "--refresh", "--no-progress",
        ])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.refresh
        assert args.progress is False


class TestBenchParser:
    @pytest.mark.parametrize("argv", [
        pytest.param(["bench", "sim"], id="sim"),
        pytest.param(["bench", "provision"], id="provision"),
        pytest.param(["bench", "service"], id="service"),
        pytest.param(["bench", "encoding"], id="encoding"),
        pytest.param(["farm", "bench"], id="farm-bench"),
        pytest.param(["bench"], id="bench"),
        pytest.param(["farm"], id="farm"),
    ])
    def test_retired_verbs_rejected(self, argv, capsys):
        # benchmarks/e2e is the one bench harness: `bench` and `farm`
        # are not commands, so each of these is argparse's usage error.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestProfileFlag:
    def test_off_by_default(self):
        assert build_parser().parse_args(["table1"]).profile is None

    def test_parses_before_subcommand(self):
        args = build_parser().parse_args(["--profile", "10", "table1"])
        assert args.profile == 10

    def test_profiled_command_runs_and_dumps_stats(self, capsys):
        assert main(["--profile", "5", "table2"]) == 0
        captured = capsys.readouterr()
        assert "KAR" in captured.out          # command output intact
        assert "cumulative" in captured.err   # profile on stderr


class TestFarmCachedCommands:
    def test_second_chaos_run_is_served_from_cache(self, tmp_path,
                                                   capsys):
        base = ["chaos", "--seed", "42", "--duration", "1.0",
                "--cache-dir", str(tmp_path / "c"), "--progress"]
        assert main(base) == 0
        first = capsys.readouterr()
        assert main(base) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # identical rendered results
        assert "1 executed, 0 cached" in first.err
        assert "0 executed, 1 cached" in second.err


class TestChaosParser:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "fifteen_node"
        assert args.deflection == "nip"
        assert args.mode == "mtbf"
        assert args.seed == 42
        assert args.duration == 4.0
        assert not args.sweep
        assert not args.ctrl_outage

    def test_mode_literal_matches_registry(self):
        # The CLI keeps a literal copy so the parser builds without
        # importing the sim; it must never drift from the registry.
        from repro.cli import _CHAOS_MODES
        from repro.sim.chaos import CHAOS_MODES

        assert sorted(_CHAOS_MODES) == sorted(CHAOS_MODES)

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--mode", "entropy"])

    @pytest.mark.parametrize("mode", ["flap", "regional"])
    def test_retired_modes_rejected(self, mode, capsys):
        # Neither answered a question mtbf or srlg does not; a switch
        # going dark is srlg with one explicit group per switch.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--mode", mode])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestChaosCommand:
    def test_single_run_reports_invariants(self, capsys):
        rc = main(["chaos", "--seed", "42", "--duration", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "invariant violations: none" in out

    def test_export_writes_rows(self, tmp_path, capsys):
        path = tmp_path / "chaos.csv"
        rc = main(["chaos", "--seed", "42", "--duration", "1.0",
                   "--export", str(path)])
        assert rc == 0
        text = path.read_text()
        assert text.splitlines()[0].startswith("scenario,technique,mode")
        assert "fifteen_node,nip,mtbf,42" in text

    def test_runs_are_bit_reproducible(self, capsys):
        assert main(["chaos", "--seed", "42", "--duration", "1.0"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--seed", "42", "--duration", "1.0"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestFrontierParser:
    def test_defaults(self):
        args = build_parser().parse_args(["frontier"])
        assert args.topologies == ["abilene", "clique", "torus"]
        assert args.schemes == ["hp", "avp", "nip", "ff", "arb"]
        assert args.max_failures == 3
        assert args.seeds == [42]
        assert not args.dynamic

    def test_literals_match_the_frontier_module(self):
        # The CLI keeps literal copies so the parser builds without
        # importing the experiment; they must never drift.
        from repro.cli import _FRONTIER_SCHEMES, _FRONTIER_TOPOLOGIES
        from repro.experiments.frontier import (
            FRONTIER_SCHEMES,
            FRONTIER_TOPOLOGIES,
        )

        assert sorted(_FRONTIER_TOPOLOGIES) == sorted(FRONTIER_TOPOLOGIES)
        assert sorted(_FRONTIER_SCHEMES) == sorted(FRONTIER_SCHEMES)

    def test_bad_choices_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frontier", "--topologies", "mobius"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frontier", "--schemes", "ospf"])


class TestFrontierCommand:
    def test_smoke_report_and_export(self, tmp_path, capsys):
        path = tmp_path / "frontier.csv"
        rc = main([
            "frontier", "--topologies", "clique",
            "--schemes", "nip", "arb", "--max-failures", "1",
            "--no-cache", "--no-progress", "--export", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frontier — clique" in out
        assert "invariant violations: 0" in out
        header = path.read_text().splitlines()[0]
        assert header.startswith("topology,scheme,mode")


class TestVerifyParser:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.trials == 50
        assert args.seed == 0
        assert args.oracles is None
        assert not args.shrink
        assert args.artifact_dir == "verify-artifacts"
        assert args.replay is None
        # Caching is opt-in for verify: a cache key covers the spec,
        # not the code under test.
        assert args.cache_dir is None
        assert args.jobs == 1

    def test_oracle_subset_parses(self):
        args = build_parser().parse_args(
            ["verify", "--oracles", "wire", "strategy", "--shrink"]
        )
        assert args.oracles == ["wire", "strategy"]
        assert args.shrink

    def test_bad_oracle_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--oracles", "vibes"])

    def test_oracle_literal_matches_registry(self):
        # The CLI keeps a literal copy so the parser builds without
        # importing the verifier; it must never drift from the registry.
        from repro.cli import _ORACLE_NAMES
        from repro.verify.oracles import ORACLE_NAMES

        assert _ORACLE_NAMES == ORACLE_NAMES


class TestVerifyCommand:
    def test_smoke_run_is_clean(self, tmp_path, capsys):
        rc = main([
            "verify", "--trials", "2", "--seed", "3",
            "--oracles", "strategy", "wire",
            "--artifact-dir", str(tmp_path / "artifacts"),
            "--no-progress",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 trials (seed 3)" in out
        assert "no divergences" in out
        assert not (tmp_path / "artifacts").exists()

    def test_replay_of_clean_artifact_reports_fixed(self, tmp_path,
                                                    capsys):
        from repro.verify.artifact import artifact_record, write_artifact
        from repro.verify.cases import generate_case

        path = write_artifact(
            str(tmp_path / "repro.json"),
            artifact_record("wire", generate_case(1), ["stale detail"]),
        )
        assert main(["verify", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "replayed [wire]" in out
        assert "no longer reproduces" in out


class TestRunCommand:
    def test_short_custom_run(self, capsys):
        rc = main([
            "run", "--scenario", "fifteen_node", "--deflection", "nip",
            "--protection", "partial", "--failure", "SW7-SW13",
            "--seed", "2", "--duration", "3.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "% of baseline" in out

    def test_default_failure_case(self, capsys):
        rc = main(["run", "--duration", "3.0"])
        assert rc == 0
        assert "failure=SW10-SW7" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, listed", [
        (["--failure", "SW7-SW99"], "choose from SW10-SW7, "),
        (["--failure", "bogus"], "choose from SW10-SW7, "),
        (["--protection", "nonsense"],
         "choose from unprotected, partial, full"),
        (["--duration", "0.1"], "choose more than 1.5"),
    ], ids=["unknown-link", "malformed-failure", "undefined-protection",
            "duration-under-1.5s"])
    def test_bad_input_is_a_usage_error(self, flags, listed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "fifteen_node", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.splitlines()[-1]
        assert message.startswith(f"repro run: error: {flags[0]} ")
        assert listed in message


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.topology == "torus33"
        assert args.host == "127.0.0.1"
        assert args.port == 8423

    def test_serve_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--topology", "mobius"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.topology == "torus33"
        assert args.seeds == [0, 1]
        assert args.users == 2000 and args.ops == 4000
        assert args.qos == 0.3
        assert args.transport == "http"
        assert args.export is None
        assert args.jobs == 1  # farm flags attached

    def test_loadgen_bad_transport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--transport", "smtp"])

    def test_topologies_literal_matches_service_registry(self):
        # Same pattern as _CHAOS_MODES: the CLI keeps a literal copy so
        # the parser builds without importing the service package.
        from repro.cli import _SERVICE_TOPOLOGIES
        from repro.service.topology import SERVICE_TOPOLOGIES

        assert sorted(_SERVICE_TOPOLOGIES) == sorted(SERVICE_TOPOLOGIES)


class TestLoadgenCommand:
    def test_small_direct_churn_run(self, capsys):
        rc = main([
            "loadgen", "--topology", "six_node", "--seeds", "1",
            "--users", "20", "--ops", "60", "--transport", "direct",
            "--no-cache", "--no-progress",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[OK] six_node" in out and "0 total violations" in out
