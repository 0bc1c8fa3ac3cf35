"""The paired-protocol driver's arithmetic, on synthetic numbers (no
benchmark run, no subprocess)."""

import importlib.util
import json
import subprocess
from argparse import Namespace
from pathlib import Path

import pytest

PAIR_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "pair.py"
_spec = importlib.util.spec_from_file_location("pair", PAIR_PY)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

METRICS = [
    {"name": "repeat_s", "unit": "s", "better": "lower"},
    {"name": "work_per_s", "unit": "1/s", "better": "higher"},
]


def _runs(repeat_s, work_per_s):
    return [{"repeat_s": r, "work_per_s": w}
            for r, w in zip(repeat_s, work_per_s)]


def _row(rows, name):
    return next(r for r in rows if r["name"] == name)


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class TestQuartiles:
    def test_linear_interpolation(self):
        assert pair.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)

    def test_one_value_is_its_own_quartiles(self):
        assert pair.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_no_values_is_refused(self):
        with pytest.raises(ValueError):
            pair.quartiles([])


class TestSummarize:
    def test_a_clear_gain_is_better_in_both_directions(self):
        base = _runs(BASE, [1 / x for x in BASE])
        change = _runs([x / 1.2 for x in BASE], [1.2 / x for x in BASE])
        rows = pair.summarize(METRICS, base, change)
        for name in ("repeat_s", "work_per_s"):
            row = _row(rows, name)
            assert (row["wins"], row["pairs"], row["verdict"]) == \
                (10, 10, "better")
        assert _row(rows, "work_per_s")["ratio"] == pytest.approx(1.2)
        assert _row(rows, "repeat_s")["ratio"] == pytest.approx(1 / 1.2)
        assert _row(rows, "repeat_s")["base"] == pair.quartiles(BASE)

    def test_a_clear_loss_is_worse(self):
        base = _runs(BASE, BASE)
        change = _runs([x * 1.2 for x in BASE], [x / 1.2 for x in BASE])
        rows = pair.summarize(METRICS, base, change)
        assert {r["verdict"] for r in rows} == {"worse"}
        assert {r["wins"] for r in rows} == {0}

    def test_nine_wins_of_ten_suffice_eight_do_not(self):
        base = _runs(BASE, BASE)
        for wins, verdict in ((9, "better"), (8, "unresolved")):
            faster = [x / 1.2 if i < wins else x * 1.01
                      for i, x in enumerate(BASE)]
            row = _row(pair.summarize(METRICS, base, _runs(faster, BASE)),
                       "repeat_s")
            assert (row["wins"], row["verdict"]) == (wins, verdict)

    def test_a_gap_inside_the_base_spread_is_unresolved(self):
        # Ten wins of ten, but by less than the base's IQR.
        base = _runs(BASE, BASE)
        change = _runs([x - 0.005 for x in BASE], BASE)
        row = _row(pair.summarize(METRICS, base, change), "repeat_s")
        assert row["wins"] == 10
        assert row["verdict"] == "unresolved"

    def test_ties_count_for_neither_side(self):
        base = _runs(BASE, BASE)
        rows = pair.summarize(METRICS, base, base)
        assert {(r["wins"], r["verdict"], r["ratio"]) for r in rows} == \
            {(0, "unresolved", 1.0)}

    def test_fewer_than_ten_pairs_are_unresolved(self):
        base = _runs(BASE[:9], BASE[:9])
        change = _runs([x / 2 for x in BASE[:9]], [x * 2 for x in BASE[:9]])
        rows = pair.summarize(METRICS, base, change)
        assert {(r["wins"], r["verdict"]) for r in rows} == \
            {(9, "unresolved")}

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            pair.summarize(METRICS, _runs(BASE, BASE), _runs(BASE[:9], BASE))

    def test_render_has_a_line_per_metric(self):
        base = _runs(BASE, BASE)
        text = pair.render(pair.summarize(METRICS, base, base))
        lines = text.splitlines()
        assert len(lines) == 1 + len(METRICS)
        assert lines[1].startswith("repeat_s") and "0/10" in lines[1]


class TestGate:
    """A run that is not verified ends the program before any ratio."""

    @pytest.mark.parametrize("golden,failed", [
        ("mismatch", 0), ("absent", 0), ("match", 3),
    ])
    def test_unverified_run_exits(self, monkeypatch, golden, failed):
        out = "\n".join([
            json.dumps({"golden": golden}),
            json.dumps({"failed": failed, "metrics": {}}),
        ])
        monkeypatch.setattr(pair.subprocess, "run", lambda *a, **k:
                            subprocess.CompletedProcess(a, 0, out, ""))
        args = Namespace(workload="w", seed=1, seconds=1.0)
        with pytest.raises(SystemExit, match="no ratio printed"):
            pair._run(".", "pair 1/1 side A", args)

    def test_verified_run_gives_its_metrics(self, monkeypatch):
        out = "\n".join([
            json.dumps({"golden": "match"}),
            json.dumps({"failed": 0, "metrics": {
                "repeat_s": {"value": 1.5, "unit": "s"}}}),
        ])
        monkeypatch.setattr(pair.subprocess, "run", lambda *a, **k:
                            subprocess.CompletedProcess(a, 0, out, ""))
        args = Namespace(workload="w", seed=1, seconds=1.0)
        assert pair._run(".", "x", args) == {"repeat_s": 1.5}
