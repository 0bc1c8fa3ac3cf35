"""build_report determinism: identical runs produce identical bytes.

The figure sections and the header-overhead study are monkeypatched
with cheap stubs — the claim under test is the report *scaffolding*
(no wall-clock text, no other run-varying content), not the
measurements.  Table 1, Table 2 and the header-overhead section are
deterministic, so the committed ones are held to the code that renders
them.
"""

from pathlib import Path

import pytest

import repro.experiments.report as report_mod
from repro.experiments.header_overhead import render_overhead_report
from repro.experiments.report import build_report, main
from repro.experiments.table1 import render_table1
from repro.experiments.table2 import render_table2

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _stub_sections(monkeypatch):
    for name in ("_fig4_section", "_fig5_section",
                 "_fig7_section", "_fig8_section"):
        monkeypatch.setattr(
            report_mod, name,
            lambda farm=None, _n=name: [f"## stub {_n}", ""],
        )
    # The overhead study runs the synthwan754 zoo study; its committed
    # block is checked against the real renderer below.
    monkeypatch.setattr(
        report_mod.header_overhead, "render_overhead_report",
        lambda: "stub header overhead",
    )


class TestReportDeterminism:
    def test_two_runs_byte_identical(self, monkeypatch):
        _stub_sections(monkeypatch)
        assert build_report() == build_report()

    def test_no_wall_time_in_report(self, monkeypatch):
        # Regression: the footer used to embed elapsed wall time, so
        # re-running the generator always dirtied EXPERIMENTS.md.
        _stub_sections(monkeypatch)
        assert "wall time" not in build_report()

    def test_main_writes_identical_files(self, monkeypatch, tmp_path, capsys):
        _stub_sections(monkeypatch)
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", str(out)]) == 0
        first = out.read_bytes()
        assert main(["report", str(out)]) == 0
        assert out.read_bytes() == first
        # Timing still reaches the console, just never the file.
        assert "wall time" in capsys.readouterr().out


@pytest.mark.parametrize("head, render", [
    pytest.param("## Table 1 — route-ID bit length (15-node network)",
                 render_table1, id="table1"),
    pytest.param("## Table 2 — related-work feature matrix",
                 render_table2, id="table2"),
    pytest.param("## Header overhead (Section 2.3, extended)",
                 render_overhead_report, id="header-overhead"),
])
def test_committed_block_is_current(head, render):
    # `repro report` regenerates these blocks; a change to the code
    # that skips the regeneration goes red here rather than going stale.
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert text.count(f"{head}\n") == 1
    section = text.split(f"{head}\n", 1)[1]
    block = section.split("```\n", 1)[1].split("\n```\n", 1)[0]
    assert block == render()
