"""build_report determinism: identical runs produce identical bytes.

The figure sections are monkeypatched with cheap stubs — the claim
under test is the report *scaffolding* (no wall-clock text, no other
run-varying content), not the measurements.  The header-overhead
section is deterministic and cheap, so the committed one is held to
the code that renders it.
"""

from pathlib import Path

import repro.experiments.report as report_mod
from repro.experiments.header_overhead import render_overhead_report
from repro.experiments.report import build_report, main

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _stub_sections(monkeypatch):
    for name in ("_fig4_section", "_fig5_section",
                 "_fig7_section", "_fig8_section"):
        monkeypatch.setattr(
            report_mod, name,
            lambda farm=None, _n=name: [f"## stub {_n}", ""],
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


def test_committed_header_overhead_block_is_current():
    # `repro report` regenerates this block; a change to the study that
    # skips the regeneration goes red here rather than going stale.
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    head = "## Header overhead (Section 2.3, extended)\n\n```\n"
    assert text.count(head) == 1
    block = text.split(head, 1)[1].split("\n```\n", 1)[0]
    assert block == render_overhead_report()
