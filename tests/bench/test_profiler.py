"""Tests for the cProfile wrapper behind ``repro --profile``."""

import io
import subprocess
import sys

import pytest

from repro.bench.profiler import profile_call


class TestProfileCall:
    def test_returns_the_functions_result(self):
        buf = io.StringIO()
        assert profile_call(lambda: sum(range(100)), top=5, stream=buf) == 4950

    def test_writes_cumulative_stats(self):
        buf = io.StringIO()
        profile_call(lambda: sorted(range(50)), top=3, stream=buf)
        text = buf.getvalue()
        assert "cumulative" in text
        assert "function calls" in text

    def test_stats_dumped_even_when_fn_raises(self):
        buf = io.StringIO()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            profile_call(boom, top=3, stream=buf)
        assert "cumulative" in buf.getvalue()

    def test_bad_top_rejected(self):
        with pytest.raises(ValueError):
            profile_call(lambda: None, top=0)


def _loaded_after(imports, names):
    """Which of *names* a fresh interpreter has in ``sys.modules`` after
    ``import <imports>`` (dotted names match on their top package too)."""
    code = (
        f"import sys, {imports}; "
        "have = set(sys.modules) | {m.partition('.')[0] for m in sys.modules}; "
        f"print(sorted(have & set({list(names)!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip()


def test_the_cold_start_layers_import_neither_scipy_nor_networkx():
    # scipy.sparse.csgraph would do the forest BFS, but its import alone
    # costs ~1 s and would land in every e2e workload's set-up.
    assert _loaded_after(
        "repro.controller.idassign, repro.controller.bulk, repro.sim.vector",
        ["scipy", "networkx"],
    ) == "[]"


def test_the_cli_and_the_service_start_without_numpy():
    # route_frequency_weights imports numpy when called, not when
    # repro.controller is imported (~0.1 s and 13 MiB per process).
    assert _loaded_after(
        "repro.cli, repro.controller, repro.service", ["numpy"]
    ) == "[]"
