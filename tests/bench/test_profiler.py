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


def test_importing_the_profiler_does_not_import_the_writers():
    # repro.bench's __init__ used to import encodingbench, and with it
    # the verify stack and scipy.stats, on the way to profile_call.
    code = (
        "import sys, repro.bench.profiler, repro.bench.artifact; "
        "print([m for m in ('scipy.stats', 'repro.bench.encodingbench') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
