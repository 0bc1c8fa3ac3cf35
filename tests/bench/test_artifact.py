"""The shared ``BENCH_*.json`` writer every bench artifact goes through."""

import json
from datetime import datetime

import pytest

from repro.bench.artifact import (
    environment_fields,
    finish_artifact,
    write_artifact,
)
from repro.bench.encodingbench import run_encoding_bench


class TestSharedArtifact:
    def test_environment_fields(self):
        fields = environment_fields()
        assert set(fields) == {"cpu_count", "platform", "python"}

    def test_finish_artifact_stamps_and_writes(self, tmp_path):
        out = tmp_path / "BENCH_x.json"
        result = finish_artifact({"bench": "x"}, str(out))
        for key in ("cpu_count", "platform", "python",
                    "timestamp", "timestamp_iso"):
            assert key in result
        iso = datetime.fromisoformat(result["timestamp_iso"])
        assert iso.timestamp() == pytest.approx(result["timestamp"])
        assert json.loads(out.read_text()) == result

    def test_explicit_fields_win(self, tmp_path):
        # farm bench records a measured cpu_count it reasons about;
        # stamping must never silently replace it.
        result = finish_artifact({"bench": "x", "cpu_count": 1234}, None)
        assert result["cpu_count"] == 1234

    def test_canonical_shape(self, tmp_path):
        out = tmp_path / "a.json"
        write_artifact({"b": 1, "a": 2}, str(out))
        assert out.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_every_bench_writer_stamps_identically(self):
        # Both BENCH_*.json writers go through finish_artifact, so the
        # stamp/environment key set is identical across artifacts.
        res = run_encoding_bench(
            cells=["abilene"], quick=True, repeats=1, iters=1, out=None
        )
        stamp_keys = {"cpu_count", "platform", "python",
                      "timestamp", "timestamp_iso"}
        assert stamp_keys <= set(res)
