"""Tests for the encoding-backend benchmark.

Assertions target verification flags and artifact shape, never
wall-clock numbers — CI boxes are too noisy to gate on throughput.
"""

import json

import pytest

from repro.bench.encodingbench import (
    CELLS,
    render_encoding_bench,
    run_encoding_bench,
)
from repro.rns import BACKEND_NAMES


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_encoding.json"
    return run_encoding_bench(
        cells=["abilene"], quick=True, repeats=1, iters=1, out=str(out)
    ), out


class TestRunEncodingBench:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError, match="unknown cell"):
            run_encoding_bench(cells=["fatman"], out=None)

    @pytest.mark.parametrize("kwargs", [{"repeats": 0}, {"iters": 0}])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_encoding_bench(cells=["abilene"], out=None, **kwargs)

    def test_verified_before_timing(self, result):
        res, _ = result
        assert res["verified_before_timing"] is True
        assert all(c["bit_identical"] for c in res["cells"])
        for oracle in res["oracles"].values():
            assert oracle["ok"] is True
            assert oracle["divergences"] == []
            assert oracle["checks"] > 0

    def test_cell_shape(self, result):
        res, _ = result
        (cell,) = res["cells"]
        assert cell["cell"] == "abilene"
        assert cell["topology"] == CELLS["abilene"]["topology"]
        assert set(cell["backends"]) == set(BACKEND_NAMES)
        for row in cell["backends"].values():
            assert row["encode_per_sec"] > 0
            assert row["decode_per_sec"] > 0
            assert row["median_bits"] is not None
        assert (
            cell["backends"]["crt"]["median_bits"]
            == cell["assigners"]["crt/greedy"]["median_bits"]
        )

    def test_weighted_assigner_saves_bits(self, result):
        res, _ = result
        (cell,) = res["cells"]
        assert cell["weighted_reduction_pct"] > 0
        greedy = cell["assigners"]["crt/greedy"]["median_bits"]
        weighted = cell["assigners"]["crt/weighted"]["median_bits"]
        assert weighted < greedy

    def test_json_written_and_loadable(self, result):
        res, out = result
        on_disk = json.loads(out.read_text())
        assert on_disk["bench"] == "repro.encoding"
        assert on_disk["cells"] == res["cells"]

    def test_render(self, result):
        res, _ = result
        text = render_encoding_bench(res)
        assert "abilene" in text
        for name in BACKEND_NAMES:
            assert name in text
        assert "weighted assigner" in text
