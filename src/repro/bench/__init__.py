"""Performance benchmarks for the simulator and control plane.

* :mod:`repro.bench.simbench` — ``repro bench sim``: the vectorized
  epoch engine vs the scalar reference engine, digest-checked before
  any speedup is reported (writes ``BENCH_sim.json``).
* :mod:`repro.bench.encodingbench` — ``repro bench encoding``: the
  backend x assigner matrix over the zoo corpus — bits per route and
  encode/decode throughput per backend, every backend run through the
  verify oracles before any timing (writes ``BENCH_encoding.json``).
* :mod:`repro.bench.stamp` — dual float/ISO-8601-UTC timestamps for
  bench artifacts.
* :mod:`repro.bench.profiler` — the ``--profile N`` CLI wrapper:
  cProfile around any experiment command, top-N cumulative dump.

The farm-level benchmark (parallelism across runs, result cache) lives
separately in :mod:`repro.farm.bench`; this package measures the inside
of a single run.
"""

from repro.bench.encodingbench import render_encoding_bench, run_encoding_bench
from repro.bench.profiler import profile_call
from repro.bench.simbench import render_sim_bench, run_sim_bench
from repro.bench.stamp import timestamp_fields, utc_stamp

__all__ = [
    "run_sim_bench",
    "render_sim_bench",
    "run_encoding_bench",
    "render_encoding_bench",
    "profile_call",
    "utc_stamp",
    "timestamp_fields",
]
