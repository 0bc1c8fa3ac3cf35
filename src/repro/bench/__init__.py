"""The legacy benchmark writers and what they share.

The repository's benchmark is ``benchmarks/e2e`` (declared in
``BENCHMARK.json``); this package holds the two studies that have no
workload there yet, plus the stamping and profiling helpers:

* :mod:`repro.bench.encodingbench` — ``repro bench encoding``: the
  backend x assigner matrix over the zoo corpus — bits per route and
  encode/decode throughput per backend, every backend run through the
  verify oracles before any timing (writes ``BENCH_encoding.json``).
* :mod:`repro.bench.artifact` — the shared ``BENCH_*.json`` writer
  (environment fields, stamp, canonical dump).
* :mod:`repro.bench.stamp` — dual float/ISO-8601-UTC timestamps for
  bench artifacts.
* :mod:`repro.bench.profiler` — the ``--profile N`` CLI wrapper:
  cProfile around any experiment command, top-N cumulative dump.

The farm-level benchmark (parallelism across runs, result cache) lives
separately in :mod:`repro.farm.bench`.

Nothing is imported here: ``encodingbench`` pulls in the verify stack
and ``scipy.stats`` (0.8 s), which ``repro --profile N <cmd>`` must not
pay to reach ``profile_call``.  Import the submodule you need by path.
"""
