"""The CLI's profiling helper.

The repository's benchmark is ``benchmarks/e2e`` (declared in
``BENCHMARK.json``); this package holds only
:mod:`repro.bench.profiler`, the ``--profile N`` CLI wrapper: cProfile
around any command, top-N cumulative dump.

Nothing is imported here, so ``repro --profile N <cmd>`` pays for
nothing but ``profile_call``.  Import the submodule by path.
"""
