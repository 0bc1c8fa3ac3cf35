"""The farm executor: cache-aware, multiprocess, crash-tolerant.

``jobs=1`` (the default everywhere) executes inline in the calling
process, in submission order — byte-for-byte the pre-farm sequential
code path, plus caching.  ``jobs>1`` runs cache misses on a
``ProcessPoolExecutor``.

Determinism note: worker processes always use the **spawn** start
method (:data:`WORKER_START_METHOD`), never the platform default.
Linux defaults to ``fork`` (workers inherit the parent's entire
interpreter state) while macOS and Windows spawn fresh interpreters;
pinning ``spawn`` makes every platform run jobs in a pristine
interpreter, so a sweep's digests match across operating systems.
Runs are pure functions of their RunSpec, so this is belt and braces —
but it is cheap, and it also means a job kind must be registered at
module import time to be visible to workers.

Failure handling:

* a job raising an ordinary exception is **deterministic** — retrying
  cannot help, so the farm aborts with :class:`FarmJobError`;
* a worker *crashing* (segfault, ``os._exit``, OOM-kill) breaks the
  pool — the pool is rebuilt and unfinished jobs resubmitted, each
  charged one attempt, bounded by ``max_retries``;
* no completion for ``timeout_s`` seconds counts as a stall (the
  per-job timeout: some submitted job has hogged a worker for that
  long) — the pool is torn down, its processes killed, and unfinished
  jobs retried under the same attempt budget;
* a parent whose ``__main__`` is not a file the workers can re-run
  (a script read from stdin, ``python - <<EOF``) is refused with one
  :class:`FarmError` before any worker starts: each would die in its
  bootstrap, which the pool cannot tell from a crash;
* Ctrl-C drains gracefully: every result completed so far is already
  in the cache, so rerunning the same command picks up where the
  interrupted sweep stopped.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.farm.cache import CacheStats, ResultCache
from repro.farm.jobs import execute_record, execute_spec
from repro.farm.progress import ProgressReporter
from repro.farm.spec import RunSpec

__all__ = [
    "WORKER_START_METHOD",
    "FarmError",
    "FarmJobError",
    "FarmOptions",
    "FarmStats",
    "Farm",
    "run_specs",
]

#: Worker start method, pinned for cross-platform determinism.
WORKER_START_METHOD = "spawn"


class FarmError(RuntimeError):
    """A farm run could not complete."""


class FarmJobError(FarmError):
    """A job failed deterministically (its own exception, not a crash)."""

    def __init__(self, spec: RunSpec, cause: BaseException):
        super().__init__(f"job {spec.label()} failed: {cause!r}")
        self.spec = spec
        self.cause = cause


@dataclass
class FarmOptions:
    """Everything that shapes a farm run (CLI flags map 1:1 onto this).

    ``progress`` is tri-state: False (the default, so ``farm=None`` is
    silent everywhere) silences everything, None draws a live line on a
    TTY and prints the summary, True forces both (even into a pipe).
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    refresh: bool = False
    progress: Optional[bool] = False
    timeout_s: float = 600.0
    max_retries: int = 2


@dataclass
class FarmStats:
    """Outcome accounting for one :meth:`Farm.run` call."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    retries: int = 0
    elapsed_s: float = 0.0
    cache: Optional[CacheStats] = None

    def summary(self, label: str) -> str:
        parts = [
            f"{label}: {self.total} jobs — {self.executed} executed, "
            f"{self.cached} cached"
        ]
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.cache is not None and self.cache.invalidated:
            parts.append(f"{self.cache.invalidated} invalidated")
        parts.append(f"{self.elapsed_s:.1f}s")
        return ", ".join(parts)


class Farm:
    """Runs RunSpecs through the cache and (optionally) a worker pool."""

    def __init__(self, options: Optional[FarmOptions] = None):
        self.options = options or FarmOptions()
        self.cache: Optional[ResultCache] = None
        if self.options.cache_dir and not self.options.no_cache:
            self.cache = ResultCache(self.options.cache_dir)
        self.stats = FarmStats()

    def run(
        self,
        specs: Sequence[RunSpec],
        label: str = "farm",
    ) -> List[Dict[str, Any]]:
        """Execute all specs; result records in spec order."""
        specs = list(specs)
        opts = self.options
        self.stats = FarmStats(
            total=len(specs),
            cache=self.cache.stats if self.cache is not None else None,
        )
        reporter = ProgressReporter(
            total=len(specs),
            label=label,
            enabled=opts.progress,
        )
        results: Dict[int, Dict[str, Any]] = {}
        pending: List[int] = []
        started = time.monotonic()
        reporter.start()
        try:
            for i, spec in enumerate(specs):
                record = None
                if self.cache is not None and not opts.refresh:
                    record = self.cache.get(spec)
                if record is not None:
                    results[i] = record
                    self.stats.cached += 1
                    reporter.tick(cached=True)
                else:
                    pending.append(i)
            if pending:
                if opts.jobs <= 1 or len(pending) == 1:
                    self._run_inline(specs, pending, results, reporter)
                else:
                    self._run_pool(specs, pending, results, reporter)
        finally:
            self.stats.elapsed_s = time.monotonic() - started
            reporter.finish(self.stats.summary(label))
        return [results[i] for i in range(len(specs))]

    # -- shared completion path --------------------------------------

    def _complete(
        self,
        spec: RunSpec,
        record: Dict[str, Any],
        results: Dict[int, Dict[str, Any]],
        index: int,
        reporter: ProgressReporter,
    ) -> None:
        results[index] = record
        if self.cache is not None:
            self.cache.put(spec, record)
        self.stats.executed += 1
        reporter.tick(cached=False)

    # -- jobs=1: the sequential path ---------------------------------

    def _run_inline(self, specs, pending, results, reporter):
        for i in pending:
            try:
                record = execute_spec(specs[i])
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                raise FarmJobError(specs[i], exc) from exc
            self._complete(specs[i], record, results, i, reporter)

    # -- jobs>1: the worker pool -------------------------------------

    def _run_pool(self, specs, pending, results, reporter):
        _require_spawnable_main()
        opts = self.options
        ctx = multiprocessing.get_context(WORKER_START_METHOD)
        attempts = {i: 0 for i in pending}
        todo: List[int] = list(pending)
        while todo:
            workers = min(opts.jobs, len(todo))
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
            futures: Dict[Future, int] = {
                pool.submit(execute_record, specs[i].to_record()): i
                for i in todo
            }
            todo = []
            try:
                todo = self._collect(pool, futures, specs, results, reporter)
            except KeyboardInterrupt:
                self._kill_pool(pool)
                raise
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            for i in todo:
                attempts[i] += 1
                self.stats.retries += 1
                if attempts[i] > opts.max_retries:
                    raise FarmError(
                        f"job {specs[i].label()} did not complete after "
                        f"{attempts[i]} attempts (worker crash or "
                        f"timeout > {opts.timeout_s:g}s)"
                    )

    def _collect(self, pool, futures, specs, results, reporter) -> List[int]:
        """Drain one pool generation; returns job indexes to retry."""
        opts = self.options
        not_done = set(futures)
        last_completion = time.monotonic()
        while not_done:
            done, not_done = wait(
                not_done, timeout=1.0, return_when=FIRST_COMPLETED
            )
            if done:
                last_completion = time.monotonic()
            retry: List[int] = []
            for future in done:
                i = futures[future]
                try:
                    record = future.result()
                except BrokenProcessPool:
                    retry.append(i)
                except Exception as exc:
                    raise FarmJobError(specs[i], exc) from exc
                else:
                    self._complete(specs[i], record, results, i, reporter)
            if retry:
                # A worker died and took the pool with it; everything
                # unfinished must move to the next generation.
                return retry + [futures[f] for f in not_done]
            if (not done and not_done
                    and time.monotonic() - last_completion > opts.timeout_s):
                # Stall: some job has held a worker beyond the per-job
                # budget.  Kill the generation; unfinished jobs retry.
                self._kill_pool(pool)
                return [futures[f] for f in not_done]
        return []

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool whose workers may never return."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except OSError:  # already gone
                pass


def _require_spawnable_main() -> None:
    """Refuse a ``__main__`` that a spawn worker cannot re-run.

    A spawned worker imports the parent's ``__main__`` by module name
    or, failing that, from its ``__file__`` (``multiprocessing.spawn``'s
    rule, mirrored here).  A script read from stdin names the file
    ``'<stdin>'``, so every worker would fail to start.
    """
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(getattr(main, "__spec__", None), "name", None) or path is None:
        return
    if not os.path.isfile(
        os.path.join(multiprocessing.process.ORIGINAL_DIR or "", path)
    ):
        raise FarmError(
            f"spawn workers cannot re-import __main__ from {path!r}: "
            f"run the script from a file, or use jobs=1"
        )


def run_specs(
    specs: Sequence[RunSpec],
    options: Optional[FarmOptions] = None,
    label: str = "farm",
) -> List[Dict[str, Any]]:
    """One-shot convenience: build a Farm, run, return result records."""
    return Farm(options).run(specs, label=label)
