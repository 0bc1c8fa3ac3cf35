"""Content-addressed on-disk result cache.

Layout (two-level sharding keeps any one directory small)::

    <root>/
      ab/
        ab3f…e2.json     # full content key + ".json"

Each record file holds the content key, the fingerprint of the code
that computed it, the full RunSpec (so a cache directory is
self-describing and debuggable with ``jq``), and the result record.
Reads validate all of them; anything malformed — truncated JSON, a
record whose embedded key disagrees with its filename, a missing
result digest — counts as an **invalidation** and is treated as a
miss, never as an error: the farm just re-runs the job and overwrites
the bad record.  So does a record written by other code
(:func:`code_fingerprint` differs): the content key names the
experiment, the fingerprint the program that ran it, and a result from
an older program is stale even when the spec is the same.

Writes go through a temp file + ``os.replace`` so a killed process
never leaves a half-written record behind (rerunning a killed sweep
depends on this).  All writes happen in the farm's parent process, so there is no
cross-process write race to guard against.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.farm.spec import RunSpec

__all__ = ["CacheStats", "ResultCache", "code_fingerprint"]


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 over every ``*.py`` of the ``repro`` package, computed once
    per process: each file's path relative to the package, then its
    bytes, in path order, each length-prefixed."""
    package = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(package).as_posix(), p) for p in package.rglob("*.py")
    ):
        data = path.read_bytes()
        h.update(f"{len(rel)}:{rel}{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.lookups} lookups "
            f"({100 * self.hit_ratio:.0f}%), {self.stores} stores, "
            f"{self.invalidated} invalidated"
        )


class ResultCache:
    """JSON result records keyed by :meth:`RunSpec.content_key`."""

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The cached result record for ``spec``, or None on a miss.

        Corrupt or mismatched records, and records written by other
        code, are deleted (best-effort),
        counted in ``stats.invalidated`` and reported as a miss.
        """
        key = spec.content_key()
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("key") != key:
                raise ValueError("embedded key mismatch")
            if record.get("code") != code_fingerprint():
                raise ValueError("written by other code")
            result = record["result"]
            if not isinstance(result, dict) or "digest" not in result:
                raise ValueError("malformed result")
        except (ValueError, KeyError, TypeError):
            self.stats.invalidated += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, spec: RunSpec, result: Dict[str, Any]) -> None:
        """Store ``result`` for ``spec`` (atomic rename)."""
        key = spec.content_key()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "key": key,
            "code": code_fingerprint(),
            "spec": spec.to_record(),
            "result": result,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(record, sort_keys=True, indent=1), encoding="utf-8"
        )
        os.replace(tmp, path)
        self.stats.stores += 1
