"""Shared ``BENCH_*.json`` artifact plumbing.

Every benchmark writer used to copy the same three steps — environment
fields (``cpu_count``/``platform``/``python``), the dual timestamp from
:mod:`repro.bench.stamp`, and the canonical JSON dump (sorted keys,
2-space indent, trailing newline).  This module is that copy-paste,
once: both writers (``BENCH_encoding.json``, ``BENCH_farm.json``)
stamp and serialize identically, so artifacts stay diffable against
each other across PRs.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict, Optional

from repro.bench.stamp import timestamp_fields

__all__ = ["environment_fields", "write_artifact", "finish_artifact"]


def environment_fields() -> Dict[str, Any]:
    """The machine context every bench artifact records."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def write_artifact(result: Dict[str, Any], out: str) -> None:
    """Write one artifact in the canonical shape (stable across PRs:
    sorted keys, 2-space indent, trailing newline)."""
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")


def finish_artifact(
    result: Dict[str, Any], out: Optional[str]
) -> Dict[str, Any]:
    """Stamp *result* with environment + timestamps; write it if *out*.

    Explicit fields in *result* win over the defaults (``farm bench``
    records a measured ``cpu_count`` it also reasons about — that value
    must not be silently replaced).  Returns *result* for chaining.
    """
    for key, value in environment_fields().items():
        result.setdefault(key, value)
    for key, value in timestamp_fields().items():
        result.setdefault(key, value)
    if out:
        write_artifact(result, out)
    return result
