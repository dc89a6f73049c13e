"""Provenance metadata shared by the benchmark harnesses.

A benchmark number without its provenance is unfalsifiable: the commit it
measured, whether the artifact store fed it cached work, and where the run
journal landed all change how a reader should weigh it.  Both harnesses
fold :func:`provenance_meta` into their ``meta`` block so every
``BENCH_*.json`` is traceable back to code and cache state.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
from typing import Dict, Iterator, Optional


def git_sha() -> Optional[str]:
    """The current commit hash, or ``None`` outside a usable git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


@contextlib.contextmanager
def numpy_hidden() -> Iterator[None]:
    """Run the block as on a host without numpy, so every kernel with a
    numpy leg times its bigint leg instead."""
    from repro.simulation import backends

    saved = backends._NUMPY, backends._NUMPY_CHECKED
    backends._NUMPY, backends._NUMPY_CHECKED = None, True
    try:
        yield
    finally:
        backends._NUMPY, backends._NUMPY_CHECKED = saved


def backend_meta(width: Optional[int] = None) -> Dict[str, object]:
    """What word implementation a measurement ran on.

    The leg the platform picks (``"numpy"`` when importable, else
    ``"bigint"``), the numpy version behind it, and -- when ``width`` is
    given -- the effective uint64 word count per plane at that lane width
    are recorded so numbers from different legs never get compared as if
    they were the same engine.
    """
    from repro.simulation.backends import numpy_version

    version = numpy_version()
    meta: Dict[str, object] = {
        "backend": "bigint" if version is None else "numpy",
        "numpy_version": version,
    }
    if width is not None:
        meta["lane_width"] = width
        meta["words_per_plane"] = (width + 63) >> 6
    return meta


def provenance_meta(journal=None, with_backend: bool = False) -> Dict[str, object]:
    """Commit, store-counter and journal fields for a ``meta`` block.

    Store counters are this process's session counters (hits/misses/writes
    against the default artifact store plus the persistent stepper-source
    level), captured at call time -- call after the measured work.  Pass
    ``with_backend=True`` to also fold :func:`backend_meta` in.
    """
    from repro.simulation.cache import compile_cache_stats
    from repro.store.core import default_store

    store = default_store()
    cache_stats = compile_cache_stats()
    meta: Dict[str, object] = {
        "git_sha": git_sha(),
        "store": None if store is None else store.stats.as_dict(),
        "stepper_cache": {
            "persistent_hits": cache_stats["persistent_hits"],
            "persistent_misses": cache_stats["persistent_misses"],
            "persistent_writes": cache_stats["persistent_writes"],
        },
        "journal": None if journal is None else journal.path,
    }
    if with_backend:
        meta.update(backend_meta())
    return meta


def open_bench_journal(label: str):
    """A run journal in the default store's journal directory, or ``None``
    when the store is disabled (benchmarks still run, just unjournaled)."""
    from repro.store.core import default_store
    from repro.store.journal import RunJournal

    store = default_store()
    if store is None:
        return None
    return RunJournal.create(store.journal_dir, label)


__all__ = [
    "backend_meta",
    "git_sha",
    "numpy_hidden",
    "open_bench_journal",
    "provenance_meta",
]
