"""Word implementation of the compiled kernels: numpy when importable.

Every compiled kernel in this package has a bigint reference leg --
arbitrary-precision integers are always available and CPython's bitwise
loops are respectable.  The kernels that also have a numpy leg lower the
same dual-rail programs to vectorized ops over ``uint64`` lane-word arrays
(see :mod:`repro.simulation.wordplane`), which wins once a step is wide
enough to amortize per-call ufunc dispatch.

numpy itself is an optional ``[perf]`` extra, so the platform decides:
each such kernel calls :func:`numpy_or_none` and takes its numpy leg when
numpy is importable and its bigint leg otherwise.  Both legs give
bit-identical results, so no caller chooses.
"""

from __future__ import annotations

from typing import Optional

#: Bump whenever the word-plane lowering changes observable layout or
#: semantics.  Lives here (not in :mod:`repro.simulation.wordplane`) so the
#: artifact store can fold it into its schema version without importing
#: numpy; wordplane re-exports it.
WORDPLANE_VERSION = 1

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """The ``numpy`` module when importable, else ``None`` (cached)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via fake-absent tests
            numpy = None
        _NUMPY = numpy
        _NUMPY_CHECKED = True
    return _NUMPY


def numpy_available() -> bool:
    """True when the optional numpy dependency is importable."""
    return numpy_or_none() is not None


def numpy_version() -> Optional[str]:
    """The installed numpy version string, or ``None`` when absent."""
    module = numpy_or_none()
    return None if module is None else getattr(module, "__version__", "unknown")


__all__ = [
    "WORDPLANE_VERSION",
    "numpy_available",
    "numpy_or_none",
    "numpy_version",
]
