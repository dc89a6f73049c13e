"""Module-level compile cache for lowered circuits and code-generated steppers.

The ATPG, fault-simulation and verification flows all lower the same
:class:`~repro.circuit.netlist.Circuit` -- often many times per run: the
random phase fault-simulates per candidate sequence, the exact search and
every collateral replay step the bit-parallel kernel, the benchmark rows
simulate the same pair with several engines.  Re-lowering (topological
ordering + read resolution) and re-``exec``-ing generated source on every
call is pure waste, so the artifacts are cached and shared by every flow:

* :func:`compiled_circuit` -- the :class:`CompiledCircuit` lowering;
* :func:`fast_stepper` -- the fault-free scalar :class:`FastStepper`;
* :func:`vector_fast_stepper` -- the bit-parallel :class:`VectorFastStepper`.

Circuits are "immutable by convention" (retiming materializes *new*
instances via ``with_weights``), so the cache key is object identity.  The
artifacts are stashed on the circuit instance itself: a compiled artifact
necessarily holds a strong reference back to its circuit, so any external
registry that owned the artifacts would keep every circuit ever lowered
alive.  Instance stashing ties each cache entry's lifetime to its circuit
-- a retiming sweep materializing thousands of candidate circuits leaks
nothing once the candidates are dropped.  A registry of *weak* references
is kept purely for accounting (:func:`compile_cache_stats`) and bulk
clearing (:func:`clear_compile_cache`).

On top of the in-memory level sits an optional **persistent second level**
backed by the content-addressed artifact store (:mod:`repro.store`): the
generated stepper *source* is keyed by the circuit's content digest, so a
fresh process lowering a circuit any earlier process has seen skips code
generation and goes straight to ``exec``.  The artifact records the
circuit's raw structural identity and the loaders validate it, so a
digest-equal circuit with different edge numbering can never be handed
source whose slot numbering doesn't match.  The level is written through
lazily and degrades to a plain miss whenever the store is disabled
(``REPRO_STORE_DISABLE``) or unwritable.

All bookkeeping is guarded by a lock so concurrent callers (e.g. a thread
pool fault-simulating independent circuits) are safe.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.circuit.netlist import Circuit
from repro.simulation.codegen import FastStepper
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.vector_codegen import VectorFastStepper

_T = TypeVar("_T")

_ATTR = "_simulation_compile_cache"

# Reentrant: a weakref _forget callback can fire from garbage collection
# triggered *while* the cache lock is held by the same thread (e.g. an
# allocation inside a build step collects a dead circuit's cycle); a plain
# Lock would deadlock there.
_LOCK = threading.RLock()
_REGISTRY: Dict[int, "weakref.ref[Circuit]"] = {}
_STATS = {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "persistent_hits": 0,
    "persistent_misses": 0,
    "persistent_writes": 0,
}


class _Entry:
    __slots__ = ("compiled", "fast", "vector_fast", "sources")

    def __init__(self) -> None:
        self.compiled: Optional[CompiledCircuit] = None
        self.fast: Optional[FastStepper] = None
        self.vector_fast: Optional[VectorFastStepper] = None
        # Persisted (scalar, clean, inject) sources, once loaded: a stepper
        # is exec'd only when asked for, from these texts.
        self.sources: Optional[Tuple[str, str, str]] = None


def _entry_for(circuit: Circuit) -> _Entry:
    """The cache entry stashed on ``circuit`` (caller holds the lock)."""
    entry = getattr(circuit, _ATTR, None)
    if entry is not None:
        return entry
    entry = _Entry()
    setattr(circuit, _ATTR, entry)
    key = id(circuit)

    # Globals are bound as defaults so the callback stays valid during
    # interpreter shutdown, when module globals may already be cleared.
    def _forget(
        dead_ref: "weakref.ref[Circuit]",
        key: int = key,
        lock: threading.RLock = _LOCK,
        registry: Dict[int, "weakref.ref[Circuit]"] = _REGISTRY,
        stats: Dict[str, int] = _STATS,
    ) -> None:
        with lock:
            if registry.get(key) is dead_ref:
                del registry[key]
                stats["evictions"] += 1

    _REGISTRY[key] = weakref.ref(circuit, _forget)
    return entry


def _get(circuit: Circuit, attr: str, build: Callable[[_Entry], _T]) -> _T:
    with _LOCK:
        entry = _entry_for(circuit)
        artifact = getattr(entry, attr)
        if artifact is not None:
            _STATS["hits"] += 1
            return artifact
        _STATS["misses"] += 1
        artifact = build(entry)
        setattr(entry, attr, artifact)
        return artifact


def compiled_circuit(circuit: Circuit) -> CompiledCircuit:
    """The cached :class:`CompiledCircuit` lowering of ``circuit``."""
    return _get(circuit, "compiled", lambda entry: CompiledCircuit(circuit))


# -- persistent second level -------------------------------------------------


def _stepper_key(store, circuit: Circuit) -> str:
    from repro.circuit.digest import circuit_digest
    from repro.simulation.backends import WORDPLANE_VERSION

    # The word-plane backend lowers its plan *from* the persisted program
    # (same slot numbering), so the backend generation is part of the key:
    # artifacts produced under an older lowering never feed a newer backend.
    return store.key(
        "stepper", circuit_digest(circuit), f"wordplane{WORDPLANE_VERSION}"
    )


def _load_sources(circuit: Circuit):
    """Persisted ``(scalar, clean, inject)`` sources, or ``None``."""
    from repro.store.core import default_store

    store = default_store()
    if store is None:
        return None
    from repro.store.artifacts import stepper_sources_from_payload

    payload = store.get("stepper", _stepper_key(store, circuit))
    sources = (
        None if payload is None else stepper_sources_from_payload(payload, circuit)
    )
    if sources is None:
        _STATS["persistent_misses"] += 1
        return None
    _STATS["persistent_hits"] += 1
    return sources


def _persist_sources(circuit: Circuit, entry: _Entry) -> None:
    """Write one combined stepper artifact (building any missing half;
    a stepper execs its source only on first use, so this compiles none).

    The scalar and bit-parallel sources travel in one record because the
    flows that need one soon need the other (ATPG's random phase, search
    and replay simulate bit-parallel, the synchronizing-sequence search
    scalar), and a single record keeps hit/miss accounting and GC
    granularity simple.
    """
    from repro.store.core import default_store

    store = default_store()
    if store is None:
        return
    if entry.fast is None:
        entry.fast = FastStepper(circuit, compiled=entry.compiled)
    if entry.vector_fast is None:
        entry.vector_fast = VectorFastStepper(circuit, compiled=entry.compiled)
    from repro.store.artifacts import stepper_payload

    clean, inject = entry.vector_fast.sources()
    try:
        store.put(
            "stepper",
            _stepper_key(store, circuit),
            stepper_payload(circuit, entry.fast._source, clean, inject),
        )
        _STATS["persistent_writes"] += 1
    except OSError:
        pass  # unwritable store degrades to in-memory-only caching


def _stepper(
    circuit: Circuit,
    attr: str,
    make: Callable[[CompiledCircuit, Optional[Tuple[str, str, str]]], _T],
) -> _T:
    """The cached stepper ``attr``, built by ``make(compiled, sources)``.

    ``sources`` are the persisted texts when the store has them (read at
    most once per entry, and only the requested stepper is exec'd), else
    ``None``: ``make`` then generates, and the record is written through.
    """

    def build(entry: _Entry) -> _T:
        if entry.compiled is None:
            entry.compiled = CompiledCircuit(circuit)
        if entry.sources is None:
            entry.sources = _load_sources(circuit)
        if entry.sources is not None:
            return make(entry.compiled, entry.sources)
        artifact = make(entry.compiled, None)
        setattr(entry, attr, artifact)
        _persist_sources(circuit, entry)
        return artifact

    return _get(circuit, attr, build)


def fast_stepper(circuit: Circuit) -> FastStepper:
    """The cached fault-free scalar :class:`FastStepper` for ``circuit``."""
    return _stepper(
        circuit,
        "fast",
        lambda compiled, sources: FastStepper(
            circuit, compiled=compiled, source=sources and sources[0]
        ),
    )


def vector_fast_stepper(circuit: Circuit) -> VectorFastStepper:
    """The cached bit-parallel :class:`VectorFastStepper` for ``circuit``."""
    return _stepper(
        circuit,
        "vector_fast",
        lambda compiled, sources: VectorFastStepper(
            circuit, compiled=compiled, sources=sources and sources[1:3]
        ),
    )


def warm_compile_cache(circuit: Circuit) -> None:
    """Build every cached artifact for ``circuit`` up front.

    Used by process-pool worker initializers (one call per worker process,
    see :mod:`repro.faultsim.shard`): a freshly unpickled circuit arrives
    with no cache entry, and warming it once at initialization keeps the
    lowering and ``exec`` cost out of the first work chunk's critical path.
    """
    compiled_circuit(circuit)
    vector_fast_stepper(circuit)


def clear_compile_cache() -> None:
    """Drop every cached artifact (tests and long-running services)."""
    with _LOCK:
        # Snapshot: breaking an entry's circuit<->artifact cycle can free the
        # circuit, firing its _forget callback, which mutates the registry.
        for ref in list(_REGISTRY.values()):
            circuit = ref()
            if circuit is not None and hasattr(circuit, _ATTR):
                delattr(circuit, _ATTR)
        _REGISTRY.clear()
        for key in _STATS:
            _STATS[key] = 0


def compile_cache_stats() -> Dict[str, int]:
    """A snapshot of cache counters: hits, misses, evictions, entries."""
    with _LOCK:
        stats = dict(_STATS)
        stats["entries"] = sum(1 for ref in _REGISTRY.values() if ref() is not None)
        return stats


__all__ = [
    "compiled_circuit",
    "fast_stepper",
    "vector_fast_stepper",
    "warm_compile_cache",
    "clear_compile_cache",
    "compile_cache_stats",
]
