"""Behaviour of the module-level compile cache."""

import gc

from repro.simulation import (
    FastStepper,
    VectorFastStepper,
    clear_compile_cache,
    compile_cache_stats,
    compiled_circuit,
    fast_stepper,
    vector_fast_stepper,
    warm_compile_cache,
)
from repro.simulation import cache
from repro.store.core import default_store

from tests.helpers import resettable_counter, toggle_counter


class TestCompileCache:
    def setup_method(self):
        clear_compile_cache()

    def test_same_artifact_returned(self):
        circuit = toggle_counter()
        assert compiled_circuit(circuit) is compiled_circuit(circuit)
        assert fast_stepper(circuit) is fast_stepper(circuit)
        assert vector_fast_stepper(circuit) is vector_fast_stepper(circuit)

    def test_artifact_types(self):
        circuit = toggle_counter()
        assert isinstance(fast_stepper(circuit), FastStepper)
        assert isinstance(vector_fast_stepper(circuit), VectorFastStepper)

    def test_lowering_shared_across_steppers(self):
        """One CompiledCircuit serves the scalar and vector steppers alike."""
        circuit = resettable_counter()
        lowered = compiled_circuit(circuit)
        assert fast_stepper(circuit).compiled is lowered
        assert vector_fast_stepper(circuit).compiled is lowered

    def test_lowering_shared_when_stepper_first(self):
        circuit = resettable_counter()
        stepper = vector_fast_stepper(circuit)
        assert compiled_circuit(circuit) is stepper.compiled

    def test_distinct_circuits_distinct_entries(self):
        original = toggle_counter()
        retimed = original.with_weights(original.weights())
        assert compiled_circuit(original) is not compiled_circuit(retimed)

    def test_stats_count_hits_and_misses(self):
        circuit = toggle_counter()
        compiled_circuit(circuit)
        compiled_circuit(circuit)
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_entries_die_with_their_circuits(self):
        circuit = toggle_counter()
        compiled_circuit(circuit)
        assert compile_cache_stats()["entries"] == 1
        del circuit
        gc.collect()
        assert compile_cache_stats()["entries"] == 0

    def test_clear_resets_everything(self):
        compiled_circuit(toggle_counter())
        clear_compile_cache()
        stats = compile_cache_stats()
        assert stats["entries"] == 0
        assert all(count == 0 for count in stats.values())

    def test_warm_builds_every_artifact(self):
        """Worker initializers warm once; later lookups must all hit."""
        circuit = toggle_counter()
        warm_compile_cache(circuit)
        before = compile_cache_stats()
        compiled_circuit(circuit)
        fast_stepper(circuit)
        vector_fast_stepper(circuit)
        after = compile_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 3


class TestPersistentLevel:
    def setup_method(self):
        clear_compile_cache()

    def test_hit_execs_only_the_requested_stepper(self):
        written = toggle_counter()
        vector_fast_stepper(written)  # miss: generates and writes the record
        fresh = toggle_counter()  # a new object with the same digest
        stepper = vector_fast_stepper(fresh)
        assert compile_cache_stats()["persistent_hits"] == 1
        entry = getattr(fresh, cache._ATTR)
        assert entry.fast is None
        assert stepper.sources() == vector_fast_stepper(written).sources()

        stats = default_store().stats
        reads = stats.hits + stats.misses
        scalar = fast_stepper(fresh)
        assert stats.hits + stats.misses == reads  # built from the loaded texts
        assert compile_cache_stats()["persistent_hits"] == 1
        assert scalar._source == fast_stepper(written)._source
