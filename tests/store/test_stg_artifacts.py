"""Store memoization of explicit STG tables (artifact kind ``stg``)."""

import pytest

from repro.equivalence import extract_stg
from repro.equivalence.explicit import extract_stg_reference
from repro.faults.collapse import collapse_faults
from repro.store.artifacts import stg_arrays_from_payload, stg_payload
from repro.store.core import default_store, set_default_store
from tests.helpers import random_circuit, toggle_counter


def stg_records(store):
    """Number of persisted ``stg`` artifacts (other kinds -- e.g. the
    stepper source cache -- share the store, so raw counters don't do)."""
    return store.summary()["by_kind"].get("stg", 0)


class TestStgMemoization:
    def test_second_extraction_hits_the_store(self):
        circuit = random_circuit(7)
        store = default_store()
        first = extract_stg(circuit)
        assert stg_records(store) == 1
        hits_before = store.stats.hits
        second = extract_stg(circuit)
        assert store.stats.hits == hits_before + 1
        assert first == second
        assert first.next_index == second.next_index
        assert first.output_index == second.output_index

    def test_hit_serves_both_engines(self):
        """A store hit replays exactly the oracle's tables."""
        circuit = random_circuit(7)
        extract_stg(circuit)
        store = default_store()
        hits_before = store.stats.hits
        from_store = extract_stg(circuit)
        assert store.stats.hits == hits_before + 1
        assert from_store == extract_stg_reference(circuit)

    def test_faulty_machines_get_distinct_records(self):
        circuit = toggle_counter()
        fault = collapse_faults(circuit).representatives[0]
        good = extract_stg(circuit)
        bad = extract_stg(circuit, fault=fault)
        store = default_store()
        assert stg_records(store) == 2
        assert good.next_index != bad.next_index or good.output_index != bad.output_index
        # both replayable
        hits_before = store.stats.hits
        assert extract_stg(circuit) == good
        assert extract_stg(circuit, fault=fault) == bad
        assert store.stats.hits == hits_before + 2

    def test_use_store_false_bypasses_the_store(self):
        circuit = random_circuit(7)
        extract_stg(circuit, use_store=False)
        # The stepper source cache may still write, but no stg record lands.
        assert stg_records(default_store()) == 0

    def test_store_disable_env_bypasses_the_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DISABLE", "1")
        set_default_store(None)
        circuit = random_circuit(7)
        stg = extract_stg(circuit)  # must not blow up without a store
        assert len(stg.states) == 1 << circuit.num_registers()


class TestStgPayloadGuards:
    def payload_for(self, circuit):
        stg = extract_stg(circuit, use_store=False)
        return (
            stg,
            stg_payload(
                circuit,
                (),
                stg.alphabet,
                stg.num_outputs,
                stg.next_index,
                stg.output_index,
            ),
        )

    def test_roundtrip(self):
        circuit = random_circuit(7)
        stg, payload = self.payload_for(circuit)
        tables = stg_arrays_from_payload(payload, circuit, (), stg.alphabet)
        assert tables == (stg.num_outputs, stg.next_index, stg.output_index)

    def test_structure_mismatch_is_a_miss(self):
        circuit = random_circuit(7)
        other = random_circuit(8)
        stg, payload = self.payload_for(circuit)
        assert stg_arrays_from_payload(payload, other, (), stg.alphabet) is None

    def test_fault_mismatch_is_a_miss(self):
        circuit = random_circuit(7)
        fault = collapse_faults(circuit).representatives[0]
        stg, payload = self.payload_for(circuit)
        assert (
            stg_arrays_from_payload(payload, circuit, (fault,), stg.alphabet) is None
        )

    def test_alphabet_mismatch_is_a_miss(self):
        circuit = random_circuit(7)
        stg, payload = self.payload_for(circuit)
        truncated = stg.alphabet[:-1]
        assert stg_arrays_from_payload(payload, circuit, (), truncated) is None

    def test_corrupt_tables_are_a_miss(self):
        circuit = random_circuit(7)
        stg, payload = self.payload_for(circuit)
        broken = dict(payload)
        broken["next_index"] = [
            [len(stg.states)] * len(stg.states)  # out-of-range state index
        ] * len(stg.alphabet)
        assert stg_arrays_from_payload(broken, circuit, (), stg.alphabet) is None

    def test_oversized_machines_are_not_persisted(self, monkeypatch):
        from repro.equivalence import explicit

        monkeypatch.setattr(explicit, "_STORE_MAX_ENTRIES", 4)
        circuit = random_circuit(7)
        extract_stg(circuit)
        assert stg_records(default_store()) == 0
