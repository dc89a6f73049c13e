"""Unit tests for the bitset state-set primitives against brute-force set
semantics, plus the ExplicitSTG facade's cached tables and limits."""

import random

import pytest

from repro.equivalence import bitset as bs
from repro.equivalence import extract_stg
from repro.equivalence.explicit import ENGINE_LIMITS, StateSpaceTooLarge
from tests.helpers import random_circuit, shift_register, toggle_counter


class TestBitsetPrimitives:
    def test_iter_bit_indices_matches_bin(self):
        rng = random.Random(3)
        for width in (1, 7, 8, 9, 63, 64, 65, 200):
            bits = rng.getrandbits(width)
            expected = [i for i in range(width) if bits >> i & 1]
            assert list(bs.iter_bit_indices(bits, width)) == expected
        assert list(bs.iter_bit_indices(0, 64)) == []

    def test_bitset_from_indices_roundtrip(self):
        indices = [0, 3, 17, 64, 100]
        bits = bs.bitset_from_indices(indices)
        assert list(bs.iter_bit_indices(bits, 101)) == indices

    def test_image_matches_brute_force_sets(self):
        rng = random.Random(7)
        for num_states in (4, 16, 100):
            row = [rng.randrange(num_states) for _ in range(num_states)]
            for _ in range(20):
                members = {
                    s for s in range(num_states) if rng.random() < rng.random()
                }
                bits = bs.bitset_from_indices(members)
                expected = {row[s] for s in members}
                image = bs.image_bitset(row, bits, num_states)
                assert set(bs.iter_bit_indices(image, num_states)) == expected

    def test_state_plane_matches_per_lane_construction(self):
        for num_registers in (1, 2, 3, 5):
            total = 1 << num_registers
            for register in range(num_registers):
                plane = bs.state_plane(register, num_registers)
                for lane in range(total):
                    # lane s carries state bin(s); register j holds bit r-1-j
                    bit = (lane >> (num_registers - 1 - register)) & 1
                    assert (plane >> lane) & 1 == bit
            rails = bs.all_state_lanes(num_registers)
            mask = (1 << total) - 1
            for ones, zeros in rails:
                assert ones ^ zeros == mask  # binary on every lane

    def test_decode_plane_into_accumulates_weights(self):
        indices = [0] * 8
        bs.decode_plane_into(indices, 0b10110001, 4, 8)
        assert indices == [4, 0, 0, 0, 4, 4, 0, 4]


class TestFacadeBitsetApi:
    def make_stg(self):
        return extract_stg(random_circuit(13, num_dffs=4), use_store=False)

    def test_bitset_roundtrip_and_full(self):
        stg = self.make_stg()
        assert stg.states_of_bitset(stg.full_bitset) == frozenset(stg.states)
        subset = frozenset(list(stg.states)[::3])
        assert stg.states_of_bitset(stg.bitset_of_states(subset)) == subset

    def test_image_bitset_matches_step_set(self):
        stg = self.make_stg()
        rng = random.Random(5)
        for _ in range(25):
            members = frozenset(s for s in stg.states if rng.random() < 0.5)
            if not members:
                continue
            bits = stg.bitset_of_states(members)
            for vector_index, vector in enumerate(stg.alphabet):
                assert stg.states_of_bitset(
                    stg.image_bitset(bits, vector_index)
                ) == stg.step_set(members, vector)

    def test_image_memo_counts_hits(self):
        stg = self.make_stg()
        bits = stg.full_bitset
        stg.image_bitset(bits, 0)
        before = stg.image_cache_stats()
        stg.image_bitset(bits, 0)
        after = stg.image_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]

    def test_successor_table_is_cached_and_consistent(self):
        stg = self.make_stg()
        table = stg.successor_table(0)
        assert stg.successor_table(0) is table
        for state in stg.states:
            assert stg.successors(state) == [
                stg.next_state[(state, vector)] for vector in stg.alphabet
            ]

    def test_states_after_and_reachable_match_dict_semantics(self):
        stg = self.make_stg()
        # brute force over the dict views
        current = frozenset(stg.states)
        for steps in range(4):
            assert stg.states_after(steps) == current
            current = frozenset(
                stg.next_state[(state, vector)]
                for state in current
                for vector in stg.alphabet
            )
        start = stg.states[0]
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for vector in stg.alphabet:
                successor = stg.next_state[(state, vector)]
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        assert stg.reachable_from(start) == frozenset(seen)

    def test_run_matches_toggle_counter(self):
        stg = extract_stg(toggle_counter(), use_store=False)
        final, outputs = stg.run(stg.states[0], [stg.alphabet[-1]] * 3)
        # each output is a binary tuple of the machine's width
        assert all(len(out) == stg.num_outputs for out in outputs)
        assert final in stg.states


class TestEngineLimits:
    def test_register_limit_message_names_engine_and_cost(self):
        with pytest.raises(StateSpaceTooLarge) as excinfo:
            extract_stg(shift_register(depth=20))
        message = str(excinfo.value)
        assert "full-space" in message
        assert str(ENGINE_LIMITS["bitset"].registers) in message
        assert "2^20" in message

    def test_transitions_cap_reports_estimated_cost(self, monkeypatch):
        from repro.equivalence import explicit

        monkeypatch.setitem(
            explicit.ENGINE_LIMITS,
            "bitset",
            explicit.EngineLimits(registers=18, inputs=12, transitions=4),
        )
        with pytest.raises(StateSpaceTooLarge) as excinfo:
            extract_stg(random_circuit(13, num_dffs=4), use_store=False)
        message = str(excinfo.value)
        assert "transitions" in message
        assert "16 states x 8 vectors" in message

    def test_ternary_alphabet_rejected(self):
        circuit = toggle_counter()
        width = len(circuit.input_names)
        with pytest.raises(ValueError, match="binary alphabet"):
            extract_stg(circuit, alphabet=[(2,) * width], use_store=False)
