"""The two state-space caps, their rejection messages, and the Lemma 2
check's choice of space (full space when it fits, reset-reachable set
otherwise)."""

import pytest

import repro.equivalence as equivalence
from repro.equivalence import (
    ENGINE_LIMITS,
    EngineLimits,
    ReachableSTG,
    StateSpaceTooLarge,
    check_time_equivalence,
    extract_stg,
)
from tests.helpers import shift_register, toggle_counter, token_ring, wide_or


class TestEngineValidation:
    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="choose 'all', 'reset'"):
            extract_stg(toggle_counter(), initial_states="warp", use_store=False)

    def test_tier_order_and_table_cover_every_engine(self):
        from repro.__main__ import _equiv_usage

        assert ENGINE_LIMITS == {
            "bitset": EngineLimits(registers=18, inputs=12, transitions=1 << 22),
            "reach": EngineLimits(registers=30, inputs=12, transitions=1 << 24),
        }
        table = _equiv_usage()
        assert "all:   18 registers, 12 inputs, 2^22" in table
        assert "reset: 30 output-cone registers, 12 inputs, 2^24" in table


class TestPerEngineRejection:
    def test_bitset_rejection_names_the_reach_tier(self):
        with pytest.raises(StateSpaceTooLarge) as excinfo:
            extract_stg(shift_register(depth=19))
        message = str(excinfo.value)
        assert "full-space cap of 18" in message
        assert "initial_states='reset'" in message

    def test_reach_rejection_is_terminal(self):
        circuit = shift_register(depth=31)
        with pytest.raises(StateSpaceTooLarge) as excinfo:
            extract_stg(circuit, initial_states="reset")
        message = str(excinfo.value)
        assert f"reachable-state cap of {ENGINE_LIMITS['reach'].registers}" in message
        check = check_time_equivalence(circuit, circuit, 0)
        assert not check.checked and check.skipped == message

    def test_reach_transitions_cap_trips_during_traversal(self, monkeypatch):
        from repro.equivalence import explicit

        monkeypatch.setitem(
            explicit.ENGINE_LIMITS,
            "reach",
            explicit.EngineLimits(registers=30, inputs=12, transitions=8),
        )
        # A 5-deep shift register reaches all 32 states from zeros, so the
        # visited x |alphabet| product crosses 8 mid-traversal.
        with pytest.raises(StateSpaceTooLarge, match="reach"):
            extract_stg(
                shift_register(depth=5), initial_states="reset", use_store=False
            )


def first_space(monkeypatch, circuit):
    """The ``initial_states`` the Lemma 2 check asks for on ``circuit``."""
    calls = []

    def spy(circuit, **kwargs):
        calls.append(kwargs["initial_states"])
        raise StateSpaceTooLarge("spy")

    with monkeypatch.context() as patch:
        patch.setattr(equivalence, "extract_stg", spy)
        check_time_equivalence(circuit, circuit, 0)
    return calls[0]


class TestAutoSelection:
    def test_register_count_boundaries(self, monkeypatch):
        assert first_space(monkeypatch, shift_register(depth=10)) == "all"
        assert first_space(monkeypatch, shift_register(depth=18)) == "all"
        assert first_space(monkeypatch, shift_register(depth=19)) == "reset"
        assert first_space(monkeypatch, shift_register(depth=30)) == "reset"
        check = check_time_equivalence(
            shift_register(depth=31), shift_register(depth=31), 0
        )
        assert not check.checked
        assert "31 flip-flops in the output cone" in check.skipped

    def test_transitions_pressure_escalates_to_reach(self, monkeypatch):
        from repro.equivalence import explicit

        monkeypatch.setitem(
            explicit.ENGINE_LIMITS,
            "bitset",
            explicit.EngineLimits(registers=18, inputs=12, transitions=4),
        )
        circuit = shift_register(depth=5)
        check = check_time_equivalence(circuit, circuit, 0)
        assert check.checked and check.engine == "reach"
        assert check.visited == (32, 32)

    def test_custom_alphabet_bypasses_the_input_cap(self):
        circuit = wide_or(13)
        for space in ("all", "reset"):  # 13 inputs exceed both caps
            with pytest.raises(StateSpaceTooLarge, match="13 inputs"):
                extract_stg(circuit, initial_states=space, use_store=False)
        alphabet = [(0,) * 13, (1,) * 13]
        stg = extract_stg(circuit, alphabet=alphabet, use_store=False)
        assert len(stg.states) == 2 and stg.alphabet == tuple(alphabet)

    def test_extract_stg_auto_dispatches_by_size(self):
        small = check_time_equivalence(toggle_counter(), toggle_counter(), 0)
        assert small.engine == "bitset" and small.visited == (None, None)
        large = check_time_equivalence(token_ring(19), token_ring(19), 0)
        assert large.engine == "reach"
        assert large.visited == (20, 20)  # zeros + 19 one-hot positions
        stg = extract_stg(token_ring(19), initial_states="reset", use_store=False)
        assert isinstance(stg, ReachableSTG)
        assert stg.visited_states < stg.total_states
