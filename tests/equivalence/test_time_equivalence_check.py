"""The one Lemma 2 policy: ``check_time_equivalence`` extracts each circuit
over its full state space when that fits and over its reset-reachable set
otherwise, and the flow's verify stage, ``verify_preservation`` and
``verify_retiming`` all answer through it."""

import random

import pytest

import repro.equivalence as equivalence
from repro.circuit import CircuitBuilder
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.core.preservation import verify_preservation
from repro.equivalence import (
    StateSpaceTooLarge,
    TimeEquivalenceCheck,
    check_time_equivalence,
    extract_stg,
)
from repro.papercircuits import fig2_pair
from repro.pipeline import FlowPipeline
from repro.retiming.core import Retiming
from repro.retiming.minregister import min_register_retiming
from repro.retiming.verify import verify_retiming
from repro.testset.model import TestSet
from tests.helpers import token_ring, token_ring_stem, wide_or


def table2_pair(name):
    return build_pair(next(spec for spec in TABLE2_CIRCUITS if spec.name == name))


def random_test_set(circuit, seed=1):
    rng = random.Random(seed)
    width = len(circuit.input_names)
    sequences = [
        [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(8)]
        for _ in range(2)
    ]
    return TestSet.from_lists(circuit.name, width, sequences)


#: The verify stage's detail on the four flow circuits of the e2e
#: benchmark (hard = performance-retimed Table II circuit, easy = its
#: min-register retiming), as the flow's former ``stg_engine="auto"``
#: default produced it.  For the unverified pairs only the subject of the
#: ``skipped`` reason (the input count) is pinned.
FLOW_PINS = {
    "dk16.ji.sd": {
        "circuit": "dk16.ji.sd.re",
        "bound": 1,
        "checked": True,
        "found": 1,
        "engine": "bitset+reach",
        "visited_hard": 134,
    },
    "pma.jo.sd": {
        "circuit": "pma.jo.sd.re",
        "bound": 1,
        "checked": True,
        "found": 1,
        "engine": "bitset+reach",
        "visited_hard": 94,
    },
    "s510.jo.sr": {
        "circuit": "s510.jo.sr.re",
        "bound": 1,
        "checked": False,
        "skipped": "21 inputs",
    },
    "s832.jo.sr": {
        "circuit": "s832.jo.sr.re",
        "bound": 0,
        "checked": False,
        "skipped": "18 inputs",
    },
}


class TestFlowVerifyPins:
    @pytest.mark.parametrize("name", sorted(FLOW_PINS))
    def test_verify_detail_matches_the_auto_pins(self, name):
        hard = table2_pair(name).retimed
        easy_retiming = min_register_retiming(hard).retiming
        easy = easy_retiming.apply(f"{hard.name}.easy")
        detail = FlowPipeline().stage_verify(hard, easy_retiming, easy).detail
        pin = dict(FLOW_PINS[name])
        assert list(detail) == list(pin)
        if not pin["checked"]:
            reason = pin.pop("skipped")
            skipped = detail.pop("skipped")
            assert skipped.startswith(f"{hard.name}: {reason} is past")
        assert detail == pin


class TestLibraryEntryPoints:
    @pytest.mark.parametrize("name", ["dk16.ji.sd", "pma.jo.sd"])
    def test_table2_pairs_are_checked(self, name):
        pair = table2_pair(name)
        assert pair.retimed.num_registers() > 18  # past the full-space cap
        report = verify_preservation(
            pair.original,
            pair.retiming,
            random_test_set(pair.original),
            retimed=pair.retimed,
            check_time_equivalence=True,
        )
        assert report.time_equivalence_checked
        assert report.time_equivalence_engine == "bitset+reach"
        verification = verify_retiming(
            pair.original, pair.retimed, check_behaviour=True
        )
        assert verification.behaviour_checked
        assert verification.behaviour_engine == "bitset+reach"

    def test_every_caller_goes_through_the_one_check(self, monkeypatch):
        calls = []

        def spy(a, b, bound):
            calls.append((a.name, b.name, bound))
            return TimeEquivalenceCheck(bound, found=bound)

        monkeypatch.setattr(equivalence, "check_time_equivalence", spy)
        c1, c2, retiming = fig2_pair()
        FlowPipeline().stage_verify(c1, retiming, c2)
        verify_preservation(
            c1, retiming, random_test_set(c1), retimed=c2, check_time_equivalence=True
        )
        verify_retiming(c1, c2, check_behaviour=True)
        assert calls == [(c1.name, c2.name, 0)] * 3


class TestPolicy:
    def test_past_the_full_space_cap_falls_back_to_reset(self):
        ring = token_ring(19)
        retimed = Retiming(ring, {token_ring_stem(ring): -1}).apply()
        with pytest.raises(StateSpaceTooLarge):
            extract_stg(ring)
        check = check_time_equivalence(ring, retimed, 1)
        assert check.checked and check.found == 0
        assert check.engine == "reach"
        assert check.visited == (20, 20)  # zeros + 19 one-hot positions

    def test_past_both_caps_is_unverified_with_the_reason(self):
        circuit = wide_or(13)
        check = check_time_equivalence(circuit, circuit, 0)
        assert not check.checked
        assert (check.found, check.engine) == (None, "")
        assert check.skipped == (
            "wide: 13 inputs is past the reachable-state cap of 12 "
            "(2^13 = 8192 vectors per state)"
        )
        verification = verify_retiming(circuit, circuit, check_behaviour=True)
        assert not verification.behaviour_checked
        assert verification.behaviour_engine == ""

    def test_bound_violation_raises(self):
        def delay(name, invert):
            builder = CircuitBuilder(name)
            builder.input("a")
            if invert:
                builder.not_("d", "a")
            else:
                builder.buf("d", "a")
            builder.dff("q", "d")
            builder.output("z", "q")
            return builder.build()

        same, inverted = delay("same", False), delay("inverted", True)
        assert check_time_equivalence(same, same, 0).checked
        with pytest.raises(ValueError, match="Lemma 2 violated"):
            check_time_equivalence(same, inverted, 3)
        retiming = Retiming(same, {})
        with pytest.raises(ValueError, match="not 0-time-equivalent"):
            FlowPipeline().stage_verify(same, retiming, inverted)

    def test_extraction_is_looked_up_through_the_package(self, monkeypatch):
        """Rebinding the package names (as a tracer does) reaches the check."""
        counts = {"extract_stg": 0, "time_equivalence_bound": 0}
        for name in counts:
            original = getattr(equivalence, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(equivalence, name, counted)
        c1, c2, _ = fig2_pair()
        assert check_time_equivalence(c1, c2, 0).checked
        assert counts == {"extract_stg": 2, "time_equivalence_bound": 1}
