"""Fig. 3: functional synchronizing sequences under a forward stem move.

Regenerates Observation 1 / Example 1 (the <11> sequence synchronizes L1
but not L2) and Theorem 2 (any one-vector prefix repairs it), plus
Observation 3 / Example 3 (the output stuck-at-0 test that functional
reasoning validates on L1 fails on L2).
"""

import itertools

from repro.circuit import LineRef
from repro.equivalence import (
    extract_stg,
    functional_final_states,
    is_functional_sync_sequence,
    is_structural_sync_sequence,
)
from repro.faults import StuckAtFault
from repro.papercircuits import fig3_pair


def test_fig3_observation1(benchmark):
    l1, l2, _ = fig3_pair()

    def analyse():
        stg1 = extract_stg(l1, use_store=False)
        stg2 = extract_stg(l2, use_store=False)
        return (
            is_functional_sync_sequence(stg1, [(1, 1)]),
            is_structural_sync_sequence(l1, [(1, 1)]),
            is_functional_sync_sequence(stg2, [(1, 1)]),
        )

    functional_l1, structural_l1, functional_l2 = benchmark(analyse)
    assert functional_l1          # <11> synchronizes L1 ...
    assert not structural_l1      # ... but only functionally,
    assert not functional_l2      # and not the retimed L2 at all.


def test_fig3_theorem2_prefix(benchmark):
    _, l2, retiming = fig3_pair()
    assert retiming.max_forward_moves_across_stems() == 1
    stg2 = extract_stg(l2)

    def check_all_prefixes():
        results = []
        for prefix in itertools.product((0, 1), repeat=2):
            sequence = [prefix, (1, 1)]
            results.append(
                (
                    is_functional_sync_sequence(stg2, sequence),
                    functional_final_states(stg2, sequence),
                )
            )
        return results

    results = benchmark(check_all_prefixes)
    for synchronizes, final in results:
        assert synchronizes          # ANY one-vector prefix works
        assert final == frozenset({(1, 1)})


def test_fig3_observation3(benchmark):
    l1, l2, _ = fig3_pair()

    def analyse():
        fault1 = StuckAtFault(LineRef(l1.in_edges("Z")[0].index, 1), 0)
        fault2 = StuckAtFault(LineRef(l2.in_edges("Z")[0].index, 1), 0)
        good1, bad1 = extract_stg(l1), extract_stg(l1, fault=fault1)
        good2, bad2 = extract_stg(l2), extract_stg(l2, fault=fault2)
        return good1, bad1, good2, bad2

    good1, bad1, good2, bad2 = benchmark(analyse)
    # On L1 the functional test <11> separates good (always 1) from faulty
    # (always 0) ...
    assert all(good1.run(s, [(1, 1)])[1][0] == (1,) for s in good1.states)
    assert all(bad1.run(s, [(1, 1)])[1][0] == (0,) for s in bad1.states)
    # ... but on L2 the inconsistent state (0,1) already outputs 0 in the
    # fault-free circuit: not detected for that initial state.
    assert good2.run((0, 1), [(1, 1)])[1][0] == (0,)
