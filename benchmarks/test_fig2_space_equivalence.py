"""Fig. 2: retiming creates equivalent states; C1 ==s C2 (Lemma 1).

Regenerates the C1 -> C2 example: the clock period improves from 4 to 3,
the flip-flop count grows from 1 to 2, the retimed machine gains the
equivalent-state class {01, 10, 11}, and the two machines are
space-equivalent; <11> synchronizes both to equivalent states (Theorem 1).
"""

from repro.equivalence import classify, extract_stg, space_equivalent, states_equivalent
from repro.papercircuits import fig2_pair
from repro.simulation import SequentialSimulator


def test_fig2_characteristics(benchmark):
    c1, c2, retiming = benchmark(fig2_pair)
    assert c1.clock_period() == 4
    assert c2.clock_period() == 3
    assert c1.num_registers() == 1
    assert c2.num_registers() == 2


def test_fig2_state_space(benchmark):
    c1, c2, _ = fig2_pair()

    def analyse():
        stg1 = extract_stg(c1, use_store=False)
        stg2 = extract_stg(c2, use_store=False)
        equivalent = space_equivalent(stg1, stg2)
        classes = classify([stg2]).equivalence_classes(0)
        return stg1, stg2, equivalent, classes

    stg1, stg2, equivalent, classes = benchmark(analyse)
    assert equivalent  # Lemma 1
    sizes = sorted(len(v) for v in classes.values())
    assert sizes == [1, 3]  # the paper's {00} vs {01, 10, 11}


def test_fig2_theorem1_sync(benchmark):
    c1, c2, _ = fig2_pair()

    def synchronize():
        final1 = SequentialSimulator(c1).run([(1, 1)]).final_state
        final2 = SequentialSimulator(c2).run([(1, 1)]).final_state
        return final1, final2

    final1, final2 = benchmark(synchronize)
    assert 2 not in final1 and 2 not in final2  # structural sync preserved
    assert states_equivalent(extract_stg(c1), final1, extract_stg(c2), final2)
