"""The Fig. 6 flow end to end: the paper's s510.jo.sr case study.

Given a hard (performance-retimed) circuit:

1. retime it for *testability* -- minimum flip-flops;
2. run the sequential ATPG on that easy version;
3. prefix the test set with |P| arbitrary vectors (Theorem 4);
4. fault-simulate the derived set on the hard circuit;
5. compare against running ATPG directly on the hard circuit.

Run:  python examples/retime_for_testability.py
"""

from repro.atpg import AtpgBudget, run_atpg
from repro.core import build_pair, retime_for_testability_flow
from repro.core.experiments import CircuitSpec

BUDGET = AtpgBudget(
    total_seconds=60.0,
    random_sequences=48,
    random_length=96,
    random_stale_limit=12,
)


def main() -> None:
    pair = build_pair(CircuitSpec("s510", "jo", "rugged", 0))
    hard = pair.retimed
    print(f"hard circuit (to be implemented): {hard}")

    flow = retime_for_testability_flow(hard, budget=BUDGET)
    print(f"easy circuit (retimed for test):  {flow.easy_circuit}")
    print(f"prefix |P| = {flow.prefix_length} arbitrary vectors")
    print()
    print("ATPG on the easy circuit:")
    print(f"  {flow.atpg_result.summary()}")
    print("derived test set applied to the hard circuit:")
    print(f"  {flow.hard_fault_sim.summary()}")

    print()
    print("for comparison, ATPG directly on the hard circuit:")
    direct = run_atpg(hard, budget=BUDGET)
    print(f"  {direct.summary()}")
    print()
    print(
        f"flow:   {flow.hard_coverage:.1f}% FC on {hard.name} using "
        f"{flow.atpg_result.cpu_seconds:.1f}s of ATPG"
    )
    print(
        f"direct: {direct.fault_coverage:.1f}% FC on {hard.name} using "
        f"{direct.cpu_seconds:.1f}s of ATPG"
    )


if __name__ == "__main__":
    main()
