"""Mini Table II / Table III study on a selectable circuit set.

Synthesizes paper-style circuits, produces their performance-retimed
versions, runs the ATPG engine on both under identical budgets (Table II),
then derives the retimed circuits' test sets by prefixing (Theorem 4) and
fault-simulates them (Table III).

Run:  python examples/atpg_cost_study.py [circuit ...]
      python examples/atpg_cost_study.py s820.jc.sr dk16.ji.sd

Without arguments a two-circuit demo runs (a few minutes).  Use
``--full`` for all sixteen paper variants (much longer).
"""

import sys

from repro.atpg import AtpgBudget, run_atpg
from repro.core import (
    TABLE2_CIRCUITS,
    build_pair,
    format_table,
    table2_row,
    table3_row,
)

DEFAULT = ("s820.jc.sr", "dk16.ji.sd")

BUDGET = AtpgBudget(
    total_seconds=60.0,
    random_sequences=48,
    random_length=96,
    random_stale_limit=12,
)


def pick_specs(argv):
    if "--full" in argv:
        return list(TABLE2_CIRCUITS)
    names = [a for a in argv if not a.startswith("-")] or list(DEFAULT)
    by_name = {spec.name: spec for spec in TABLE2_CIRCUITS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(
            f"unknown circuit(s) {unknown}; pick from {sorted(by_name)}"
        )
    return [by_name[n] for n in names]


def main() -> None:
    specs = pick_specs(sys.argv[1:])
    table2 = []
    table3 = []
    for spec in specs:
        print(f"--- {spec.name} ---")
        pair = build_pair(spec)
        print(
            f"  original {pair.original.num_registers()} DFFs, retimed "
            f"{pair.retimed.num_registers()} DFFs, prefix |P| = "
            f"{pair.prefix_length}"
        )
        row2, original_result, _ = table2_row(pair, BUDGET)
        table2.append(row2)
        table3.append(table3_row(pair, original_result.test_set))

    print()
    print("Table II -- test pattern generation results")
    print(
        format_table(
            table2,
            [
                "Circuit", "#DFF", "%FC", "%FE", "CPU",
                "#DFF.re", "%FC.re", "%FE.re", "CPU.re", "CPU Ratio",
            ],
        )
    )
    print()
    print("Table III -- fault simulation of derived test sets")
    print(
        format_table(
            table3,
            ["Circuit", "#Faults", "#UnDet", "#Faults.re", "#UnDet.re", "prefix"],
        )
    )


if __name__ == "__main__":
    main()
