"""Ablations on the substrates: fault-sim engines, simulators, retimers.

* PROOFS-style parallel fault simulation vs the serial reference
  (identical results, measured speedup);
* code-generated stepper vs interpreted simulator (identical results,
  measured speedup);
* bit-packed vs scalar explicit-STG extraction and classification
  (identical machines, measured speedup);
* min-register vs performance retiming on a benchmark circuit (register
  counts bracket the original);
* synthesis script/encoding sweep (the area/delay trade-off Table II's
  circuit family is built on).
"""

import random

import pytest

from repro.core import build_pair, format_table
from repro.core.experiments import CircuitSpec
from repro.faults import collapse_faults
from repro.faultsim import parallel_fault_simulate, serial_fault_simulate
from repro.fsm.mcnc import TABLE1_PROFILES, synthesize_benchmark
from repro.retiming import min_register_retiming
from repro.simulation import SequentialSimulator
from repro.simulation.codegen import FastStepper


@pytest.fixture(scope="module")
def circuit():
    return build_pair(CircuitSpec("s820", "jc", "rugged", 0)).original


@pytest.fixture(scope="module")
def sequences(circuit):
    rng = random.Random(42)
    return [
        [
            tuple(rng.randint(0, 1) for _ in circuit.input_names)
            for _ in range(48)
        ]
        for _ in range(2)
    ]


def test_parallel_fault_sim(benchmark, circuit, sequences):
    faults = collapse_faults(circuit).representatives

    def run():
        return parallel_fault_simulate(circuit, sequences, faults)

    result = benchmark(run)
    assert result.num_detected > 0


def test_serial_fault_sim_agrees(benchmark, circuit, sequences):
    faults = collapse_faults(circuit).representatives[:120]

    def run():
        return serial_fault_simulate(circuit, sequences, faults)

    serial = benchmark(run)
    parallel = parallel_fault_simulate(circuit, sequences, faults)
    assert set(serial.detections) == set(parallel.detections)


def test_interpreted_step(benchmark, circuit):
    simulator = SequentialSimulator(circuit)
    state = simulator.unknown_state()
    vector = tuple(0 for _ in circuit.input_names)
    benchmark(simulator.step, state, vector)


def test_codegen_step(benchmark, circuit):
    stepper = FastStepper(circuit)
    state = stepper.unknown_state()
    vector = tuple(0 for _ in circuit.input_names)
    outputs, next_state, values = benchmark(stepper.step, state, vector)
    reference = SequentialSimulator(circuit).step(state, vector)
    assert outputs == reference.outputs
    assert next_state == reference.next_state


@pytest.fixture(scope="module")
def small_circuit():
    # s820 has 18 primary inputs -- beyond both state-space caps -- so
    # the state-space ablation runs on dk16 (5 dffs, 4 PIs).
    from repro.core.experiments import TABLE2_CIRCUITS

    spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
    return build_pair(spec).original


def test_stg_engine(benchmark, small_circuit):
    from repro.equivalence import classify, extract_stg

    def analyse():
        stg = extract_stg(small_circuit, use_store=False)
        return stg, classify([stg])

    stg, classification = benchmark(analyse)
    assert len(stg.states) == 1 << small_circuit.num_registers()
    # The partition the scalar oracle also lands on (cross-checked in depth
    # by tests/equivalence/test_engine_parity.py; this pins the headline
    # number the speedup claim is anchored to).
    assert len(set(classification.class_array(0))) == 28


def test_min_register_vs_performance(benchmark, circuit):
    def run():
        return min_register_retiming(circuit)

    result = benchmark(run)
    # The synthesized circuit is already register-minimal (one DFF per
    # state bit), so min-register retiming cannot beat it by much -- while
    # the performance retiming multiplies registers.
    pair = build_pair(CircuitSpec("s820", "jc", "rugged", 0))
    assert result.registers_after <= circuit.num_registers()
    assert pair.retimed.num_registers() >= 2 * result.registers_after


def test_synthesis_tradeoff_sweep(benchmark):
    def sweep():
        rows = []
        for style in ("ji", "jo", "jc"):
            for script in ("delay", "rugged"):
                c = synthesize_benchmark("s510", style, script).circuit
                rows.append(
                    {
                        "circuit": c.name,
                        "gates": c.num_gates(),
                        "period": c.clock_period(),
                        "dffs": c.num_registers(),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, ["circuit", "gates", "period", "dffs"]))
    by_script = {}
    for row in rows:
        by_script.setdefault(row["circuit"].rsplit(".", 1)[1], []).append(row)
    # script.delay: shallower; script.rugged: smaller -- on average.
    avg = lambda rows, key: sum(r[key] for r in rows) / len(rows)
    assert avg(by_script["sd"], "period") < avg(by_script["sr"], "period")
    assert avg(by_script["sr"], "gates") < avg(by_script["sd"], "gates")
