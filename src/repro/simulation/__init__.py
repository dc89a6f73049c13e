"""Logic simulation engines.

* :class:`repro.simulation.sequential.SequentialSimulator` -- scalar
  three-valued reference simulator with single stuck-at injection.
* :class:`repro.simulation.codegen.FastStepper` -- code-generated scalar
  stepper (the synchronizing-sequence searches' workhorse).
* :class:`repro.simulation.vector.VectorSimulator` -- interpreted
  bit-parallel simulator (reference for the compiled kernel).
* :class:`repro.simulation.vector_codegen.VectorFastStepper` --
  code-generated bit-parallel kernel with runtime stuck-at injection
  masks; the engine behind the PROOFS-style parallel fault simulator.
* :mod:`repro.simulation.cache` -- module-level compile cache shared by
  the ATPG / fault-simulation / verification flows.
"""

from repro.simulation.cache import (
    clear_compile_cache,
    compile_cache_stats,
    compiled_circuit,
    fast_stepper,
    vector_fast_stepper,
    warm_compile_cache,
)
from repro.simulation.codegen import FastStepper
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.sequential import (
    SequentialSimulator,
    StepResult,
    Trace,
    simulate,
)
from repro.simulation.vector import VectorSimulator, VectorStepResult
from repro.simulation.vector_codegen import VectorFastStepper, rail_pair_trit

__all__ = [
    "CompiledCircuit",
    "FastStepper",
    "SequentialSimulator",
    "StepResult",
    "Trace",
    "simulate",
    "VectorSimulator",
    "VectorStepResult",
    "VectorFastStepper",
    "rail_pair_trit",
    "compiled_circuit",
    "fast_stepper",
    "vector_fast_stepper",
    "warm_compile_cache",
    "clear_compile_cache",
    "compile_cache_stats",
]
