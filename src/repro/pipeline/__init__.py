"""Store-backed execution of the paper's Fig. 6 flow.

The pipeline package turns the monolithic flow functions of
:mod:`repro.core` into explicit stages (synth -> retime -> collapse ->
atpg -> derive -> faultsim) with per-stage memoization against the
content-addressed artifact store and structured journaling.  See
:mod:`repro.pipeline.flow`.
"""

from repro.pipeline.flow import (
    FlowCancelled,
    FlowPipeline,
    PipelineResult,
    StageRecord,
)

__all__ = ["FlowCancelled", "FlowPipeline", "PipelineResult", "StageRecord"]
