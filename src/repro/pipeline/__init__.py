"""The out-of-order core timing model (Arm A72-like, Table I)."""

from repro.pipeline.core import OutOfOrderCore, SimulationError, drive
from repro.pipeline.dyninst import DynInst
from repro.pipeline.params import CLOCK_GHZ, CoreParams, ns_to_cycles
from repro.pipeline.stats import PipelineStats
from repro.pipeline.write_buffer import WriteBuffer

__all__ = [
    "CLOCK_GHZ",
    "CoreParams",
    "DynInst",
    "OutOfOrderCore",
    "PipelineStats",
    "SimulationError",
    "WriteBuffer",
    "drive",
    "ns_to_cycles",
]
