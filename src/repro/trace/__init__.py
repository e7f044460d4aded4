"""Register-reference traces: record once, replay across configurations."""

from repro.trace.columnar import ENGINES, selected_engine
from repro.trace.events import Trace, TraceFormatError
from repro.trace.oracle import OracleUnsupported
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import ReplayDivergenceError, replay, sweep

__all__ = [
    "ENGINES",
    "OracleUnsupported",
    "ReplayDivergenceError",
    "Trace",
    "TraceFormatError",
    "TracingRegisterFile",
    "replay",
    "selected_engine",
    "sweep",
]
