"""Execution substrate: value interpreter, deterministic state, traces."""

from .funcs import DEFAULT_FUNCTIONS, FunctionTable
from .interleave import InterleavedRun, interleave_trace
from .interpreter import Interpreter, run_program
from .state import init_arrays
from .trace import AccessTrace, RefInfo, trace_program

__all__ = [
    "AccessTrace",
    "DEFAULT_FUNCTIONS",
    "FunctionTable",
    "InterleavedRun",
    "Interpreter",
    "RefInfo",
    "init_arrays",
    "interleave_trace",
    "run_program",
    "trace_program",
]
