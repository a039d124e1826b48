"""Construction-program language: parser, static checks, interpreter."""

from .ast import Program
from .interp import (
    ReplayOracle,
    RunResult,
    SamplingOracle,
    recorded_answers,
    run,
)
from .parser import check_program, parse_program

__all__ = [
    "Program",
    "ReplayOracle",
    "RunResult",
    "SamplingOracle",
    "check_program",
    "parse_program",
    "recorded_answers",
    "run",
]
