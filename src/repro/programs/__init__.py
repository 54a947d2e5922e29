"""The paper's benchmark programs, written in the mini-language."""

from . import adi, fft, sp, sweep3d, swim, tomcatv
from .registry import (
    APPLICATIONS,
    STUDY_PROGRAMS,
    BenchmarkProgram,
    Target,
    build_fft,
    get,
    resolve_target,
)

__all__ = [
    "APPLICATIONS",
    "BenchmarkProgram",
    "STUDY_PROGRAMS",
    "Target",
    "adi",
    "build_fft",
    "fft",
    "get",
    "resolve_target",
    "sp",
    "sweep3d",
    "swim",
    "tomcatv",
]
