"""Input-size scaling sweeps.

The paper's central diagnostic is how locality scales with the input:
evadable reuses are the ones that turn into misses once the data outgrows
the cache.  ``scaling_sweep`` measures an application across input sizes
at fixed machine configuration, exposing exactly that: the original
program's per-access miss rate climbs with N, while the optimized
program's stays near its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..memsim import MachineConfig
from ..programs.registry import resolve_target
from .experiment import machine_for, measure_variant


@dataclass(frozen=True)
class SweepPoint:
    """One (size, level) measurement of per-access miss rates."""

    n: int
    level: str
    accesses: int
    l1_rate: float
    l2_rate: float
    tlb_rate: float
    bytes_per_access: float


def scaling_sweep(
    app: str,
    levels: Sequence[str],
    sizes: Sequence[int],
    machine: Optional[MachineConfig] = None,
    steps: Optional[int] = None,
) -> list[SweepPoint]:
    """Measure an application across input sizes at a fixed machine."""
    target = resolve_target(app, steps=steps)
    if machine is None:
        machine = machine_for(target.machine_spec)
    out: list[SweepPoint] = []
    for level in levels:
        for n in sizes:
            result = measure_variant(
                target.program,
                level,
                {"N": n},
                machine,
                steps=target.steps,
                name=target.name,
            )
            s = result.stats
            out.append(
                SweepPoint(
                    n=n,
                    level=level,
                    accesses=s.accesses,
                    l1_rate=s.l1_miss_rate,
                    l2_rate=s.l2_miss_rate,
                    tlb_rate=s.tlb_miss_rate,
                    bytes_per_access=s.data_transferred_bytes / max(s.accesses, 1),
                )
            )
    return out


def growth_factor(points: Sequence[SweepPoint], level: str, metric: str = "l2_rate") -> float:
    """Ratio of the metric at the largest vs smallest size for one level."""
    series = sorted((p for p in points if p.level == level), key=lambda p: p.n)
    if len(series) < 2:
        return 1.0
    first = getattr(series[0], metric)
    last = getattr(series[-1], metric)
    return last / first if first else float("inf")
