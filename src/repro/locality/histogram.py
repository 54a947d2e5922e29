"""Log₂-binned reuse-distance histograms (paper Fig. 1 / Fig. 3).

A point at (x, y) in the paper's figures means y thousand references have
a reuse distance in [2^(x−1), 2^x); distance 0 gets its own bin at x = 0.
Cold (first-ever) accesses are tracked separately — they are compulsory
misses, not reuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reuse_distance import COLD


@dataclass
class ReuseHistogram:
    """Histogram of reuse distances in log₂ bins."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cold: int = 0

    @staticmethod
    def from_distances(distances: np.ndarray) -> "ReuseHistogram":
        d = np.asarray(distances)
        cold = int(np.count_nonzero(d == COLD))
        reuse = d[d != COLD]
        if reuse.size == 0:
            return ReuseHistogram(np.zeros(1, dtype=np.int64), cold)
        bins = _bin_of(reuse)
        counts = np.bincount(bins)
        return ReuseHistogram(counts.astype(np.int64), cold)

    # -- stats -----------------------------------------------------------------

    @property
    def total_reuses(self) -> int:
        return int(self.counts.sum())

    @property
    def total(self) -> int:
        return self.total_reuses + self.cold

    def count_ge(self, distance: int) -> int:
        """Number of reuses with distance >= ``distance`` (bin-resolution)."""
        if distance <= 0:
            return self.total_reuses
        start = _bin_of(np.asarray([distance]))[0]
        return int(self.counts[start:].sum())

    def fraction_ge(self, distance: int) -> float:
        if self.total_reuses == 0:
            return 0.0
        return self.count_ge(distance) / self.total_reuses

    def mean_log_distance(self) -> float:
        """Average bin index, weighted by count — tracks hill position."""
        if self.total_reuses == 0:
            return 0.0
        idx = np.arange(len(self.counts))
        return float((self.counts * idx).sum() / self.counts.sum())

    def series(self) -> list[tuple[int, int]]:
        """(bin, count) pairs — the curve the paper plots."""
        return [(k, int(c)) for k, c in enumerate(self.counts)]

    # -- presentation ------------------------------------------------------------

    def format_ascii(self, width: int = 50, label: str = "") -> str:
        """A printable curve: one row per bin, '#' bars scaled to ``width``."""
        lines = []
        if label:
            lines.append(label)
        peak = max(int(self.counts.max()), 1) if len(self.counts) else 1
        for k, c in enumerate(self.counts):
            bar = "#" * max(0, round(width * int(c) / peak))
            lo = 0 if k == 0 else 2 ** (k - 1)
            hi = 0 if k == 0 else 2**k - 1
            rng = "0" if k == 0 else f"{lo}..{hi}"
            lines.append(f"  2^{k:<2} ({rng:>14}): {int(c):>9} {bar}")
        lines.append(f"  cold: {self.cold}, reuses: {self.total_reuses}")
        return "\n".join(lines)

    def __add__(self, other: "ReuseHistogram") -> "ReuseHistogram":
        n = max(len(self.counts), len(other.counts))
        counts = np.zeros(n, dtype=np.int64)
        counts[: len(self.counts)] += self.counts
        counts[: len(other.counts)] += other.counts
        return ReuseHistogram(counts, self.cold + other.cold)


def _bin_of(distances: np.ndarray) -> np.ndarray:
    """Bin index: 0 for d == 0, floor(log2(d)) + 1 otherwise."""
    d = np.asarray(distances, dtype=np.int64)
    out = np.zeros(d.shape, dtype=np.int64)
    pos = d > 0
    out[pos] = np.floor(np.log2(d[pos])).astype(np.int64) + 1
    return out
