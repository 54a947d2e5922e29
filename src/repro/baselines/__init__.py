"""Comparator implementations: SGI-like local optimizer, McKinley fusion,
Belady-optimal replacement."""

from .belady import simulate_belady
from .mckinley import mckinley_options

__all__ = [
    "mckinley_options",
    "simulate_belady",
]
