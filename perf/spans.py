"""Benchmark-owned spans: timed regions around calls into each layer.

The program under test has its own ``repro.obs`` spans; these are the
benchmark's, recorded from outside around public calls, so a layer can
be renamed or re-plumbed without the ledger's names moving.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, Optional


class Tracer:
    """Records ``{id, name, start, end, parent, workload, pass, item}``.

    A disabled tracer hands out a shared no-op context, so the untraced
    (end-to-end) run pays nothing for the ``with`` statements it shares
    with the traced one.
    """

    def __init__(self, workload: str, enabled: bool = False) -> None:
        self.workload = workload
        self.enabled = enabled
        self.pass_id: Optional[str] = None
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, item: Optional[str] = None):
        if not self.enabled:
            return nullcontext()
        return self._record(name, item)

    @contextmanager
    def _record(self, name: str, item: Optional[str]) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "pass": self.pass_id,
            "item": item if item is not None else (parent or {}).get("item"),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Seconds per span name, each span counted minus its children."""
    spans = list(spans)
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def total(spans: Iterable[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_shares(spans: Iterable[dict], wall: float) -> dict[str, float]:
    """Share of ``wall`` spent in each layer (the ``module.`` prefix of
    a span name), by self time — where a pass's time went."""
    out: dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds / wall
    return out


def coverage(spans: Iterable[dict], wall: float) -> float:
    """Share of ``wall`` the top-level spans cover (1.0 = nothing dark)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None) / wall
