"""Content-addressed store for tuner candidate evaluations.

The expensive half of a tuning run is the symbolic reuse analysis of
each distinct compiled candidate (seconds to minutes for the large
programs), while evaluating a profile at a size is microseconds — so
the unit of caching is *one candidate's full static evaluation*: its
objective score, the per-size miss predictions, the compiled-text hash
and the analysis wall-clock.  Entries live as ``tune-<key>.json``
beside the harness's ``trace-``/``result-`` files (same default
``.cache/`` root, same atomic-publish discipline), and the key hashes
everything the value depends on — source program, candidate signature,
steps, target sizes, cache capacities, objective, thread count and
schedule — so a resumed or re-parameterized search never replays a
stale entry.  ``TraceCache.clear()`` / ``repro cache --clear`` drop
tune entries together with traces and results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ..harness.cache import _published, default_cache_dir
from ..obs import metrics


class TuneCache:
    """Content-addressed candidate-evaluation store (``tune-*.json``)."""

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def key(
        self,
        source_text: str,
        signature: str,
        steps: int,
        sizes: Sequence[Mapping[str, int]],
        l1_elems: int,
        l2_elems: int,
        objective: str,
        threads: int,
        schedule: str,
    ) -> str:
        """Key of one candidate evaluation under one objective."""
        blob = json.dumps(
            {
                "source": source_text,
                "signature": signature,
                "steps": int(steps),
                "sizes": [
                    {k: int(v) for k, v in sorted(size.items())}
                    for size in sizes
                ],
                "l1": int(l1_elems),
                "l2": int(l2_elems),
                "objective": objective,
                "threads": int(threads),
                "schedule": schedule,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def load(self, key: str) -> Optional[dict]:
        path = self.root / f"tune-{key}.json"
        if not path.exists():
            metrics.inc("tune.cache.misses")
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            metrics.inc("tune.cache.misses")
            return None  # corrupt entry: treat as a miss, it will be rewritten
        metrics.inc("tune.cache.hits")
        return entry

    def store(self, key: str, entry: Mapping[str, object]) -> None:
        with _published(self.root / f"tune-{key}.json") as tmp:
            tmp.write_text(json.dumps(dict(entry), sort_keys=True))
        metrics.inc("tune.cache.stores")
