"""An in-memory span recorder for the traced runs.

A span is ``(name, start, end, parent)``; all spans of one recorder share its
run id.  Spans are kept in a list and written out by :meth:`Recorder.dump`
only after the measured work has ended, so recording costs two
``perf_counter`` reads and one list append per span.

A span's *self time* is its duration minus the durations of its direct
children -- the time the layer spent in its own code rather than in the
layers below it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Recorder:
    """Collects the spans of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent_index_or_None]`` per span.
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """Add a span timed by the caller (overlapping spans, e.g. two connections)."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def add(self, name: str, seconds: float) -> int:
        """Add a child of the innermost open span whose duration a layer reported.

        Used where the layer tells its own time (a worker's ``seconds``, a
        server's ``inference_seconds``): the span is anchored at its parent's
        start and only its duration is meaningful.
        """
        parent = self._open[-1]
        start = self.spans[parent][1]
        return self.record(name, start, start + float(seconds), parent)

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        """Durations of every closed span called ``name``, in recording order."""
        return [end - start for n, start, end, _ in self.spans if n == name and end is not None]

    def self_times(self, name: str) -> List[float]:
        """Self times (duration minus direct children) of every span ``name``."""
        children: Dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        return [
            (end - start) - children.get(index, 0.0)
            for index, (n, start, end, _) in enumerate(self.spans)
            if n == name and end is not None
        ]

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (call after the measured work)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
