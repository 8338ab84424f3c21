"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` replaces a layer's public function with a wrapper that
times each call and keeps a span in memory; nothing under ``src/`` is
changed. Each span carries the benchmark operation it ran in, so a
layer's time can be summed per operation (:meth:`per_op`) or over the
run (:meth:`total`). :meth:`Tracer.write` dumps the spans as JSON lines
when the run ends, and :meth:`Tracer.close` puts every original function
back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._op: object = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(result)``, when given, returns a number stored on the
        span as ``n`` (rows scanned, for example).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = {"op": tracer._op, "name": name}
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
            if count is not None:
                span["n"] = count(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------
    @contextmanager
    def op(self, op_id, name: str = "op"):
        """A span for one whole benchmark operation."""
        self._op = op_id
        span = {"op": op_id, "name": name}
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._op = None

    # -- reading ---------------------------------------------------------
    def per_op(self, name: str) -> dict:
        """Total seconds in spans called ``name``, keyed by operation."""
        totals: dict = {}
        for span in self.spans:
            if span["name"] == name:
                totals[span["op"]] = totals.get(span["op"], 0.0) + (
                    span["end"] - span["start"]
                )
        return totals

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, seconds, summed ``n``) over spans called ``name``."""
        calls, seconds, n = 0, 0.0, 0.0
        for span in self.spans:
            if span["name"] == name:
                calls += 1
                seconds += span["end"] - span["start"]
                n += span.get("n", 0)
        return calls, seconds, n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
