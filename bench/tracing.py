"""Span recording around calls into branchcl, from outside the package.

`Patches` swaps a module or class attribute for a wrapper and puts every
original back on `restore`. `Recorder` makes the wrappers: each call
becomes one span (name, start, end, parent span), kept in memory in flat
arrays and written out once the run ends. `self_times` turns spans into
each layer's self time: a span's duration minus the part of it that its
child spans cover.

Patch the name the caller looks up. `harness` does
``from .selector import alignment_loss``, so the call goes through
``harness.alignment_loss``; patching ``selector.alignment_loss`` would
miss it. Methods are patched on their class.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Callable


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(original)``. A missing attribute raises,
        so a renamed boundary fails the run instead of reading as zero."""
        namespace = vars(owner)
        if attr not in namespace:
            raise AttributeError(f"cannot patch {getattr(owner, '__name__', owner)}.{attr}: no such attribute")
        original = namespace[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Recorder:
    """Spans in parallel arrays: name id, parent index (-1 at the root),
    start and end in `clock` seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper that records one span per call of `fn`."""
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name),
                    "parent": list(self.parent),
                    "start": list(self.start),
                    "end": list(self.end),
                },
                fh,
            )


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: list[list[int]] = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out
