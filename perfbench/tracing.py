"""In-memory span tracer that wraps public functions of the ``dpgo`` modules.

The traced run patches each function where its caller looks it up (the
module namespace, or the class for methods), records one span per call
(name, start, end, parent index, phase) and restores every original on
``remove``. Functions called too often to span cheaply get a count-only
wrapper instead. Counts and values read from results are kept per phase.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.values: dict[tuple[str, str], float] = defaultdict(float)  # (phase, name) -> value
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.values[(self.phase, name)] += amount

    def set(self, name: str, value: float) -> None:
        self.values[(self.phase, name)] = value

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def span(self, owner, attr, name, observe=None):
        """Wrap ``owner.attr`` so that each call records a span.

        ``observe(tracer, args, kwargs, result)`` runs after a successful
        call, outside the span, to record values read from the result.
        """
        spans, stack = self.spans, self._stack

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.phase])
                stack.append(idx)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = time.perf_counter()
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make_wrapper)

    def count(self, owner, attr, name):
        """Wrap ``owner.attr`` with a per-phase call counter only."""
        values = self.values

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                values[(self.phase, name)] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make_wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str, phase: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == phase]

    def total(self, name: str, phase: str) -> float:
        return float(sum(self.durations(name, phase)))

    def self_time(self, name: str, phase: str) -> float:
        """Time in ``name`` spans minus the time their direct children cover.

        Calls are synchronous, so children of one span never overlap.
        """
        owned = {i for i, s in enumerate(self.spans) if s[0] == name and s[4] == phase}
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in owned)
        return self.total(name, phase) - covered

    def write(self, path, extra: dict) -> None:
        fields = ("name", "start", "end", "parent", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "values": [{"phase": p, "name": n, "value": v} for (p, n), v in self.values.items()],
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                },
                fh,
            )
