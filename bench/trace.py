"""Span tracing from outside the program.

The tracer wraps *public* callables of the system's modules — nothing
under ``src/`` is edited — and records, per layer, when it ran and for
how long.  A layer's **self time** is its span minus the part of it
its child spans cover, so the self times of one pass plus the time the
harness spent between calls (``harness.unattributed_s``) add up to the
pass's wall time.

Per-event calls would make millions of spans, so calls are aggregated
into one span per *slice* (256 input events) and layer: first start,
last end, summed self and busy time, call count, the layer that caused
it and the slice id.  Spans stay in memory until :meth:`Tracer.dump`.

Shard workers are forked from the traced process and inherit the
wrappers; their self times cannot reach the parent's span list, so a
forked process adds them to a shared-memory table instead (one row per
process), reported beside — never inside — the parent's timeline.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

ROOT_LAYER = "harness"
_MAX_FORKED = 16


class Tracer:
    def __init__(self, layers: Iterable[str]) -> None:
        self.layers = list(layers)
        self._index = {layer: i for i, layer in enumerate(self.layers)}
        self.spans: List[Dict[str, Any]] = []
        #: Parent-timeline totals since :meth:`begin_pass`:
        #: layer -> [self seconds, calls, measured units].
        self.totals: Dict[str, List[float]] = {}
        #: Per-call durations of the layers listed in ``keep_calls``.
        self.calls: Dict[str, List[float]] = {}
        self.root_busy = 0.0
        self.phase = "setup"
        self.pass_id = -1
        self.slice_id = -1
        self._stack: List[List[Any]] = []
        self._open: Dict[str, List[Any]] = {}
        self._patched: List[Any] = []
        self._forked_row = -1
        width = len(self.layers)
        self._forked = multiprocessing.RawArray("d", _MAX_FORKED * width)
        self._next_row = multiprocessing.Value("i", 0)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- forked workers ----------------------------------------------------

    def _after_fork(self) -> None:
        with self._next_row.get_lock():
            self._forked_row = self._next_row.value
            self._next_row.value += 1
        del self._stack[:]

    def forked_self_seconds(self) -> Dict[str, float]:
        """Self seconds forked processes spent per layer since the last
        call (summed over processes)."""
        width = len(self.layers)
        out: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            total = 0.0
            for row in range(_MAX_FORKED):
                total += self._forked[row * width + i]
                self._forked[row * width + i] = 0.0
            if total:
                out[layer] = total
        return out

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        func: Callable[..., Any],
        layer: str,
        keep_calls: bool = False,
        measure: Optional[Callable[..., float]] = None,
    ) -> Callable[..., Any]:
        """``func`` recorded as one call of ``layer``.  ``measure(args,
        result)`` adds work units (bytes, clients moved) to the layer's
        totals; ``keep_calls`` keeps each call's duration."""
        if layer not in self._index:
            raise KeyError(f"unknown layer {layer!r}")
        frames = self._stack
        close = self._close
        if keep_calls:
            self.calls.setdefault(layer, [])

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, perf_counter(), 0.0]
            frames.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                close(frame, end, keep_calls)
            if measure is not None and self._forked_row < 0:
                self.totals[layer][2] += measure(args, result)
            return result

        return traced

    def patch(self, owner: Any, name: str, layer: str, **options: Any) -> None:
        """Replace ``owner.name`` (a class or module attribute) with its
        traced twin; for a module-level function also every other
        loaded module that imported it by name."""
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if name in k.__dict__)
        original = owner.__dict__[name]
        kind = type(original)
        func = original.__func__ if kind in (classmethod, staticmethod) else original
        traced: Any = self.wrap(func, layer, **options)
        if kind in (classmethod, staticmethod):
            traced = kind(traced)
        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                module for module in list(sys.modules.values())
                if module is not None and module is not owner
                and getattr(module, "__dict__", {}).get(name) is original
            ]
        for target in owners:
            self._patched.append((target, name, target.__dict__[name]))
            setattr(target, name, traced)

    def unpatch(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def iterate(self, iterable: Iterable[Any], layer: str) -> Iterator[Any]:
        """``iterable`` with each ``next()`` recorded as a call of
        ``layer`` — how a generator's layer (the parser) is timed."""
        step = self.wrap(iter(iterable).__next__, layer)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    # -- recording -------------------------------------------------------------

    def _close(self, frame: List[Any], end: float, keep_calls: bool) -> None:
        frames = self._stack
        layer, start, child_seconds = frame
        duration = end - start
        self_seconds = duration - child_seconds
        parent = ROOT_LAYER
        if frames:
            frames[-1][2] += duration
            parent = frames[-1][0]
        if self._forked_row >= 0:
            if self._forked_row < _MAX_FORKED:
                slot = self._forked_row * len(self.layers) + self._index[layer]
                self._forked[slot] += self_seconds
            return
        if not frames:
            self.root_busy += duration
        total = self.totals.get(layer)
        if total is None:
            total = self.totals[layer] = [0.0, 0, 0.0]
        total[0] += self_seconds
        total[1] += 1
        if keep_calls:
            self.calls[layer].append(duration)
        span = self._open.get(layer)
        if span is None:
            self._open[layer] = [start, end, self_seconds, duration, 1, parent]
        else:
            span[1] = end
            span[2] += self_seconds
            span[3] += duration
            span[4] += 1

    def begin_pass(self, pass_id: int) -> None:
        """Start the timed region of pass ``pass_id``; whatever ran
        since :meth:`end_pass` was set-up and leaves the totals."""
        self.flush()
        self.phase = "run"
        self.pass_id = pass_id
        self.slice_id = -1
        self.totals = {}
        self.root_busy = 0.0
        for durations in self.calls.values():
            del durations[:]
        # The previous pass's workers are gone: hand their rows out again.
        self.forked_self_seconds()
        self._next_row.value = 0

    def end_pass(self) -> None:
        self.flush()
        self.phase = "setup"

    def begin_slice(self, slice_id: int) -> None:
        """Close the open aggregated spans and start slice ``slice_id``
        (-1 = outside any slice: engine start-up, finish, report)."""
        self.flush()
        self.slice_id = slice_id

    def flush(self) -> None:
        for layer, (start, end, self_s, busy_s, calls, parent) in self._open.items():
            self.spans.append({
                "name": layer, "start": start, "end": end,
                "self_s": self_s, "busy_s": busy_s, "calls": calls,
                "parent": parent, "slice": self.slice_id,
                "pass": self.pass_id, "phase": self.phase,
            })
        self._open = {}

    def dump(self, path: str, summary: Dict[str, Any]) -> None:
        self.flush()
        with open(path, "w") as handle:
            json.dump({"summary": summary, "spans": self.spans}, handle)
