"""Layer timing for the traced run, recorded from the benchmark's side.

`Tracer.install` wraps every public function of `buresdiscord.linalg`,
`buresdiscord.discord_core` and `buresdiscord.closed_forms`, in the
defining module and in every package module that imported the same
object by name, and numpy's batched eigensolver `linalg.eigvalsh`, the
only one the library calls.  Each call is a span; a span's self time is
its duration minus the time of the wrapped calls made inside it.  Calls
of the eigensolver also count the matrices they were given, attributed
to every wrapped caller on the stack.  `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

LAYER_MODULES = ("linalg", "discord_core", "closed_forms")
KERNELS = ("eigvalsh",)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregates spans per name; keeps the raw spans of states whose
    index is below `span_states`."""

    def __init__(self, span_states: int = 20):
        self.stats: dict = {}
        self.rows: dict = {}        # caller -> matrices given to the eigensolver
        self.batches: dict = {}     # caller -> eigensolver calls
        self.spans: list = []
        self.span_states = span_states
        self.state = -1
        self._stack: list = []      # [name, start, child_time, span_id]
        self._next_id = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if 0 <= self.state < self.span_states:
            self.spans.append((span_id, parent[3] if parent else None, name,
                               start, end, self.state))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _wrap_kernel(self, name: str, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            count = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            for caller in {frame[0] for frame in self._stack}:
                self.rows[caller] = self.rows.get(caller, 0) + count
                self.batches[caller] = self.batches.get(caller, 0) + 1
            frame = self._enter(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "buresdiscord" or n.startswith("buresdiscord."))]
        for short in LAYER_MODULES:
            module = sys.modules.get(f"buresdiscord.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in package:
                    if getattr(holder, attr, None) is fn:
                        self._patch(holder, attr, wrapped)
        for attr in KERNELS:
            self._patch(np.linalg, attr, self._wrap_kernel(f"kernel.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_time if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def per_call(self, name: str, scale: float, own: bool = False) -> float:
        """Mean time per call in units of 1/scale seconds; 0 when never called."""
        calls = self.calls(name)
        spent = self.self_time(name) if own else self.total(name)
        return scale * spent / calls if calls else 0.0
