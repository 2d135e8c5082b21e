"""In-memory span tracing of sppc's public functions, applied from outside the package.

A Tracer replaces every attribute of every loaded ``sppc`` module that is bound
to a traced function with a wrapper. The wrapper records one span per call
(name, start, end, parent span id) and lets a per-function hook update counters
from the call's arguments and returned object. ``restore`` puts the original
objects back. A traced name that its home module no longer defines is reported
in ``absent`` instead of failing, so the benchmark keeps running when a later
version of the package renames or removes a layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function, by the module that defines it and its name (which
    also names its spans), with an optional counter hook."""

    module: str
    name: str
    hook: Callable | None = None


def _sppc_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "sppc" or name.startswith("sppc.")):
            yield module


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for target in self.targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.name, None) if home is not None else None
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target.name, original, target.hook)
            for module in _sppc_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def layers(self) -> tuple[dict[str, list], float]:
        """Per span name [calls, inclusive seconds, self seconds], and root time.

        A span's self time is its duration minus the durations of the spans it
        directly caused, so the self times of all spans add up to the summed
        duration of the root spans, which is returned second.
        """
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                roots += end - start
        table: dict[str, list] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - children
        return table, roots

    def write_csv(self, handle, label: str) -> None:
        """Append the spans as rows of ``pass,id,name,start,end,parent``."""
        for index, (name, start, end, parent) in enumerate(self.spans):
            handle.write(f"{label},{index},{name},{start:.9f},{end:.9f},{parent}\n")
