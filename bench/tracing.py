"""Traced mode: spans around every public ``heronquad`` function.

The shims live only in the benchmark. ``Tracer.install`` wraps each public
function of each ``heronquad`` submodule and patches the wrapper in under
every module attribute that referred to the original (``construct_quad`` is
imported by ``family``, ``verify``, ``cli`` and the package itself), so
calls inside the program go through it too. ``Tracer.remove`` puts every
original back; untraced timing runs only after that.

Spans are kept in memory as ``(op, span, parent, name, start_ns, end_ns)``
and written out once, at the end. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "heronquad"


def heronquad_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def attribute_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded ``heronquad`` module."""
    return {
        (mod.__name__, attr): id(value)
        for mod in heronquad_modules()
        for attr, value in vars(mod).items()
    }


class Tracer:
    """Collects spans and the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op = -1
        self.squarefree_fastpath = 0
        self.radicand_digits_max = 0
        self.classify_exact = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- observers: counts recorded at the same boundary as the span

    def _observe_squarefree(self, args, result) -> None:
        self.radicand_digits_max = max(self.radicand_digits_max, len(str(args[0])))
        if result[1] == 1:
            self.squarefree_fastpath += 1

    def _observe_classify(self, args, result) -> None:
        if args[0].is_exact:
            self.classify_exact += 1

    def _shim(self, name: str, fn, observe):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = next(ids)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, span, parent, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = fn.__name__
        return shim

    def install(self) -> None:
        observers = {
            "exactnum.squarefree_decompose": self._observe_squarefree,
            "trigsolve.classify": self._observe_classify,
        }
        modules = heronquad_modules()
        shims = {}
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{attr}"
                shims[id(fn)] = self._shim(name, fn, observers.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                shim = shims.get(id(value))
                if shim is not None and shim.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, shim)

    def remove(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines: op, span, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    # -- aggregation

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[tuple[int, str], int]]:
        """Calls and self time (ns) per span name, and calls per (op, name)."""
        cover: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _op, _span, parent, _name, start, end in self.spans:
            if parent >= 0:
                cover[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        op_calls: dict[tuple[int, str], int] = defaultdict(int)
        for op, span, _parent, name, start, end in self.spans:
            calls[name] += 1
            op_calls[op, name] += 1
            self_ns[name] += (end - start) - _covered(cover.get(span, ()))
        return calls, self_ns, op_calls


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
