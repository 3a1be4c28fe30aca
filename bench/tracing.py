"""Spans around calls into the package's public functions, installed from outside.

A traced function is replaced by a wrapper in every module namespace that
binds it, because modules import functions by name: ``census.act`` and
``action.act`` are two bindings of one function, and patching only one would
miss the calls made through the other.

Each call records one span: name, start, end and the span that was open when
it began (its parent).  Spans live in flat typed arrays, 24 bytes each, so a
census pass of 650,000 calls adds 16 MB; they are read back only after the
traced work is done.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    span_name: array = field(default_factory=lambda: array("i"))
    span_parent: array = field(default_factory=lambda: array("i"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))
    stack: list[int] = field(default_factory=lambda: [-1])

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self, modules, owner, attr: str, *, only=None,
                on_return: Callable[[int, tuple, object], None] | None = None) -> None:
        """Wrap ``owner.attr`` wherever a module in ``modules`` binds the same
        object, or only in the modules listed in ``only``.

        The span is named ``<owner module's last component>.<attr>``.  A
        generator function gets one span per resumption, so the time the
        consumer spends between items is not charged to it.  ``on_return``
        sees the span index, the positional arguments and the result.
        """
        fn = getattr(owner, attr)
        name = owner.__name__.rsplit(".", 1)[-1] + "." + attr
        wrapper = self._wrapper(self._name_id(name), fn, on_return)
        targets = only if only is not None else [
            m for m in modules if getattr(m, attr, None) is fn
        ]
        for module in targets:
            setattr(module, attr, wrapper)

    def _wrapper(self, name_id: int, fn, on_return):
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def begin() -> int:
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def finish(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    yield item
            return functools.wraps(fn)(traced_gen)

        def traced(*args, **kwargs):
            idx = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if on_return is not None:
                on_return(idx, args, result)
            return result
        return functools.wraps(fn)(traced)

    def name_of(self, idx: int) -> str:
        return self.names[self.span_name[idx]]

    def stats(self) -> dict[str, LayerStats]:
        """Calls, inclusive time and self time per span name."""
        count = len(self.span_name)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * count
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[idx]
        out = {name: LayerStats() for name in self.names}
        for idx, name_id in enumerate(self.span_name):
            entry = out[self.names[name_id]]
            entry.calls += 1
            entry.total_s += dur[idx]
            entry.self_s += dur[idx] - child[idx]
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose parent is a ``parent_name`` span."""
        if parent_name not in self.names or child_name not in self.names:
            return 0
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        kinds = self.span_name
        return sum(
            1 for idx, parent in enumerate(self.span_parent)
            if kinds[idx] == cid and parent >= 0 and kinds[parent] == pid
        )
