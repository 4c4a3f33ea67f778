"""In-memory span tracing of the ``scafd`` modules, installed from outside.

``Tracer.install`` replaces every public function (and every public method
of a class) defined in a traced module with a wrapper that records one span
per call: name, start, end, parent span and whether the call returned.  A
function is replaced at every name it is looked up under, not only where it
is defined: ``scafd.optimizer.retract`` and ``scafd.sca.expand_second_order``
are the same objects as ``scafd.manifold.retract`` and
``scafd.data.expand_second_order``, so callers that imported them by name
hit the wrapper too.  ``uninstall`` puts every original back.

Spans stay in memory; ``dump`` writes them out once, when the run ends.
Private helpers are not wrapped, so their time is the self time of the
public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

# A hook gets (args, kwargs, result) of a call that returned and may add to
# the tracer's counters; it runs outside the span's timed interval.
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, returned normally)
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, False))
            stack.append(index)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
                if ok and hook is not None:
                    hook(self, args, kwargs, result)

        return wrapper

    def install(self, modules: list[ModuleType], hooks: dict[str, Hook]) -> None:
        """Wrap the public callables of ``modules`` wherever they are bound.

        Span names are ``<module tail>.<function>`` (``optimizer.cost``) and
        ``<module tail>.<Class>.<method>`` for methods.  ``hooks`` maps span
        names to result hooks.
        """
        replacements: dict[int, Callable] = {}
        for module in modules:
            tail = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{tail}.{attr}"
                    replacements[id(obj)] = self._wrap(name, obj, hooks.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{tail}.{attr}.{meth}"
                        self._patch(obj, meth, fn, self._wrap(name, fn, hooks.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, obj, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ok"],
                       "spans": self.spans, "counters": self.counters}, fh)


class SpanStats:
    """Call counts, inclusive time and self time per span name, over the
    spans that started inside [start, end)."""

    def __init__(self, tracer: Tracer, start: float, end: float) -> None:
        spans = tracer.spans
        self.calls: dict[str, int] = {}
        self.returned: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        child_time: dict[int, float] = {}
        picked = [i for i, s in enumerate(spans) if start <= s[1] < end]
        for i in picked:
            name, s0, s1, parent, _ = spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (s1 - s0)
        for i in picked:
            name, s0, s1, _, ok = spans[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.returned[name] = self.returned.get(name, 0) + int(ok)
            self.total[name] = self.total.get(name, 0.0) + (s1 - s0)
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + (s1 - s0) - child_time.get(i, 0.0)
            )

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))
