"""Spans and counts recorded from outside the program.

A ``Tracer`` replaces a package function with a timing wrapper at every
module attribute bound to it: the defining module, the package namespace
and every ``from x import f`` copy such as ``pipeline.sparse_code`` or
``cli.compute_stft``. The program's own files stay untouched, and the
original functions are put back when the ``installed`` block ends.

Each span keeps its name, start, end and parent, plus the workload
operation (``op``) and round it ran in, inherited from the span that
opened the operation. Extra counts taken from a call's arguments or result
are stored on its span, so ratios are formed where the work happened.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None, round_id: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            op, round_id = self.spans[parent]["op"], self.spans[parent]["round"]
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "op": op,
            "round": round_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec.update(count(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, package: str, targets: dict):
        """Wrap ``{"module.function": count_or_None}`` at every binding of
        ``package``'s modules for the duration of the block.

        ``count(args, result)`` returns a dict of numbers stored on the span.
        """
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        patches = []
        try:
            for qualname, count in targets.items():
                mod_name, fn_name = qualname.rsplit(".", 1)
                original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                wrapper = self._wrapper(qualname, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def select(self, name: str, ops=None):
        return [
            s for s in self.spans if s["name"] == name and (ops is None or s["op"] in ops)
        ]

    def seconds(self, name: str, ops=None) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, ops))

    def total(self, name: str, key: str, ops=None) -> float:
        return sum(s.get(key, 0) for s in self.select(name, ops))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
