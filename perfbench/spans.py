"""In-memory spans recorded around the public functions of cascade_guard.

Nothing here lives in the program: `patched` replaces each listed function in
every cascade_guard module that imported it with a wrapper that records a
span, and puts the originals back on exit. Spans stay in memory until the
benchmark writes them out at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    parent: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records nested spans; each span knows the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.own_ns = 0     # time spent in the wrappers outside the wrapped calls

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter_ns()

    def root(self) -> int:
        """Index of the outermost open span, -1 when none is open."""
        return self._open[0] if self._open else -1

    def wrap(self, name, fn, before=None, after=None):
        """fn recording a span per call; before/after add span attributes.

        The hooks run outside the span, so that spans time only fn. The
        wrapper's own time (bookkeeping and hooks) adds up in own_ns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter_ns()
            attrs = before(*args, **kwargs) if before is not None else {}
            with self.span(name) as sp:
                t_call = time.perf_counter_ns()
                result = fn(*args, **kwargs)
                t_return = time.perf_counter_ns()
            sp.attrs.update(attrs)
            if after is not None:
                sp.attrs.update(after(result))
            self.own_ns += (t_call - t_enter) + (time.perf_counter_ns() - t_return)
            return result

        return traced

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def ancestors(self, index):
        p = self.spans[index].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def to_json(self) -> list[dict]:
        selfs = self.self_seconds()
        return [{"name": s.name, "start_ns": s.start, "end_ns": s.end, "parent": s.parent,
                 "self_s": selfs[i], "attrs": s.attrs}
                for i, s in enumerate(self.spans)]


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


@contextlib.contextmanager
def patched(tracer: Tracer, targets, package="cascade_guard"):
    """Wrap each target wherever a module of the package holds a reference to it.

    targets: (module, attribute, span name, before, after). Attributes named
    "Class.method" wrap a classmethod on the class itself. Every replaced name
    is restored on exit, also when the body raises.
    """
    restore = []
    try:
        for module, attr, name, before, after in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(tracer.wrap(name, original.__func__, before, after))
                setattr(cls, meth, wrapped)
                restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, before, after)
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        restore.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
