"""In-memory span recording around the program's layer entry points.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: an id, the id of the span that caused it
(carried in a context variable, so asyncio tasks inherit the link from
the task that created them), a name, start and end on the system-wide
monotonic clock, and optional attributes. Spans stay in memory until
:meth:`Tracer.dump` writes them out as JSON lines.

Only the traced run installs wrappers; the untraced run calls the
program unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from typing import Any, Callable

# CLOCK_MONOTONIC is one clock for every process on the machine, so the
# wire client's spans and the server's spans can be compared directly.
now_ns = time.monotonic_ns

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=0)


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs")

    def __init__(
        self, id: int, parent: int, name: str, t0: int, t1: int, attrs: dict | None
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs or {}

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) / 1e9

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            data["id"], data["parent"], data["name"], data["t0"], data["t1"], data["attrs"]
        )


AttrsOf = Callable[[tuple, dict], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self, owner: Any, attr: str, name: str, attrs_of: AttrsOf | None = None
    ) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Returns False, and changes nothing, when the program has no such
        attribute, so a later version that drops an entry point still runs.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        spans = self.spans
        ids = self._ids

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                t0 = now_ns()
                try:
                    return await original(*args, **kwargs)
                finally:
                    t1 = now_ns()
                    _CURRENT.reset(token)
                    attrs = attrs_of(args, kwargs) if attrs_of else None
                    spans.append(Span(sid, parent, name, t0, t1, attrs))

        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                t0 = now_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    t1 = now_ns()
                    _CURRENT.reset(token)
                    attrs = attrs_of(args, kwargs) if attrs_of else None
                    spans.append(Span(sid, parent, name, t0, t1, attrs))

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        self.dump_spans(self.spans, path)

    @staticmethod
    def dump_spans(spans: list[Span], path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as src:
        return [Span.from_dict(json.loads(line)) for line in src if line.strip()]


def within(spans: list[Span], t0: int, t1: int) -> list[Span]:
    """Spans that started inside ``[t0, t1)``."""
    return [s for s in spans if t0 <= s.t0 < t1]
