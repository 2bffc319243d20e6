"""Structured tracing: span trees with wall-time, attributes, and counters.

A :class:`Tracer` hands out :class:`Span` context managers; nesting follows
the runtime call structure, so one served batch produces one tree — compile,
cache probe, and under execute the evaluators' generated-sample and
per-plan mask spans — each node carrying its wall-clock seconds plus
whatever counters the stage chose to attach (mask-cache hits, result-cache
hits, elimination passes).

The disabled path is :data:`NULL_TRACER`: a singleton whose ``span()``
returns a stateless no-op span, so instrumented code pays one attribute
lookup and one trivial call per potential span and nothing else.  Hot loops
additionally guard on ``tracer.enabled`` and skip even that.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterator, TextIO


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "attributes", "counters", "children", "_tracer", "_start", "_end")

    #: Real spans record; the null span advertises ``False`` so hot loops can
    #: skip instrumentation entirely.
    enabled = True

    def __init__(self, name: str, tracer: "Tracer", attributes: dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.counters: dict[str, int | float] = {}
        self.children: list[Span] = []
        self._tracer = tracer
        self._start = 0.0
        self._end: float | None = None

    # ------------------------------------------------------------------
    # Context-manager lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._end = time.perf_counter()
        self._tracer._close(self)

    @property
    def seconds(self) -> float:
        """Wall-clock seconds (still ticking if the span is open)."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)
        return self

    def count(self, **counters: int | float) -> "Span":
        """Add to this span's named counters."""
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def child(self, name: str, **attributes: Any) -> "Span":
        """Attach a completed zero-duration structural child.

        Used for facts with tree shape but no independent wall time — one
        child per item a stage covers, recorded after the fact.
        """
        span = Span(name, self._tracer, attributes)
        span._end = span._start
        self.children.append(span)
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, pre-order."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def spans(self, name: str) -> list["Span"]:
        """Every descendant (or self) with the given name, pre-order."""
        return [span for span in self.walk() if span.name == name]

    def counter_total(self, name: str) -> int | float:
        """Sum of one counter over this span and every descendant."""
        return sum(span.counters.get(name, 0) for span in self.walk())

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly nested dict of the subtree."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
            "counters": dict(self.counters),
            "children": [child.as_dict() for child in self.children],
        }

    def render(self) -> str:
        """The human-readable EXPLAIN ANALYZE tree for this subtree."""
        return "\n".join(_render_lines(self, "", ""))

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds:.6f}, children={len(self.children)})"


class Tracer:
    """Produces spans and keeps the forest of completed root spans."""

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; nest it with ``with tracer.span(...) as span:``."""
        return Span(name, self, attributes)

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits rather than corrupting the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            while self._stack and self._stack.pop() is not span:
                pass

    def render(self) -> str:
        """Every completed root tree, rendered."""
        return "\n".join(root.render() for root in self.roots)

    def export_jsonl(self, destination: str | os.PathLike | TextIO) -> int:
        """Write one JSON object per span (flat, parent-linked) to a path or
        file object; returns the number of spans written."""
        if isinstance(destination, (str, os.PathLike)):
            with open(destination, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        written = 0
        identifiers: dict[int, int] = {}
        for root in self.roots:
            for span in root.walk():
                identifiers[id(span)] = len(identifiers)
        for root in self.roots:
            stack: list[tuple[Span, int | None]] = [(root, None)]
            while stack:
                span, parent = stack.pop()
                record = {
                    "id": identifiers[id(span)],
                    "parent": parent,
                    "name": span.name,
                    "seconds": span.seconds,
                    "attributes": _jsonable(span.attributes),
                    "counters": dict(span.counters),
                }
                destination.write(json.dumps(record) + "\n")
                written += 1
                for child in reversed(span.children):
                    stack.append((child, identifiers[id(span)]))
        return written

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"


# ---------------------------------------------------------------------------
# The disabled path: stateless no-op singletons
# ---------------------------------------------------------------------------
class _NullSpan:
    """A span that records nothing; every method is a cheap no-op."""

    __slots__ = ()
    enabled = False
    name = ""
    seconds = 0.0
    attributes: dict[str, Any] = {}
    counters: dict[str, int | float] = {}
    children: list = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def count(self, **counters: int | float) -> "_NullSpan":
        return self

    def child(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str):
        return None

    def spans(self, name: str) -> list:
        return []

    def counter_total(self, name: str) -> int:
        return 0

    def as_dict(self) -> dict[str, Any]:
        return {}

    def render(self) -> str:
        return ""

    def __repr__(self) -> str:
        return "NULL_SPAN"


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN` and keeps nothing."""

    __slots__ = ()
    enabled = False
    roots: list = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def render(self) -> str:
        return ""

    def export_jsonl(self, destination: str | TextIO) -> int:
        return 0

    def __repr__(self) -> str:
        return "NULL_TRACER"


#: Shared no-op span — the default value instrumented code works with.
NULL_SPAN = _NullSpan()
#: Shared no-op tracer — the default ``tracer=`` argument everywhere.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------
def format_seconds(seconds: float) -> str:
    """A compact human duration: ``812ns`` / ``3.1us`` / ``4.2ms`` / ``1.3s``."""
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


def _render_lines(span: Span, prefix: str, child_prefix: str) -> list[str]:
    parts = [f"{prefix}{span.name}  {format_seconds(span.seconds)}"]
    if span.attributes:
        parts.append(
            " ".join(f"{key}={value}" for key, value in span.attributes.items())
        )
    if span.counters:
        parts.append(
            "[" + " ".join(f"{key}={value}" for key, value in span.counters.items()) + "]"
        )
    lines = ["  ".join(parts)]
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        branch = "└─ " if last else "├─ "
        extend = "   " if last else "│  "
        lines.extend(
            _render_lines(child, child_prefix + branch, child_prefix + extend)
        )
    return lines


def _jsonable(attributes: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value if isinstance(value, (str, int, float, bool, type(None))) else str(value)
        for key, value in attributes.items()
    }
