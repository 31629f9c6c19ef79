"""Spans recorded from outside the program, around its public entry points.

The traced run replaces public methods on the live instances (engine,
emitter, sink, service) with wrappers that record
``(name, start, end, parent, items)``.  A stack of open spans gives the
parent; a layer's self time is its duration minus the time its child
spans cover.  Wrappers are installed only for the span-traced blocks and
removed afterwards, so the plain traced blocks run the unmodified code.

The wrappers are only safe while the tracer's ``_in_engine`` guard is
set or the tracer is stopped; otherwise the profile hook would trace the
wrapper frames as program code.  Every wrapped call satisfies that: the
tracer sets the guard around each engine call it makes, emitter flushes
fire inside the engine's sample hook or after ``tracer.stop()``, and the
ingest fold runs after ``tracer.stop()``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span: name, start ns, end ns, parent index (-1 at top level),
#: items processed (events in a batch, 0 when not sized).
Span = Tuple[str, int, int, int, int]

#: Spans kept for the JSONL file; totals cover every span.
KEEP_SPANS = 20_000


class SpanLog:
    """Span totals plus the instance-method wrappers that fill them.

    Totals per span name (count, total ns, self ns, items) accumulate as
    spans close, so memory stays flat however long the run; the first
    ``keep`` spans are also kept whole for the JSONL file.
    """

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.keep = keep
        self.kept: List[Optional[Span]] = []
        self.rows: Dict[str, List[int]] = {}
        self.top_level_ns = 0
        #: Open spans: [kept index or -1, ns covered by closed children].
        self._open: List[List[int]] = []
        self._installed: List[Tuple[Any, str]] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        size: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        kept = self.kept
        keep = self.keep
        open_spans = self._open
        row = self.rows.setdefault(name, [0, 0, 0, 0])
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(kept) if len(kept) < keep else -1
            parent = open_spans[-1][0] if open_spans else -1
            items = size(*args) if size is not None else 0
            if index >= 0:
                kept.append(None)
            frame = [index, 0]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                row[3] += items
                if open_spans:
                    open_spans[-1][1] += duration
                else:
                    self.top_level_ns += duration
                if index >= 0:
                    kept[index] = (name, start, end, parent, items)

        return wrapper

    def install(
        self,
        obj: Any,
        attr: str,
        name: str,
        size: Optional[Callable[..., int]] = None,
        fn: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper."""
        target = fn if fn is not None else getattr(obj, attr)
        setattr(obj, attr, self.wrap(name, target, size))
        self._installed.append((obj, attr))

    def remove(self) -> None:
        """Drop every wrapper, restoring the class methods."""
        if self._open:
            raise RuntimeError("span wrappers removed with spans open")
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed = []

    def count(self, name: str) -> int:
        return self.rows.get(name, [0, 0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.rows.get(name, [0, 0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        return self.rows.get(name, [0, 0, 0, 0])[2]

    def items(self, name: str) -> int:
        return self.rows.get(name, [0, 0, 0, 0])[3]

    def write_jsonl(self, path: str) -> None:
        spans = [span for span in self.kept if span is not None]
        origin = min((span[1] for span in spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, items in spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "items": items,
                        }
                    )
                    + "\n"
                )


def _sized(*args: Any) -> int:
    return len(args[0])


def install_engine_spans(log: SpanLog, engine: Any, passes: List[Tuple[Any, Any]]) -> None:
    """Wrap the engine's public entry points.

    ``process_columns`` is the tracer's (and the synthetic driver's) only
    call into the engine; ``on_event``, ``process_batch`` and
    ``reencode`` nest inside it, because the engine calls them through
    ``self``.  Each re-encoding pass appends the dictionaries before and
    after it to ``passes``, so usefulness is judged after the run.
    """
    log.install(engine, "process_columns", "engine.process_columns", _sized)
    log.install(engine, "on_event", "engine.on_event")
    log.install(engine, "process_batch", "engine.process_batch", _sized)
    log.install(engine, "on_sample", "engine.on_sample")
    log.install(engine, "decoder", "decoder.build")
    reencode = engine.reencode

    def recorded_reencode(*args: Any, **kwargs: Any) -> Any:
        before = engine.current_dictionary
        try:
            return reencode(*args, **kwargs)
        finally:
            passes.append((before, engine.current_dictionary))

    log.install(engine, "reencode", "adaptive.reencode", fn=recorded_reencode)


def install_read_side_spans(log: SpanLog, session: Any) -> None:
    """Wrap the emitter flush, the sink write and the ingest fold."""
    log.install(session.emitter, "flush", "emitter.flush")
    log.install(session.sink, "emit", "sinks.emit")
    log.install(session.service, "ingest_lines", "ingest.ingest_lines")


def useful_passes(passes: List[Tuple[Any, Any]]) -> int:
    """Passes whose committed dictionary changed some edge encoding."""

    def encodings(dictionary: Any) -> Dict[Tuple[int, int], Optional[int]]:
        return {(e.callsite, e.callee): e.encoding for e in dictionary.edges()}

    return sum(
        1
        for before, after in passes
        if after is not before and encodings(after) != encodings(before)
    )
