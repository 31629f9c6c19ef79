"""Fault quarantine — the engine's survival layer for malformed input.

The paper's deployment story records contexts inside long-running
production processes; the event stream feeding the engine there comes
from real instrumentation and real log transport, both of which drop,
duplicate and reorder records under load.  In ``strict`` fault policy
(the default, and the paper's semantics) any inconsistency raises a
:class:`~repro.core.errors.TraceError` and the analysis dies with the
process.  In ``recover`` policy the engine *quarantines* the offending
event instead: the fault is appended to a bounded :class:`FaultLog`
with full runtime context, the affected thread's shadow state is
resynchronised against its own stack walk (the paper's ccStack escape
hatch), and encoding continues.

The decoding side has the matching degraded path:
:meth:`~repro.core.decoder.Decoder.decode_best_effort` returns a
:class:`PartialDecode` — the longest decodable leaf-most suffix plus a
structured :class:`DecodeFault` — instead of raising.

What ``recover`` guarantees and gives up is spelled out in
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import enum
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from .context import CallingContext, ContextStep

logger = logging.getLogger(__name__)

#: A fault-log subscriber: called synchronously with each new record.
FaultListener = Callable[["FaultRecord"], None]


class FaultPolicy(enum.Enum):
    """How the engine reacts to malformed events.

    * ``STRICT`` — raise, as the unhardened engine always did.  The
      paper's semantics; nothing is hidden.
    * ``RECOVER`` — quarantine the event, resynchronise the thread, keep
      encoding.  Production semantics: the encoder must survive bad
      input and keep serving ids.
    """

    STRICT = "strict"
    RECOVER = "recover"


class FaultKind(enum.Enum):
    """Stable classification of everything the quarantine can catch."""

    #: A call event whose ``caller`` is not the thread's current function.
    CALLER_MISMATCH = "caller-mismatch"
    #: A return event with only the bottom frame live.
    RETURN_BOTTOM = "return-bottom"
    #: A tail call issued from the bottom frame.
    TAIL_BOTTOM = "tail-bottom"
    #: A thread-start event for a thread id that already exists.
    DUPLICATE_THREAD = "duplicate-thread"
    #: An event referencing a thread the engine does not know (including
    #: the thread-exit-then-sample race).
    UNKNOWN_THREAD = "unknown-thread"
    #: A thread-exit event arriving while frames are still live.
    THREAD_EXIT_LIVE_FRAMES = "thread-exit-live-frames"
    #: An event object of a type the engine does not understand.
    UNKNOWN_EVENT = "unknown-event"
    #: A re-encoding pass failed its commit gate and was rolled back.
    REENCODE_ABORTED = "reencode-aborted"
    #: Backstop for any other :class:`~repro.core.errors.DacceError`
    #: escaping a handler in recover mode.
    TRACE_ERROR = "trace-error"


class RecoveryAction(enum.Enum):
    """What the quarantine did with the faulting event."""

    #: The event was discarded; thread state was already consistent.
    DROPPED = "dropped"
    #: Frames above the event's caller were unwound (missed returns),
    #: the thread was resynchronised, and the event was then applied.
    UNWOUND = "unwound"
    #: The thread's encoding state was rebuilt from its shadow stack.
    RESYNCED = "resynced"
    #: A failed re-encoding pass was rolled back to its pre-pass state.
    ROLLED_BACK = "rolled-back"


@dataclass(frozen=True)
class FaultRecord:
    """One quarantined event, with enough context to debug it offline."""

    kind: FaultKind
    message: str
    thread: Optional[int] = None
    gts: Optional[int] = None
    #: Engine position (``stats.calls``) when the fault was caught —
    #: together with ``thread`` this bounds the quarantined window.
    at_call: int = 0
    event: Optional[str] = None
    recovery: RecoveryAction = RecoveryAction.DROPPED
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind.value,
            "message": self.message,
            "thread": self.thread,
            "gts": self.gts,
            "at_call": self.at_call,
            "recovery": self.recovery.value,
        }
        if self.event is not None:
            data["event"] = self.event
        if self.detail:
            data["detail"] = dict(self.detail)
        return data


class FaultLog:
    """Bounded record of quarantined faults.

    Keeps the most recent ``capacity`` records (older ones are evicted
    and counted in ``dropped``) plus per-kind totals that never reset —
    the totals feed the ``repro.obs`` metrics registry, so eviction
    never under-reports.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._records: Deque[FaultRecord] = deque(maxlen=capacity)
        self._counts: Dict[FaultKind, int] = {}
        self._listeners: List[FaultListener] = []
        self.total = 0
        self.dropped = 0

    def subscribe(self, listener: FaultListener) -> FaultListener:
        """Call ``listener`` with every record from now on (e.g. to emit
        ``fault`` event frames).  Listeners see each record exactly once,
        even after the bounded ring evicts it; exceptions are logged and
        swallowed so a broken listener cannot break quarantine."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: FaultListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def record(self, record: FaultRecord) -> None:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)
        self.total += 1
        self._counts[record.kind] = self._counts.get(record.kind, 0) + 1
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:
                logger.exception("fault-log listener %r failed", listener)

    def count(self, kind: FaultKind) -> int:
        return self._counts.get(kind, 0)

    def counts_by_kind(self) -> Dict[str, int]:
        # list() so scrape-time readers survive a concurrent quarantine
        # adding a first-of-its-kind fault mid-iteration.
        return {kind.value: count for kind, count in list(self._counts.items())}

    def kinds(self) -> Tuple[FaultKind, ...]:
        return tuple(self._counts)

    def records(self) -> List[FaultRecord]:
        return list(self._records)

    def to_list(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FaultRecord]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return self.total > 0

    def __repr__(self) -> str:
        return "FaultLog(total=%d, retained=%d, kinds=%s)" % (
            self.total,
            len(self._records),
            ",".join(sorted(k.value for k in self._counts)),
        )


# ----------------------------------------------------------------------
# degraded decoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodeFault:
    """Structured reason a sample did not decode completely."""

    reason: str
    message: str
    timestamp: Optional[int] = None
    context_id: Optional[int] = None
    function: Optional[int] = None
    thread: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "message": self.message,
            "timestamp": self.timestamp,
            "context_id": self.context_id,
            "function": self.function,
            "thread": self.thread,
        }


@dataclass(frozen=True)
class PartialDecode:
    """Best-effort decode result: a suffix of the true context.

    ``context`` holds the longest decodable *leaf-most* portion —
    decoding walks from the sample point toward the root, so whatever
    was recovered before the failure is exact; the missing part is
    root-ward.  ``complete`` is ``True`` when the full context decoded
    (then ``fault`` is ``None`` and ``context`` equals what
    :meth:`~repro.core.decoder.Decoder.decode` returns).
    """

    context: CallingContext
    complete: bool
    fault: Optional[DecodeFault] = None

    @property
    def steps(self) -> Tuple[ContextStep, ...]:
        return self.context.steps

    def __len__(self) -> int:
        return len(self.context)
