"""Context-tagged event logging with redundancy elimination.

The paper cites Zhang et al. [21]: tagging logged events with their
calling context lets a replay system drop *redundant* events — repeated
occurrences of the same event from the same context add no information
for replaying or triaging — which shrinks the log and speeds up replay.

:class:`ContextEventLog` implements that policy on top of the engine:
every ``record`` captures the compact context; an event whose
``(kind, context signature)`` pair was already logged is counted but not
stored.  The reduction ratio is the paper's motivating metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.context import CollectedSample
from ..core.engine import DacceEngine
from ..core.events import SampleEvent, ThreadId


@dataclass(frozen=True)
class EventRecord:
    """One retained (non-redundant) event."""

    kind: Hashable
    sample: CollectedSample
    sequence: int
    payload: Optional[Hashable] = None


@dataclass
class ReductionStats:
    """How much the context-keyed deduplication saved."""

    observed: int = 0
    retained: int = 0

    @property
    def suppressed(self) -> int:
        return self.observed - self.retained

    @property
    def reduction(self) -> float:
        """Fraction of events eliminated (0 = nothing, 1 = everything)."""
        if not self.observed:
            return 0.0
        return self.suppressed / self.observed


class ContextEventLog:
    """Deduplicating, context-tagged event log over a live engine.

    The context *signature* used for deduplication is the raw compact
    record ``(gTimeStamp, id, ccStack)`` — no decoding happens on the
    recording path (that is the whole point); retained events are
    decoded lazily via :meth:`decode`.
    """

    def __init__(self, engine: DacceEngine):
        self.engine = engine
        self.records: List[EventRecord] = []
        self.stats = ReductionStats()
        self._seen: Dict[Tuple, int] = {}
        self._sequence = 0

    # ------------------------------------------------------------------
    def record(
        self,
        kind: Hashable,
        thread: ThreadId = 0,
        payload: Optional[Hashable] = None,
    ) -> Optional[EventRecord]:
        """Log one event at the thread's current context.

        Returns the retained record, or ``None`` when the event was
        redundant (same kind from the same context already logged) or
        its sample was quarantined (``FaultPolicy.RECOVER``, unknown
        thread): observed, not retained.
        """
        self._sequence += 1
        self.stats.observed += 1
        sample = self.engine.on_sample(SampleEvent(thread=thread))
        if sample is None:
            return None
        signature = (
            kind,
            sample.timestamp,
            sample.context_id,
            sample.function,
            sample.ccstack,
        )
        if signature in self._seen:
            self._seen[signature] += 1
            return None
        self._seen[signature] = 1
        record = EventRecord(
            kind=kind, sample=sample, sequence=self._sequence, payload=payload
        )
        self.records.append(record)
        self.stats.retained += 1
        return record

    def occurrences(self, record: EventRecord) -> int:
        """How many times this record's (kind, context) pair occurred."""
        signature = (
            record.kind,
            record.sample.timestamp,
            record.sample.context_id,
            record.sample.function,
            record.sample.ccstack,
        )
        return self._seen.get(signature, 0)

    # ------------------------------------------------------------------
    def decode(self, record: EventRecord):
        """Expand a retained record's context to the full call path."""
        return self.engine.decoder().decode(record.sample)

    def by_kind(self, kind: Hashable) -> List[EventRecord]:
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)
