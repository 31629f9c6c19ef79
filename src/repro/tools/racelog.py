"""Compact access logging for data-race reporting (the §1 flagship).

Dynamic race detectors record the calling context of every monitored
memory access; a race report then needs the *pair* of contexts involved.
:class:`RaceLogger` is the library version of
``examples/race_context_logging.py``: log accesses at a few words each,
detect conflicting pairs (same location, different threads, at least one
write), and decode only the contexts that end up in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.context import CallingContext, CollectedSample
from ..core.engine import DacceEngine
from ..core.events import SampleEvent, ThreadId


@dataclass(frozen=True)
class AccessRecord:
    """One logged memory access: a few words, no decoded path."""

    location: Hashable
    thread: ThreadId
    is_write: bool
    sample: CollectedSample


@dataclass
class RaceReport:
    """A conflicting pair with both contexts decoded."""

    location: Hashable
    first: AccessRecord
    second: AccessRecord
    first_context: CallingContext
    second_context: CallingContext


class RaceLogger:
    """Happens-before-free demo detector: last access per location."""

    def __init__(self, engine: DacceEngine):
        self.engine = engine
        self.accesses: List[AccessRecord] = []
        self._last: Dict[Hashable, AccessRecord] = {}
        self._conflicts: List[Tuple[AccessRecord, AccessRecord]] = []

    # ------------------------------------------------------------------
    def access(
        self,
        location: Hashable,
        thread: ThreadId = 0,
        is_write: bool = False,
    ) -> None:
        """Log one monitored access at the thread's current context.

        An access whose sample the engine quarantines
        (``FaultPolicy.RECOVER``, unknown thread) is not logged.
        """
        sample = self.engine.on_sample(SampleEvent(thread=thread))
        if sample is None:
            return
        record = AccessRecord(
            location=location, thread=thread, is_write=is_write, sample=sample
        )
        self.accesses.append(record)
        previous = self._last.get(location)
        if (
            previous is not None
            and previous.thread != thread
            and (previous.is_write or is_write)
        ):
            self._conflicts.append((previous, record))
        self._last[location] = record

    # ------------------------------------------------------------------
    @property
    def conflict_count(self) -> int:
        return len(self._conflicts)

    def reports(self, limit: Optional[int] = None) -> List[RaceReport]:
        """Decode the conflicting pairs (and only those)."""
        decoder = self.engine.decoder()
        out: List[RaceReport] = []
        for first, second in self._conflicts[:limit]:
            out.append(
                RaceReport(
                    location=first.location,
                    first=first,
                    second=second,
                    first_context=decoder.decode(first.sample),
                    second_context=decoder.decode(second.sample),
                )
            )
        return out

    @property
    def decode_fraction(self) -> float:
        """Share of logged accesses that ever needed decoding."""
        if not self.accesses:
            return 0.0
        return 2 * len(self._conflicts) / len(self.accesses)
