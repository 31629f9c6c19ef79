"""The paper's Issue 5 made runnable: a *global* context identifier.

Section 2.2, Issue 5: PCCE declares the context identifier as a global
variable; in a multi-threaded program all threads then add and subtract
their encodings on the same id, producing "a meaningless or misleading
encoded path value".  DACCE's answer is TLS — one id (and ccStack) per
thread (Section 5.3).

:class:`GlobalIdEngine` deliberately re-creates the broken design: it is
the DACCE engine with every thread reading and writing one shared id
cell (each event performs a read-modify-write on the global, and frame
restores write back whatever the thread saw at call time — exactly the
interleaving corruption the paper describes).  With one thread it
behaves identically to :class:`~repro.core.engine.DacceEngine`; with
several, decoded contexts go wrong, which the Issue 5 integration test
demonstrates and quantifies.
"""

from __future__ import annotations

from typing import Optional

from ..core.columnar import EventColumns
from ..core.engine import DacceConfig, DacceEngine
from ..core.events import (
    CallEvent,
    ReturnEvent,
    SampleEvent,
    ThreadStartEvent,
    inflate,
)
from ..cost.model import CostModel


class GlobalIdEngine(DacceEngine):
    """DACCE with a single shared context identifier (broken on purpose)."""

    def __init__(
        self,
        root: int = 0,
        config: Optional[DacceConfig] = None,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(root=root, config=config, cost_model=cost_model)
        self._global_id = 0

    def process_columns(self, cols: EventColumns) -> None:
        # The columnar kernel keeps each thread's id in a register and
        # bypasses on_call/on_return, so every event takes the handlers
        # below, one at a time.
        on_event = self.on_event
        for record in cols.iter_compact():
            on_event(inflate(record))

    # Each handler performs the racy read-modify-write: load the global
    # into the thread's view, run the instrumentation, store it back.
    def _load_global(self, thread: int) -> None:
        state = self._threads.get(thread)
        if state is not None:
            state.id_value = self._global_id

    def _store_global(self, thread: int) -> None:
        state = self._threads.get(thread)
        if state is not None:
            self._global_id = state.id_value

    def on_call(self, event: CallEvent) -> None:
        self._load_global(event.thread)
        super().on_call(event)
        self._store_global(event.thread)

    def on_return(self, event: ReturnEvent) -> None:
        self._load_global(event.thread)
        super().on_return(event)
        self._store_global(event.thread)

    def on_sample(self, event: SampleEvent):
        self._load_global(event.thread)
        return super().on_sample(event)

    def on_thread_start(self, event: ThreadStartEvent) -> None:
        super().on_thread_start(event)
        # The new thread immediately clobbers the shared id with its own
        # initial value — as a global-id design would.
        self._store_global(event.thread)
