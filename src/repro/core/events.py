"""Runtime event model shared by the trace executor and the engines.

The paper instruments machine code; the reproduction abstracts execution
into a stream of events.  Each event corresponds to something the
instrumented binary would observe:

* :class:`CallEvent` — a call instruction fires at a call site.
* :class:`ReturnEvent` — the current function returns.
* :class:`SampleEvent` — the libpfm4-style sampler fires and the current
  context id is recorded (Section 6.1 of the paper).
* :class:`ThreadStartEvent` / :class:`ThreadExitEvent` — ``clone`` is
  intercepted / a thread dies (Section 5.3).
* :class:`LibraryLoadEvent` — a shared library is ``dlopen``-ed; its
  functions become visible and its PLT entries bindable (Section 5.1).

Events carry integer function indices (``FunctionId``) and call-site ids
(``CallSiteId``); the program model owns the mapping to names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple, Union

FunctionId = int
CallSiteId = int
ThreadId = int


class CallKind(enum.Enum):
    """How a call site transfers control (Sections 3 and 5).

    The engine patches each kind differently:

    * ``NORMAL`` — direct call instruction.
    * ``INDIRECT`` — call through a function pointer / vtable.
    * ``TAIL`` — jump that replaces the current frame (Figure 7).
    * ``PLT`` — lazily bound call into a shared library (Section 5.1).
    """

    NORMAL = "normal"
    INDIRECT = "indirect"
    TAIL = "tail"
    PLT = "plt"


@dataclass(frozen=True)
class CallEvent:
    """A dynamic call: ``caller`` invokes ``callee`` at ``callsite``."""

    thread: ThreadId
    callsite: CallSiteId
    caller: FunctionId
    callee: FunctionId
    kind: CallKind = CallKind.NORMAL


@dataclass(frozen=True)
class ReturnEvent:
    """The top frame of ``thread`` returns to its caller."""

    thread: ThreadId


@dataclass(frozen=True)
class SampleEvent:
    """The sampling module fires on ``thread``; engines snapshot context."""

    thread: ThreadId


@dataclass(frozen=True)
class ThreadStartEvent:
    """``parent`` spawns ``thread`` whose entry function is ``entry``.

    The spawning context of the parent is captured by the engine so that
    full cross-thread contexts can be reconstructed at decode time.
    """

    thread: ThreadId
    parent: ThreadId
    entry: FunctionId


@dataclass(frozen=True)
class ThreadExitEvent:
    """``thread`` terminates; its per-thread state is discarded."""

    thread: ThreadId


@dataclass(frozen=True)
class LibraryLoadEvent:
    """A shared library identified by ``library`` is loaded at runtime."""

    thread: ThreadId
    library: str


Event = Union[
    CallEvent,
    ReturnEvent,
    SampleEvent,
    ThreadStartEvent,
    ThreadExitEvent,
    LibraryLoadEvent,
]


# ----------------------------------------------------------------------
# compact wire format
# ----------------------------------------------------------------------
# The trace executor, the synthetic substrate's event producer, emits
# plain tuples instead of frozen dataclasses: at millions of events per
# run the dataclass allocation and attribute protocol dominate the
# engine's fast path.  ``EventColumns`` (:mod:`repro.core.columnar`)
# packs these tuples into the struct-of-arrays batches
# ``DacceEngine.process_columns`` consumes, and ``process_columns``
# materialises one tuple per general-path event.  The Python tracer
# emits no stream at all: its profile hook encodes at the call and
# hands the general path one dataclass event per miss.
# ``inflate``/``compact`` convert to and from the dataclass API, which
# remains the compatibility surface (``on_event`` and everything above
# it is unchanged).
#
# Layouts (first element is the opcode):
#
# * ``(EV_CALL, thread, callsite, caller, callee, kind_code)``
# * ``(EV_RETURN, thread)``
# * ``(EV_SAMPLE, thread)``
# * ``(EV_THREAD_START, thread, parent, entry)``
# * ``(EV_THREAD_EXIT, thread)``
# * ``(EV_LIBRARY_LOAD, thread, library)``

EV_CALL = 0
EV_RETURN = 1
EV_SAMPLE = 2
EV_THREAD_START = 3
EV_THREAD_EXIT = 4
EV_LIBRARY_LOAD = 5

#: Call kinds as small integers (tuple layout slot 5).
KIND_CODE = {
    CallKind.NORMAL: 0,
    CallKind.INDIRECT: 1,
    CallKind.TAIL: 2,
    CallKind.PLT: 3,
}
KIND_FROM_CODE: Tuple[CallKind, ...] = (
    CallKind.NORMAL,
    CallKind.INDIRECT,
    CallKind.TAIL,
    CallKind.PLT,
)

#: Kind code of a plain direct call — the fast-path opcode test.
KIND_NORMAL_CODE = KIND_CODE[CallKind.NORMAL]

CompactEvent = Tuple[int, ...]

#: Tuple arity per opcode — the columnar converters and tests use this
#: to validate that a record carries exactly the slots its layout names.
OPCODE_ARITY = {
    EV_CALL: 6,
    EV_RETURN: 2,
    EV_SAMPLE: 2,
    EV_THREAD_START: 4,
    EV_THREAD_EXIT: 2,
    EV_LIBRARY_LOAD: 3,
}


def compact(event: Event) -> CompactEvent:
    """The compact-tuple form of a dataclass event."""
    if isinstance(event, CallEvent):
        return (
            EV_CALL,
            event.thread,
            event.callsite,
            event.caller,
            event.callee,
            KIND_CODE[event.kind],
        )
    if isinstance(event, ReturnEvent):
        return (EV_RETURN, event.thread)
    if isinstance(event, SampleEvent):
        return (EV_SAMPLE, event.thread)
    if isinstance(event, ThreadStartEvent):
        return (EV_THREAD_START, event.thread, event.parent, event.entry)
    if isinstance(event, ThreadExitEvent):
        return (EV_THREAD_EXIT, event.thread)
    if isinstance(event, LibraryLoadEvent):
        # The library name rides along untyped; the tuple layout is an
        # internal wire format, not a serialisation format.
        return (EV_LIBRARY_LOAD, event.thread, event.library)  # type: ignore[return-value]
    raise TypeError("cannot compact unknown event %r" % (event,))


def inflate(record: CompactEvent) -> Event:
    """The dataclass form of a compact tuple (general-path delegation)."""
    op = record[0]
    if op == EV_CALL:
        return CallEvent(
            thread=record[1],
            callsite=record[2],
            caller=record[3],
            callee=record[4],
            kind=KIND_FROM_CODE[record[5]],
        )
    if op == EV_RETURN:
        return ReturnEvent(thread=record[1])
    if op == EV_SAMPLE:
        return SampleEvent(thread=record[1])
    if op == EV_THREAD_START:
        return ThreadStartEvent(
            thread=record[1], parent=record[2], entry=record[3]
        )
    if op == EV_THREAD_EXIT:
        return ThreadExitEvent(thread=record[1])
    if op == EV_LIBRARY_LOAD:
        return LibraryLoadEvent(thread=record[1], library=record[2])  # type: ignore[arg-type]
    raise TypeError("cannot inflate unknown opcode %r" % (op,))
