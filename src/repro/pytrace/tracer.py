"""DACCE over live Python execution.

The paper instruments x86 binaries; this frontend instruments the Python
interpreter itself through ``sys.setprofile``, mapping code objects to
function ids and (caller code object, bytecode offset) pairs to call
sites.  Every Python call/return drives the same :class:`DacceEngine`
used by the synthetic substrate, so real programs get real dynamic
calling-context encoding: ids stay compact, recursion lands on the
ccStack, re-encoding adapts to the program's call mix, and any collected
sample decodes back to the exact Python call path.

This is the reproduction's end-to-end validation path: decoded contexts
are cross-checked against genuine interpreter stack walks
(:mod:`repro.pytrace.stackwalk`), mirroring the paper's libpfm4
cross-validation (Section 6.1).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Any, Callable, Dict, List, Optional, Tuple

import os

from ..core.ccstack import UNTRACKED_FUNCTION
from ..core.columnar import EventColumns
from ..core.context import CallingContext, CollectedSample
from ..core.engine import DacceConfig, DacceEngine
from ..core.errors import TraceError

#: Function id reserved for the tracing root (the ``main`` node).
ROOT_FUNCTION = 0

#: Targeted-mode shadow-frame kinds: an in-plan frame, the frame that
#: opened an untracked region (its call/return cross the boundary), and
#: frames entirely inside such a region (zero engine events).
_TRACKED = 0
_REGION_OPEN = 1
_REGION_INNER = 2

#: The tracer never traces the repro package itself — its own engine
#: calls (sampling, decoding) run while the profile hook is active.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class FunctionInfo:
    """Human-readable identity of a traced Python function."""

    id: int
    name: str
    filename: str
    firstlineno: int

    @property
    def qualified(self) -> str:
        return "%s:%d:%s" % (self.filename, self.firstlineno, self.name)


class PythonDacceTracer:
    """Encode the calling contexts of real Python execution.

    Usage::

        tracer = PythonDacceTracer()
        with tracer:
            my_workload()
        sample = tracer.last_samples[-1]
        text = tracer.format_context(tracer.decode(sample))

    Samples are taken with :meth:`sample` (callable from inside the
    traced code), or automatically every ``sample_every`` calls.

    Limitations (documented, by design): C-level calls are not traced
    (no Python frame), and the tracer follows a single thread — the
    multi-threaded machinery is exercised by the synthetic substrate.
    """

    def __init__(
        self,
        config: Optional[DacceConfig] = None,
        sample_every: int = 0,
        static_graph: Optional[Any] = None,
        source_root: Optional[str] = None,
        wall_time: bool = False,
        targeted: Optional[Any] = None,
    ):
        # Targeted mode (repro.static.targeted): the engine encodes only
        # the plan's sink-reaching subgraph, and the tracer classifies
        # each code object once — out-of-plan code gets no function id,
        # no callsite mapping and (inside an untracked region) no engine
        # events at all.  Under ``sys.setprofile`` the interpreter still
        # invokes the hook, so the modeled saving is everything past the
        # disposition-cache probe; a real deployment (sys.monitoring's
        # per-code DISABLE, or binary patching as in the paper) would
        # also skip the callback itself.
        self.targeted = targeted
        self._plan_fns: Optional[set] = None
        self.skipped_code_objects = 0
        self.suppressed_events = 0
        self._disposition: Dict[CodeType, bool] = {}
        self._frame_kinds: List[int] = []
        self._static_site: Dict[Tuple[int, int], int] = {}
        if targeted is not None:
            if targeted.warm_start.graph.root != ROOT_FUNCTION:
                raise TraceError(
                    "a targeted plan for tracing must be built against the "
                    "tracer root: build_targeted(..., root=%d)"
                    % ROOT_FUNCTION
                )
            if source_root is None:
                raise TraceError(
                    "targeted tracing requires source_root (plan function "
                    "ids are static ids)"
                )
            if static_graph is None:
                # The full analysed graph, so every statically known
                # function resolves to its id for disposition checks.
                static_graph = targeted.report.graph
            self._plan_fns = set(targeted.functions)
            # Tracked-pair -> seeded static call site.  Emitting the
            # *static* site id for tracked calls lands them on the
            # warm-started dictionary edges instead of re-discovering
            # every edge under fresh dynamic site ids (pairs with
            # several static sites collapse onto the smallest — a
            # deliberate precision trade documented in the docs).
            for edge in targeted.static_graph.edges():
                key = (edge.caller, edge.callee)
                site = self._static_site.get(key)
                if site is None or edge.callsite < site:
                    self._static_site[key] = edge.callsite
            self.engine = DacceEngine(config=config, targeted=targeted)
        else:
            self.engine = DacceEngine(root=ROOT_FUNCTION, config=config)
        self.sample_every = sample_every
        self.samples: List[CollectedSample] = []
        #: Per-sample weights, parallel to :attr:`samples`: 1.0 each in
        #: call-count mode, the wall-clock seconds since the previous
        #: sample when ``wall_time`` is set — the two weight models the
        #: profiling subsystem (:mod:`repro.prof`) aggregates by.
        self.wall_time = wall_time
        self.sample_weights: List[float] = []
        self._last_sample_time: Optional[float] = None
        self._functions: Dict[CodeType, FunctionInfo] = {}
        self._function_names: Dict[int, FunctionInfo] = {
            ROOT_FUNCTION: FunctionInfo(ROOT_FUNCTION, "<root>", "<tracer>", 0)
        }
        if targeted is not None:
            self._function_names[UNTRACKED_FUNCTION] = FunctionInfo(
                UNTRACKED_FUNCTION, "<untracked>", "<targeted>", 0
            )
        self._callsites: Dict[Tuple[int, int], int] = {}
        self._next_function = ROOT_FUNCTION + 1
        self._next_callsite = 1
        # Code-object -> static-function-id mapping.  With a
        # ``StaticCallGraph`` (from ``repro.static``) and the source root
        # it was extracted from, traced functions take the *static* ids,
        # so dynamic edges line up with static edges for the lint
        # cross-check.  The graph's ids must avoid ``ROOT_FUNCTION``
        # (allocate the FunctionIndex with ``first_id=1``); an id-0 entry
        # is indistinguishable from the tracing root and is skipped.
        self._static_ids: Dict[Tuple[str, str, int], int] = {}
        self._source_root = ""
        self.static_hits = 0
        if static_graph is not None:
            if source_root is None:
                raise TraceError(
                    "static_graph requires source_root to map filenames"
                )
            self._source_root = os.path.abspath(source_root)
            highest = ROOT_FUNCTION
            for fn in static_graph.functions():
                if fn.id == ROOT_FUNCTION:
                    continue
                name = fn.qualname.rsplit(".", 1)[-1]
                self._static_ids[(fn.module, name, fn.firstlineno)] = fn.id
                self._function_names[fn.id] = FunctionInfo(
                    fn.id, fn.qualname, fn.module, fn.firstlineno
                )
                highest = max(highest, fn.id)
            # Dynamically discovered functions must not collide with the
            # statically allocated id range.
            self._next_function = highest + 1
            if self._plan_fns is not None:
                # Dynamic (boundary) call sites must not collide with
                # the static site ids seeded into the engine dictionary.
                top_site = max(
                    (edge.callsite for edge in static_graph.edges()),
                    default=0,
                )
                self._next_callsite = max(self._next_callsite, top_site + 1)
        #: Frames we have emitted CallEvents for, bottom first.
        self._live_frames: List[FrameType] = []
        self._active = False
        self._calls_since_sample = 0
        self._base_frame: Optional[FrameType] = None
        #: Pending events as a preallocated struct-of-arrays slab,
        #: drained through the engine's code-generated columnar fast
        #: lane.  The per-call profile-hook work is a handful of integer
        #: column stores; anything that observes engine state (sampling,
        #: decoding, the shadow-stack oracle, ``stop``) flushes first,
        #: so observable behaviour is unchanged.  ``clear()`` keeps the
        #: storage, so a long trace never reallocates the slab.
        self._buffer_limit = 512
        self._columns = EventColumns.with_capacity(self._buffer_limit)
        #: True while engine machinery runs under an active profile hook
        #: (flush / sample / decode called from traced code); the hook
        #: ignores those interpreter events — they belong to the tracer,
        #: not the traced program.
        self._in_engine = False

    # ------------------------------------------------------------------
    # identity mapping
    # ------------------------------------------------------------------
    def _function_id(self, code: CodeType) -> int:
        info = self._functions.get(code)
        if info is None:
            assigned = self._static_function_id(code)
            if assigned is None:
                assigned = self._next_function
                self._next_function += 1
            else:
                self.static_hits += 1
            info = FunctionInfo(
                assigned,
                code.co_name,
                code.co_filename,
                code.co_firstlineno,
            )
            self._functions[code] = info
            self._function_names[info.id] = info
        return info.id

    def _static_function_id(self, code: CodeType) -> Optional[int]:
        """The static id of ``code``, when a static mapping is loaded.

        Matching is exact: the dotted module name (derived from the
        filename relative to the source root) plus the bare function
        name plus ``co_firstlineno`` — which the extractor computed
        decorator-adjusted, the way live code objects report it.
        """
        if not self._static_ids:
            return None
        filename = os.path.abspath(code.co_filename)
        if not filename.startswith(self._source_root + os.sep):
            return None
        from ..static.pyextract import MODULE_BODY, module_name_for

        module = module_name_for(filename, self._source_root)
        if code.co_name == "<module>":
            return self._static_ids.get((module, MODULE_BODY, 0))
        return self._static_ids.get(
            (module, code.co_name, code.co_firstlineno)
        )

    def _code_disposition(self, code: CodeType) -> bool:
        """Whether ``code`` is inside the targeted plan (cached).

        Each code object is classified exactly once; out-of-plan code
        never gets a function id or call-site allocation.  Everything
        past this cache probe — id mapping, event construction, engine
        work — is what targeted mode skips for untracked code.
        """
        tracked = self._disposition.get(code)
        if tracked is None:
            assert self._plan_fns is not None
            static_id = self._static_function_id(code)
            tracked = static_id is not None and static_id in self._plan_fns
            self._disposition[code] = tracked
            if not tracked:
                self.skipped_code_objects += 1
        return tracked

    def _callsite_id(self, caller: int, lasti: int) -> int:
        key = (caller, lasti)
        site = self._callsites.get(key)
        if site is None:
            site = self._next_callsite
            self._callsites[key] = site
            self._next_callsite += 1
        return site

    def function_info(self, function_id: int) -> FunctionInfo:
        try:
            return self._function_names[function_id]
        except KeyError:
            raise TraceError("unknown function id %d" % function_id) from None

    # ------------------------------------------------------------------
    # tracing lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PythonDacceTracer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> None:
        if self._active:
            raise TraceError("tracer already active")
        self._active = True
        self._calls_since_sample = 0
        self._last_sample_time = time.perf_counter()
        # Frames at or above the base frame belong to the harness, not
        # the traced program; they map onto the engine's root node.
        self._base_frame = sys._getframe(1)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._active = False
        # Synthetically unwind frames that are still live (the traced
        # call may terminate via an exception caught above us).
        while self._live_frames:
            self._live_frames.pop()
            if self._frame_kinds and self._frame_kinds.pop() == _REGION_INNER:
                continue
            self._columns.push_return(0)
        self.flush()
        self._base_frame = None

    def flush(self) -> None:
        """Drain buffered events into the engine's columnar fast lane."""
        cols = self._columns
        if len(cols):
            self._in_engine = True
            try:
                self.engine.process_columns(cols)
            finally:
                self._in_engine = False
                cols.clear()

    # ------------------------------------------------------------------
    def _profile(self, frame: FrameType, event: str, arg: Any) -> None:
        if self._in_engine:
            return
        if event == "call":
            self._on_call(frame)
        elif event == "return":
            self._on_return(frame)
        # c_call / c_return / exception events carry no Python frame
        # transition we need to encode.

    def _on_call(self, frame: FrameType) -> None:
        filename = frame.f_code.co_filename
        if filename.startswith(_PACKAGE_ROOT) or filename.startswith("<frozen"):
            return  # never trace the tracer/engine machinery itself
        if self._plan_fns is not None:
            self._on_call_targeted(frame)
            return
        parent = frame.f_back
        if self._live_frames:
            if parent is not self._live_frames[-1]:
                # A call from outside the traced stack (e.g. a callback
                # from C code whose Python parent we never saw): skip it
                # and everything below it would desynchronise — attach
                # it to the current top instead.
                caller_id = self._function_id(self._live_frames[-1].f_code)
            else:
                caller_id = self._function_id(parent.f_code)
            lasti = parent.f_lasti if parent is not None else 0
        else:
            caller_id = ROOT_FUNCTION
            lasti = 0
        callee_id = self._function_id(frame.f_code)
        callsite = self._callsite_id(caller_id, lasti)
        self._columns.push_call(0, callsite, caller_id, callee_id)
        self._live_frames.append(frame)
        if self.sample_every:
            self._calls_since_sample += 1
            if self._calls_since_sample >= self.sample_every:
                self._calls_since_sample = 0
                self._record_sample()
        if len(self._columns) >= self._buffer_limit:
            self.flush()

    def _on_call_targeted(self, frame: FrameType) -> None:
        kinds = self._frame_kinds
        in_region = bool(kinds) and kinds[-1] != _TRACKED
        if self._code_disposition(frame.f_code):
            if in_region:
                # Re-entry from an untracked region: the true call path
                # passed through unencoded code, so the caller is the
                # merged ``<untracked>`` pseudo-function (the engine
                # pushes the boundary ccStack entry Algorithm 1 needs).
                caller_id = UNTRACKED_FUNCTION
                lasti = 0
            else:
                parent = frame.f_back
                if self._live_frames:
                    if parent is not self._live_frames[-1]:
                        caller_id = self._function_id(
                            self._live_frames[-1].f_code
                        )
                    else:
                        caller_id = self._function_id(parent.f_code)
                    lasti = parent.f_lasti if parent is not None else 0
                else:
                    caller_id = ROOT_FUNCTION
                    lasti = 0
            callee_id = self._function_id(frame.f_code)
            kind = _TRACKED
            if caller_id != UNTRACKED_FUNCTION:
                site = self._static_site.get((caller_id, callee_id))
                if site is not None:
                    self._emit_targeted(frame, site, caller_id, callee_id, kind)
                    return
        elif in_region:
            # Interior of an untracked region: zero engine events.  This
            # is the tracer-side saving of targeted mode — with per-code
            # DISABLE (sys.monitoring) or binary patching the
            # interpreter would not even invoke the hook here.
            self._live_frames.append(frame)
            kinds.append(_REGION_INNER)
            self.suppressed_events += 1
            return
        else:
            # Departure into untracked code: one boundary event opens
            # the region, attributed to the real call site in the
            # tracked caller; everything beneath it is suppressed.
            if self._live_frames:
                top = self._live_frames[-1]
                caller_id = self._function_id(top.f_code)
                parent = frame.f_back
                lasti = parent.f_lasti if parent is top else 0
            else:
                caller_id = ROOT_FUNCTION
                lasti = 0
            callee_id = UNTRACKED_FUNCTION
            kind = _REGION_OPEN
        self._emit_targeted(
            frame,
            self._callsite_id(caller_id, lasti),
            caller_id,
            callee_id,
            kind,
        )

    def _emit_targeted(
        self,
        frame: FrameType,
        callsite: int,
        caller_id: int,
        callee_id: int,
        kind: int,
    ) -> None:
        """Common tail of every event-emitting targeted call path."""
        self._columns.push_call(0, callsite, caller_id, callee_id)
        self._live_frames.append(frame)
        self._frame_kinds.append(kind)
        if self.sample_every:
            self._calls_since_sample += 1
            if self._calls_since_sample >= self.sample_every:
                self._calls_since_sample = 0
                self._record_sample()
        if len(self._columns) >= self._buffer_limit:
            self.flush()

    def _on_return(self, frame: FrameType) -> None:
        if not self._live_frames:
            return
        if self._live_frames[-1] is not frame:
            return  # return of an untracked frame
        self._live_frames.pop()
        if self._frame_kinds:
            if self._frame_kinds.pop() == _REGION_INNER:
                self.suppressed_events += 1
                return
        self._columns.push_return(0)
        if len(self._columns) >= self._buffer_limit:
            self.flush()

    # ------------------------------------------------------------------
    # sampling / decoding
    # ------------------------------------------------------------------
    def sample(self) -> CollectedSample:
        """Record the current context id + ccStack (from traced code)."""
        return self._record_sample()

    def _record_sample(self) -> CollectedSample:
        from ..core.events import SampleEvent

        self.flush()
        self._in_engine = True
        try:
            sample = self.engine.on_sample(SampleEvent(thread=0))
        finally:
            self._in_engine = False
        self.samples.append(sample)
        self.sample_weights.append(self._next_weight())
        return sample

    def _next_weight(self) -> float:
        """The weight of the sample being recorded right now."""
        if not self.wall_time:
            return 1.0
        now = time.perf_counter()
        previous = self._last_sample_time
        self._last_sample_time = now
        return now - previous if previous is not None else 0.0

    def decode(self, sample: CollectedSample) -> CallingContext:
        """Decode a sample back into the full Python call path."""
        self.flush()
        self._in_engine = True
        try:
            return self.engine.decoder().decode(sample)
        finally:
            self._in_engine = False

    def expected_context(self) -> CallingContext:
        """The engine's shadow-stack oracle for the current point."""
        self.flush()
        self._in_engine = True
        try:
            return self.engine.expected_context(0)
        finally:
            self._in_engine = False

    def format_context(self, context: CallingContext) -> str:
        """Render a decoded context with real function names."""
        parts = []
        for step in context.steps:
            info = self._function_names.get(step.function)
            name = info.name if info else "fn%d" % step.function
            if step.count:
                name += "*%d" % (step.count + 1)
            parts.append(name)
        return " -> ".join(parts)

    def name_of(self, function_id: int) -> str:
        """The traced name of a function id, with an ``fnN`` fallback."""
        info = self._function_names.get(function_id)
        return info.name if info is not None else "fn%d" % function_id

    def name_resolver(self) -> Callable[[int], str]:
        """A name resolver for the profiling exporters (`repro.prof`)."""
        from ..prof import default_names

        def resolve(function_id: int) -> str:
            info = self._function_names.get(function_id)
            if info is not None:
                return info.name
            return default_names(function_id)

        return resolve

    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Trace one callable and return its result."""
        with self:
            return fn(*args, **kwargs)

    @property
    def num_functions(self) -> int:
        return self._next_function - 1

    @property
    def num_callsites(self) -> int:
        return self._next_callsite - 1
