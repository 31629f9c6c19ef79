"""DACCE over live Python execution.

The paper instruments x86 binaries; this frontend instruments the Python
interpreter itself through ``sys.setprofile``, mapping code objects to
function ids and (caller function, bytecode offset) pairs to call
sites.  Every Python call/return drives the same :class:`DacceEngine`
used by the synthetic substrate, so real programs get real dynamic
calling-context encoding: ids stay compact, recursion lands on the
ccStack, re-encoding adapts to the program's call mix, and any collected
sample decodes back to the exact Python call path.

The profile hook is one closure per tracer mode (untargeted or
targeted), built once by :meth:`PythonDacceTracer._make_hook`.  Per
call it does one identity-keyed code-cache probe, one per-caller
call-site probe and four integer stores into the event slab.  Code
objects are classified (package filter, targeted-plan disposition,
function id) once, on their first call: CPython 3.11 does not cache a
code object's hash, so every code-keyed dict probe rehashes its bytecode
and constants.

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
from ..core.events import EV_CALL, EV_RETURN, SampleEvent

#: Function id reserved for the tracing root (the ``main`` node).
ROOT_FUNCTION = 0

#: Targeted-mode shadow-frame kinds: an in-plan frame, the frame that
#: opened an untracked region (its call/return cross the boundary), and
#: frames entirely inside such a region (zero engine events).
_TRACKED = 0
_REGION_OPEN = 1
_REGION_INNER = 2

#: The tracer never traces the repro package itself: the frames of its
#: own entry points (``sample``, ``decode``) run under the profile hook
#: until the engine work inside them detaches it.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Code-cache function id of code the tracer never traces: the repro
#: package and ``<frozen`` stdlib modules.
_SKIP = -1

#: The one sample request the tracer hands the engine (immutable).
_SAMPLE = SampleEvent(thread=0)

#: A code-cache entry: ``(code, function id, call sites, static sites)``.
#: The strong reference to the code object keeps its ``id()`` from being
#: reused while the entry lives.  ``call sites`` maps the function's
#: bytecode offsets to call-site ids when it is the caller; ``static
#: sites`` maps callee ids to the seeded static call site (targeted mode).
_Entry = Tuple[Optional[CodeType], int, Dict[int, int], Dict[int, int]]


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

    The profile hook is built once per tracer (:meth:`_make_hook`).  A
    code object is classified on its first call and found by identity
    after that; the caller is the top of a shadow stack of cache
    entries, and events go straight into a column slab that reaches the
    engine in batches.

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
        # code-cache probe; a real deployment (sys.monitoring's per-code
        # DISABLE, or binary patching as in the paper) would also skip
        # the callback itself.
        self.targeted = targeted
        self._plan_fns: Optional[set] = None
        self.skipped_code_objects = 0
        self.suppressed_events = 0
        #: Plan disposition by code *equality*, so equal code objects are
        #: classified (and counted in ``skipped_code_objects``) once.
        self._disposition: Dict[CodeType, bool] = {}
        self._frame_kinds: List[int] = []
        #: Caller id -> {callee id: seeded static call site}.
        self._static_sites: Dict[int, Dict[int, int]] = {}
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
                sites = self._static_sites.setdefault(edge.caller, {})
                site = sites.get(edge.callee)
                if site is None or edge.callsite < site:
                    sites[edge.callee] = edge.callsite
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
        #: Caller id -> {bytecode offset: call site}: the hook's view of
        #: ``_callsites``, one dict per caller function, so a call-site
        #: probe builds no tuple.
        self._caller_sites: Dict[int, Dict[int, int]] = {}
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
        #: Code-cache entries of ``_live_frames``, parallel to it: the
        #: top entry is the caller of the next call, with no lookup.
        self._live_entries: List[_Entry] = []
        #: ``id(code)`` -> code-cache entry; filled by :meth:`_classify`
        #: on a code object's first call and kept for the tracer's life.
        self._code_cache: Dict[int, _Entry] = {}
        self._active = False
        self._calls_since_sample = 0
        self._base_frame: Optional[FrameType] = None
        #: Pending events as a preallocated struct-of-arrays slab,
        #: drained through the engine's columnar fast lane.
        #: The profile hook stores ``op``/``callsite``/``caller``/
        #: ``callee`` straight into the arrays and bumps the length; the
        #: slab only ever holds thread 0 and kind 0, so those columns stay
        #: zero.  It flushes at ``_buffer_limit`` (the capacity, fixed
        #: when the hook is built), so a store never runs past the end.
        #: Anything that observes engine state (sampling, decoding, the
        #: shadow-stack oracle, ``stop``) flushes first, so observable
        #: behaviour is unchanged.  ``clear()`` keeps the storage, so a
        #: long trace never reallocates the slab.
        self._buffer_limit = 512
        self._columns = EventColumns.with_capacity(self._buffer_limit)
        self._hook = self._make_hook()

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

    def _classify(self, code: CodeType) -> _Entry:
        """Cache and return the code-cache entry of ``code``.

        Runs once per code object, on its first call: the package and
        ``<frozen`` filter, the targeted-plan disposition, then
        :meth:`_function_id` (keyed by code equality, so equal code
        objects share one id).  Out-of-plan code never gets a function
        id or call-site allocation.
        """
        filename = code.co_filename
        if filename.startswith(_PACKAGE_ROOT) or filename.startswith("<frozen"):
            function = _SKIP  # never trace the tracer/engine machinery itself
        elif self._plan_fns is None:
            function = self._function_id(code)
        else:
            tracked = self._disposition.get(code)
            if tracked is None:
                static_id = self._static_function_id(code)
                tracked = static_id is not None and static_id in self._plan_fns
                self._disposition[code] = tracked
                if not tracked:
                    self.skipped_code_objects += 1
            function = self._function_id(code) if tracked else UNTRACKED_FUNCTION
        entry = self._entry(code, function)
        self._code_cache[id(code)] = entry
        return entry

    def _entry(self, code: Optional[CodeType], function: int) -> _Entry:
        return (
            code,
            function,
            self._caller_sites.setdefault(function, {}),
            self._static_sites.get(function, {}),
        )

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
        sys.setprofile(self._hook)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._active = False
        # Synthetically unwind frames that are still live (the traced
        # call may terminate via an exception caught above us).
        while self._live_frames:
            self._live_frames.pop()
            self._live_entries.pop()
            if self._frame_kinds and self._frame_kinds.pop() == _REGION_INNER:
                continue
            self._columns.push_return(0)
        self.flush()
        self._base_frame = None

    def flush(self) -> None:
        """Drain buffered events into the engine's columnar fast lane."""
        self._detached(self._drain)

    def _drain(self) -> None:
        cols = self._columns
        if len(cols):
            try:
                self.engine.process_columns(cols)
            finally:
                cols.clear()

    def _detached(self, fn: Callable[[], Any]) -> Any:
        """Run engine work ``fn()`` with this tracer's profile hook off.

        Every tracer→engine entry made from traced code goes through
        here, so engine calls never pay an interpreter round-trip into
        the hook; the hook is restored even when ``fn`` raises.  Inside
        the hook callback itself CPython already delivers no profile
        events, so the hook drains and samples without this.  A profile
        function that is not this tracer's hook is left in place.
        """
        hook = sys.getprofile()
        if hook is not self._hook:
            return fn()
        sys.setprofile(None)
        try:
            return fn()
        finally:
            sys.setprofile(hook)

    # ------------------------------------------------------------------
    # the profile hook
    # ------------------------------------------------------------------
    def _make_hook(self) -> Callable[[FrameType, str, Any], None]:
        """Build the profile hook for this tracer's mode (once, at init).

        Per call: a code-cache probe by ``id(code)`` (a miss classifies
        the code object), the caller's entry from the top of
        ``_live_entries``, a per-caller ``lasti -> site`` probe (a miss
        allocates through :meth:`_callsite_id`), and direct column
        stores.  A call whose parent is not the top live frame (a
        callback from C, or from skipped code) attaches to the top frame,
        which is also the caller when the parent *is* the top frame.
        c_call / c_return / exception events carry no Python frame
        transition to encode.
        """
        cache_get = self._code_cache.get
        classify = self._classify
        callsite_id = self._callsite_id
        live = self._live_frames
        entries = self._live_entries
        kinds = self._frame_kinds
        root = self._entry(None, ROOT_FUNCTION)
        cols = self._columns
        op = cols.op
        callsites = cols.callsite
        callers = cols.caller
        callees = cols.callee
        limit = self._buffer_limit
        flush = self._drain
        sample = self._record_sample

        def hook(frame: FrameType, event: str, arg: Any) -> None:
            if event == "call":
                code = frame.f_code
                entry = cache_get(id(code)) or classify(code)
                callee = entry[1]
                if callee == _SKIP:
                    return
                if live:
                    top = entries[-1]
                    parent = frame.f_back
                    lasti = parent.f_lasti if parent is not None else 0
                else:
                    top = root
                    lasti = 0
                sites = top[2]
                site = sites.get(lasti)
                if site is None:
                    site = sites[lasti] = callsite_id(top[1], lasti)
                i = cols._n
                op[i] = EV_CALL
                callsites[i] = site
                callers[i] = top[1]
                callees[i] = callee
                cols._n = i + 1
                live.append(frame)
                entries.append(entry)
                if self.sample_every:
                    self._calls_since_sample += 1
                    if self._calls_since_sample >= self.sample_every:
                        self._calls_since_sample = 0
                        sample()  # flushes: the slab is empty after it
                        return
                if i + 1 >= limit:
                    flush()
            elif event == "return":
                if not live or live[-1] is not frame:
                    return  # the return of an untraced frame
                live.pop()
                entries.pop()
                i = cols._n
                op[i] = EV_RETURN
                callsites[i] = 0
                callers[i] = 0
                callees[i] = 0
                cols._n = i + 1
                if i + 1 >= limit:
                    flush()

        if self._plan_fns is None:
            return hook
        untracked = self._entry(None, UNTRACKED_FUNCTION)

        def targeted_hook(frame: FrameType, event: str, arg: Any) -> None:
            if event == "call":
                code = frame.f_code
                entry = cache_get(id(code)) or classify(code)
                callee = entry[1]
                if callee == _SKIP:
                    return
                in_region = bool(kinds) and kinds[-1] != _TRACKED
                if callee != UNTRACKED_FUNCTION:
                    kind = _TRACKED
                    if in_region:
                        # Re-entry from an untracked region: the true
                        # call path passed through unencoded code, so the
                        # caller is the merged ``<untracked>``
                        # pseudo-function (the engine pushes the boundary
                        # ccStack entry Algorithm 1 needs).
                        top = untracked
                        lasti = 0
                    elif live:
                        top = entries[-1]
                        parent = frame.f_back
                        lasti = parent.f_lasti if parent is not None else 0
                    else:
                        top = root
                        lasti = 0
                    # A tracked pair takes its seeded static site.
                    site = top[3].get(callee)
                elif in_region:
                    # Interior of an untracked region: zero engine
                    # events.  This is the tracer-side saving of targeted
                    # mode — with per-code DISABLE (sys.monitoring) or
                    # binary patching the interpreter would not even
                    # invoke the hook here.
                    live.append(frame)
                    entries.append(entry)
                    kinds.append(_REGION_INNER)
                    self.suppressed_events += 1
                    return
                else:
                    # Departure into untracked code: one boundary event
                    # opens the region, attributed to the real call site
                    # in the tracked caller; everything beneath it is
                    # suppressed.
                    kind = _REGION_OPEN
                    if live:
                        top = entries[-1]
                        parent = frame.f_back
                        lasti = parent.f_lasti if parent is live[-1] else 0
                    else:
                        top = root
                        lasti = 0
                    site = None
                if site is None:
                    sites = top[2]
                    site = sites.get(lasti)
                    if site is None:
                        site = sites[lasti] = callsite_id(top[1], lasti)
                i = cols._n
                op[i] = EV_CALL
                callsites[i] = site
                callers[i] = top[1]
                callees[i] = callee
                cols._n = i + 1
                live.append(frame)
                entries.append(entry)
                kinds.append(kind)
                if self.sample_every:
                    self._calls_since_sample += 1
                    if self._calls_since_sample >= self.sample_every:
                        self._calls_since_sample = 0
                        sample()  # flushes: the slab is empty after it
                        return
                if i + 1 >= limit:
                    flush()
            elif event == "return":
                if not live or live[-1] is not frame:
                    return  # the return of an untraced frame
                live.pop()
                entries.pop()
                if kinds.pop() == _REGION_INNER:
                    self.suppressed_events += 1
                    return
                i = cols._n
                op[i] = EV_RETURN
                callsites[i] = 0
                callers[i] = 0
                callees[i] = 0
                cols._n = i + 1
                if i + 1 >= limit:
                    flush()

        return targeted_hook

    # ------------------------------------------------------------------
    # sampling / decoding
    # ------------------------------------------------------------------
    def sample(self) -> CollectedSample:
        """Record the current context id + ccStack (from traced code)."""
        return self._detached(self._record_sample)

    def _record_sample(self) -> CollectedSample:
        self._drain()
        sample = self.engine.on_sample(_SAMPLE)
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

        def decode() -> CallingContext:
            self._drain()
            return self.engine.decoder().decode(sample)

        return self._detached(decode)

    def expected_context(self) -> CallingContext:
        """The engine's shadow-stack oracle for the current point."""

        def expected() -> CallingContext:
            self._drain()
            return self.engine.expected_context(0)

        return self._detached(expected)

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
