"""DACCE over live Python execution.

The paper instruments x86 binaries; this frontend instruments the Python
interpreter itself through ``sys.setprofile``, mapping code objects to
function ids and (caller function, bytecode offset) pairs to call
sites.  Every Python call/return drives the same :class:`DacceEngine`
used by the synthetic substrate, so real programs get real dynamic
calling-context encoding: ids stay compact, recursion lands on the
ccStack, re-encoding adapts to the program's call mix, and any collected
sample decodes back to the exact Python call path.

The engine has two drivers over one compiled
:class:`~repro.core.fastpath.FastPathTable`: ``columnar_kernel``, which
``DacceEngine.process_columns`` runs for column sources (the synthetic
substrate), and the profile hook here, for live Python.  The hook is one
closure built once per tracer by :meth:`PythonDacceTracer._make_hook`,
and it encodes at the call, as the paper's patched call site does
(Section 3): a call site is patched on its first call, and from then on
a call through it is two integer-keyed dict probes (the caller's
``lasti`` and the callee's ``id(code)``) and the kernel's work for that
row, done inline — ``id += delta`` over an encoded edge, a ccStack push
over a back edge or across the targeted boundary.  Whatever the patch
cannot handle goes to the engine's general path as one event.  Code
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

from ..core.ccstack import UNTRACKED_CALLSITE, UNTRACKED_FUNCTION, CcEntry, CcStack
from ..core.context import CallingContext, CollectedSample
from ..core.engine import DacceConfig, DacceEngine, SampleHook
from ..core.errors import TraceError
from ..core.events import CallEvent, CallKind, ReturnEvent, SampleEvent
from ..core.fastpath import FastPathTable, Frame, _Action, hand_back

#: Function id reserved for the tracing root (the ``main`` node).
ROOT_FUNCTION = 0

#: The tracer never traces the repro package itself: the frames of its
#: own entry points (``sample``, ``decode``) run under the profile hook
#: until the engine work inside them detaches it.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Code-cache function id of code the tracer never traces: the repro
#: package and ``<frozen`` stdlib modules.
_SKIP = -1

#: The requests the tracer hands the engine's general path (immutable).
_SAMPLE = SampleEvent(thread=0)
_RETURN = ReturnEvent(thread=0)

#: A countdown that never runs out (no sampling of that kind).
_NEVER = sys.maxsize


def _nothing() -> None:
    """Engine work that only needs the engine state current."""


#: A patch: what one patched call site does for one callee.  Slot 0 is
#: the kind, slot 1 the callee's code-cache entry; the event kinds go on
#: with the callee id, the call site and the caller id (for a miss), then
#: the kind's data:
#:
#: * ``_ENCODED``: encoding delta, the ``CallEdge``, callee tail-calls?,
#:   and the frame action (``ID``, or ``NONE`` for delta 0);
#: * ``_BACK``: the table's ``BackEdgeEntry``;
#: * ``_BOUNDARY``: the action (``BOUNDARY_DEP``/``BOUNDARY_RE``) and the
#:   tracked end saved as the ccStack target;
#: * ``_UNTRACKED``: nothing more.
#:
#: ``_SKIP_CALL`` (code the tracer never traces) and ``_INNER`` (targeted
#: mode: a call inside an untracked region) make no engine event.
_Patch = Tuple[Any, ...]
_ENCODED = 0
_BACK = 1
_BOUNDARY = 2
_UNTRACKED = 3
_SKIP_CALL = 4
_INNER = 5

#: A code-cache entry: ``(code, function id, call sites, static sites,
#: patches)``.  The strong reference to the code object keeps its
#: ``id()`` from being reused while the entry lives.  ``call sites`` maps
#: the function's bytecode offsets to call-site ids when it is the
#: caller; ``static sites`` maps callee ids to the seeded static call
#: site (targeted mode); ``patches`` maps a bytecode offset to ``{id(callee
#: code): patch}`` — the function's patched call sites.
_Entry = Tuple[
    Optional[CodeType],
    int,
    Dict[int, int],
    Dict[int, int],
    Dict[int, Dict[int, _Patch]],
]

#: One shadow-stack record per live traced frame: the Python frame and
#: its code-cache entry, followed by the engine's
#: :data:`~repro.core.fastpath.Frame` fields ``(function, call site,
#: restore id, ccStack checkpoint, action, kind, chain)``, so
#: ``record[2:]`` is the engine frame for the call.  Action ``None``
#: marks a record with no engine event (targeted mode: the interior of
#: an untracked region).
_Record = Tuple[Any, ...]


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

    The profile hook is built once per tracer (:meth:`_make_hook`) and
    encodes each call itself: a code object is classified on its first
    call, a call site is patched on its first call per callee, and the
    hook keeps the engine's id register, ccStack view and counters in
    its own locals between events.  Anything that reads engine state
    from outside (:meth:`sample`, :meth:`decode`, :meth:`flush`, ``stop``)
    first hands them back.

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
        telemetry: Optional[Any] = None,
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
            self.engine = DacceEngine(
                config=config, targeted=targeted, telemetry=telemetry
            )
        else:
            self.engine = DacceEngine(
                root=ROOT_FUNCTION, config=config, telemetry=telemetry
            )
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
        #: Caller id -> {bytecode offset: call site}, one dict per caller
        #: function, so a call-site probe builds no tuple.
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
        #: ``id(code)`` -> code-cache entry; filled by :meth:`_classify`
        #: on a code object's first call and kept for the tracer's life.
        self._code_cache: Dict[int, _Entry] = {}
        self._active = False
        self._calls_since_sample = 0
        #: One record per live traced frame, bottom first (``_Record``).
        self._stack: List[_Record] = []
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
            {},
        )

    def _callsite_id(self) -> int:
        """Allocate the next call-site id (the caller's ``_caller_sites``
        dict keeps it)."""
        site = self._next_callsite
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
        self.engine.fastpath.hook_runs += 1
        sys.setprofile(self._hook)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._active = False
        # Synthetically unwind frames that are still live (the traced
        # call may terminate via an exception caught above us).
        self._unwind()

    def flush(self) -> None:
        """Hand the hook's encoding state back to the engine.

        Afterwards the engine's statistics, counters and thread state
        are current; while tracing, the hook takes them up again on
        its next event.
        """
        self._detached(_nothing)

    def live_frames(self) -> List[Tuple[FrameType, int]]:
        """Every live traced frame with the function id it was entered
        under, bottom first.

        In targeted mode an out-of-plan frame carries
        ``UNTRACKED_FUNCTION``.
        """
        return [(record[0], record[1][1]) for record in self._stack]

    # ------------------------------------------------------------------
    # the profile hook
    # ------------------------------------------------------------------
    def _make_hook(self) -> Callable[[FrameType, str, Any], None]:
        """Build the profile hook and its engine-state handlers (once).

        **Patches.**  A call is looked up in the caller's patch map:
        its entry's ``lasti -> {id(callee code) -> patch}`` (the root
        and, in targeted mode, the ``<untracked>`` region have one map
        each, at offset 0).  A patch restates the ``FastPathTable``
        entry for ``(site, callee)`` together with the callee's cache
        entry, so a hit does exactly what ``columnar_kernel`` does for
        that row, inline.  A patch-map miss (the site's first call to
        this callee, or a call whose parent frame is not the top live
        frame) runs :func:`resolve`: it classifies the callee and
        resolves the call site as the front end always has, then
        probes ``entries``, ``back_entries`` and (targeted mode) the
        boundary rule.  A probe hit installs the patch and carries on
        inline; a probe miss sends that one event to the general path.
        Patches are valid while ``engine._ensure_fastpath()`` returns
        the table they were made from; a new table clears every map.

        **Entered state.**  Between events the hook holds the kernel's
        locals: the id register, the ccStack checkpoint, the ccStack
        view (bound lazily), the folded counters and one calls
        countdown for the engine's sample hook, ``sample_every`` and
        the adaptive window.  :func:`leave` ends the stay as the kernel
        does, through :func:`~repro.core.fastpath.hand_back`.  Every miss, sample
        and trigger check leaves first and runs the engine with the hook
        detached (:func:`detached`); so do :meth:`flush`, :meth:`sample`,
        :meth:`decode`, :meth:`expected_context` and :meth:`stop`.  The
        next call or return enters again (:func:`enter`), re-reading
        ``state.frames``, ``state.ccstack`` and the table, which a
        committed re-encoding pass and a resync replace; so a run of misses
        pays one leave and no entry between them.

        **One shadow stack.**  ``self._stack`` holds a record per live
        traced frame (``_Record``), and a record that made an engine
        event carries that event's engine frame, in the layout every
        driver pushes, as ``record[2:]``.  The records below
        ``mirrored`` are in ``state.frames`` or made no engine event;
        the ones above are the stay's own, and :func:`leave` extends
        ``state.frames`` with their engine frames.  So a return pops
        one of the stay's records as the kernel pops the frame it
        pushed, and an older one as the kernel returns a frame it found
        in ``state.frames``.  A call whose caller is not the engine's
        top function deoptimises, as the kernel's ``top_fn == cr`` test
        does; the two only disagree after a ``recover`` fault, so it is
        checked when the hook enters and when a frame in
        ``state.frames`` returns.

        A call whose parent is not the top live frame (a callback from
        C, or from skipped code) attaches to the top frame, which is
        also the caller when the parent *is* the top frame.  c_call /
        c_return / exception events carry no Python frame transition to
        encode.
        """
        tracer = self
        engine = self.engine
        # Fixed for the engine's life.
        warm = engine._warm
        stats = engine.stats
        observe = engine._h_ccstack_depth.observe if engine._obs else None
        tracked = engine._targeted_fns
        cache_get = self._code_cache.get
        classify = self._classify
        callsite_id = self._callsite_id
        plan = self._plan_fns
        getprofile = sys.getprofile
        setprofile = sys.setprofile
        root = self._entry(None, ROOT_FUNCTION)
        region = self._entry(None, UNTRACKED_FUNCTION)
        root_patches = root[4].setdefault(0, {})
        region_patches = region[4].setdefault(0, {})
        no_patches: Dict[int, _Patch] = {}
        #: Every patch map that holds a patch (cleared on a new table).
        patched: List[Dict[int, _Patch]] = []
        stack = self._stack
        stack_append = stack.append
        stack_pop = stack.pop
        act_none = _Action.NONE
        act_id = _Action.ID
        act_push = _Action.PUSH
        act_cmp = _Action.COMPRESS
        act_disc = _Action.DISCOVERY_PUSH
        act_unt = _Action.UNTRACKED
        act_dep = _Action.BOUNDARY_DEP
        act_re = _Action.BOUNDARY_RE
        kind_normal = CallKind.NORMAL

        # Entered state (see the docstring): bound by ``enter``.
        entered = False
        desync = False
        #: ``stack[:mirrored]`` is in ``state.frames`` or made no event.
        mirrored = 0
        state: Any = None
        frames: List[Frame] = []
        cur_id = 0
        # The ccStack checkpoint ``(physical length, top count)``.
        cc = (0, 0)
        table: Optional[FastPathTable] = None
        entries_get: Any = None
        back_get: Any = None
        mark_id = 0
        prof: Optional[SampleHook] = None
        every = 0
        # Calls countdown: ``left`` runs down from ``limit0`` (the nearer
        # of the engine's sample countdown ``p_at`` and the tracer's
        # ``s_at``); ``limit0 - left`` is the calls since ``enter``, and
        # the adaptive window is full when ``left <= t_left``.
        p_at = s_at = limit0 = left = t_left = 0
        # The ccStack while bound (``CcStack.kernel_view``).
        ccs: Optional[CcStack] = None
        ents: List[CcEntry] = []
        depth = max_depth = s_pop = s_dcmp = 0
        # The stay's engine counters, as ``columnar_kernel`` keeps them.
        rets = id_updates = tcstack = 0
        pushes = compressions = pops = bpushes = bpops = untracked = 0

        def enter() -> None:
            """Take the engine's state up into the hook's locals."""
            nonlocal entered, desync, state, frames, cur_id, cc, table
            nonlocal entries_get, back_get, mark_id, prof, every
            nonlocal p_at, s_at, limit0, left, t_left
            state = engine._threads[0]
            frames = state.frames
            cur_id = state.id_value
            cc = state.ccstack.saved_state()
            current = engine._ensure_fastpath()
            if current is not table:
                for patches in patched:
                    patches.clear()
                patched.clear()
                table = current
                entries_get = current.entries.get
                back_get = current.back_entries.get
                mark_id = current.dictionary.max_id + 1
            prof = engine._prof
            p_at = prof.countdown if prof is not None else _NEVER
            every = tracer.sample_every
            s_at = every - tracer._calls_since_sample if every else _NEVER
            limit0 = left = p_at if p_at < s_at else s_at
            t_left = (
                limit0
                - engine.config.adaptive.check_interval
                + engine._window.calls
            )
            desync = frames[-1][0] != (
                stack[-1][1][1] if stack else ROOT_FUNCTION
            )
            entered = True

        def leave() -> None:
            """Hand the hook's locals back to the engine."""
            nonlocal entered, ccs, mirrored, rets, id_updates, tcstack
            nonlocal pushes, compressions, pops, bpushes, bpops, untracked
            if not entered:
                return
            entered = False
            # The records above ``mirrored`` that made an engine event
            # hold the stay's frames.
            frames.extend([record[2:] for record in stack[mirrored:] if record[6] is not None])
            mirrored = len(stack)
            calls = limit0 - left
            if prof is not None:
                prof.countdown = p_at - calls
            if every:
                tracer._calls_since_sample += calls
            hand_back(
                state, cur_id, ccs, depth, max_depth, s_pop, s_dcmp,
                engine._flush_fastpath_counters, calls, rets, id_updates, tcstack, pushes,
                compressions, pops, bpushes, bpops, untracked,
            )
            ccs = None
            rets = id_updates = tcstack = 0
            pushes = compressions = pops = bpushes = bpops = untracked = 0

        def bind() -> None:
            """Take the current ccStack into locals (first use per stay)."""
            nonlocal ccs, ents, depth, max_depth, s_pop, s_dcmp
            ccs = state.ccstack
            ents, depth, max_depth = ccs.kernel_view()
            s_pop = s_dcmp = 0

        def detached(fn: Callable[..., Any], *args: Any) -> Any:
            """Leave, then run engine work ``fn(*args)`` with this
            tracer's profile hook off.

            Every tracer→engine entry goes through here, misses
            included, so engine calls never run under the hook, even
            those the hook makes itself (a sample callback sees
            ``sys.getprofile()`` as ``None``).  The hook is restored even
            when ``fn`` raises; a profile function that is not this
            tracer's hook is left in place.  The hook enters again on
            its next event.
            """
            installed = getprofile() is hook
            if installed:
                setprofile(None)
            leave()
            try:
                return fn(*args)
            finally:
                if installed:
                    setprofile(hook)

        def send_call(record: _Record, event: CallEvent) -> None:
            """Push a call's record and hand the call to the general
            path, which pushes its frame (run :func:`detached`)."""
            nonlocal mirrored
            stack_append(record)
            mirrored = len(stack)
            engine.fastpath.misses += 1
            try:
                engine.on_event(event)
            except BaseException:
                # The call never started: its frame unwinds unprofiled.
                stack_pop()
                mirrored = len(stack)
                raise

        def general_call(
            frame: FrameType, entry: _Entry, site: int, cr: int, ce: int
        ) -> None:
            """Send one call to the general path, then count it towards
            ``sample_every``."""
            # The general path's frame is the one in ``state.frames``;
            # the record's own fields only mark it as made an event.
            detached(
                send_call,
                (frame, entry, ce, site, 0, (0, 0), act_none, kind_normal, ()),
                CallEvent(0, site, cr, ce),
            )
            period = tracer.sample_every
            if period:
                tracer._calls_since_sample += 1
                if tracer._calls_since_sample >= period:
                    detached(take_sample)

        def fire_profile_sample() -> None:
            current = engine._prof
            if current is not None:
                engine._fire_profile_sample(current, 0)

        def take_sample() -> None:
            tracer._calls_since_sample = 0
            tracer._record_sample()

        def due_call() -> None:
            """The calls countdown ran out: an engine and/or tracer sample."""
            calls = limit0 - left
            take = calls >= s_at
            if calls >= p_at:
                detached(fire_profile_sample)
            if take:
                detached(take_sample)

        def compile_patch(entry: _Entry, site: int, cr: int, ce: int) -> Optional[_Patch]:
            """The patch for ``(site, ce)`` under the current table, or
            ``None`` where the kernel would deoptimise."""
            key = (site, ce)
            found = entries_get(key)
            if found is not None:
                delta = found[0]
                return (
                    _ENCODED, entry, ce, site, cr, delta, found[1], found[2],
                    act_id if delta else act_none,
                )
            back = back_get(key)
            if back is not None:
                return (_BACK, entry, ce, site, cr, back)
            if tracked is None:
                return None
            cr_in = cr in tracked
            ce_in = ce in tracked
            if cr_in and ce_in:
                return None  # a tracked edge the table lacks
            if cr_in:
                return (_BOUNDARY, entry, ce, site, cr, act_dep, cr)
            if ce_in:
                return (_BOUNDARY, entry, ce, site, cr, act_re, ce)
            return (_UNTRACKED, entry, ce, site, cr)

        def resolve(frame: FrameType) -> Optional[_Patch]:
            """Resolve a call the patch maps did not answer.

            Returns the patch to apply inline, or ``None`` when the call
            was handled here (no event, or the general path).  The patch
            is installed in the map the fast lookup would probe.
            """
            code = frame.f_code
            key = id(code)
            entry = cache_get(key) or classify(code)
            callee = entry[1]
            parent = frame.f_back
            patches: Optional[Dict[int, _Patch]]
            if stack:
                top = stack[-1]
                caller = top[1]
                in_region = caller[1] == UNTRACKED_FUNCTION
                lasti = parent.f_lasti if parent is not None else 0
                if in_region:
                    patches = region_patches
                elif parent is top[0]:
                    patches = caller[4].get(lasti)
                    if patches is None:
                        patches = caller[4][lasti] = {}
                else:
                    patches = None
            else:
                caller = root
                in_region = False
                lasti = 0
                patches = root_patches
            if callee == _SKIP:
                patch: Optional[_Patch] = (_SKIP_CALL, entry)
            elif in_region and callee == UNTRACKED_FUNCTION:
                # Interior of an untracked region: zero engine events.
                # This is the tracer-side saving of targeted mode — with
                # per-code DISABLE (sys.monitoring) or binary patching
                # the interpreter would not even invoke the hook here.
                patch = (_INNER, entry)
            else:
                site = None
                if plan is not None:
                    if callee != UNTRACKED_FUNCTION:
                        if in_region:
                            # Re-entry from an untracked region: the true
                            # call path passed through unencoded code, so
                            # the caller is the merged ``<untracked>``
                            # pseudo-function (the engine pushes the
                            # boundary ccStack entry Algorithm 1 needs).
                            caller = region
                            lasti = 0
                        # A tracked pair takes its seeded static site.
                        site = caller[3].get(callee)
                    elif stack and parent is not top[0]:
                        # A departure is attributed to the real call
                        # site in the tracked caller, or to offset 0.
                        lasti = 0
                if site is None:
                    sites = caller[2]
                    site = sites.get(lasti)
                    if site is None:
                        site = sites[lasti] = callsite_id()
                patch = compile_patch(entry, site, caller[1], callee)
                if patch is None or desync:
                    general_call(frame, entry, site, caller[1], callee)
                    return None
            if patches is not None:
                if not patches:
                    patched.append(patches)
                patches[key] = patch
            return patch

        def frame_return() -> None:
            """Return of a record ``state.frames`` holds: the kernel's
            return branch, or the general path."""
            nonlocal cur_id, cc, rets, id_updates, pops, bpops, s_pop, s_dcmp
            nonlocal depth, desync
            if len(frames) > 1:
                top_frame = frames[-1]
                act = top_frame[4]
                cc_pop = act is not act_id and act is not act_none and act is not act_unt
                if cc_pop and ccs is None:
                    bind()
                # Tail chains, discovery entries and a pop from an empty
                # ccStack (which the general path reports) deoptimise.
                if not top_frame[6] and act is not act_disc and (ents or not cc_pop):
                    frames.pop()
                    if act is act_id:
                        id_updates += 1
                    elif cc_pop:
                        top = ents[-1]
                        if top[3]:
                            top[3] -= 1
                            s_dcmp += 1
                        else:
                            ents.pop()
                            s_pop += 1
                        depth -= 1
                        if observe is not None:
                            observe(depth)
                        if act is act_push or act is act_cmp:
                            pops += 1
                        else:
                            bpops += 1
                    cur_id = top_frame[2]
                    cc = top_frame[3]
                    rets += 1
                    desync = frames[-1][0] != (
                        stack[-1][1][1] if stack else ROOT_FUNCTION
                    )
                    if left <= t_left:
                        detached(engine._maybe_check_triggers)
                    return
            engine.fastpath.misses += 1
            detached(engine.on_event, _RETURN)

        def hook(frame: FrameType, event: str, arg: Any) -> None:
            nonlocal cur_id, cc, left, rets, id_updates, tcstack, mirrored
            nonlocal pushes, compressions, pops, bpushes, bpops, untracked
            nonlocal depth, max_depth, s_pop, s_dcmp
            if event == "call":
                if not entered:
                    enter()
                try:
                    top = stack[-1]
                except IndexError:
                    patch = root_patches.get(id(frame.f_code))
                else:
                    caller = top[1]
                    parent = frame.f_back
                    if caller[1] == UNTRACKED_FUNCTION:
                        patch = region_patches.get(id(frame.f_code))
                    elif parent is top[0]:
                        patch = caller[4].get(parent.f_lasti, no_patches).get(
                            id(frame.f_code)
                        )
                    else:
                        patch = None
                if patch is None or desync:
                    patch = resolve(frame)
                    if patch is None:
                        return
                kind = patch[0]
                if not kind:  # _ENCODED
                    edge = patch[6]
                    if warm and not edge.invocations and edge.seeded:
                        stats.warmstart_handler_hits_avoided += 1
                    edge.invocations += 1
                    stack_append(
                        (frame, patch[1], patch[2], patch[3], cur_id, cc, patch[8], kind_normal, ())
                    )
                    delta = patch[5]
                    if delta:
                        cur_id += delta
                        id_updates += 1
                    if patch[7]:
                        tcstack += 1
                elif kind == _BACK:
                    # ``_push_unencoded`` inlined, as in the kernel.
                    if ccs is None:
                        bind()
                    back = patch[5]
                    ce = patch[2]
                    cs = patch[3]
                    n = len(ents)
                    if n:
                        top_entry = ents[-1]
                        top_count = top_entry[3]
                        repeat = (
                            top_entry[0] == cur_id
                            and top_entry[1] == cs
                            and top_entry[2] == ce
                        )
                    else:
                        top_count = 0
                        repeat = False
                    compress = repeat and back[2]
                    counters = back[1]
                    counters[0] += 1
                    if repeat:
                        counters[1] += 1
                    if compress:
                        top_entry[3] = top_count + 1
                        stack_append(
                            (frame, patch[1], ce, cs, cur_id, cc, act_cmp, kind_normal, ())
                        )
                        cc = (n, top_count + 1)
                        compressions += 1
                    else:
                        ents.append([cur_id, cs, ce, 0, False])
                        stack_append(
                            (frame, patch[1], ce, cs, cur_id, cc, act_push, kind_normal, ())
                        )
                        cc = (n + 1, 0)
                        pushes += 1
                    depth += 1
                    if depth > max_depth:
                        max_depth = depth
                    if observe is not None:
                        observe(depth)
                    cur_id = mark_id
                    edge = back[0]
                    if warm and not edge.invocations and edge.seeded:
                        stats.warmstart_handler_hits_avoided += 1
                    edge.invocations += 1
                    if back[3]:
                        tcstack += 1
                elif kind == _SKIP_CALL:
                    return
                elif kind == _INNER:
                    stack_append(
                        (frame, patch[1], UNTRACKED_FUNCTION, 0, 0, cc, None, kind_normal, ())
                    )
                    tracer.suppressed_events += 1
                    return
                elif kind == _BOUNDARY:
                    # A boundary crossing saves the context with the
                    # tracked end as the target.
                    if ccs is None:
                        bind()
                    n = len(ents)
                    stack_append(
                        (
                            frame, patch[1], patch[2], patch[3], cur_id, cc, patch[5],
                            kind_normal, (),
                        )
                    )
                    cc = (n + 1, 0)
                    ents.append([cur_id, UNTRACKED_CALLSITE, patch[6], 0, False])
                    depth += 1
                    if depth > max_depth:
                        max_depth = depth
                    if observe is not None:
                        observe(depth)
                    cur_id = mark_id
                    bpushes += 1
                else:
                    stack_append(
                        (frame, patch[1], patch[2], patch[3], cur_id, cc, act_unt, kind_normal, ())
                    )
                    untracked += 1
                left -= 1
                if left <= 0:
                    due_call()
            elif event == "return":
                try:
                    record = stack[-1]
                except IndexError:
                    return
                if record[0] is not frame:
                    return  # the return of an untraced frame
                if not entered:
                    enter()
                stack_pop()
                act = record[6]
                if len(stack) < mirrored:
                    # A record ``state.frames`` holds, or one with no event.
                    mirrored = len(stack)
                    if act is None:
                        tracer.suppressed_events += 1
                    else:
                        frame_return()
                    return
                if act is act_id:
                    id_updates += 1
                elif act is act_none:
                    pass
                elif act is None:
                    tracer.suppressed_events += 1
                    return
                elif act is not act_unt:
                    # A back-edge or boundary entry, on top by the
                    # checkpoint invariant.
                    if act is act_cmp:
                        ents[-1][3] -= 1
                        s_dcmp += 1
                        pops += 1
                    else:
                        ents.pop()
                        s_pop += 1
                        if act is act_push:
                            pops += 1
                        else:
                            bpops += 1
                    depth -= 1
                    if observe is not None:
                        observe(depth)
                cur_id = record[4]
                cc = record[5]
                rets += 1
                if left <= t_left:
                    detached(engine._maybe_check_triggers)

        def unwind() -> None:
            """Return every live frame through the hook, then leave."""
            nonlocal mirrored
            while stack:
                record = stack[-1]
                if record[6] is None:
                    stack_pop()
                    mirrored = min(mirrored, len(stack))
                else:
                    hook(record[0], "return", None)
            leave()
            # As ``process_columns`` does before it returns: one table
            # per committed dictionary, even if no event follows it.
            engine._ensure_fastpath()

        self._detached = detached
        self._unwind = unwind
        return hook

    # ------------------------------------------------------------------
    # sampling / decoding
    # ------------------------------------------------------------------
    def sample(self) -> CollectedSample:
        """Record the current context id + ccStack (from traced code)."""
        return self._detached(self._record_sample)

    def _record_sample(self) -> CollectedSample:
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
        return self._detached(lambda: self.engine.decoder().decode(sample))

    def expected_context(self) -> CallingContext:
        """The engine's shadow-stack oracle for the current point."""
        return self._detached(lambda: self.engine.expected_context(0))

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
