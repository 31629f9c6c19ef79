"""The DACCE runtime engine (Sections 3-5).

This is the reproduction's counterpart of ``dacce.so``: it consumes the
event stream an instrumented binary would produce and maintains, per
thread, the context identifier and ccStack exactly as the paper's
instrumentation would.

* The call graph starts with only the root function; every call edge is
  discovered by the *runtime handler* at its first invocation and is not
  encoded until the next re-encoding pass (Section 3).
* Calls over edges without a current encoding push ``<id, callsite,
  target>`` on the ccStack and set ``id = maxID + 1`` (Figure 2(b)).
* Indirect calls dispatch through the per-site inline cache or hash
  table (Figures 3-4); misses take the unencoded path.
* Recursive back edges always take the ccStack; once the adaptive pass
  marks them repetitive they compress repetitions into a counter
  (Figure 5(e)).
* Tail calls replace the top frame; the encoding context of the whole
  replaced chain is restored through the TcStack mechanism when the
  final callee returns (Figure 7).
* Each thread owns TLS state (id, ccStack); ``clone`` is intercepted so
  cross-thread contexts can be reconstructed (Section 5.3).
* The adaptive policy's triggers start a re-encoding pass: back edges
  are reclassified hottest-first, in-edges are ordered by frequency (the
  hottest gets encoding 0 — zero instrumentation), indirect sites are
  re-patched, ``gTimeStamp`` is bumped, and every thread's live id and
  ccStack are regenerated under the new dictionary (Section 4).

The engine doubles as its own oracle: it keeps the true shadow stack per
thread, so tests can cross-validate decoded contexts the way the paper
cross-validates against stack walking (Section 6.1).
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..cost.model import CostModel
from ..obs import (
    DEFAULT_DEPTH_BUCKETS,
    NULL_SPANS,
    NULL_TELEMETRY,
    ReencodePassReport,
    SpanRecorder,
    Telemetry,
)
from .adaptive import (
    AdaptiveConfig,
    AdaptivePolicy,
    TriggerDecision,
    WindowStats,
    classify_back_edges,
)
from .callgraph import CallEdge, CallGraph
from .ccstack import (
    CLONE_CALLSITE,
    UNTRACKED_CALLSITE,
    UNTRACKED_FUNCTION,
    CcStack,
    CcStackStats,
)
from .context import CallingContext, CollectedSample, ContextStep
from .dictionary import DictionaryStore, EncodingDictionary
from .encoder import EdgeOrderPolicy, Encoder, frequency_order, insertion_order
from .errors import DacceError, ReencodeError, TraceError
from .decoder import DecodeCache, Decoder
from .events import (
    CallEvent,
    CallKind,
    CallSiteId,
    CompactEvent,
    Event,
    FunctionId,
    LibraryLoadEvent,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadId,
    ThreadStartEvent,
    inflate,
)
from .columnar import EventColumns
from .faults import FaultKind, FaultLog, FaultPolicy, FaultRecord, RecoveryAction
from .fastpath import (
    KERNEL_DONE,
    KERNEL_SAMPLE,
    KERNEL_TRIGGER,
    FastPathStats,
    FRAME_ACTION,
    FRAME_CALLSITE,
    FRAME_CC_STATE,
    FRAME_CHAIN,
    FRAME_FUNCTION,
    FRAME_KIND,
    FRAME_RESTORE_ID,
    ChainLink,
    FastPathTable,
    Frame,
    _Action,
    columnar_kernel,
    compile_table,
)
from .indirect import DEFAULT_HASH_THRESHOLD, IndirectDispatchTable
from .invariants import check_dictionary

if TYPE_CHECKING:  # imported lazily: repro.static depends on repro.core
    from ..static.targeted import TargetedPlan
    from ..static.warmstart import WarmStartPlan

logger = logging.getLogger(__name__)


class CompressionMode(enum.Enum):
    """How recursion compression is decided (ablation A3)."""

    ADAPTIVE = "adaptive"   # per-edge, once the policy sees repetition
    ALWAYS = "always"       # every back edge compresses from the start
    NEVER = "never"         # plain pushes only


@dataclass
class DacceConfig:
    """Engine configuration; defaults mirror the paper's prototype."""

    id_bits: int = 64
    hash_threshold: int = DEFAULT_HASH_THRESHOLD
    compression: CompressionMode = CompressionMode.ADAPTIVE
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    #: Keep collected samples in memory (disable for pure-overhead runs).
    retain_samples: bool = True
    #: Hard cap on re-encoding passes (None = unlimited).
    max_reencodings: Optional[int] = None
    #: Re-classify back edges hottest-first during re-encoding.
    reclassify_back_edges: bool = True
    #: Order in-edges by frequency during re-encoding (hot edge gets 0).
    frequency_ordering: bool = True
    #: Debug aid: decode every collected sample on the spot and compare
    #: it with the shadow-stack oracle (the paper's §6.1 check, inline).
    #: Failures are counted in ``stats.validation_failures``.
    self_validate: bool = False
    #: How malformed events are handled: ``STRICT`` raises (the paper's
    #: semantics), ``RECOVER`` quarantines the event into ``engine.faults``,
    #: resynchronises the thread and keeps encoding (docs/ROBUSTNESS.md).
    fault_policy: FaultPolicy = FaultPolicy.STRICT


@dataclass
class _ThreadState:
    """Per-thread TLS block: context id, ccStack, shadow stack."""

    thread: ThreadId
    id_value: int
    ccstack: CcStack
    frames: List[Frame]
    spawned_entry: Optional[FunctionId] = None


def _chain_after(old: Frame) -> Tuple[ChainLink, ...]:
    """The tail chain of the frame that replaces ``old`` (Figure 7)."""
    function, callsite, _, _, _, kind, chain = old
    assert callsite is not None, "the bottom frame is never tail-replaced"
    return chain + ((function, callsite, kind),)


@dataclass
class DacceStats:
    """Aggregate runtime statistics (feeds Table 1 and Figure 10)."""

    calls: int = 0
    returns: int = 0
    samples: int = 0
    handler_invocations: int = 0
    unencoded_calls: int = 0
    back_edge_calls: int = 0
    indirect_hits: int = 0
    indirect_misses: int = 0
    tail_calls: int = 0
    reencodings: int = 0
    #: Triggered passes that would have changed nothing and therefore
    #: committed nothing (no gTimeStamp bump, no dictionary).
    reencode_noops: int = 0
    reencode_cost_cycles: float = 0.0
    validation_failures: int = 0
    #: ccStack operations caused by edges awaiting their first encoding
    #: (bounded per edge by the re-encoding latency; excluded from the
    #: steady-state ccStack rate of Table 1).
    discovery_ccstack_ops: int = 0
    #: Edges pre-encoded at gTimeStamp 0 from the static warm-start plan.
    static_seeded_edges: int = 0
    #: First invocations that landed on a seeded edge — each one is a
    #: runtime-handler call (plus the discovery ccStack traffic until the
    #: next re-encoding pass) that cold-start DACCE would have paid.
    warmstart_handler_hits_avoided: int = 0
    #: Samples delivered to the continuous-profiling hook (distinct from
    #: ``samples``, which counts explicit SampleEvents in the stream).
    profile_samples: int = 0
    #: Targeted mode: calls entirely outside the targeted subgraph —
    #: each one paid a shadow frame and nothing else (no id update, no
    #: ccStack traffic, no graph or dictionary work).
    untracked_calls: int = 0
    #: Targeted mode: calls that crossed the subgraph boundary
    #: (departures plus re-entries), each costing one ccStack push.
    boundary_crossings: int = 0

    @property
    def gts(self) -> int:
        """The paper's ``gTS`` column: re-encoding passes performed."""
        return self.reencodings


#: A profiling-hook callback: receives the compact sample and its weight.
SampleCallback = Callable[[CollectedSample, float], None]


@dataclass(slots=True)
class SampleHook:
    """The engine's continuous-profiling sampling hook.

    Every ``every``-th applied call fires ``callback(sample, weight)``
    with a :class:`CollectedSample` built from the calling thread's live
    state.  ``weigher`` supplies the sample weight (e.g. wall-time since
    the previous sample, from :mod:`repro.pytrace`); without one each
    sample weighs its period in calls, so total weight tracks total
    calls regardless of the sampling rate.

    The disabled cost is a single ``is None`` test per call on both the
    general and the batched fast path; the enabled steady-state cost on
    the batched paths is one *local* integer decrement per call — the
    countdown is mirrored into a loop register and written back at
    flush boundaries, so the hot loop never touches this object
    (the pipeline benchmark's ``engine.sample.us_per_sample``).
    """

    every: int
    callback: SampleCallback
    weigher: Optional[Callable[[], float]] = None
    countdown: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise DacceError(
                "sample hook period must be positive, got %d" % self.every
            )
        self.countdown = self.every


class DacceEngine:
    """Dynamic and adaptive calling-context encoding over an event stream."""

    def __init__(
        self,
        root: FunctionId = 0,
        config: Optional[DacceConfig] = None,
        cost_model: Optional[CostModel] = None,
        graph: Optional[CallGraph] = None,
        initial_order_policy: EdgeOrderPolicy = insertion_order,
        telemetry: Optional[Telemetry] = None,
        warm_start: Optional["WarmStartPlan"] = None,
        targeted: Optional["TargetedPlan"] = None,
        spans: Optional["SpanRecorder"] = None,
    ):
        self.config = config or DacceConfig()
        self.cost = cost_model or CostModel()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Span tracing follows the telemetry pattern: one shared no-op
        # recorder when disabled, one boolean guard per slow-path site.
        self.spans = spans if spans is not None else NULL_SPANS
        self._targeted = targeted
        self._targeted_fns: Optional[Set[FunctionId]] = None
        if targeted is not None:
            if warm_start is not None or graph is not None:
                raise DacceError(
                    "a targeted plan embeds its own warm-start graph; "
                    "pass neither graph nor warm_start alongside targeted"
                )
            warm_start = targeted.warm_start
        if warm_start is not None:
            if graph is not None:
                raise DacceError(
                    "pass either graph or warm_start, not both"
                )
            if warm_start.dictionary.timestamp != 0:
                raise DacceError(
                    "warm-start dictionary must be at gTimeStamp 0, got %d"
                    % warm_start.dictionary.timestamp
                )
            # A copy: runtime edges, counters and back-edge flags must
            # not leak into the next engine built from the same plan.
            graph = warm_start.graph.copy()
        self.graph = graph if graph is not None else CallGraph(root)
        if graph is not None:
            root = graph.root
        if targeted is not None:
            # The root is force-tracked: every thread's bottom frame must
            # be inside the subgraph or decoding would start untracked.
            self._targeted_fns = set(targeted.functions) | {root}
        self.dictionaries = DictionaryStore()
        self.policy = AdaptivePolicy(self.config.adaptive)
        self.indirect = IndirectDispatchTable(self.config.hash_threshold)
        self.stats = DacceStats()
        self.faults = FaultLog()
        # Fault policy behind one boolean, read only when a fault fires
        # (:meth:`_fault` and the ``on_event`` backstop).
        self._recover = self.config.fault_policy is FaultPolicy.RECOVER
        self.samples: List[CollectedSample] = []
        #: Every re-encoding pass, committed or no-op, in order: the one
        #: record of each pass that every export is derived from.
        self.reencode_passes: List[ReencodePassReport] = []
        #: Called synchronously with each committed pass's report — the
        #: ingest plane's frame-emission hook (see ``repro.ingest``).
        #: Listener exceptions are logged, never raised into the pass.
        self.reencode_listeners: List[
            Callable[[ReencodePassReport], None]
        ] = []
        self.thread_parents: Dict[ThreadId, CollectedSample] = {}
        self._timestamp = 0
        self._window = WindowStats()
        self._edges_at_last_encode = 0
        self._tail_calling_functions: Set[FunctionId] = set()
        self._threads: Dict[ThreadId, _ThreadState] = {}
        # The one ccStack counter set, shared by every thread's ccStack
        # (Table 1 counts traffic over the whole run, not just live
        # threads).
        self._ccstack_stats = CcStackStats()

        # Initial encoding: a graph containing only ``main`` (Section 6.1)
        # for DACCE; a warm-start plan instead supplies a pre-validated
        # gTimeStamp-0 dictionary over the static subgraph, and subclasses
        # may pass a pre-populated graph.
        self._encoder = Encoder(
            order_policy=initial_order_policy, id_bits=self.config.id_bits
        )
        self._warm = warm_start is not None
        if warm_start is not None:
            self._current = warm_start.dictionary
        else:
            self._current = self._encoder.encode(self.graph, timestamp=0)
        self._edges_at_last_encode = self.graph.num_edges
        self.dictionaries.add(self._current)
        if warm_start is not None:
            self._apply_warmstart(warm_start)
        self._threads[0] = _ThreadState(
            thread=0,
            id_value=0,
            ccstack=CcStack(self._ccstack_stats),
            frames=[(root, None, 0, (0, 0), _Action.NONE, CallKind.NORMAL, ())],
        )
        # Fast-path specialisation state (docs/PERFORMANCE.md).  The
        # compiled dispatch table is built lazily on the first batch and
        # re-built whenever its (dictionary identity, tail-set size)
        # pins go stale.
        self._fastpath: Optional[FastPathTable] = None
        self.fastpath = FastPathStats()
        # The one decoder, over live references to the decoding state;
        # a successful decode stays valid for the lifetime of the engine
        # (docs/PERFORMANCE.md), so its LRU cache is never invalidated.
        self._decode_cache = DecodeCache()
        self._decoder = Decoder(
            self.dictionaries,
            self.thread_parents,
            callsite_owners=self.graph.callsite_owners,
            cache=self._decode_cache,
        )
        # Continuous-profiling hook: None costs one test per call.
        self._prof: Optional[SampleHook] = None
        # Telemetry: one boolean guards every hot-path hook; instruments
        # are pre-bound so an enabled engine pays one dict-free call per
        # event and a disabled engine pays only the guard.
        self._obs = bool(self.telemetry.enabled)
        if self._obs:
            self._init_telemetry()

    # ------------------------------------------------------------------
    # warm-start wiring
    # ------------------------------------------------------------------
    def _apply_warmstart(self, plan: "WarmStartPlan") -> None:
        """Prime the runtime structures the handler would have built.

        Seeded indirect sites get their target lists patched up front
        (hottest-first ordering is meaningless at call 0, so the static
        order stands until the first re-encoding pass), and functions
        statically known to tail-call are pre-registered so their callers
        save the TcStack context from the very first call (Figure 7).
        """
        self.stats.static_seeded_edges = plan.seeded_edges
        for callsite, targets in plan.indirect_sites().items():
            self.indirect.site(callsite).patch(
                targets, hash_threshold=self.config.hash_threshold
            )
        self._tail_calling_functions.update(plan.tail_callers())

    # ------------------------------------------------------------------
    # telemetry wiring
    # ------------------------------------------------------------------
    def _init_telemetry(self) -> None:
        """Create push-mode instruments and the pull-mode collector;
        hand the telemetry this engine's pass list to export."""
        registry = self.telemetry.registry
        self.telemetry.passes = self.reencode_passes
        events = registry.counter(
            "events_total",
            "Engine events processed, by type.",
            labelnames=("type",),
        )
        self._m_calls = {
            kind: events.labels("call:%s" % kind.value) for kind in CallKind
        }
        self._m_returns = events.labels("return")
        self._m_samples = events.labels("sample")
        self._h_ccstack_depth = registry.histogram(
            "ccstack_depth",
            "Logical ccStack depth observed at each push/pop.",
            buckets=DEFAULT_DEPTH_BUCKETS,
        )
        self._h_callstack_depth = registry.histogram(
            "callstack_depth",
            "Logical call-stack depth at each collected sample.",
            buckets=DEFAULT_DEPTH_BUCKETS,
        )
        registry.register_collector(self._collect_metrics)
        # Pull-mode instruments fed by the collector below.
        self._c_stats = registry.counter(
            "runtime_total",
            "Aggregate runtime statistics (DacceStats), by field.",
            labelnames=("stat",),
        )
        self._c_ccstack_ops = registry.counter(
            "ccstack_ops_total",
            "ccStack operations summed over live and exited threads.",
            labelnames=("op",),
        )
        self._c_indirect = registry.counter(
            "indirect_dispatch_total",
            "Indirect-call dispatch outcomes across all sites.",
            labelnames=("result",),
        )
        self._c_promotions = registry.counter(
            "indirect_promotions_total",
            "Inline-cache to hash-table promotions across all sites.",
        )
        self._g_engine = registry.gauge(
            "engine",
            "Engine shape gauges (graph size, id space, threads).",
            labelnames=("property",),
        )
        self._c_faults = registry.counter(
            "faults_total",
            "Quarantined faults (recover policy), by kind.",
            labelnames=("kind",),
        )
        self._c_fastpath = registry.counter(
            "fastpath_total",
            "Batched fast-path specialisation outcomes (hit = handled "
            "by the compiled table, miss = deoptimised to the general "
            "path).",
            labelnames=("result",),
        )
        self._c_decode_cache = registry.counter(
            "decode_cache_total",
            "Engine decode-cache lookups (memoised Algorithm 1 results).",
            labelnames=("result",),
        )

    def _collect_metrics(self) -> None:
        """Scrape-time migration of the legacy counters onto the registry.

        ``DacceStats``, the ccStack counters and the indirect
        dispatch table keep their existing in-band roles; this mirrors
        them into instruments without adding hot-path work.
        """
        stats = self.stats
        for name, value in (
            ("calls", stats.calls),
            ("returns", stats.returns),
            ("samples", stats.samples),
            ("handler_invocations", stats.handler_invocations),
            ("unencoded_calls", stats.unencoded_calls),
            ("back_edge_calls", stats.back_edge_calls),
            ("tail_calls", stats.tail_calls),
            ("reencodings", stats.reencodings),
            ("reencode_noops", stats.reencode_noops),
            ("validation_failures", stats.validation_failures),
            ("discovery_ccstack_ops", stats.discovery_ccstack_ops),
            ("static_seeded_edges", stats.static_seeded_edges),
            (
                "warmstart_handler_hits_avoided",
                stats.warmstart_handler_hits_avoided,
            ),
            ("profile_samples", stats.profile_samples),
            ("untracked_calls", stats.untracked_calls),
            ("boundary_crossings", stats.boundary_crossings),
        ):
            self._c_stats.set_total(value, name)
        ccstack = self.ccstack_stats()
        for op in ("pushes", "pops", "compressions", "decompressions"):
            self._c_ccstack_ops.set_total(ccstack[op], op)
        self._c_indirect.set_total(self.indirect.total_hits(), "hit")
        self._c_indirect.set_total(self.indirect.total_misses(), "miss")
        self._c_promotions.set_total(self.indirect.total_promotions())
        for name, value in (
            ("nodes", self.graph.num_nodes),
            ("edges", self.graph.num_edges),
            ("encoded_edges", self._current.num_encoded_edges),
            ("max_id", self._current.max_id),
            ("gtimestamp", self._timestamp),
            ("live_threads", len(self._threads)),
            ("indirect_sites", len(self.indirect)),
            ("indirect_hash_sites", self.indirect.num_hash_sites()),
            ("ccstack_max_depth", ccstack["max_depth"]),
        ):
            self._g_engine.set_labeled(value, name)
        for kind, count in self.faults.counts_by_kind().items():
            self._c_faults.set_total(count, kind)
        self._c_fastpath.set_total(self.fastpath.hits, "hit")
        self._c_fastpath.set_total(self.fastpath.misses, "miss")
        self._c_decode_cache.set_total(self._decode_cache.hits, "hit")
        self._c_decode_cache.set_total(self._decode_cache.misses, "miss")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def timestamp(self) -> int:
        """The current ``gTimeStamp``."""
        return self._timestamp

    @property
    def reencode_log(self) -> List[ReencodePassReport]:
        """Committed passes in order — the Figure 9 series (a copy)."""
        return [r for r in self.reencode_passes if r.outcome == "committed"]

    @property
    def current_dictionary(self) -> EncodingDictionary:
        return self._current

    @property
    def max_id(self) -> int:
        return self._current.max_id

    def run(self, events: Iterable[Event]) -> None:
        """Process an entire event stream."""
        for event in events:
            self.on_event(event)

    def on_event(self, event: Event) -> None:
        """Dispatch one event to its handler — the one general path.

        Each handler checks its own fault conditions before changing any
        state and reports them through :meth:`_fault`, so both fault
        policies share this dispatch.  Under ``recover`` any other
        :class:`DacceError` escaping a handler mid-apply (e.g. a pop
        from an empty ccStack) is quarantined as ``trace-error`` and the
        thread is resynchronised from its shadow stack.
        """
        try:
            if isinstance(event, CallEvent):
                self.on_call(event)
            elif isinstance(event, ReturnEvent):
                self.on_return(event)
            elif isinstance(event, SampleEvent):
                self.on_sample(event)
            elif isinstance(event, ThreadStartEvent):
                self.on_thread_start(event)
            elif isinstance(event, ThreadExitEvent):
                self.on_thread_exit(event)
            elif isinstance(event, LibraryLoadEvent):
                pass  # functions become callable; nothing to patch yet
            else:
                self._fault(
                    FaultKind.UNKNOWN_EVENT, "unknown event %r" % (event,), event
                )
        except DacceError as error:
            if not self._recover:
                raise
            thread = getattr(event, "thread", None)
            state = self._threads.get(thread) if thread is not None else None
            if state is not None:
                state.id_value, state.ccstack, state.frames = self._regenerated(
                    state, self._current
                )
            self._quarantine(
                FaultKind.TRACE_ERROR,
                str(error),
                thread=thread,
                event=event,
                recovery=(
                    RecoveryAction.RESYNCED
                    if state is not None
                    else RecoveryAction.DROPPED
                ),
                error=type(error).__name__,
            )

    # ------------------------------------------------------------------
    # fast-path processing (columnar dispatch)
    # ------------------------------------------------------------------
    def process_batch(self, records: Iterable[CompactEvent]) -> None:
        """Process compact event tuples: columnise, then :meth:`process_columns`."""
        self.process_columns(EventColumns.from_compact(records))

    def _ensure_fastpath(self) -> FastPathTable:
        """The compiled dispatch table for the current engine state."""
        table = self._fastpath
        if table is None or not table.valid_for(
            self._current, len(self._tail_calling_functions)
        ):
            table = compile_table(
                self.graph,
                self._current,
                self._tail_calling_functions,
                self._back_edge_spec,
                self._targeted_fns,
                self.indirect,
            )
            self._fastpath = table
            self.fastpath.compiles += 1
        return table

    def _back_edge_spec(self, edge: CallEdge) -> Tuple[List[int], bool]:
        """What the kernel needs to push over one back edge."""
        return (
            self.policy.push_counters(edge.key()),
            self._compression_allowed(edge),
        )

    def process_columns(self, cols: EventColumns) -> None:
        """Process a struct-of-arrays batch through the columnar kernel.

        The steady state — a NORMAL or PLT call over an edge the
        current dictionary encodes, an INDIRECT call over one whose
        target is in its site's patched set, a NORMAL call over a
        recursive back edge or (targeted mode) across the plan boundary,
        and the matching return — runs inside
        :func:`repro.core.fastpath.columnar_kernel`, whose inner loop
        iterates raw integer columns with one dict probe and one integer
        add per hot event (a ccStack push or pop per back-edge or
        boundary event), with statistics, window counters, cost charges
        and telemetry folded once per stay on a thread
        (:meth:`_end_stay`).

        Everything else (unencoded edges, first bindings, indirect
        targets outside the patched set, indirect and PLT back edges,
        tail calls, tail-chain returns, samples, thread events,
        malformed events) *deoptimises* without leaving the kernel: it
        ends the stay and calls this batch's ``deopt`` closure, which
        materialises that single compact tuple (``cols.record(i)``) and
        dispatches it through :meth:`on_event`, so the general path —
        fault checks under either policy, warm-start accounting,
        adaptive re-encoding — behaves exactly as in per-event
        processing.  The kernel exits only when the batch is done, a
        sample fires, the adaptive window fills or a general-path event
        made it stale; every run resumes the same iterator over the
        column views.

        A stay ends, and its counters are flushed, before every
        deoptimisation, sample and adaptive trigger check, so anything
        the general path observes (``stats.calls`` in fault records,
        window evidence in trigger decisions, re-encoding pass reports)
        sees the same values as per-event processing.  The differential
        property suite (``tests/core/test_fastpath_property.py``) asserts
        byte-identical end states.
        """
        if not len(cols):
            return
        self.fastpath.batches += 1
        on_event = self.on_event
        record = cols.record
        tail_set = self._tail_calling_functions

        # Set at the top of each kernel run: the table and sampling mode
        # the kernel runs with, which ``deopt`` compares with the
        # engine's state after each general-path event.
        table: FastPathTable
        profiled: bool

        def deopt(i: int, countdown: int) -> Tuple[int, int, bool]:
            self.fastpath.misses += 1
            prof = self._prof
            if prof is not None:
                # The general path decrements the hook's own countdown;
                # keep the kernel's register coherent across it.
                prof.countdown = countdown
            on_event(inflate(record(i)))
            prof = self._prof
            return (
                self._window.calls,
                prof.countdown if prof is not None else 0,
                not table.valid_for(self._current, len(tail_set))
                or (prof is not None) is not profiled,
            )

        views = cols.views()
        events = zip(*views)
        i = -1
        try:
            while True:
                table = self._ensure_fastpath()
                prof = self._prof
                profiled = prof is not None
                i, reason, thread, countdown = columnar_kernel(
                    events,
                    i,
                    table,
                    deopt,
                    self,
                    self._window.calls,
                    profiled,
                    prof.countdown if prof is not None else 0,
                )
                # A sample callback run by a deopt may have swapped hooks.
                prof = self._prof
                if prof is not None:
                    prof.countdown = countdown
                if reason == KERNEL_DONE:
                    break
                if reason == KERNEL_SAMPLE:
                    if prof is not None:
                        self._fire_profile_sample(prof, thread)
                elif reason == KERNEL_TRIGGER:
                    self._maybe_check_triggers()
        finally:
            for view in views:
                view.release()

    def _end_stay(
        self,
        state: _ThreadState,
        cur_id: int,
        ccs: Optional[CcStack],
        depth: int,
        max_depth: int,
        decompressions: int,
        calls: int,
        returns: int,
        id_updates: int,
        tcstack: int,
        pushes: int,
        compressions: int,
        pops: int,
        boundary_pushes: int,
        boundary_pops: int,
        untracked: int,
        indirect: int = 0,
        plt: int = 0,
        comparisons: int = 0,
        hash_lookups: int = 0,
    ) -> None:
        """End a fast-path driver's stay on ``state``: take its locals
        back into engine state.

        ``cur_id`` is the id register and ``ccs`` the ccStack the driver
        bound (``None`` if it touched none), with the ``depth``,
        ``max_depth`` and decompressions it kept for it; the frames are
        already in ``state.frames``.  The rest are the stay's engine
        counters.  ``indirect`` and ``plt`` count the stay's INDIRECT
        and PLT calls (among ``calls``), ``comparisons`` and
        ``hash_lookups`` its indirect dispatches; the profile hook,
        which handles only NORMAL calls, leaves them 0.  Afterwards the
        thread state, the ccStack and the engine's statistics, window
        and cost report are what per-event processing would have left.

        Every return of a stay that pops the ccStack is a back-edge or
        a boundary return (discovery returns deoptimise), and each one
        either drops a compressed repetition or pops an entry, so the
        physical pops are ``pops + boundary_pops - decompressions``.
        Every call and return of a stay is a fast-path hit, and every
        INDIRECT call among them an indirect hit.

        The charges are exact under folding: the cost parameters
        involved (baseline 150.0, id_update 1.5, tcstack 5.0, ccStack
        push/compress/pop 9.0/7.0/6.0, indirect compare/hash lookup
        2.5/7.0) are dyadic rationals, so ``n`` separate float adds and
        one ``n *`` multiply produce bit-identical sums.  Boundary
        pushes and pops are charged like back-edge ones but count as
        ``boundary_crossings`` and stay out of the trigger-(c) window,
        as in :meth:`_apply_targeted` and :meth:`on_return`.
        """
        if ccs is not None:
            ccs.kernel_fold(
                depth, max_depth, pushes + boundary_pushes, compressions,
                pops + boundary_pops - decompressions, decompressions,
            )
        state.id_value = cur_id
        if not (calls or returns):
            return
        self.fastpath.hits += calls + returns
        obs = self._obs
        if calls:
            self.stats.calls += calls
            self._window.calls += calls
            self.cost.charge_call_baseline(calls)
            if obs:
                normal = calls - indirect - plt
                if normal:
                    self._m_calls[CallKind.NORMAL].inc(normal)
                if indirect:
                    self._m_calls[CallKind.INDIRECT].inc(indirect)
                if plt:
                    self._m_calls[CallKind.PLT].inc(plt)
        if indirect:
            self.stats.indirect_hits += indirect
            if comparisons:
                self.cost.charge_comparisons(comparisons)
            if hash_lookups:
                self.cost.charge_hash_lookup(hash_lookups)
        if returns:
            self.stats.returns += returns
            if obs:
                self._m_returns.inc(returns)
        if id_updates:
            self.cost.charge_id_update(id_updates)
        if tcstack:
            self.cost.charge_tcstack(tcstack)
        if pushes or compressions or pops:
            self.stats.back_edge_calls += pushes + compressions
            self._window.ccstack_ops += pushes + compressions + pops
            if compressions:
                self.cost.charge_ccstack_compress(compressions)
        self.stats.boundary_crossings += boundary_pushes
        self.stats.untracked_calls += untracked
        if pushes or boundary_pushes:
            self.cost.charge_ccstack_push(pushes + boundary_pushes)
        if pops or boundary_pops:
            self.cost.charge_ccstack_pop(pops + boundary_pops)

    def fastpath_stats(self) -> Dict[str, object]:
        """Fast-path specialisation counters (plus table shape)."""
        snapshot = self.fastpath.to_dict()
        # True once either driver has run: a batch through the kernel
        # or the Python tracer's profile hook.
        snapshot["enabled"] = (
            self.fastpath.batches > 0 or self.fastpath.hook_runs > 0
        )
        snapshot["table_entries"] = (
            len(self._fastpath) if self._fastpath is not None else 0
        )
        snapshot["hit_path"] = self.fastpath.hit_path
        return snapshot

    # ------------------------------------------------------------------
    # fault reporting
    # ------------------------------------------------------------------
    def _fault(
        self,
        kind: FaultKind,
        message: str,
        event: Optional[Event],
        recovery: RecoveryAction = RecoveryAction.DROPPED,
        **detail: Any,
    ) -> None:
        """Report a malformed event — the one place the policy is read.

        Handlers call this when a check fails, before changing any
        state.  Under ``strict`` it raises :class:`TraceError` with
        ``thread``, ``gts``, ``event`` and ``reason`` (the kind's value)
        plus ``detail``; under ``recover`` it quarantines the event and
        returns, and the handler carries out ``recovery``.
        """
        thread = getattr(event, "thread", None)
        if not self._recover:
            raise TraceError(
                message,
                thread=thread,
                gts=self._timestamp,
                event=event,
                reason=kind.value,
                **detail,
            )
        self._quarantine(
            kind, message, thread=thread, event=event, recovery=recovery, **detail
        )

    def _quarantine(
        self,
        kind: FaultKind,
        message: str,
        thread: Optional[ThreadId] = None,
        event: Optional[Event] = None,
        recovery: RecoveryAction = RecoveryAction.DROPPED,
        **detail,
    ) -> FaultRecord:
        """Append one fault to the bounded log; mirror it to the span log."""
        record = FaultRecord(
            kind=kind,
            message=message,
            thread=thread,
            gts=self._timestamp,
            at_call=self.stats.calls,
            event=repr(event) if event is not None else None,
            recovery=recovery,
            detail=detail,
        )
        self.faults.record(record)
        logger.debug("quarantined fault: %s", message)
        self._event(
            "fault",
            kind=kind.value,
            thread=thread,
            gts=self._timestamp,
            at_call=self.stats.calls,
            recovery=recovery.value,
            message=message,
        )
        return record

    def _event(self, name: str, **attrs: Any) -> None:
        """Record ``engine.<name>`` as a zero-duration span record."""
        if self.spans.enabled:
            self.spans.record(
                "engine." + name,
                stage="engine",
                parent=self.spans.current(),
                attrs=attrs,
            )

    def decoder(self) -> Decoder:
        """The engine's one decoder, the same object on every call.

        It reads the engine's dictionaries, thread parents and
        callsite owners live, so it decodes samples recorded after it
        was obtained, and its :class:`~repro.core.decoder.DecodeCache`
        memoises for the engine's lifetime (docs/PERFORMANCE.md).
        """
        return self._decoder

    # ------------------------------------------------------------------
    # continuous-profiling hook
    # ------------------------------------------------------------------
    def install_sample_hook(
        self,
        every: int,
        callback: SampleCallback,
        weigher: Optional[Callable[[], float]] = None,
    ) -> SampleHook:
        """Install the continuous-profiling hook (one per engine).

        Every ``every``-th applied call delivers a compact
        :class:`CollectedSample` plus a weight to ``callback`` — on both
        the general and the batched fast path, at identical event
        positions.  Hook samples are charged to the cost model's
        ``sample`` (CLIENT) category and counted in
        ``stats.profile_samples``; they are *not* appended to
        ``engine.samples``, which stays reserved for explicit
        :class:`SampleEvent` records.
        """
        if self._prof is not None:
            raise DacceError(
                "a sample hook is already installed; remove it first"
            )
        hook = SampleHook(every=every, callback=callback, weigher=weigher)
        self._prof = hook
        return hook

    def remove_sample_hook(self) -> Optional[SampleHook]:
        """Detach the profiling hook; returns it (or None)."""
        hook = self._prof
        self._prof = None
        return hook

    def _sample(self, state: _ThreadState) -> CollectedSample:
        """The compact sample of a thread's live context.

        In targeted mode a sample taken while control is outside the
        subgraph reports :data:`UNTRACKED_FUNCTION`: the real function
        has no encoding, and the pseudo id is what lets Algorithm 1
        match the boundary entries on the ccStack.
        """
        function = state.frames[-1][FRAME_FUNCTION]
        fns = self._targeted_fns
        if fns is not None and function not in fns:
            function = UNTRACKED_FUNCTION
        return CollectedSample(
            timestamp=self._timestamp,
            context_id=state.id_value,
            function=function,
            ccstack=state.ccstack.snapshot(),
            thread=state.thread,
        )

    def _fire_profile_sample(self, hook: SampleHook, thread: ThreadId) -> None:
        """Restart the hook's countdown and deliver one sample."""
        hook.countdown = hook.every
        state = self._threads.get(thread)
        if state is None:  # pragma: no cover - hook fires post-apply
            return
        sample = self._sample(state)
        self.stats.profile_samples += 1
        self.cost.charge_sample(len(sample.ccstack))
        if hook.weigher is not None:
            weight = hook.weigher()
        else:
            weight = float(hook.every)
        hook.fired += 1
        hook.callback(sample, weight)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def on_call(self, event: CallEvent) -> None:
        state = self._threads.get(event.thread)
        if state is None:
            self._fault(
                FaultKind.UNKNOWN_THREAD,
                "call on unknown thread %d" % event.thread,
                event,
            )
            return
        frames = state.frames
        if frames[-1][FRAME_FUNCTION] != event.caller:
            # A caller live deeper in the shadow stack means missed
            # returns: recover unwinds to it, resynchronises the thread
            # and applies the call.  Any other caller is dropped.
            for index in range(len(frames) - 2, -1, -1):
                if frames[index][FRAME_FUNCTION] == event.caller:
                    break
            else:
                self._fault(
                    FaultKind.CALLER_MISMATCH,
                    "thread %d: call from %d but current function is %d"
                    % (event.thread, event.caller, frames[-1][FRAME_FUNCTION]),
                    event,
                    expected_function=frames[-1][FRAME_FUNCTION],
                )
                return
            dropped = len(frames) - 1 - index
            self._fault(
                FaultKind.CALLER_MISMATCH,
                "thread %d: call from %d reached with %d frames unwound"
                % (event.thread, event.caller, dropped),
                event,
                recovery=RecoveryAction.UNWOUND,
                dropped_frames=dropped,
            )
            del frames[index + 1:]
            state.id_value, state.ccstack, state.frames = self._regenerated(
                state, self._current
            )
        if event.kind is CallKind.TAIL and len(state.frames) <= 1:
            self._fault(
                FaultKind.TAIL_BOTTOM,
                "thread %d: tail call from the bottom frame" % event.thread,
                event,
            )
            return
        self.stats.calls += 1
        self._window.calls += 1
        self.cost.charge_call_baseline()
        if self._obs:
            self._m_calls[event.kind].inc()

        if self._targeted_fns is None or not self._apply_targeted(state, event):
            edge = self.graph.find_edge(event.callsite, event.callee)
            if edge is None:
                edge = self._runtime_handler(event)
            elif self._warm and edge.seeded and edge.invocations == 0:
                # Cold-start DACCE would have entered the runtime handler
                # here; the warm-start seed already encoded this edge.
                self.stats.warmstart_handler_hits_avoided += 1
            edge.invocations += 1
            if event.kind is CallKind.TAIL:
                self._apply_tail_call(state, event, edge)
            else:
                self._apply_call(state, event, edge)

        hook = self._prof
        if hook is not None:
            hook.countdown -= 1
            if hook.countdown <= 0:
                self._fire_profile_sample(hook, event.thread)

    def on_return(self, event: ReturnEvent) -> None:
        state = self._threads.get(event.thread)
        if state is None:
            self._fault(
                FaultKind.UNKNOWN_THREAD,
                "return on unknown thread %d" % event.thread,
                event,
            )
            return
        if len(state.frames) <= 1:
            self._fault(
                FaultKind.RETURN_BOTTOM,
                "thread %d: return from the bottom frame" % event.thread,
                event,
            )
            return
        frame = state.frames.pop()
        self.stats.returns += 1
        if self._obs:
            self._m_returns.inc()

        action = frame[FRAME_ACTION]
        if frame[FRAME_CHAIN]:
            # TcStack restoration: one restore covers the whole chain.
            state.ccstack.restore(frame[FRAME_CC_STATE])
            if action is not _Action.UNTRACKED:
                # A chain that never left untracked code pushed nothing
                # and carries no TcStack instrumentation to charge.
                self.cost.charge_tcstack()
        elif action is _Action.PUSH or action is _Action.COMPRESS:
            state.ccstack.pop()
            self.cost.charge_ccstack_pop()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif action is _Action.BOUNDARY_DEP or action is _Action.BOUNDARY_RE:
            # No encoding can remove a boundary entry, so its traffic
            # stays out of the trigger-(c) window.
            state.ccstack.pop()
            self.cost.charge_ccstack_pop()
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif action is _Action.DISCOVERY_PUSH:
            state.ccstack.pop()
            self._charge_discovery_pop()
            self.stats.discovery_ccstack_ops += 1
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif action is _Action.ID:
            self.cost.charge_id_update()
        # NONE and UNTRACKED returns: restoring the id is all.
        state.id_value = frame[FRAME_RESTORE_ID]

        self._maybe_check_triggers()

    def on_sample(self, event: SampleEvent) -> Optional[CollectedSample]:
        """Take a sample of the thread's context (``None`` if quarantined)."""
        state = self._threads.get(event.thread)
        if state is None:
            # The thread-exit-then-sample race (Section 5.3): the sampler
            # fired after the thread's TLS block was torn down.
            self._fault(
                FaultKind.UNKNOWN_THREAD,
                "sample on unknown thread %d" % event.thread,
                event,
            )
            return None
        sample = self._sample(state)
        self.stats.samples += 1
        self.cost.charge_sample(len(sample.ccstack))
        if self._obs:
            self._m_samples.inc()
            self._h_callstack_depth.observe(self.call_stack_depth(event.thread))
        if self.config.retain_samples:
            self.samples.append(sample)
        if self.config.self_validate:
            self._self_validate(sample, event.thread)
        return sample

    def _self_validate(self, sample: CollectedSample, thread: ThreadId) -> None:
        from .errors import DecodingError  # local: avoid cycle at import

        try:
            decoded = self._decoder.decode(sample)
        except DecodingError as error:
            self.stats.validation_failures += 1
            logger.warning(
                "self-validation: sample (gTS=%d, id=%d, thread=%d) failed "
                "to decode: %s",
                sample.timestamp, sample.context_id, thread, error,
            )
            self._event(
                "validation_failure",
                thread=thread,
                gts=sample.timestamp,
                context_id=sample.context_id,
                mode="undecodable",
            )
            return
        expected = self.expected_context(thread)
        if [s.function for s in decoded.steps] != [
            s.function for s in expected.steps
        ]:
            self.stats.validation_failures += 1
            logger.warning(
                "self-validation: decoded context of thread %d diverges "
                "from the shadow stack (gTS=%d, id=%d)",
                thread, sample.timestamp, sample.context_id,
            )
            self._event(
                "validation_failure",
                thread=thread,
                gts=sample.timestamp,
                context_id=sample.context_id,
                mode="mismatch",
            )

    def on_thread_start(self, event: ThreadStartEvent) -> None:
        if event.thread in self._threads:
            self._fault(
                FaultKind.DUPLICATE_THREAD,
                "thread %d already exists" % event.thread,
                event,
            )
            return
        parent = self._threads.get(event.parent)
        if parent is None:
            self._fault(
                FaultKind.UNKNOWN_THREAD,
                "thread %d spawned by unknown parent %d"
                % (event.thread, event.parent),
                event,
            )
            return
        # Intercepted ``clone``: record the spawning context (Section 5.3).
        self.thread_parents[event.thread] = self._sample(parent)
        if self._targeted_fns is not None:
            # Thread entries are force-tracked: an untracked entry would
            # put a re-entry record directly above the clone sentinel and
            # leave the spawned thread's contexts undecodable.
            self._targeted_fns.add(event.entry)
        ccstack = CcStack(self._ccstack_stats)
        ccstack.push(0, CLONE_CALLSITE, event.entry)
        state = _ThreadState(
            thread=event.thread,
            id_value=self._current.max_id + 1,
            ccstack=ccstack,
            frames=[
                (
                    event.entry,
                    None,
                    self._current.max_id + 1,
                    ccstack.saved_state(),
                    _Action.NONE,
                    CallKind.NORMAL,
                    (),
                )
            ],
            spawned_entry=event.entry,
        )
        self.graph.add_node(event.entry)
        self._threads[event.thread] = state
        self._event(
            "thread_start",
            thread=event.thread,
            parent=event.parent,
            entry=event.entry,
            gts=self._timestamp,
        )

    def on_thread_exit(self, event: ThreadExitEvent) -> None:
        state = self._threads.get(event.thread)
        if state is None:
            self._fault(
                FaultKind.UNKNOWN_THREAD,
                "exit of unknown thread %d" % event.thread,
                event,
            )
            return
        if len(state.frames) > 1:
            # Missed returns: recover unwinds to the bottom frame and
            # resynchronises the encoding state, then lets the exit run.
            dropped = len(state.frames) - 1
            self._fault(
                FaultKind.THREAD_EXIT_LIVE_FRAMES,
                "thread %d exited with %d live frames"
                % (event.thread, dropped + 1),
                event,
                recovery=RecoveryAction.UNWOUND,
                dropped_frames=dropped,
            )
            del state.frames[1:]
            state.id_value, state.ccstack, state.frames = self._regenerated(
                state, self._current
            )
        del self._threads[event.thread]
        self._event("thread_exit", thread=event.thread, gts=self._timestamp)

    # ------------------------------------------------------------------
    # oracles / introspection
    # ------------------------------------------------------------------
    def expected_context(self, thread: ThreadId = 0) -> CallingContext:
        """The true current context from the shadow stack (the oracle).

        Includes tail-call-replaced frames and, recursively, the spawning
        context of the thread — directly comparable with
        ``decoder().decode(engine.on_sample(...))``.
        """
        state = self._state(thread)
        steps: List[ContextStep] = []
        for frame in state.frames:
            for function, callsite, _kind in frame[FRAME_CHAIN]:
                steps.append(ContextStep(function, callsite))
            steps.append(ContextStep(frame[FRAME_FUNCTION], frame[FRAME_CALLSITE]))
        if self._targeted_fns is not None:
            steps = self._collapse_untracked(steps)
        if state.spawned_entry is not None:
            parent_sample = self.thread_parents.get(thread)
            if parent_sample is not None:
                # Parent threads may have exited: decode their spawn sample.
                parent = self._decoder.decode(parent_sample)
                steps[0] = ContextStep(
                    steps[0].function, CLONE_CALLSITE, steps[0].count
                )
                return CallingContext(tuple(parent.steps) + tuple(steps))
        return CallingContext(tuple(steps))

    def _collapse_untracked(self, steps: List[ContextStep]) -> List[ContextStep]:
        """Fold untracked runs into ``<untracked>`` pseudo-steps.

        Mirrors what decoding produces in targeted mode: a maximal run
        of out-of-subgraph frames becomes one
        ``ContextStep(UNTRACKED_FUNCTION, UNTRACKED_CALLSITE)``, and the
        tracked function entered from such a run keeps its function but
        reports the reserved callsite (its concrete call site lives in
        uninstrumented code).
        """
        fns = self._targeted_fns
        assert fns is not None
        out: List[ContextStep] = []
        in_untracked = False
        for step in steps:
            if step.function not in fns:
                if not in_untracked:
                    out.append(
                        ContextStep(UNTRACKED_FUNCTION, UNTRACKED_CALLSITE)
                    )
                    in_untracked = True
            elif in_untracked:
                out.append(
                    ContextStep(step.function, UNTRACKED_CALLSITE, step.count)
                )
                in_untracked = False
            else:
                out.append(step)
        return out

    def call_stack_depth(self, thread: ThreadId = 0) -> int:
        """Logical call-stack depth (tail chains included) — Figure 10."""
        state = self._state(thread)
        return sum(1 + len(frame[FRAME_CHAIN]) for frame in state.frames)

    def ccstack_depth(
        self, thread: ThreadId = 0, include_discovery: bool = True
    ) -> int:
        """Current ccStack depth; optionally only steady-state entries.

        Discovery entries (edges awaiting their first encoding) are a
        transient artifact bounded by the re-encoding latency — the
        depth distributions of Figure 10 measure the steady content.
        """
        stack = self._state(thread).ccstack
        if include_discovery:
            return stack.depth()
        return stack.steady_depth()

    def live_threads(self) -> List[ThreadId]:
        return list(self._threads.keys())

    def current_context(self, thread: ThreadId = 0) -> CallingContext:
        """Decode the thread's live context (without retaining a sample).

        This is the tool-facing query the paper's clients issue: take
        the compact runtime state and expand it on demand.
        """
        return self._decoder.decode(self._sample(self._state(thread)))

    def summary(self) -> Dict[str, object]:
        """A one-stop status snapshot for tooling and logs."""
        return {
            "calls": self.stats.calls,
            "returns": self.stats.returns,
            "samples": self.stats.samples,
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "encoded_edges": self._current.num_encoded_edges,
            "max_id": self._current.max_id,
            "overflowed": self._current.overflowed,
            "gts": self._timestamp,
            "reencodings": self.stats.reencodings,
            "handler_invocations": self.stats.handler_invocations,
            "static_seeded_edges": self.stats.static_seeded_edges,
            "warmstart_handler_hits_avoided": (
                self.stats.warmstart_handler_hits_avoided
            ),
            "live_threads": len(self._threads),
            "ccstack": self.ccstack_stats(),
            "indirect_sites": len(self.indirect),
        }

    def stats_snapshot(self) -> Dict[str, object]:
        """:meth:`summary` plus the telemetry layer's additions.

        Every legacy ``summary()`` key is preserved; the indirect
        dispatch counters and (when telemetry is enabled) the
        re-encoding pass reports ride along.
        """
        snapshot = self.summary()
        snapshot["indirect_hits"] = self.stats.indirect_hits
        snapshot["indirect_misses"] = self.stats.indirect_misses
        snapshot["indirect_promotions"] = self.indirect.total_promotions()
        snapshot["trigger_evaluations"] = self.policy.evaluations
        snapshot["telemetry_enabled"] = self._obs
        snapshot["fault_policy"] = self.config.fault_policy.value
        snapshot["faults"] = self.faults.total
        snapshot["faults_by_kind"] = self.faults.counts_by_kind()
        snapshot["fastpath"] = self.fastpath_stats()
        snapshot["decode_cache"] = self._decode_cache.stats()
        snapshot["profile_samples"] = self.stats.profile_samples
        snapshot["untracked_calls"] = self.stats.untracked_calls
        snapshot["boundary_crossings"] = self.stats.boundary_crossings
        if self._targeted is not None:
            snapshot["targeted"] = {
                "functions": len(self._targeted_fns or ()),
                "sinks": len(self._targeted.sinks),
            }
        if self._obs:
            snapshot["reencode_passes"] = [
                report.to_dict() for report in self.reencode_passes
            ]
        return snapshot

    def ccstack_stats(self) -> Dict[str, int]:
        """The ccStack operation counters of the whole run (live and
        exited threads)."""
        return dict(vars(self._ccstack_stats))

    # ------------------------------------------------------------------
    # call machinery
    # ------------------------------------------------------------------
    def _state(self, thread: ThreadId) -> _ThreadState:
        try:
            return self._threads[thread]
        except KeyError:
            # Introspection of a thread that is not live; the event
            # handlers report unknown threads through _fault instead.
            raise TraceError(
                "unknown thread %d" % thread,
                thread=thread,
                gts=self._timestamp,
                reason="unknown-thread",
            ) from None

    def _runtime_handler(self, event: CallEvent) -> CallEdge:
        """First invocation of a call site/target pair (Section 3.1).

        Adds the edge to the call graph (classifying back edges), patches
        the site, and registers indirect targets.  The edge stays
        unencoded until the next re-encoding pass.
        """
        self.stats.handler_invocations += 1
        self.cost.charge_handler()
        edge = self.graph.add_edge(
            event.caller, event.callee, event.callsite, kind=event.kind
        )
        if event.kind is CallKind.INDIRECT:
            self.indirect.site(event.callsite)
        if event.kind is CallKind.TAIL:
            # Patch the caller of the function containing the tail call so
            # it saves/restores the encoding context (Figure 7).
            self._tail_calling_functions.add(event.caller)
        return edge

    def _edge_encoding(self, edge: CallEdge) -> Optional[int]:
        """The edge's encoding in the *current* dictionary, if any."""
        if edge.is_back:
            return None
        return self._current.encoding(edge.callsite, edge.callee)

    def _apply_call(self, state: _ThreadState, event: CallEvent, edge: CallEdge) -> None:
        restore_id = state.id_value
        cc_state = state.ccstack.saved_state()

        if event.kind is CallKind.INDIRECT:
            action = self._dispatch_indirect(state, event, edge)
        else:
            action = self._apply_direct(state, event, edge)

        if event.callee in self._tail_calling_functions:
            # Caller-side TcStack save for functions known to tail-call.
            self.cost.charge_tcstack()

        state.frames.append(
            (event.callee, event.callsite, restore_id, cc_state, action, event.kind, ())
        )

    def _apply_direct(
        self, state: _ThreadState, event: CallEvent, edge: CallEdge
    ) -> _Action:
        encoding = self._edge_encoding(edge)
        if encoding is not None:
            state.id_value += encoding
            if encoding:
                self.cost.charge_id_update()
                return _Action.ID
            return _Action.NONE
        return self._push_unencoded(state, event, edge)

    def _dispatch_indirect(
        self, state: _ThreadState, event: CallEvent, edge: CallEdge
    ) -> _Action:
        site = self.indirect.site(event.callsite)
        result = site.dispatch(event.callee)
        if result.hashed:
            self.cost.charge_hash_lookup()
        elif result.comparisons:
            self.cost.charge_comparisons(result.comparisons)
        encoding = self._edge_encoding(edge) if result.hit else None
        if result.hit and encoding is not None:
            self.stats.indirect_hits += 1
            state.id_value += encoding
            if encoding:
                self.cost.charge_id_update()
                return _Action.ID
            return _Action.NONE
        self.stats.indirect_misses += 1
        return self._push_unencoded(state, event, edge)

    def _push_unencoded(
        self, state: _ThreadState, event: CallEvent, edge: CallEdge
    ) -> _Action:
        """Figure 2(b): save <id, callsite, target>, set id = maxID + 1."""
        if edge.is_back:
            self.stats.back_edge_calls += 1
            allow_compress = self._compression_allowed(edge)
            repetitive_top = state.ccstack.top_matches(
                state.id_value, event.callsite, event.callee
            )
            self.policy.observe_back_edge_push(edge.key(), repetitive_top)
            compressed = state.ccstack.push(
                state.id_value,
                event.callsite,
                event.callee,
                allow_compress=allow_compress,
            )
            if compressed:
                self.cost.charge_ccstack_compress()
            else:
                self.cost.charge_ccstack_push()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
            state.id_value = self._current.max_id + 1
            return _Action.COMPRESS if compressed else _Action.PUSH
        # A non-back edge without an encoding *yet*: it was discovered in
        # the current epoch and will be encoded by the next re-encoding
        # pass.  Its ccStack traffic is a bounded transition cost, not
        # steady-state work, and is accounted separately.
        self.stats.unencoded_calls += 1
        self.stats.discovery_ccstack_ops += 1
        self._window.unencoded_calls += 1
        state.ccstack.push(
            state.id_value, event.callsite, event.callee, discovery=True
        )
        self._charge_discovery_push()
        self._window.ccstack_ops += 1
        if self._obs:
            self._h_ccstack_depth.observe(state.ccstack.depth())
        state.id_value = self._current.max_id + 1
        return _Action.DISCOVERY_PUSH

    def _charge_discovery_push(self) -> None:
        """Cost of saving context for a not-yet-encoded edge.

        One-time by nature (each edge is unencoded only until the next
        re-encoding pass); subclasses without patching machinery (PCCE)
        override this to nothing.
        """
        self.cost.report.add("discovery", self.cost.parameters.ccstack_push)

    def _charge_discovery_pop(self) -> None:
        self.cost.report.add("discovery", self.cost.parameters.ccstack_pop)

    def _compression_allowed(self, edge: CallEdge) -> bool:
        mode = self.config.compression
        if mode is CompressionMode.ALWAYS:
            return True
        if mode is CompressionMode.NEVER:
            return False
        return self.policy.is_compressed(edge.key())

    def _apply_tail_call(
        self, state: _ThreadState, event: CallEvent, edge: CallEdge
    ) -> None:
        """Replace the top frame (Figure 7); restoration via TcStack."""
        self.stats.tail_calls += 1
        old = state.frames.pop()
        self._tail_calling_functions.add(old[FRAME_FUNCTION])

        if event.kind is CallKind.INDIRECT:
            action = self._dispatch_indirect(state, event, edge)
        else:
            action = self._apply_direct(state, event, edge)
        state.frames.append(
            (
                event.callee,
                event.callsite,
                old[FRAME_RESTORE_ID],
                old[FRAME_CC_STATE],
                action,
                event.kind,
                _chain_after(old),
            )
        )

    def _apply_targeted(self, state: _ThreadState, event: CallEvent) -> bool:
        """Targeted-mode handling of calls touching untracked code.

        Returns ``False`` for tracked→tracked calls, which take the
        normal path unchanged.  The three other cases never touch the
        graph, dictionary or encoder:

        * tracked→untracked (*departure*): push ``<id, UNTRACKED,
          caller>`` and mark the id — the Figure 2(b) discipline with the
          reserved callsite, so Algorithm 1 can resume at the caller;
        * untracked→untracked (*interior*): a shadow frame only.  This
          is the cheap uninstrumented path targeted encoding buys;
        * untracked→tracked (*re-entry*): push ``<id, UNTRACKED,
          callee>`` (the id is already marked by the departure push) so
          the decoder can emit the ``<untracked>`` pseudo-step and
          continue below it.

        Tail calls merge into the replaced frame's chain exactly like
        :meth:`_apply_tail_call`, so the executor's one-return-per-chain
        contract and the TcStack restore (Figure 7) hold across
        boundaries.
        """
        fns = self._targeted_fns
        assert fns is not None
        caller_in = event.caller in fns
        callee_in = event.callee in fns
        if caller_in and callee_in:
            return False

        if event.kind is CallKind.TAIL:
            old = state.frames.pop()
            if old[FRAME_FUNCTION] in fns:
                self._tail_calling_functions.add(old[FRAME_FUNCTION])
            chain = _chain_after(old)
            restore_id = old[FRAME_RESTORE_ID]
            cc_state = old[FRAME_CC_STATE]
        else:
            chain = ()
            restore_id = state.id_value
            cc_state = state.ccstack.saved_state()

        if caller_in or callee_in:  # departure or re-entry
            if event.kind is CallKind.TAIL:
                self.stats.tail_calls += 1
            self.stats.boundary_crossings += 1
            state.ccstack.push(
                state.id_value,
                UNTRACKED_CALLSITE,
                event.caller if caller_in else event.callee,
            )
            # Charged, but kept out of the trigger-(c) window: no
            # encoding can remove a boundary push.
            self.cost.charge_ccstack_push()
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
            state.id_value = self._current.max_id + 1
            action = _Action.BOUNDARY_DEP if caller_in else _Action.BOUNDARY_RE
        else:  # interior untracked
            self.stats.untracked_calls += 1
            action = _Action.UNTRACKED

        state.frames.append(
            (event.callee, event.callsite, restore_id, cc_state, action, event.kind, chain)
        )
        return True

    # ------------------------------------------------------------------
    # adaptive re-encoding
    # ------------------------------------------------------------------
    def _maybe_check_triggers(self) -> None:
        if self._window.calls < self.config.adaptive.check_interval:
            return
        if (
            self.config.max_reencodings is not None
            and self.stats.reencodings >= self.config.max_reencodings
        ):
            self._window = WindowStats()
            return
        pending = self.graph.num_edges - self._edges_at_last_encode
        decision = self.policy.evaluate(self._window, pending)
        self._window = WindowStats()
        if decision.reencode:
            self.reencode(tuple(decision.reasons), decision=decision)

    def reencode(
        self,
        reasons: Tuple[str, ...] = ("manual",),
        decision: Optional[TriggerDecision] = None,
    ) -> bool:
        """One full adaptive re-encoding pass (Section 4), transactional.

        Suspends the world (cost-modelled), reclassifies back edges,
        re-encodes with frequency ordering, re-patches indirect sites,
        bumps ``gTimeStamp``, and regenerates every thread's live id and
        ccStack under the new dictionary.  Every pass that completes
        appends one :class:`~repro.obs.report.ReencodePassReport` to
        ``reencode_passes`` — the trigger decision, what changed, and the
        wall-clock cost — and the ``engine.reencode`` span carries the
        same report as its attributes.

        The pass builds its candidate, then commits once.  Every fallible
        step comes first: the new dictionary is encoded at the next
        ``gTimeStamp`` and must pass the commit gate
        (``invariants.check_dictionary``), and every thread's regenerated
        id, ccStack and frames are built against it.  Only then is
        anything installed: ``gTimeStamp`` and the dictionary, the
        indirect-site patches and the thread states.  A pass that fails
        before that point installs nothing, so a failed adaptation can
        never leave threads straddling two timestamps; it restores only
        the two analyses written in place beforehand, the back-edge flags
        and the compressed set.  In ``strict`` fault policy the failure
        raises :class:`~repro.core.errors.ReencodeError`; in ``recover``
        the abort is quarantined and the engine keeps the old encoding.

        A *triggered* pass (one carrying its trigger ``decision``) whose
        candidate would change nothing — the same encodings and maxID,
        back-edge flags, compressed set and indirect patch order — is a
        **no-op**: it bumps no ``gTimeStamp``, adds no dictionary,
        regenerates no thread and leaves the fast-path table valid.  It
        is absent from ``reencode_log`` and calls no listener; it is
        counted in ``stats.reencode_noops``, charged the per-edge
        analysis only, reported with outcome ``no-op``, and the policy
        backs trigger (c) off (:meth:`AdaptivePolicy.note_noop`).
        Explicit calls always commit.

        Returns ``True`` when the pass committed.
        """
        started = time.perf_counter()
        pass_span = (
            self.spans.span(
                "engine.reencode", stage="engine", reasons=list(reasons)
            )
            if self.spans.enabled
            else None
        )
        previous_max_id = self._current.max_id
        new_edges = self.graph.num_edges - self._edges_at_last_encode
        candidate_ts = self._timestamp + 1
        back_flags = [(edge, edge.is_back) for edge in self.graph.edges()]
        previous_compressed = self.policy.compressed_edges
        try:
            edges_reclassified = 0
            if self.config.reclassify_back_edges:
                edges_reclassified = classify_back_edges(self.graph)
            compressed_edges = self.policy.refresh_compressed_edges()

            order = (
                frequency_order
                if self.config.frequency_ordering
                else insertion_order
            )
            encoder = Encoder(order_policy=order, id_bits=self.config.id_bits)
            candidate = encoder.encode(self.graph, timestamp=candidate_ts)
            violations = self._commit_gate(candidate)
            if violations:
                raise ReencodeError(
                    "re-encoding pass %d failed its commit gate: %s"
                    % (candidate_ts, "; ".join(violations)),
                    gts=candidate_ts,
                    violations=list(violations),
                )
            patches = self._indirect_patch_plan()
            # The candidate's edge records carry every edge's encoding
            # and back-edge flag, so equal records plus an equal maxID
            # cover both; the compressed set and the indirect patch
            # order are compared directly.
            noop = (
                decision is not None
                and candidate.same_encoding(self._current)
                and compressed_edges == previous_compressed
                and self.indirect.patched_as(patches)
            )
            regenerated = [] if noop else [
                (state, self._regenerated(state, candidate))
                for state in self._threads.values()
            ]
        except Exception as error:
            # The two analyses above write in place; nothing else was
            # installed yet.
            for edge, was_back in back_flags:
                edge.is_back = was_back
            self.policy.restore_compressed(previous_compressed)
            if isinstance(error, ReencodeError):
                failure = error
            else:
                failure = ReencodeError(
                    "re-encoding pass %d failed: %s" % (candidate_ts, error),
                    gts=candidate_ts,
                    cause=repr(error),
                )
                failure.__cause__ = error
            logger.warning(
                "re-encoding pass %d rolled back: %s", candidate_ts, failure
            )
            if pass_span is not None:
                pass_span.set(error=type(error).__name__, rolled_back=True)
                pass_span.__exit__(None, None, None)
            if not self._recover:
                raise failure
            self._quarantine(
                FaultKind.REENCODE_ABORTED,
                str(failure),
                recovery=RecoveryAction.ROLLED_BACK,
                reasons=list(reasons),
            )
            return False

        sites_patched = 0
        if not noop:
            self._timestamp = candidate_ts
            self._current = candidate
            self.dictionaries.add(candidate)
            self._edges_at_last_encode = self.graph.num_edges
            sites_patched = self._repatch_indirect_sites(patches)
            for state, fresh in regenerated:
                state.id_value, state.ccstack, state.frames = fresh

        # A no-op still paid for the analysis, but suspended no thread.
        threads = 0 if noop else len(self._threads)
        cost = (
            self.graph.num_edges * self.cost.parameters.reencode_per_edge
            + threads * self.cost.parameters.thread_suspend
        )
        self.cost.charge_reencode(self.graph.num_edges, threads)
        self.stats.reencode_cost_cycles += cost
        report = ReencodePassReport(
            timestamp=self._timestamp,
            reasons=tuple(reasons),
            at_call=self.stats.calls,
            nodes=self.graph.num_nodes,
            edges=self.graph.num_edges,
            edges_reclassified=edges_reclassified,
            new_edges=new_edges,
            encoded_edges=self._current.num_encoded_edges,
            max_id=self._current.max_id,
            previous_max_id=previous_max_id,
            threads_regenerated=threads,
            indirect_sites_patched=sites_patched,
            compressed_edges=len(compressed_edges),
            duration_seconds=time.perf_counter() - started,
            cost_cycles=cost,
            window=decision.window_dict() if decision else None,
            outcome="no-op" if noop else "committed",
        )
        self.reencode_passes.append(report)
        if noop:
            self.stats.reencode_noops += 1
            self.policy.note_noop()
            logger.debug(
                "re-encoding pass at call %d changed nothing: reasons=%s",
                self.stats.calls, ",".join(reasons),
            )
        else:
            self.stats.reencodings += 1
            self.policy.note_commit()
            for listener in self.reencode_listeners:
                try:
                    listener(report)
                except Exception:
                    logger.exception("reencode listener %r failed", listener)
            logger.debug(
                "re-encoding pass %d at call %d: reasons=%s edges=%d maxID=%d",
                self._timestamp, self.stats.calls, ",".join(reasons),
                self.graph.num_edges, self._current.max_id,
            )
        if pass_span is not None:
            pass_span.set(**report.to_dict())
            pass_span.__exit__(None, None, None)
        if self._obs:
            self.telemetry.record_pass(report)
        return not noop

    def _commit_gate(self, dictionary: EncodingDictionary) -> List[str]:
        """Soundness check gating a re-encoding pass (overridable seam).

        Returns the list of invariant violations; any non-empty result
        aborts and rolls back the pass.  The fault-injection harness
        replaces this to force mid-pass failures.
        """
        return check_dictionary(dictionary)

    def _indirect_patch_plan(self) -> Dict[CallSiteId, List[FunctionId]]:
        """Per-site target lists ordered hottest-first (Figure 3(d))."""
        by_site: Dict[CallSiteId, List[CallEdge]] = {}
        for edge in self.graph.edges():
            if edge.kind is CallKind.INDIRECT:
                by_site.setdefault(edge.callsite, []).append(edge)
        return {
            callsite: [
                e.callee for e in sorted(edges, key=lambda e: -e.invocations)
            ]
            for callsite, edges in by_site.items()
        }

    def _repatch_indirect_sites(
        self, plan: Dict[CallSiteId, List[FunctionId]]
    ) -> int:
        """Install the planned per-site target sets.

        Returns the number of sites patched; promotions to the hash
        strategy (Figure 4) are recorded on the span log when it is on.
        """
        for callsite, targets in plan.items():
            promoted = self.indirect.site(callsite).patch(
                targets, hash_threshold=self.config.hash_threshold
            )
            if promoted:
                self._event(
                    "indirect_promotion",
                    callsite=callsite,
                    targets=len(targets),
                    gts=self._timestamp,
                )
        return len(plan)

    def _regenerated(
        self, state: _ThreadState, dictionary: EncodingDictionary
    ) -> Tuple[int, CcStack, List[Frame]]:
        """The thread's id, ccStack and frames rebuilt under ``dictionary``.

        The paper patches return addresses in regenerated instrumentation;
        the observable effect is that the live encoding context is exactly
        what the new instrumentation would have produced — which is what
        replaying the shadow stack computes.  Builds new objects and
        assigns nothing: a re-encoding pass installs them only once it
        commits, and a resync installs them against the current
        dictionary at once.
        """
        # The replay's pushes count into the new stack's own counters,
        # which it trades for the engine's once built.
        ccstack = CcStack()
        if state.spawned_entry is not None:
            ccstack.push(0, CLONE_CALLSITE, state.spawned_entry)
            id_value = dictionary.max_id + 1
        else:
            id_value = 0

        bottom = state.frames[0]
        new_frames: List[Frame] = [
            (
                bottom[FRAME_FUNCTION],
                bottom[FRAME_CALLSITE],
                id_value,
                ccstack.saved_state(),
                _Action.NONE,
                bottom[FRAME_KIND],
                (),
            )
        ]

        fns = self._targeted_fns
        prev_fn = bottom[FRAME_FUNCTION]
        for frame in state.frames[1:]:
            chain_restore_id = id_value
            chain_cc_state = ccstack.saved_state()
            transitions = list(frame[FRAME_CHAIN]) + [
                (frame[FRAME_FUNCTION], frame[FRAME_CALLSITE], frame[FRAME_KIND])
            ]
            action = _Action.NONE
            for function, callsite, kind in transitions:
                if fns is not None and (
                    prev_fn not in fns or function not in fns
                ):
                    # Boundary/untracked transition: replay the targeted
                    # discipline — these edges are never in the graph.
                    if prev_fn in fns:
                        ccstack.push(
                            id_value, UNTRACKED_CALLSITE, prev_fn
                        )
                        id_value = dictionary.max_id + 1
                        action = _Action.BOUNDARY_DEP
                    elif function in fns:
                        ccstack.push(
                            id_value, UNTRACKED_CALLSITE, function
                        )
                        id_value = dictionary.max_id + 1
                        action = _Action.BOUNDARY_RE
                    else:
                        action = _Action.UNTRACKED
                    prev_fn = function
                    continue
                edge = self.graph.edge(callsite, function)
                encoding = (
                    None if edge.is_back else dictionary.encoding(callsite, function)
                )
                if encoding is not None:
                    id_value += encoding
                    action = _Action.ID if encoding else _Action.NONE
                else:
                    compressed = ccstack.push(
                        id_value,
                        callsite,
                        function,
                        allow_compress=edge.is_back
                        and self._compression_allowed(edge),
                        discovery=not edge.is_back,
                    )
                    id_value = dictionary.max_id + 1
                    if not edge.is_back:
                        action = _Action.DISCOVERY_PUSH
                    elif compressed:
                        action = _Action.COMPRESS
                    else:
                        action = _Action.PUSH
                prev_fn = function
            new_frames.append(
                (
                    frame[FRAME_FUNCTION],
                    frame[FRAME_CALLSITE],
                    chain_restore_id,
                    chain_cc_state,
                    action,
                    frame[FRAME_KIND],
                    frame[FRAME_CHAIN],
                )
            )

        ccstack.stats = self._ccstack_stats
        return id_value, ccstack, new_frames
