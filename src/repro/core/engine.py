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
    ColumnarKernel,
    FastPathStats,
    FastPathTable,
    KernelShape,
    cached_kernel,
    compile_columnar_kernel,
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
    #: Retained quarantine records (older ones are evicted but counted).
    fault_log_capacity: int = 1024
    #: Run ``invariants.check_dictionary`` as the commit gate of every
    #: re-encoding pass; a failing pass is rolled back completely.
    reencode_commit_gate: bool = True


class _Action(enum.Enum):
    """What the forward instrumentation of a call did (for the unwind)."""

    NONE = 0            # encoding 0 — no instrumentation at all
    ID = 1              # id += En
    PUSH = 2            # ccStack push (recursive back edge)
    COMPRESS = 3        # ccStack counter bump (compressed recursion)
    DISCOVERY_PUSH = 4  # ccStack push for a not-yet-encoded edge
    UNTRACKED = 5       # targeted mode: interior untracked call, no work
    BOUNDARY_DEP = 6    # targeted mode: departure from the subgraph
    BOUNDARY_RE = 7     # targeted mode: re-entry into the subgraph


@dataclass(slots=True)
class _Frame:
    """Shadow-stack frame.

    ``chain`` holds the (function, callsite, kind) sequence of tail-call
    replaced predecessors — the logical context includes them even though
    their machine frames are gone.  ``restore_id`` / ``cc_state`` are the
    encoding context at entry of the *chain head*, which is what the
    TcStack restores after a tail-call chain returns (Figure 7).

    Frames are allocated once per dynamic call and never mutated, so the
    chain is an immutable tuple (shared between a frame and its
    regenerated twin) and the class is slotted — both shave per-call
    allocation cost off the hot path.
    """

    function: FunctionId
    callsite: Optional[CallSiteId]
    restore_id: int
    cc_state: Tuple[int, int]
    action: _Action
    kind: CallKind = CallKind.NORMAL
    chain: Tuple[Tuple[FunctionId, CallSiteId, CallKind], ...] = ()

    @property
    def is_tail_chain(self) -> bool:
        return bool(self.chain)


@dataclass
class _ThreadState:
    """Per-thread TLS block: context id, ccStack, shadow stack."""

    thread: ThreadId
    id_value: int
    ccstack: CcStack
    frames: List[_Frame]
    spawned_entry: Optional[FunctionId] = None


@dataclass
class ReencodeRecord:
    """One re-encoding pass — the Figure 9 time series and Table 1 costs."""

    timestamp: int
    at_call: int
    nodes: int
    edges: int
    max_id: int
    reasons: Tuple[str, ...]
    cost_cycles: float


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
    (``benchmarks/bench_profile_overhead.py`` measures both).
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
            graph = warm_start.graph
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
        self.faults = FaultLog(capacity=self.config.fault_log_capacity)
        # Fault policy behind one boolean (same pattern as telemetry): the
        # strict hot path pays a single guard per event, nothing else.
        self._recover = self.config.fault_policy is FaultPolicy.RECOVER
        self.samples: List[CollectedSample] = []
        self.reencode_log: List[ReencodeRecord] = []
        #: Called synchronously with each committed pass's record — the
        #: ingest plane's frame-emission hook (see ``repro.ingest``).
        #: Listener exceptions are logged, never raised into the pass.
        self.reencode_listeners: List[Callable[[ReencodeRecord], None]] = []
        self.thread_parents: Dict[ThreadId, CollectedSample] = {}
        self._timestamp = 0
        self._window = WindowStats()
        self._edges_at_last_encode = 0
        self._tail_calling_functions: Set[FunctionId] = set()
        self._threads: Dict[ThreadId, _ThreadState] = {}
        # ccStack counters of threads that already exited (Table 1 sums
        # traffic over the whole run, not just live threads).
        self._retired_ccstack = {
            "pushes": 0,
            "pops": 0,
            "compressions": 0,
            "decompressions": 0,
            "max_depth": 0,
        }

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
            ccstack=CcStack(compression_enabled=True),
            frames=[
                _Frame(
                    function=root,
                    callsite=None,
                    restore_id=0,
                    cc_state=(0, 0),
                    action=_Action.NONE,
                )
            ],
        )
        # Fast-path specialisation state (docs/PERFORMANCE.md).  The
        # compiled dispatch table is built lazily on the first batch and
        # re-built whenever its (dictionary identity, tail-set size)
        # pins go stale.  Subclasses that override any handler the kernel
        # bypasses (``GlobalIdEngine`` replaces on_call/on_return
        # wholesale) are detected here and transparently deoptimised to
        # per-event dispatch — behaviour first, speed second.
        self._fastpath: Optional[FastPathTable] = None
        self.fastpath = FastPathStats()
        cls = type(self)
        self._fastpath_enabled = (
            cls.on_call is DacceEngine.on_call
            and cls.on_return is DacceEngine.on_return
            and cls._apply_call is DacceEngine._apply_call
            and cls._apply_direct is DacceEngine._apply_direct
            and cls._push_unencoded is DacceEngine._push_unencoded
            and cls._would_repeat is DacceEngine._would_repeat
            and cls._compression_allowed is DacceEngine._compression_allowed
            and cls._maybe_check_triggers is DacceEngine._maybe_check_triggers
        )
        # Shared LRU decode cache: dictionaries are immutable and
        # thread-parent samples are write-once, so a successful decode
        # stays valid for the lifetime of the engine (docs/PERFORMANCE.md).
        self._decode_cache = DecodeCache()
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
        """Create push-mode instruments and the pull-mode collector."""
        registry = self.telemetry.registry
        depth_buckets = self.telemetry.config.depth_buckets
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
            buckets=depth_buckets,
        )
        self._h_callstack_depth = registry.histogram(
            "callstack_depth",
            "Logical call-stack depth at each collected sample.",
            buckets=depth_buckets,
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

        ``DacceStats``, the retired-ccStack merge and the indirect
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
        if self._recover:
            self._on_event_recover(event)
            return
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
            raise TraceError(
                "unknown event %r" % (event,),
                event=repr(event),
                gts=self._timestamp,
            )

    # ------------------------------------------------------------------
    # fast-path processing (code-generated columnar dispatch)
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
        """Process a struct-of-arrays batch through a generated kernel.

        The steady state — a NORMAL call over an edge the current
        dictionary encodes or over a recursive back edge, and the
        matching return — runs inside a dispatch function ``exec``-ed
        once per engine shape and process
        (:func:`repro.core.fastpath.compile_columnar_kernel`), whose
        inner loop iterates raw integer columns with one dict probe and
        one integer add per hot event (a ccStack push or pop per
        back-edge event), with statistics, window counters, cost charges
        and telemetry folded into per-run flushes.

        Everything else (unencoded edges, indirect/tail/PLT calls,
        tail-chain returns, samples, thread events, malformed events
        under the recover policy) *deoptimises* without leaving the
        kernel: it
        calls this batch's ``deopt`` closure, which flushes the folded
        counters, materialises that single compact tuple
        (``cols.record(i)``) and dispatches it through :meth:`on_event`,
        so the general path — fault quarantine, warm-start accounting,
        adaptive re-encoding — behaves exactly as in per-event
        processing.  The kernel exits only when the batch is done, a
        sample fires, the adaptive window fills or a general-path event
        made it stale; every run resumes the same iterator over the
        column views.

        Folded counters are flushed before every deoptimisation and
        every adaptive trigger check, so anything the general path
        observes (``stats.calls`` in fault records, window evidence in
        trigger decisions, re-encoding pass reports) sees the same
        values as per-event processing.  The differential property suite
        (``tests/core/test_fastpath_property.py``) asserts byte-identical
        end states.
        """
        if not self._fastpath_enabled:
            # Subclass overrides a bypassed handler: per-event dispatch.
            on_event = self.on_event
            for record in cols.iter_compact():
                on_event(inflate(record))
            return
        if not len(cols):
            return
        fp = self.fastpath
        fp.batches += 1
        flush = self._flush_fastpath_counters
        on_event = self.on_event
        record = cols.record
        tail_set = self._tail_calling_functions

        # Set at the top of each kernel run: the table and sampling shape
        # the kernel was compiled against, which ``deopt`` compares with
        # the engine's state after each general-path event.
        table: FastPathTable
        profiled: bool

        def deopt(
            i: int,
            calls: int,
            returns: int,
            id_updates: int,
            tcstack: int,
            pushes: int,
            compressions: int,
            pops: int,
            hits: int,
            pcount: int,
        ) -> Tuple[int, int, bool]:
            if hits:
                fp.hits += hits
                flush(
                    calls, returns, id_updates, tcstack, pushes, compressions,
                    pops,
                )
            fp.misses += 1
            prof = self._prof
            if prof is not None:
                # The general path decrements the hook's own countdown;
                # keep the kernel's register coherent across it.
                prof.countdown = pcount
            on_event(inflate(record(i)))
            prof = self._prof
            return (
                self._window.calls,
                prof.countdown if prof is not None else 0,
                self._current is not table.dictionary
                or len(tail_set) != table.tail_set_size
                or (prof is not None) is not profiled,
            )

        views = cols.views()
        events = zip(*views)
        i = -1
        try:
            while True:
                table = self._ensure_fastpath()
                kernel = self._ensure_columnar_kernel()
                prof = self._prof
                profiled = prof is not None
                (
                    i,
                    reason,
                    thread,
                    calls,
                    returns,
                    id_updates,
                    tcstack,
                    pushes,
                    compressions,
                    pops,
                    hits,
                    pcount,
                ) = kernel(
                    events,
                    i,
                    self._threads,
                    prof.countdown if prof is not None else 0,
                    self._window.calls,
                    deopt,
                    table.entries.get,
                    table.back_entries.get,
                    table.dictionary.max_id + 1,
                    self.stats,
                    self._h_ccstack_depth.observe if self._obs else None,
                )
                # Flush the folded counters before any general-path work:
                # everything a sample callback or a trigger check
                # observes must match per-event state.
                fp.hits += hits
                flush(
                    calls, returns, id_updates, tcstack, pushes, compressions,
                    pops,
                )
                # A sample callback run by a deopt may have swapped hooks.
                prof = self._prof
                if prof is not None:
                    prof.countdown = pcount
                if reason == KERNEL_DONE:
                    break
                if reason == KERNEL_SAMPLE:
                    if prof is not None:
                        prof.countdown = prof.every
                        self._fire_profile_sample(prof, thread)
                elif reason == KERNEL_TRIGGER:
                    self._maybe_check_triggers()
        finally:
            for view in views:
                view.release()

    def _flush_fastpath_counters(
        self,
        calls: int,
        returns: int,
        id_updates: int,
        tcstack: int,
        pushes: int,
        compressions: int,
        pops: int,
    ) -> None:
        """Fold per-run kernel counters into engine state.

        The charges are exact under folding: the cost parameters
        involved (baseline 150.0, id_update 1.5, tcstack 5.0, ccStack
        push/compress/pop 9.0/7.0/6.0) are dyadic rationals, so ``n``
        separate float adds and one ``n *`` multiply produce
        bit-identical sums.
        """
        obs = self._obs
        if calls:
            self.stats.calls += calls
            self._window.calls += calls
            self.cost.charge_call_baseline(calls)
            if obs:
                self._m_calls[CallKind.NORMAL].inc(calls)
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
            if pushes:
                self.cost.charge_ccstack_push(pushes)
            if compressions:
                self.cost.charge_ccstack_compress(compressions)
            if pops:
                self.cost.charge_ccstack_pop(pops)

    def _ensure_columnar_kernel(self) -> ColumnarKernel:
        """The generated dispatch kernel for the current engine shape.

        Warm-start accounting, the sampling countdown and the
        ccStack-depth histogram exist in the generated source only while
        those features are live, and the adaptive check interval is
        inlined as a literal; everything per epoch or per engine is a
        kernel argument.  Kernels are cached process-wide by shape, so
        only the first run of a shape in the process compiles (and
        records an ``engine.kernel_compile`` span).
        """
        shape: KernelShape = (
            bool(self._warm),
            self._prof is not None,
            self._obs,
            self.config.adaptive.check_interval,
        )
        kernel = cached_kernel(shape)
        if kernel is None:
            with self.spans.span(
                "engine.kernel_compile",
                stage="engine",
                gts=self._timestamp,
                warm=shape[0],
                profiled=shape[1],
                obs=shape[2],
                interval=shape[3],
            ):
                kernel = compile_columnar_kernel(
                    shape, frame_factory=_Frame, actions=_Action
                )
        return kernel

    def fastpath_stats(self) -> Dict[str, object]:
        """Fast-path specialisation counters (plus table shape)."""
        snapshot = self.fastpath.to_dict()
        snapshot["enabled"] = self._fastpath_enabled
        snapshot["table_entries"] = (
            len(self._fastpath) if self._fastpath is not None else 0
        )
        return snapshot

    # ------------------------------------------------------------------
    # fault quarantine (recover policy)
    # ------------------------------------------------------------------
    def _on_event_recover(self, event: Event) -> None:
        """Event dispatch under ``FaultPolicy.RECOVER``.

        Malformed events are detected *before* they mutate state where
        possible, quarantined into ``self.faults``, and the affected
        thread is resynchronised against its own shadow stack (the
        paper's ccStack escape hatch: when the compact encoding state is
        suspect, rebuild it from a stack walk).  Nothing raises.
        """
        try:
            if isinstance(event, CallEvent):
                state = self._threads.get(event.thread)
                if state is None:
                    self._quarantine(
                        FaultKind.UNKNOWN_THREAD,
                        "call on unknown thread %d" % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                if state.frames[-1].function != event.caller:
                    self._recover_caller_mismatch(state, event)
                    return
                if event.kind is CallKind.TAIL and len(state.frames) <= 1:
                    self._quarantine(
                        FaultKind.TAIL_BOTTOM,
                        "thread %d: tail call from the bottom frame"
                        % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                self.on_call(event)
            elif isinstance(event, ReturnEvent):
                state = self._threads.get(event.thread)
                if state is None:
                    self._quarantine(
                        FaultKind.UNKNOWN_THREAD,
                        "return on unknown thread %d" % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                if len(state.frames) <= 1:
                    self._quarantine(
                        FaultKind.RETURN_BOTTOM,
                        "thread %d: return from the bottom frame"
                        % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                self.on_return(event)
            elif isinstance(event, SampleEvent):
                if event.thread not in self._threads:
                    # The thread-exit-then-sample race: the sampler fired
                    # after the thread's TLS block was torn down.
                    self._quarantine(
                        FaultKind.UNKNOWN_THREAD,
                        "sample on unknown thread %d" % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                self.on_sample(event)
            elif isinstance(event, ThreadStartEvent):
                if event.thread in self._threads:
                    self._quarantine(
                        FaultKind.DUPLICATE_THREAD,
                        "thread %d already exists" % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                if event.parent not in self._threads:
                    self._quarantine(
                        FaultKind.UNKNOWN_THREAD,
                        "thread %d spawned by unknown parent %d"
                        % (event.thread, event.parent),
                        thread=event.thread,
                        event=event,
                    )
                    return
                self.on_thread_start(event)
            elif isinstance(event, ThreadExitEvent):
                state = self._threads.get(event.thread)
                if state is None:
                    self._quarantine(
                        FaultKind.UNKNOWN_THREAD,
                        "exit of unknown thread %d" % event.thread,
                        thread=event.thread,
                        event=event,
                    )
                    return
                if len(state.frames) > 1:
                    # Missed returns: unwind to the bottom frame, resync
                    # the encoding state, then let the exit proceed.
                    dropped = len(state.frames) - 1
                    del state.frames[1:]
                    self._resync_thread(state)
                    self._quarantine(
                        FaultKind.THREAD_EXIT_LIVE_FRAMES,
                        "thread %d exited with %d live frames"
                        % (event.thread, dropped + 1),
                        thread=event.thread,
                        event=event,
                        recovery=RecoveryAction.UNWOUND,
                        dropped_frames=dropped,
                    )
                self.on_thread_exit(event)
            elif isinstance(event, LibraryLoadEvent):
                pass
            else:
                self._quarantine(
                    FaultKind.UNKNOWN_EVENT,
                    "unknown event %r" % (event,),
                    event=event,
                )
        except DacceError as error:
            # Backstop: any inconsistency the pre-checks did not cover
            # (e.g. a ccStack capacity trap mid-apply).  Quarantine and
            # resynchronise the thread so encoding can continue.
            thread = getattr(event, "thread", None)
            state = self._threads.get(thread) if thread is not None else None
            if state is not None:
                self._resync_thread(state)
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

    def _recover_caller_mismatch(self, state: _ThreadState, event: CallEvent) -> None:
        """Quarantine a call whose caller is not the current function.

        If the claimed caller is live deeper in the shadow stack the
        mismatch is a run of missed returns: unwind to that frame,
        resynchronise, and apply the call normally.  Otherwise the call
        has no consistent interpretation and is dropped.
        """
        for index in range(len(state.frames) - 2, -1, -1):
            if state.frames[index].function == event.caller:
                dropped = len(state.frames) - 1 - index
                del state.frames[index + 1:]
                self._resync_thread(state)
                self._quarantine(
                    FaultKind.CALLER_MISMATCH,
                    "thread %d: call from %d reached with %d frames unwound"
                    % (event.thread, event.caller, dropped),
                    thread=event.thread,
                    event=event,
                    recovery=RecoveryAction.UNWOUND,
                    dropped_frames=dropped,
                )
                self.on_call(event)
                return
        self._quarantine(
            FaultKind.CALLER_MISMATCH,
            "thread %d: call from %d but current function is %d"
            % (event.thread, event.caller, state.frames[-1].function),
            thread=event.thread,
            event=event,
            expected_function=state.frames[-1].function,
        )

    def _resync_thread(self, state: _ThreadState) -> None:
        """The ccStack escape hatch: rebuild encoding state by stack walk.

        Regenerates the thread's live id and ccStack from its shadow
        frames under the current dictionary — exactly what the freshly
        patched instrumentation would have produced — so decoding stays
        consistent with the shadow stack after a quarantined fault.
        """
        self._regenerate_thread(state)

    def _quarantine(
        self,
        kind: FaultKind,
        message: str,
        thread: Optional[ThreadId] = None,
        event: Optional[Event] = None,
        recovery: RecoveryAction = RecoveryAction.DROPPED,
        **detail,
    ) -> FaultRecord:
        """Append one fault to the bounded log; mirror it to telemetry."""
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
        if self._obs:
            self.telemetry.emit(
                "fault",
                kind=kind.value,
                thread=thread,
                gts=self._timestamp,
                at_call=self.stats.calls,
                recovery=recovery.value,
                message=message,
            )
        return record

    def decoder(self) -> Decoder:
        """A decoder over every dictionary produced so far.

        All decoders built from one engine share its LRU
        :class:`~repro.core.decoder.DecodeCache`: dictionaries are
        immutable, thread-parent samples are write-once and the
        callsite-owner map only grows, so a successful decode never goes
        stale (docs/PERFORMANCE.md).
        """
        owners = {edge.callsite: edge.caller for edge in self.graph.edges()}
        return Decoder(
            self.dictionaries,
            dict(self.thread_parents),
            callsite_owners=owners,
            cache=self._decode_cache,
        )

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

    def _sampled_function(self, state: _ThreadState) -> FunctionId:
        """The function a sample reports — the pseudo id when untracked.

        In targeted mode a sample taken while control is outside the
        subgraph reports :data:`UNTRACKED_FUNCTION`: the real function
        has no encoding, and the pseudo id is what lets Algorithm 1
        match the boundary entries on the ccStack.
        """
        function = state.frames[-1].function
        fns = self._targeted_fns
        if fns is not None and function not in fns:
            return UNTRACKED_FUNCTION
        return function

    def _fire_profile_sample(self, hook: SampleHook, thread: ThreadId) -> None:
        state = self._threads.get(thread)
        if state is None:  # pragma: no cover - hook fires post-apply
            return
        sample = CollectedSample(
            timestamp=self._timestamp,
            context_id=state.id_value,
            function=self._sampled_function(state),
            ccstack=state.ccstack.snapshot(),
            thread=thread,
        )
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
        state = self._state(event.thread)
        top = state.frames[-1]
        if top.function != event.caller:
            raise TraceError(
                "thread %d: call from %d but current function is %d"
                % (event.thread, event.caller, top.function),
                thread=event.thread,
                gts=self._timestamp,
                event=event,
                expected_function=top.function,
            )
        self.stats.calls += 1
        self._window.calls += 1
        self.cost.charge_call_baseline()
        if self._obs:
            self._m_calls[event.kind].inc()

        if self._targeted_fns is not None and self._apply_targeted(state, event):
            hook = self._prof
            if hook is not None:
                hook.countdown -= 1
                if hook.countdown <= 0:
                    hook.countdown = hook.every
                    self._fire_profile_sample(hook, event.thread)
            return

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
                hook.countdown = hook.every
                self._fire_profile_sample(hook, event.thread)

    def on_return(self, event: ReturnEvent) -> None:
        state = self._state(event.thread)
        if len(state.frames) <= 1:
            raise TraceError(
                "thread %d: return from the bottom frame" % event.thread,
                thread=event.thread,
                gts=self._timestamp,
                event=event,
            )
        frame = state.frames.pop()
        self.stats.returns += 1
        if self._obs:
            self._m_returns.inc()

        if frame.is_tail_chain:
            # TcStack restoration: one restore covers the whole chain.
            state.ccstack.restore(frame.cc_state)
            if frame.action is not _Action.UNTRACKED:
                # A chain that never left untracked code pushed nothing
                # and carries no TcStack instrumentation to charge.
                self.cost.charge_tcstack()
        elif frame.action is _Action.PUSH or frame.action is _Action.COMPRESS:
            state.ccstack.pop()
            self.cost.charge_ccstack_pop()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif frame.action is _Action.DISCOVERY_PUSH:
            state.ccstack.pop()
            self._charge_discovery_pop()
            self.stats.discovery_ccstack_ops += 1
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif (
            frame.action is _Action.BOUNDARY_DEP
            or frame.action is _Action.BOUNDARY_RE
        ):
            state.ccstack.pop()
            self.cost.charge_ccstack_pop()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
        elif frame.action is _Action.UNTRACKED:
            pass  # interior untracked return: the shadow pop is all
        elif frame.action is _Action.ID:
            self.cost.charge_id_update()
        state.id_value = frame.restore_id

        self._maybe_check_triggers()

    def on_sample(self, event: SampleEvent) -> CollectedSample:
        state = self._state(event.thread)
        sample = CollectedSample(
            timestamp=self._timestamp,
            context_id=state.id_value,
            function=self._sampled_function(state),
            ccstack=state.ccstack.snapshot(),
            thread=event.thread,
        )
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
            decoded = self.decoder().decode(sample)
        except DecodingError as error:
            self.stats.validation_failures += 1
            logger.warning(
                "self-validation: sample (gTS=%d, id=%d, thread=%d) failed "
                "to decode: %s",
                sample.timestamp, sample.context_id, thread, error,
            )
            self.telemetry.emit(
                "validation-failure",
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
            self.telemetry.emit(
                "validation-failure",
                thread=thread,
                gts=sample.timestamp,
                context_id=sample.context_id,
                mode="mismatch",
            )

    def on_thread_start(self, event: ThreadStartEvent) -> None:
        if event.thread in self._threads:
            raise TraceError(
                "thread %d already exists" % event.thread,
                thread=event.thread,
                gts=self._timestamp,
                event=event,
            )
        parent = self._state(event.parent)
        # Intercepted ``clone``: record the spawning context (Section 5.3).
        self.thread_parents[event.thread] = CollectedSample(
            timestamp=self._timestamp,
            context_id=parent.id_value,
            function=self._sampled_function(parent),
            ccstack=parent.ccstack.snapshot(),
            thread=event.parent,
        )
        if self._targeted_fns is not None:
            # Thread entries are force-tracked: an untracked entry would
            # put a re-entry record directly above the clone sentinel and
            # leave the spawned thread's contexts undecodable.
            self._targeted_fns.add(event.entry)
        ccstack = CcStack(compression_enabled=True)
        ccstack.push(0, CLONE_CALLSITE, event.entry)
        state = _ThreadState(
            thread=event.thread,
            id_value=self._current.max_id + 1,
            ccstack=ccstack,
            frames=[
                _Frame(
                    function=event.entry,
                    callsite=None,
                    restore_id=self._current.max_id + 1,
                    cc_state=ccstack.saved_state(),
                    action=_Action.NONE,
                )
            ],
            spawned_entry=event.entry,
        )
        self.graph.add_node(event.entry)
        self._threads[event.thread] = state
        if self._obs:
            self.telemetry.emit(
                "thread-start",
                thread=event.thread,
                parent=event.parent,
                entry=event.entry,
                gts=self._timestamp,
            )

    def on_thread_exit(self, event: ThreadExitEvent) -> None:
        state = self._state(event.thread)
        if len(state.frames) > 1:
            raise TraceError(
                "thread %d exited with %d live frames"
                % (event.thread, len(state.frames)),
                thread=event.thread,
                gts=self._timestamp,
                event=event,
                live_frames=len(state.frames),
            )
        stats = state.ccstack.stats
        self._retired_ccstack["pushes"] += stats.pushes
        self._retired_ccstack["pops"] += stats.pops
        self._retired_ccstack["compressions"] += stats.compressions
        self._retired_ccstack["decompressions"] += stats.decompressions
        self._retired_ccstack["max_depth"] = max(
            self._retired_ccstack["max_depth"], stats.max_depth
        )
        del self._threads[event.thread]
        if self._obs:
            self.telemetry.emit(
                "thread-exit",
                thread=event.thread,
                gts=self._timestamp,
                ccstack_pushes=stats.pushes,
                ccstack_pops=stats.pops,
                ccstack_compressions=stats.compressions,
                ccstack_max_depth=stats.max_depth,
            )

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
            for function, callsite, _kind in frame.chain:
                steps.append(ContextStep(function, callsite))
            steps.append(ContextStep(frame.function, frame.callsite))
        if self._targeted_fns is not None:
            steps = self._collapse_untracked(steps)
        if state.spawned_entry is not None:
            parent_sample = self.thread_parents.get(thread)
            if parent_sample is not None:
                parent = self._shadow_context_of_sample(parent_sample)
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

    def _shadow_context_of_sample(self, sample: CollectedSample) -> CallingContext:
        """Decode a parent-thread spawn sample (threads may have exited)."""
        return self.decoder().decode(sample)

    def call_stack_depth(self, thread: ThreadId = 0) -> int:
        """Logical call-stack depth (tail chains included) — Figure 10."""
        state = self._state(thread)
        return sum(1 + len(frame.chain) for frame in state.frames)

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
        state = self._state(thread)
        sample = CollectedSample(
            timestamp=self._timestamp,
            context_id=state.id_value,
            function=self._sampled_function(state),
            ccstack=state.ccstack.snapshot(),
            thread=thread,
        )
        return self.decoder().decode(sample)

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
            snapshot["reencode_passes"] = self.telemetry.pass_reports.to_list()
        return snapshot

    def ccstack_stats(self) -> Dict[str, int]:
        """Summed ccStack operation counters (live + exited threads)."""
        totals = dict(self._retired_ccstack)
        # list() so a concurrent scrape survives thread start/exit events
        # mutating the dict mid-iteration.
        for state in list(self._threads.values()):
            stats = state.ccstack.stats
            totals["pushes"] += stats.pushes
            totals["pops"] += stats.pops
            totals["compressions"] += stats.compressions
            totals["decompressions"] += stats.decompressions
            totals["max_depth"] = max(totals["max_depth"], stats.max_depth)
        return totals

    # ------------------------------------------------------------------
    # call machinery
    # ------------------------------------------------------------------
    def _state(self, thread: ThreadId) -> _ThreadState:
        try:
            return self._threads[thread]
        except KeyError:
            # Samples racing a thread's exit land here (Section 5.3): the
            # sampler fires after the TLS block is torn down.  Strict mode
            # reports it with full context; recover mode quarantines it
            # (see _on_event_recover).
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
            _Frame(
                function=event.callee,
                callsite=event.callsite,
                restore_id=restore_id,
                cc_state=cc_state,
                action=action,
                kind=event.kind,
            )
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
            repetitive_top = self._would_repeat(state, event)
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

    def _would_repeat(self, state: _ThreadState, event: CallEvent) -> bool:
        # top_matches avoids the frozen-entry allocation of .top() on
        # every back-edge push (per-event allocation audit, PR 4).
        return state.ccstack.top_matches(
            state.id_value, event.callsite, event.callee
        )

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
        if len(state.frames) <= 1:
            raise TraceError(
                "tail call from the bottom frame",
                thread=event.thread,
                gts=self._timestamp,
                event=event,
            )
        old = state.frames.pop()
        self._tail_calling_functions.add(old.function)

        if event.kind is CallKind.INDIRECT:
            action = self._dispatch_indirect(state, event, edge)
        else:
            action = self._apply_direct(state, event, edge)
        state.frames.append(
            _Frame(
                function=event.callee,
                callsite=event.callsite,
                restore_id=old.restore_id,
                cc_state=old.cc_state,
                action=action,
                kind=event.kind,
                chain=old.chain + ((old.function, old.callsite, old.kind),),
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
            if len(state.frames) <= 1:
                raise TraceError(
                    "tail call from the bottom frame",
                    thread=event.thread,
                    gts=self._timestamp,
                    event=event,
                )
            old = state.frames.pop()
            if old.function in fns:
                self._tail_calling_functions.add(old.function)
            chain = old.chain + ((old.function, old.callsite, old.kind),)
            restore_id = old.restore_id
            cc_state = old.cc_state
        else:
            chain = ()
            restore_id = state.id_value
            cc_state = state.ccstack.saved_state()

        if caller_in:  # departure
            if event.kind is CallKind.TAIL:
                self.stats.tail_calls += 1
            self.stats.boundary_crossings += 1
            state.ccstack.push(
                state.id_value, UNTRACKED_CALLSITE, event.caller
            )
            self.cost.charge_ccstack_push()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
            state.id_value = self._current.max_id + 1
            action = _Action.BOUNDARY_DEP
        elif callee_in:  # re-entry
            if event.kind is CallKind.TAIL:
                self.stats.tail_calls += 1
            self.stats.boundary_crossings += 1
            state.ccstack.push(
                state.id_value, UNTRACKED_CALLSITE, event.callee
            )
            self.cost.charge_ccstack_push()
            self._window.ccstack_ops += 1
            if self._obs:
                self._h_ccstack_depth.observe(state.ccstack.depth())
            state.id_value = self._current.max_id + 1
            action = _Action.BOUNDARY_RE
        else:  # interior untracked
            self.stats.untracked_calls += 1
            action = _Action.UNTRACKED

        state.frames.append(
            _Frame(
                function=event.callee,
                callsite=event.callsite,
                restore_id=restore_id,
                cc_state=cc_state,
                action=action,
                kind=event.kind,
                chain=chain,
            )
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
        ccStack under the new dictionary.  When telemetry is enabled a
        structured :class:`~repro.obs.report.ReencodePassReport` records
        the trigger decision, what changed, and the wall-clock cost.

        The pass is a transaction: the new dictionary is built against a
        snapshot of the mutable state and must pass the commit gate
        (``invariants.check_dictionary``) before taking effect.  On any
        failure mid-pass everything is rolled back — ``gTimeStamp``, the
        dictionary set, back-edge classification, indirect-site patches
        and every thread's live encoding state — so a failed adaptation
        can never leave threads straddling two timestamps.  In ``strict``
        fault policy the rollback re-raises as
        :class:`~repro.core.errors.ReencodeError`; in ``recover`` the
        abort is quarantined and the engine keeps the old encoding.

        A *triggered* pass (one carrying its trigger ``decision``) whose
        candidate would change nothing — the same encodings and maxID,
        back-edge flags, compressed set and indirect patch order — is a
        **no-op**: it bumps no ``gTimeStamp``, adds no dictionary,
        regenerates no thread and leaves the fast-path table valid.  It
        appends no ``ReencodeRecord`` and calls no listener; it is
        counted in ``stats.reencode_noops``, charged the per-edge
        analysis only, reported with outcome ``no-op``, and the policy
        backs trigger (c) off (:meth:`AdaptivePolicy.note_noop`).
        Explicit calls always commit.

        Returns ``True`` when the pass committed.
        """
        started = time.perf_counter()
        pass_span = (
            self.spans.span(
                "engine.reencode", stage="engine", reasons=",".join(reasons)
            )
            if self.spans.enabled
            else None
        )
        previous_max_id = self._current.max_id
        new_edges = self.graph.num_edges - self._edges_at_last_encode
        snapshot = self._reencode_snapshot()
        try:
            edges_reclassified = 0
            if self.config.reclassify_back_edges:
                edges_reclassified = classify_back_edges(self.graph)
            compressed_edges = self.policy.refresh_compressed_edges()

            self._timestamp += 1
            order = (
                frequency_order
                if self.config.frequency_ordering
                else insertion_order
            )
            encoder = Encoder(order_policy=order, id_bits=self.config.id_bits)
            self._current = encoder.encode(self.graph, timestamp=self._timestamp)
            if self.config.reencode_commit_gate:
                violations = self._commit_gate(self._current)
                if violations:
                    raise ReencodeError(
                        "re-encoding pass %d failed its commit gate: %s"
                        % (self._timestamp, "; ".join(violations)),
                        gts=self._timestamp,
                        violations=list(violations),
                    )
            patches = self._indirect_patch_plan()
            noop = decision is not None and self._changes_nothing(
                snapshot, compressed_edges, patches
            )
            sites_patched = 0
            if noop:
                self._timestamp = snapshot["timestamp"]
                self._current = snapshot["current"]
            else:
                self.dictionaries.add(self._current)
                self._edges_at_last_encode = self.graph.num_edges
                sites_patched = self._repatch_indirect_sites(patches)
                for state in self._threads.values():
                    self._regenerate_thread(state)
        except Exception as error:
            self._rollback_reencode(snapshot)
            failed_ts = snapshot["timestamp"] + 1
            if isinstance(error, ReencodeError):
                failure = error
            else:
                failure = ReencodeError(
                    "re-encoding pass %d failed: %s" % (failed_ts, error),
                    gts=failed_ts,
                    cause=repr(error),
                )
                failure.__cause__ = error
            logger.warning(
                "re-encoding pass %d rolled back: %s", failed_ts, failure
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

        # A no-op still paid for the analysis, but suspended no thread.
        threads = 0 if noop else len(self._threads)
        cost = (
            self.graph.num_edges * self.cost.parameters.reencode_per_edge
            + threads * self.cost.parameters.thread_suspend
        )
        self.cost.charge_reencode(self.graph.num_edges, threads)
        self.stats.reencode_cost_cycles += cost
        if noop:
            outcome = "no-op"
            self.stats.reencode_noops += 1
            self.policy.note_noop()
            logger.debug(
                "re-encoding pass at call %d changed nothing: reasons=%s",
                self.stats.calls, ",".join(reasons),
            )
        else:
            outcome = "committed"
            self.stats.reencodings += 1
            self.policy.note_commit()
            pass_record = ReencodeRecord(
                timestamp=self._timestamp,
                at_call=self.stats.calls,
                nodes=self.graph.num_nodes,
                edges=self.graph.num_edges,
                max_id=self._current.max_id,
                reasons=reasons,
                cost_cycles=cost,
            )
            self.reencode_log.append(pass_record)
            for listener in self.reencode_listeners:
                try:
                    listener(pass_record)
                except Exception:
                    logger.exception("reencode listener %r failed", listener)
            logger.debug(
                "re-encoding pass %d at call %d: reasons=%s edges=%d maxID=%d",
                self._timestamp, self.stats.calls, ",".join(reasons),
                self.graph.num_edges, self._current.max_id,
            )
        span_field = None
        if pass_span is not None:
            pass_span.set(
                gts=self._timestamp,
                max_id=self._current.max_id,
                outcome=outcome,
            )
            pass_span.__exit__(None, None, None)
            span_field = {
                "trace": pass_span.trace_id,
                "span": pass_span.span_id,
            }
        if self._obs:
            self.telemetry.record_pass(
                ReencodePassReport(
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
                    span=span_field,
                    outcome=outcome,
                )
            )
        return not noop

    def _changes_nothing(
        self,
        snapshot: Dict[str, Any],
        compressed_edges: Set[Tuple[CallSiteId, FunctionId]],
        patches: Dict[CallSiteId, List[FunctionId]],
    ) -> bool:
        """Would committing the candidate pass leave everything as is?

        The candidate dictionary's edge records carry every edge's
        encoding and back-edge flag, so equal records plus an equal
        maxID cover both; the compressed set and the indirect patch
        order are compared directly.
        """
        return (
            self._current.same_encoding(snapshot["current"])
            and compressed_edges == snapshot["compressed"]
            and self.indirect.patched_as(patches)
        )

    def _commit_gate(self, dictionary: EncodingDictionary) -> List[str]:
        """Soundness check gating a re-encoding pass (overridable seam).

        Returns the list of invariant violations; any non-empty result
        aborts and rolls back the pass.  The fault-injection harness
        replaces this to force mid-pass failures.
        """
        return check_dictionary(dictionary)

    def _reencode_snapshot(self) -> Dict[str, Any]:
        """Capture everything a failed re-encoding pass must restore."""
        return {
            "timestamp": self._timestamp,
            "current": self._current,
            "edges_at_last_encode": self._edges_at_last_encode,
            "generation": self.graph.generation,
            "back_flags": [(edge, edge.is_back) for edge in self.graph.edges()],
            "compressed": self.policy.compressed_edges,
            "indirect": self.indirect.snapshot_patches(),
            # Regeneration replaces the ccstack/frames objects wholesale
            # (never mutates them in place), so holding references is a
            # complete snapshot of the per-thread encoding state.
            "threads": {
                thread: (state.id_value, state.ccstack, list(state.frames))
                for thread, state in self._threads.items()
            },
        }

    def _rollback_reencode(self, snapshot: Dict[str, Any]) -> None:
        """Restore the exact pre-pass state captured by the snapshot."""
        self._timestamp = snapshot["timestamp"]
        self._current = snapshot["current"]
        self._edges_at_last_encode = snapshot["edges_at_last_encode"]
        for edge, was_back in snapshot["back_flags"]:
            edge.is_back = was_back
        self.graph.generation = snapshot["generation"]
        self.policy.restore_compressed(snapshot["compressed"])
        self.dictionaries.discard_newer(snapshot["timestamp"])
        self.indirect.restore_patches(snapshot["indirect"])
        for thread, (id_value, ccstack, frames) in snapshot["threads"].items():
            state = self._threads.get(thread)
            if state is not None:
                state.id_value = id_value
                state.ccstack = ccstack
                state.frames = frames

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
        strategy (Figure 4) are traced when telemetry is enabled.
        """
        for callsite, targets in plan.items():
            promoted = self.indirect.site(callsite).patch(
                targets, hash_threshold=self.config.hash_threshold
            )
            if promoted and self._obs:
                self.telemetry.emit(
                    "indirect-promotion",
                    callsite=callsite,
                    targets=len(targets),
                    gts=self._timestamp,
                )
        return len(plan)

    def _regenerate_thread(self, state: _ThreadState) -> None:
        """Rebuild id/ccStack/frames under the new dictionary.

        The paper patches return addresses in regenerated instrumentation;
        the observable effect is that the live encoding context is exactly
        what the new instrumentation would have produced — which is what
        replaying the shadow stack computes.
        """
        ccstack = CcStack(compression_enabled=True)
        old_stats = state.ccstack.stats
        if state.spawned_entry is not None:
            ccstack.push(0, CLONE_CALLSITE, state.spawned_entry)
            id_value = self._current.max_id + 1
        else:
            id_value = 0

        new_frames: List[_Frame] = []
        bottom = state.frames[0]
        new_frames.append(
            _Frame(
                function=bottom.function,
                callsite=bottom.callsite,
                restore_id=id_value,
                cc_state=ccstack.saved_state(),
                action=_Action.NONE,
                kind=bottom.kind,
            )
        )

        fns = self._targeted_fns
        prev_fn = bottom.function
        for frame in state.frames[1:]:
            chain_restore_id = id_value
            chain_cc_state = ccstack.saved_state()
            transitions = list(frame.chain) + [
                (frame.function, frame.callsite, frame.kind)
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
                        id_value = self._current.max_id + 1
                        action = _Action.BOUNDARY_DEP
                    elif function in fns:
                        ccstack.push(
                            id_value, UNTRACKED_CALLSITE, function
                        )
                        id_value = self._current.max_id + 1
                        action = _Action.BOUNDARY_RE
                    else:
                        action = _Action.UNTRACKED
                    prev_fn = function
                    continue
                edge = self.graph.edge(callsite, function)
                encoding = self._edge_encoding(edge)
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
                    id_value = self._current.max_id + 1
                    action = (
                        _Action.COMPRESS if compressed else _Action.PUSH
                    )
                prev_fn = function
            new_frames.append(
                _Frame(
                    function=frame.function,
                    callsite=frame.callsite,
                    restore_id=chain_restore_id,
                    cc_state=chain_cc_state,
                    action=action,
                    kind=frame.kind,
                    chain=frame.chain,
                )
            )

        # Preserve accumulated traffic statistics across regeneration.
        ccstack.stats = old_stats
        state.ccstack = ccstack
        state.id_value = id_value
        state.frames = new_frames
