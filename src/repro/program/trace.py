"""Stochastic trace executor — turns a program model into an event stream.

The executor is a stack machine: per thread it keeps the live frame stack
and repeatedly either calls (picking a call site by weight, then a target
by target weight) or returns, steering the stack depth toward a target
with a logistic policy.  It reproduces the dynamic phenomena the paper's
evaluation depends on:

* Zipf-skewed hot call paths (site weights from the generator),
* execution *phases* that reshuffle the hot paths mid-run — the paper's
  trigger "the frequently invoked call paths have changed",
* recursion with a two-knob model matching Table 1's shape: *entry* into
  recursion is rare (tiny weights on cycle-closing sites) while a burst,
  once entered, keeps recursing with probability ``recursion_affinity``
  — giving the low ccStack rates but non-trivial depths of
  445.gobmk/483.xalancbmk (Figure 10),
* lazily loaded libraries whose PLT targets only bind at runtime,
* multiple threads with interleaved scheduling and ``clone`` events,
* periodic sampling (the libpfm4 module of Section 6.1).

Everything is deterministic in the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.columnar import EventColumns
from ..core.errors import TraceError
from ..core.events import (
    EV_CALL,
    EV_LIBRARY_LOAD,
    EV_RETURN,
    EV_SAMPLE,
    EV_THREAD_EXIT,
    EV_THREAD_START,
    KIND_CODE,
    CallKind,
    CallSiteId,
    CompactEvent,
    Event,
    FunctionId,
    ThreadId,
    inflate,
)
from .model import CallSiteDef, Program


@dataclass
class ThreadSpec:
    """A worker thread: spawned by main once ``spawn_at_call`` calls ran."""

    thread: ThreadId
    entry: FunctionId
    spawn_at_call: int = 0


@dataclass
class PhaseSpec:
    """A phase change: at ``at_call``, hot paths are reshuffled.

    Per-site weight multipliers are redrawn from an exponential
    distribution seeded with ``seed`` and indirect target preferences are
    rotated, so previously cold paths become hot — which is what makes
    the adaptive trigger 2 fire mid-run.
    """

    at_call: int
    seed: int = 1


@dataclass
class WorkloadSpec:
    """Executor parameters."""

    calls: int = 50_000
    seed: int = 0
    #: Emit a SampleEvent every this many calls (0 disables sampling).
    sample_period: int = 97
    target_depth: int = 12
    depth_scale: float = 3.0
    max_depth: int = 220
    #: Probability that a recursion burst continues one more level once
    #: entered (entry itself is governed by recursive-site weights).
    recursion_affinity: float = 0.0
    #: Whether recursion establishes a persistent base under which normal
    #: calling continues (gobmk/xalancbmk-style long-lived recursion —
    #: high average ccStack depth, low ccStack rate) or unwinds promptly
    #: (milc-style rapid push/pop — high rate, near-zero depth).
    persistent_recursion: bool = True
    threads: List[ThreadSpec] = field(default_factory=list)
    phases: List[PhaseSpec] = field(default_factory=list)
    #: Average number of consecutive steps a thread keeps the CPU.
    scheduler_burst: int = 24
    #: Mean number of quanta between *unwind episodes*: the thread
    #: returns to (near) its bottom frame and re-descends, the way a
    #: program's main loop starts a fresh iteration.  Without this the
    #: depth-steering walk would stay inside one subtree for the whole
    #: run — real call profiles repeatedly re-enter the hot paths from
    #: the top.  0 disables episodes.
    unwind_period: int = 300
    #: Maximum consecutive tail-call replacements of one frame.  Deep
    #: forward tail chains are rare in real code (compilers rewrite the
    #: common self-tail case into loops) and would otherwise grow the
    #: logical context without bound.
    max_tail_chain: int = 3


@dataclass
class _ExecThread:
    """Executor-side per-thread state.

    ``rec_positions`` holds the stack indices of recursively entered
    frames.  The depth policy steers the stack *relative to the deepest
    recursion frame*, so a recursion burst establishes a new base under
    which normal calling continues — real recursive programs (gobmk's
    game-tree search, xalancbmk's tree walks) keep their recursion alive
    while making millions of ordinary calls beneath it, which is what
    gives Table 1's combination of high average ccStack depth and low
    ccStack operation rate.
    """

    stack: List[Tuple[FunctionId, bool]]
    onstack: Dict[FunctionId, int] = field(default_factory=dict)
    rec_positions: List[int] = field(default_factory=list)
    burst_remaining: int = 0
    persist_bases: bool = True
    unwind_to: int = 0  # >0: returning to this depth (main-loop restart)
    tail_chain: int = 0  # consecutive tail replacements of the top frame

    #: Persistent recursion bases stop stacking beyond this many levels:
    #: real recursive kernels re-enter from a bounded nesting, they do
    #: not ratchet to the stack limit.
    MAX_BASES = 10

    def push(self, function: FunctionId, recursive: bool) -> None:
        if (
            recursive
            and self.persist_bases
            and len(self.rec_positions) < self.MAX_BASES
        ):
            self.rec_positions.append(len(self.stack))
        self.stack.append((function, recursive))
        self.onstack[function] = self.onstack.get(function, 0) + 1

    def pop(self) -> FunctionId:
        function, _recursive = self.stack.pop()
        # A base is dropped exactly when the frame sitting at its
        # recorded index pops (positions are increasing, stack is LIFO).
        if self.rec_positions and self.rec_positions[-1] == len(self.stack):
            self.rec_positions.pop()
        remaining = self.onstack.get(function, 0) - 1
        if remaining <= 0:
            self.onstack.pop(function, None)
        else:
            self.onstack[function] = remaining
        return function

    def replace_top(self, function: FunctionId) -> None:
        self.pop()
        # A tail-callee frame is never a recursion-burst frame: the burst
        # frame it replaced is gone.
        self.push(function, False)

    @property
    def top(self) -> Tuple[FunctionId, bool]:
        return self.stack[-1]

    @property
    def depth(self) -> int:
        return len(self.stack)

    @property
    def effective_depth(self) -> int:
        """Frames above the deepest recursion base."""
        if not self.rec_positions:
            return len(self.stack)
        return len(self.stack) - self.rec_positions[-1]


class TraceExecutor:
    """Single-pass event generator over a program model."""

    def __init__(self, program: Program, spec: Optional[WorkloadSpec] = None):
        self.program = program
        self.spec = spec or WorkloadSpec()
        self._rng = random.Random(self.spec.seed)
        self._loaded_libraries = {
            name
            for name, library in program.libraries.items()
            if not library.load_lazily
        }
        self._site_scale: Dict[CallSiteId, float] = {}
        self._target_rotation: Dict[CallSiteId, int] = {}
        self.calls_emitted = 0

    # ------------------------------------------------------------------
    def events(self) -> Iterator[Event]:
        """Generate the full event stream as dataclass events.

        Compatibility wrapper over :meth:`compact_events` — the executor
        produces compact tuples natively (the hot-path wire format of
        ``repro.core.events``) and inflates them here for consumers that
        want the dataclass API.
        """
        for record in self.compact_events():
            yield inflate(record)

    def column_events(self, batch_size: int = 4096) -> Iterator[EventColumns]:
        """Generate the event stream as struct-of-arrays slabs.

        The columnar producer: each yielded :class:`EventColumns` holds
        up to ``batch_size`` events ready for
        ``DacceEngine.process_columns`` (see
        :func:`run_workload_columnar`).  One slab object is reused
        across yields — consume (or copy) each slab before advancing
        the iterator.
        """
        cols = EventColumns.with_capacity(batch_size)
        push = cols.push
        for record in self.compact_events():
            push(record)
            if len(cols) >= batch_size:
                yield cols
                cols.clear()
        if len(cols):
            yield cols

    def compact_events(self) -> Iterator[CompactEvent]:
        """Generate the full event stream as compact tuples (single pass).

        Skips per-event dataclass allocation; :meth:`column_events`
        packs this stream into the struct-of-arrays batches
        ``DacceEngine.process_columns`` consumes.
        """
        spec = self.spec
        threads: Dict[ThreadId, _ExecThread] = {0: self._new_thread(self.program.main)}
        pending_threads = sorted(
            spec.threads, key=lambda thread: thread.spawn_at_call
        )
        pending_phases = sorted(spec.phases, key=lambda phase: phase.at_call)
        since_sample = 0
        current: ThreadId = 0
        burst_left = spec.scheduler_burst

        while self.calls_emitted < spec.calls:
            while pending_phases and pending_phases[0].at_call <= self.calls_emitted:
                self._apply_phase(pending_phases.pop(0))
            while (
                pending_threads
                and pending_threads[0].spawn_at_call <= self.calls_emitted
            ):
                thread = pending_threads.pop(0)
                if thread.thread in threads:
                    raise TraceError("duplicate thread id %d" % thread.thread)
                entry = self._viable_entry(thread.entry)
                threads[thread.thread] = self._new_thread(entry)
                yield (EV_THREAD_START, thread.thread, 0, entry)

            burst_left -= 1
            if burst_left <= 0 or current not in threads:
                live = sorted(threads)
                current = live[self._rng.randrange(len(live))]
                burst_left = max(
                    1,
                    int(self._rng.expovariate(1.0 / max(1, spec.scheduler_burst))),
                )

            for event in self._step(current, threads[current]):
                yield event

            since_sample += 1
            if spec.sample_period and since_sample >= spec.sample_period:
                since_sample = 0
                yield (EV_SAMPLE, current)

        # Drain: unwind every thread; workers exit, main keeps frame 0.
        for thread_id in sorted(threads):
            state = threads[thread_id]
            while state.depth > 1:
                state.pop()
                yield (EV_RETURN, thread_id)
            if thread_id != 0:
                yield (EV_THREAD_EXIT, thread_id)

    def _viable_entry(self, requested: FunctionId) -> FunctionId:
        """A worker entry that can actually do work.

        Generated programs may leave the requested function with only
        dead (never-executed) call sites; a real thread pool would not
        park its workers there, so fall back to the nearest function
        with live out-calls.
        """
        def live(function_id: FunctionId) -> bool:
            return any(
                s.weight > 0
                for s in self.program.function(function_id).callsites
            )

        if live(requested):
            return requested
        for function_id in sorted(self.program.function_ids()):
            if function_id != self.program.main and live(function_id):
                return function_id
        return requested

    def _new_thread(self, entry: FunctionId) -> _ExecThread:
        state = _ExecThread(
            stack=[], persist_bases=self.spec.persistent_recursion
        )
        state.push(entry, False)
        return state

    # ------------------------------------------------------------------
    def _step(
        self, thread: ThreadId, state: _ExecThread
    ) -> Iterator[CompactEvent]:
        """One scheduling quantum: a call or a return on ``thread``."""
        spec = self.spec
        depth = state.depth

        # Unwind episodes: pop back toward the bottom frame, then resume.
        if state.unwind_to:
            if depth > state.unwind_to:
                state.pop()
                state.burst_remaining = 0
                yield (EV_RETURN, thread)
                return
            state.unwind_to = 0
        elif (
            spec.unwind_period
            and depth > 2
            and self._rng.random() < 1.0 / spec.unwind_period
        ):
            state.unwind_to = self._rng.randint(1, 2)
            state.pop()
            state.burst_remaining = 0
            yield (EV_RETURN, thread)
            return

        current_fn, frame_is_recursive = state.top
        function = self.program.function(current_fn)
        sites = self._callable_sites(
            function.callsites, depth, allow_tail=self._tail_allowed(state)
        )

        # Transient recursion (milc/GemsFDTD-style) unwinds promptly:
        # ccStack *operations* happen at the paper's rate while the
        # average ccStack depth stays near zero (Table 1's combination
        # for the non-persistent programs).
        if (
            frame_is_recursive
            and not spec.persistent_recursion
            and state.burst_remaining == 0
            and depth > 1
            and self._rng.random() < 0.85
        ):
            state.pop()
            yield (EV_RETURN, thread)
            return

        # Recursion-burst continuation: an active burst keeps taking a
        # designated cycle-closing site until its drawn length is spent.
        if state.burst_remaining > 0 and depth < spec.max_depth and sites:
            recursive = [s for s in sites if s.recursive]
            if recursive:
                site = recursive[self._rng.randrange(len(recursive))]
                yield from self._emit_call(thread, state, site)
                return
            # No cycle-closing site here; the burst fizzles out.
            state.burst_remaining = 0

        must_call = depth <= 1
        must_return = depth >= spec.max_depth or not sites
        if must_call and must_return:
            return  # leaf bottom frame: idle one quantum
        if must_return:
            do_call = False
        elif must_call:
            do_call = True
        else:
            bias = (
                state.effective_depth - spec.target_depth
            ) / spec.depth_scale
            do_call = self._rng.random() < 1.0 / (1.0 + math.exp(bias))

        if not do_call:
            state.pop()
            state.tail_chain = 0
            yield (EV_RETURN, thread)
            return

        site = self._pick_site(sites)
        yield from self._emit_call(thread, state, site)

    def _tail_allowed(self, state: _ExecThread) -> bool:
        return state.tail_chain < self.spec.max_tail_chain

    def _emit_call(
        self, thread: ThreadId, state: _ExecThread, site: CallSiteDef
    ) -> Iterator[CompactEvent]:
        target = self._pick_target(site)
        library = self.program.library_of(target)
        if library is not None and library not in self._loaded_libraries:
            self._loaded_libraries.add(library)
            yield (EV_LIBRARY_LOAD, thread, library)  # type: ignore[misc]

        caller, _ = state.top
        # Only designated cycle-closing sites engage the burst machinery;
        # classifying any on-stack target as "recursion" would create a
        # positive feedback loop at depth (everything looks recursive).
        recursive = site.recursive and site.kind is not CallKind.TAIL
        if recursive:
            if state.burst_remaining > 0:
                state.burst_remaining -= 1
            elif self.spec.recursion_affinity > 0:
                # Entering recursion: draw the burst length (geometric
                # with mean affinity / (1 - affinity) extra levels).
                a = min(0.95, self.spec.recursion_affinity)
                u = self._rng.random()
                state.burst_remaining = (
                    int(math.log(max(u, 1e-12)) / math.log(a)) if a > 0 else 0
                )
        self.calls_emitted += 1
        yield (EV_CALL, thread, site.id, caller, target, KIND_CODE[site.kind])
        if site.kind is CallKind.TAIL:
            state.replace_top(target)
            state.tail_chain += 1
        else:
            state.push(target, recursive)
            state.tail_chain = 0

    def _callable_sites(
        self, sites: List[CallSiteDef], depth: int, allow_tail: bool = True
    ) -> List[CallSiteDef]:
        """Sites the executor may take right now."""
        out = []
        for site in sites:
            if site.weight <= 0:
                continue
            if site.kind is CallKind.TAIL and (depth <= 1 or not allow_tail):
                continue  # bottom frame must survive / chain capped
            out.append(site)
        return out

    def _pick_site(self, sites: List[CallSiteDef]) -> CallSiteDef:
        weights = [
            site.weight * self._site_scale.get(site.id, 1.0) for site in sites
        ]
        return self._weighted_choice(sites, weights)

    def _pick_target(self, site: CallSiteDef) -> FunctionId:
        if len(site.targets) == 1:
            return site.targets[0]
        rotation = self._target_rotation.get(site.id, 0)
        weights = [
            site.target_weights[(i + rotation) % len(site.targets)]
            for i in range(len(site.targets))
        ]
        return self._weighted_choice(site.targets, weights)

    def _weighted_choice(self, items: List, weights: List[float]):
        total = sum(weights)
        if total <= 0:
            return items[self._rng.randrange(len(items))]
        point = self._rng.random() * total
        cumulative = 0.0
        for item, weight in zip(items, weights):
            cumulative += weight
            if point <= cumulative:
                return item
        return items[-1]

    def _apply_phase(self, phase: PhaseSpec) -> None:
        """Reshuffle hot paths: new site multipliers, rotated targets."""
        phase_rng = random.Random(phase.seed)
        for _function, site in self.program.all_callsites():
            if site.weight <= 0 or site.phase_stable:
                continue
            # Clamp the multiplier: unbounded draws occasionally crush a
            # function's entire normal out-degree, leaving its (tiny,
            # phase-stable) recursive site dominant — a calibration
            # artifact, not a phase change.
            self._site_scale[site.id] = min(
                4.0, max(0.25, phase_rng.expovariate(1.0))
            )
            if len(site.targets) > 1:
                self._target_rotation[site.id] = phase_rng.randrange(
                    len(site.targets)
                )


def run_workload(program: Program, spec: WorkloadSpec, engine) -> None:
    """Drive ``engine`` (anything with ``on_event``) over the workload."""
    executor = TraceExecutor(program, spec)
    for event in executor.events():
        engine.on_event(event)


def run_workload_columnar(
    program: Program,
    spec: WorkloadSpec,
    engine,
    batch_size: int = 4096,
) -> None:
    """Drive ``engine`` over the workload as struct-of-arrays slabs.

    Events flow through ``engine.process_columns`` and its
    code-generated dispatch kernel, without per-event dataclass
    allocation.  Behaviourally identical to :func:`run_workload` (the
    differential property tests assert it); only speed changes.
    """
    executor = TraceExecutor(program, spec)
    for cols in executor.column_events(batch_size):
        engine.process_columns(cols)
