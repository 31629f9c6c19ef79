"""Context decoding — Algorithm 1 of the paper.

A collected sample is ``(gTimeStamp, id, ifun, ccStack)``.  Decoding walks
the id backwards one *acyclic sub-path* at a time:

1. ``AdjustID`` — an id above ``maxID`` means the current sub-path was
   started by an unencoded call whose context sits on the ccStack; strip
   the ``maxID + 1`` mark and remember it (``onstack``).
2. While ``id == 0`` and ``onstack``: if the current head function matches
   the ``target`` saved on top of the ccStack, pop the entry, record the
   saved edge (with its compressed repetition ``count``), continue from
   the saved caller with the saved id, and re-adjust it.
3. Otherwise greedily select the in-edge ``e = <p, ifun, cs>`` with
   ``En(e) <= id < En(e) + numCC(p)``, subtract ``En(e)`` and step to
   ``p``.
4. Stop when the ccStack is exhausted, no edge matches, and ``id == 0``.

The greedy step is exact: sub-path sums stay below ``numCC`` along the
path and the in-edge intervals partition ``[0, numCC(n))`` (DESIGN.md §2);
the head test in step 2 is unambiguous because a head function occurs
exactly once in an acyclic sub-path (Section 3 of the paper).

Decoding yields *segments* — one per acyclic sub-path, leaf-most first.
Segment ``i`` was entered through ccStack entry ``e_i``; a repetition
count ``k`` on ``e_i`` (compressed recursion, Figure 5) means the cycle
"segment ``i + 1`` followed by the back edge ``e_i``" executed ``k`` extra
times.  :meth:`Decoder.decode` can either keep the counts (the paper's
compact output) or expand them into the exact executed path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ccstack import CLONE_CALLSITE, UNTRACKED_CALLSITE, UNTRACKED_FUNCTION
from .context import CallingContext, CcStackEntry, CollectedSample, ContextStep
from .dictionary import DictionaryStore, EncodingDictionary
from .errors import DecodingError, StaleDictionaryError
from .events import ThreadId
from .faults import DecodeFault, PartialDecode


@dataclass
class _Segment:
    """Steps of one decoded acyclic sub-path, root-to-leaf within itself.

    ``entry`` is the ccStack entry popped when this segment's head was
    reached (``None`` for the root-most segment).  ``unit`` is the decoded
    repetition cycle for compressed entries (``entry.count > 0``): the
    sub-path from the entry's target down to its caller that each
    compressed iteration executed before re-taking the back edge.
    """

    steps: List[ContextStep]
    entry: Optional[CcStackEntry] = None
    unit: Optional[List[ContextStep]] = None


#: Cache key: the sample itself (its frozen-dataclass hash covers the
#: ``(gTimeStamp, ccId, ccStack-fingerprint)`` triple plus the sampled
#: function and thread) and the two output-shaping flags.
DecodeCacheKey = Tuple[CollectedSample, bool, bool]


class DecodeCache:
    """LRU memoisation of successful sample decodes.

    Decoding is a pure function of the sample and the decoding state it
    is resolved against: dictionaries are immutable snapshots (one per
    ``gTimeStamp``), the callsite-owner map only grows, and thread-parent
    samples are only added as long as every thread start gets a fresh
    thread id (a reused id replaces the earlier spawn's sample; the
    engine does not check).  A successful decode therefore never goes
    stale and can be memoised for the lifetime of the decoding state,
    in the value-context style (cache per-context results, invalidate
    never).
    Failed decodes are *not* cached: a later sample set (or a
    best-effort state reload) may supply what was missing.

    The cache is LRU-bounded (``capacity`` entries) because sample logs
    are long but heavy-tailed — hot calling contexts recur constantly.
    ``hits``/``misses`` feed the ``decode_cache_total`` metric.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("DecodeCache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[DecodeCacheKey, CallingContext]" = (
            OrderedDict()
        )

    def get(self, key: DecodeCacheKey) -> Optional[CallingContext]:
        context = self._entries.get(key)
        if context is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return context

    def put(self, key: DecodeCacheKey, context: CallingContext) -> None:
        entries = self._entries
        entries[key] = context
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if not total:
            return 0.0
        return self.hits / total

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class Decoder:
    """Decodes collected samples against a :class:`DictionaryStore`.

    ``thread_parents`` optionally maps a thread id to the
    :class:`CollectedSample` captured when that thread was spawned
    (Section 5.3); with it, :meth:`decode` reconstructs full cross-thread
    contexts by recursively decoding and prepending the parent context.

    The decoder holds its inputs by reference, never copying them: the
    engine's decoder reads its live dictionary store, thread-parent map
    and callsite-owner map, so one instance decodes everything the
    engine records after it was made.

    ``cache`` optionally memoises successful decodes (see
    :class:`DecodeCache`).
    """

    def __init__(
        self,
        dictionaries: DictionaryStore,
        thread_parents: Optional[Dict[ThreadId, CollectedSample]] = None,
        callsite_owners: Optional[Dict[int, int]] = None,
        cache: Optional[DecodeCache] = None,
    ):
        self._dictionaries = dictionaries
        self._thread_parents = {} if thread_parents is None else thread_parents
        # A call site is an *address*; the function containing it is a
        # static property, resolvable even when the edge it fed was
        # discovered after the sample's dictionary snapshot.  The engine
        # supplies this map (its full call graph) so Algorithm 1's
        # ``getEdge`` can always recover the saved caller.
        self._callsite_owners = {} if callsite_owners is None else callsite_owners
        self.cache = cache

    # ------------------------------------------------------------------
    def decode(
        self,
        sample: CollectedSample,
        expand_recursion: bool = True,
        follow_threads: bool = True,
    ) -> CallingContext:
        """Decode ``sample`` into a full calling context.

        With ``expand_recursion`` compressed recursive repetitions are
        materialised so the result is the exact executed path; otherwise
        repetition counts stay attached to the steps (Algorithm 1's
        compact output).  With ``follow_threads`` the spawning thread's
        context is decoded recursively and prepended.
        """
        cache = self.cache
        if cache is not None:
            key = (sample, expand_recursion, follow_threads)
            cached = cache.get(key)
            if cached is not None:
                return cached
        context = self._decode_uncached(
            sample, expand_recursion, follow_threads
        )
        if cache is not None:
            cache.put(key, context)
        return context

    def _decode_uncached(
        self,
        sample: CollectedSample,
        expand_recursion: bool,
        follow_threads: bool,
    ) -> CallingContext:
        dictionary = self._dictionaries.get(sample.timestamp)
        segments, crossed_thread = self._decode_segments(sample, dictionary)
        steps = _emit(segments, expand=expand_recursion)

        if follow_threads and crossed_thread:
            parent_sample = self._thread_parents.get(sample.thread)
            if parent_sample is not None:
                parent = self.decode(
                    parent_sample,
                    expand_recursion=expand_recursion,
                    follow_threads=follow_threads,
                )
                if steps:
                    # Attribute the thread entry frame to the clone site.
                    steps[0] = ContextStep(
                        steps[0].function, CLONE_CALLSITE, steps[0].count
                    )
                return CallingContext(tuple(parent.steps) + tuple(steps))
        return CallingContext(tuple(steps))

    # ------------------------------------------------------------------
    def decode_best_effort(
        self,
        sample: CollectedSample,
        expand_recursion: bool = True,
        follow_threads: bool = True,
    ) -> PartialDecode:
        """Decode as much of ``sample`` as possible; never raise.

        Returns a :class:`~repro.core.faults.PartialDecode`: on success
        it wraps the same context :meth:`decode` returns with
        ``complete=True``; on failure it wraps the longest decodable
        leaf-most suffix plus a structured
        :class:`~repro.core.faults.DecodeFault` saying why the rest is
        missing.  Decoding walks leaf-to-root, so the recovered suffix
        is exact — only the root-ward prefix is lost.
        """
        try:
            dictionary = self._dictionaries.get(sample.timestamp)
        except StaleDictionaryError as error:
            # Without a dictionary only the sample point itself is known.
            return PartialDecode(
                context=CallingContext((ContextStep(sample.function),)),
                complete=False,
                fault=self._fault_from_error(
                    error, sample, default_reason="stale-dictionary"
                ),
            )
        try:
            segments, crossed_thread = self._decode_segments(sample, dictionary)
        except DecodingError as error:
            partial = getattr(error, "partial_segments", None) or []
            steps = _emit(partial, expand=expand_recursion)
            if not steps:
                steps = [ContextStep(sample.function)]
            return PartialDecode(
                context=CallingContext(tuple(steps)),
                complete=False,
                fault=self._fault_from_error(error, sample),
            )

        steps = _emit(segments, expand=expand_recursion)
        complete = True
        fault: Optional[DecodeFault] = None
        if follow_threads and crossed_thread:
            parent_sample = self._thread_parents.get(sample.thread)
            if parent_sample is None:
                complete = False
                fault = DecodeFault(
                    reason="missing-thread-parent",
                    message="no spawn sample recorded for thread %d"
                    % sample.thread,
                    timestamp=sample.timestamp,
                    context_id=sample.context_id,
                    function=sample.function,
                    thread=sample.thread,
                )
            else:
                parent = self.decode_best_effort(
                    parent_sample,
                    expand_recursion=expand_recursion,
                    follow_threads=follow_threads,
                )
                if steps:
                    steps[0] = ContextStep(
                        steps[0].function, CLONE_CALLSITE, steps[0].count
                    )
                steps = list(parent.context.steps) + steps
                complete = parent.complete
                fault = parent.fault
        return PartialDecode(
            context=CallingContext(tuple(steps)), complete=complete, fault=fault
        )

    @staticmethod
    def _fault_from_error(
        error: DecodingError,
        sample: CollectedSample,
        default_reason: str = "decoding-error",
    ) -> DecodeFault:
        return DecodeFault(
            reason=getattr(error, "reason", None) or default_reason,
            message=str(error),
            timestamp=sample.timestamp,
            context_id=sample.context_id,
            function=sample.function,
            thread=sample.thread,
        )

    # ------------------------------------------------------------------
    def _decode_segments(
        self,
        sample: CollectedSample,
        dictionary: EncodingDictionary,
    ) -> Tuple[List[_Segment], bool]:
        """Run Algorithm 1; returns (leaf-first segments, crossed_thread).

        Every failure raises a :class:`DecodingError` carrying a stable
        ``reason`` slug, the decode position (``function``, remaining
        ``context_id``, ``gts``, ``thread``) and ``partial_segments`` —
        the leaf-most sub-paths decoded before the failure, which
        :meth:`decode_best_effort` turns into a suffix context.
        """
        max_id = dictionary.max_id
        id_value = sample.context_id
        ifun = sample.function
        stack: List[CcStackEntry] = list(sample.ccstack)

        onstack = False

        def adjust() -> None:
            # Function AdjustID, lines 1-4 of Algorithm 1.
            nonlocal id_value, onstack
            if id_value > max_id:
                id_value -= max_id + 1
                onstack = True

        adjust()
        segments: List[_Segment] = []
        current: List[ContextStep] = [ContextStep(ifun)]
        guard = 0
        limit = (dictionary.num_nodes + 2) * (sample.ccstack_depth() + 2) + 64

        def fail(reason: str, message: str) -> DecodingError:
            # Attach the already-decoded leaf-most suffix (including the
            # in-progress segment) for decode_best_effort.
            return DecodingError(
                message,
                reason=reason,
                function=ifun,
                context_id=id_value,
                gts=sample.timestamp,
                thread=sample.thread,
                stack_depth=len(stack),
                partial_segments=segments + [_Segment(list(current))],
            )

        while True:
            guard += 1
            if guard > limit:
                raise fail(
                    "no-termination",
                    "decoding did not terminate after %d rounds" % limit,
                )

            # Lines 9-25: consume saved sub-paths from the ccStack.
            while id_value == 0 and onstack:
                if not stack:
                    raise fail(
                        "ccstack-underflow",
                        "id marks a saved sub-path but the ccStack is empty",
                    )
                top = stack[-1]
                if top.callsite == CLONE_CALLSITE:
                    # Thread-base sentinel: the context continues in the
                    # spawning thread (Section 5.3).  Like any saved head,
                    # the entry only pops once decoding reaches the thread
                    # entry function; otherwise the sub-path continues
                    # through encoded edges.
                    if ifun != top.target:
                        break
                    stack.pop()
                    if stack:
                        raise fail(
                            "entries-below-sentinel",
                            "entries found below the thread-base sentinel",
                        )
                    segments.append(_Segment(current))
                    return segments, True
                if top.callsite == UNTRACKED_CALLSITE:
                    # Targeted-encoding boundary entries (see
                    # repro.static.targeted).  A departure entry was
                    # pushed when control left the targeted subgraph; a
                    # re-entry entry when untracked code called back in.
                    # The whole untracked span between them decodes to a
                    # single <untracked> pseudo-step.
                    if ifun == UNTRACKED_FUNCTION:
                        # Departure: resume at the tracked function that
                        # made the departing call, with its saved id.
                        onstack = False
                        stack.pop()
                        segments.append(_Segment(current, entry=top))
                        ifun = top.target
                        current = [ContextStep(ifun)]
                        id_value = top.id
                        adjust()
                        continue
                    if ifun == top.target:
                        # Re-entry: the function untracked code called
                        # back into; below it sits the untracked span.
                        onstack = False
                        stack.pop()
                        segments.append(_Segment(current, entry=top))
                        ifun = UNTRACKED_FUNCTION
                        current = [ContextStep(ifun)]
                        id_value = top.id
                        adjust()
                        continue
                    break  # sub-path continues through encoded edges
                if ifun == top.target:
                    onstack = False
                    stack.pop()
                    edge = dictionary.find_edge(top.callsite, ifun)
                    if edge is not None:
                        caller = edge.caller
                    else:
                        caller = self._callsite_owners.get(top.callsite)
                        if caller is None:
                            raise fail(
                                "unknown-callsite",
                                "no edge at callsite %d to %d in dictionary "
                                "%d and the call site is unknown"
                                % (top.callsite, ifun, dictionary.timestamp),
                            )
                    unit = None
                    if top.count:
                        try:
                            unit = self._decode_repetition_unit(
                                dictionary, caller, top
                            )
                        except DecodingError as error:
                            error.partial_segments = segments + [
                                _Segment(list(current), entry=top)
                            ]
                            error.details["partial_segments"] = (
                                error.partial_segments
                            )
                            raise
                    segments.append(_Segment(current, entry=top, unit=unit))
                    ifun = caller
                    current = [ContextStep(ifun)]
                    id_value = top.id
                    adjust()
                else:
                    break

            # Lines 26-33: greedy in-edge interval decode of one step.
            matched = None
            for edge in dictionary.encoded_in_edges(ifun):
                low = edge.encoding
                if low <= id_value < low + dictionary.numcc(edge.caller):
                    matched = edge
                    break
            if matched is not None:
                head = current[0]
                current[0] = ContextStep(
                    head.function, matched.callsite, head.count
                )
                ifun = matched.caller
                current.insert(0, ContextStep(ifun))
                id_value -= matched.encoding
                continue

            # Lines 34-36: termination.
            if not stack and id_value == 0:
                break
            raise fail(
                "stuck",
                "stuck decoding at function %d with id %d (stack depth %d)"
                % (ifun, id_value, len(stack)),
            )

        segments.append(_Segment(current))
        return segments, False

    # ------------------------------------------------------------------
    def _decode_repetition_unit(
        self,
        dictionary: EncodingDictionary,
        caller: int,
        entry: CcStackEntry,
    ) -> List[ContextStep]:
        """Decode the cycle body of one compressed recursive repetition.

        Each compressed iteration executed ``target -> ... -> caller``
        over encoded edges (summing to ``entry.id - (maxID + 1)``; a
        compressed entry's id always carries the sub-path mark) and then
        re-took the back edge at ``entry.callsite``.  Greedy decode from
        the caller, stopping at the *first* visit of the target with zero
        remaining — within the acyclic cycle body the target occurs only
        at its head, so this terminates exactly there.
        """
        remaining = entry.id - (dictionary.max_id + 1)
        if remaining < 0:
            raise DecodingError(
                "compressed ccStack entry %r has an unmarked id" % (entry,),
                reason="unmarked-compressed-id",
                gts=dictionary.timestamp,
                context_id=entry.id,
                function=entry.target,
            )
        ifun = caller
        steps: List[ContextStep] = [ContextStep(ifun)]
        guard = dictionary.num_nodes + 2
        while not (remaining == 0 and ifun == entry.target):
            guard -= 1
            if guard < 0:
                raise DecodingError(
                    "repetition unit of %r did not terminate" % (entry,),
                    reason="repetition-no-termination",
                    gts=dictionary.timestamp,
                    context_id=entry.id,
                    function=ifun,
                )
            matched = None
            for edge in dictionary.encoded_in_edges(ifun):
                low = edge.encoding
                if low <= remaining < low + dictionary.numcc(edge.caller):
                    matched = edge
                    break
            if matched is None:
                raise DecodingError(
                    "stuck decoding repetition unit of %r at function %d "
                    "with id %d" % (entry, ifun, remaining),
                    reason="stuck-repetition",
                    gts=dictionary.timestamp,
                    context_id=remaining,
                    function=ifun,
                )
            head = steps[0]
            steps[0] = ContextStep(head.function, matched.callsite, head.count)
            ifun = matched.caller
            steps.insert(0, ContextStep(ifun))
            remaining -= matched.encoding
        # The cycle is entered through the compressed back edge itself.
        steps[0] = ContextStep(entry.target, entry.callsite, 0)
        return steps


# ----------------------------------------------------------------------
# segment emission
# ----------------------------------------------------------------------
def _emit(segments: Sequence[_Segment], expand: bool) -> List[ContextStep]:
    """Concatenate leaf-first ``segments`` into a root-to-leaf step list.

    The executed path is ``S_{n-1} e_{n-2} S_{n-2} ... S_1 e_0 S_0`` where
    ``e_i = segments[i].entry`` lands on the head of ``S_i``.  With
    ``expand``, a count ``k`` on ``e_i`` inserts ``k`` copies of the
    decoded repetition cycle (``segments[i].unit``) just before ``S_i``'s
    head; without it the count stays attached to the head step, which is
    the paper's Algorithm 1 output format.
    """
    n = len(segments)
    out: List[ContextStep] = []
    for i in range(n - 1, -1, -1):
        steps = list(segments[i].steps)
        entry = segments[i].entry
        if entry is not None:
            head = steps[0]
            count = 0 if expand else entry.count
            steps[0] = ContextStep(head.function, entry.callsite, count)
            if expand and entry.count:
                unit = segments[i].unit or []
                for _ in range(entry.count):
                    out.extend(unit)
        out.extend(steps)
    return out


def decode_sample(
    sample: CollectedSample,
    dictionaries: DictionaryStore,
    expand_recursion: bool = True,
) -> CallingContext:
    """One-shot convenience decode without thread stitching."""
    return Decoder(dictionaries).decode(
        sample, expand_recursion=expand_recursion, follow_threads=False
    )
