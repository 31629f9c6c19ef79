"""Indirect-call dispatch strategies (Section 3.2, Figures 3 and 4).

After re-encoding, the targets identified so far for an indirect call
site are encoded separately and the site is patched with one of two
instrumentation shapes:

* **Inline cache** (Figure 3(d)) — a chain of ``if (target == T_k)``
  comparisons, one per identified target, each adding that edge's
  encoding.  Cheap for a handful of targets; the cost of a dispatch is
  the position of the dynamic target in the chain.
* **Hash table** (Figure 4) — when the number of identified targets
  exceeds a threshold, target addresses and codings are stored in a hash
  table; a dispatch costs one hash plus one comparison regardless of the
  number of targets.  400.perlbench, 445.gobmk and x264 are the paper's
  motivating cases.

A dynamic target that is not in the patched set misses: the context is
saved on the ccStack and the runtime handler records the new edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .events import CallSiteId, FunctionId

#: Paper: "if the number of identified targets exceeds a threshold" —
#: the threshold is not published; 4 keeps inline chains short, and the
#: ablation benchmark sweeps it.
DEFAULT_HASH_THRESHOLD = 4


class DispatchStrategy(enum.Enum):
    """How an indirect call site tests its dynamic target."""

    INLINE_CACHE = "inline-cache"
    HASH_TABLE = "hash-table"


@dataclass
class DispatchResult:
    """Outcome of one indirect dispatch, consumed by the cost model."""

    hit: bool
    comparisons: int
    hashed: bool


@dataclass
class IndirectCallSite:
    """Per-site dispatch state, rebuilt at every re-encoding.

    ``order`` lists the targets in patch order — discovery order until the
    adaptive pass reorders by frequency so hot targets sit early in the
    inline chain.
    """

    callsite: CallSiteId
    strategy: DispatchStrategy = DispatchStrategy.INLINE_CACHE
    order: List[FunctionId] = field(default_factory=list)
    _positions: Dict[FunctionId, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    total_comparisons: int = 0
    #: Inline-cache → hash-table strategy switches over the site's life.
    promotions: int = 0

    def patch(
        self,
        targets: List[FunctionId],
        hash_threshold: int = DEFAULT_HASH_THRESHOLD,
    ) -> bool:
        """Install the target set, choosing the strategy by its size.

        Returns ``True`` when the patch *promoted* the site from the
        inline cache to the hash table (the Figure 4 upgrade).
        """
        previous = self.strategy
        self.order = list(targets)
        self._positions = {t: i for i, t in enumerate(self.order)}
        if len(self.order) > hash_threshold:
            self.strategy = DispatchStrategy.HASH_TABLE
        else:
            self.strategy = DispatchStrategy.INLINE_CACHE
        promoted = (
            previous is DispatchStrategy.INLINE_CACHE
            and self.strategy is DispatchStrategy.HASH_TABLE
        )
        if promoted:
            self.promotions += 1
        return promoted

    def dispatch(self, target: FunctionId) -> DispatchResult:
        """Test ``target`` against the patched set and record the cost."""
        if self.strategy is DispatchStrategy.HASH_TABLE:
            # One hash, one comparison; open addressing conflicts are
            # folded into the miss path like the paper's Figure 4.
            hit = target in self._positions
            result = DispatchResult(hit=hit, comparisons=1, hashed=True)
        else:
            position = self._positions.get(target)
            if position is None:
                result = DispatchResult(
                    hit=False, comparisons=len(self.order), hashed=False
                )
            else:
                result = DispatchResult(
                    hit=True, comparisons=position + 1, hashed=False
                )
        if result.hit:
            self.hits += 1
        else:
            self.misses += 1
        self.total_comparisons += result.comparisons
        return result

    @property
    def num_targets(self) -> int:
        return len(self.order)


class IndirectDispatchTable:
    """All indirect call sites of a running program."""

    def __init__(self, hash_threshold: int = DEFAULT_HASH_THRESHOLD):
        self.hash_threshold = hash_threshold
        self._sites: Dict[CallSiteId, IndirectCallSite] = {}

    def site(self, callsite: CallSiteId) -> IndirectCallSite:
        entry = self._sites.get(callsite)
        if entry is None:
            entry = IndirectCallSite(callsite)
            self._sites[callsite] = entry
        return entry

    def get(self, callsite: CallSiteId) -> Optional[IndirectCallSite]:
        return self._sites.get(callsite)

    def sites(self) -> List[IndirectCallSite]:
        return list(self._sites.values())

    def __len__(self) -> int:
        return len(self._sites)

    # -- aggregate counters (telemetry pull surface) -------------------
    # list() on every aggregate below: scrape-time readers must survive
    # the engine registering a new indirect site mid-iteration.
    def total_hits(self) -> int:
        return sum(site.hits for site in list(self._sites.values()))

    def total_misses(self) -> int:
        return sum(site.misses for site in list(self._sites.values()))

    def total_comparisons(self) -> int:
        return sum(
            site.total_comparisons for site in list(self._sites.values())
        )

    def total_promotions(self) -> int:
        """Inline-cache → hash-table promotions across all sites."""
        return sum(site.promotions for site in list(self._sites.values()))

    def num_hash_sites(self) -> int:
        return sum(
            1
            for site in list(self._sites.values())
            if site.strategy is DispatchStrategy.HASH_TABLE
        )

    # -- transactional re-encoding support -----------------------------
    def snapshot_patches(self) -> Dict[CallSiteId, tuple]:
        """Capture every site's patch state (not its dispatch counters)."""
        return {
            callsite: (
                site.strategy,
                list(site.order),
                dict(site._positions),
                site.promotions,
            )
            for callsite, site in self._sites.items()
        }

    def patched_as(self, plan: Dict[CallSiteId, List[FunctionId]]) -> bool:
        """Does every site in ``plan`` already carry exactly its targets?

        The strategy follows from the target count and the fixed hash
        threshold, so an equal order means re-patching changes nothing.
        """
        for callsite, targets in plan.items():
            site = self._sites.get(callsite)
            if site is None or site.order != targets:
                return False
        return True

    def restore_patches(self, snapshot: Dict[CallSiteId, tuple]) -> None:
        """Restore patch state; drops sites created after the snapshot.

        Dispatch counters (hits/misses/comparisons) are cumulative
        traffic statistics and are deliberately left untouched.
        """
        for callsite in list(self._sites):
            if callsite not in snapshot:
                del self._sites[callsite]
        for callsite, (strategy, order, positions, promotions) in snapshot.items():
            site = self._sites.get(callsite)
            if site is None:
                site = IndirectCallSite(callsite)
                self._sites[callsite] = site
            site.strategy = strategy
            site.order = list(order)
            site._positions = dict(positions)
            site.promotions = promotions
