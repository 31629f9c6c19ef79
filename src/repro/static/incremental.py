"""KRAB-style incremental re-analysis of a Python source tree.

The static graph is only useful if it stays *current*: a stale graph
turns the lint cross-check into noise and makes warm-start seed edges
the program no longer has.  Re-running whole-program extraction on every
change is the naive fix; KRAB (PAPERS.md) shows the right shape — keep
per-module artifacts keyed by a content hash and recompute only what
changed, then re-link.

:class:`IncrementalAnalyzer` implements exactly that split over
:mod:`repro.static.pyextract`'s two phases:

* **summary phase** (per module, expensive): parse + AST walk, cached by
  the SHA-256 of the module source;
* **link phase** (whole program, cheap): pure resolution over the cached
  summaries, re-run on every :meth:`refresh`.

Function ids are allocated by a persistent
:class:`~repro.static.pyextract.FunctionIndex`, so a function that
survives an edit keeps its id across refreshes — consumers holding a
mapping (a tracer, a warm-started engine) are never invalidated by
changes elsewhere in the tree.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .graph import StaticCallGraph
from .pyextract import (
    FunctionIndex,
    ModuleSummary,
    iter_python_files,
    module_name_for,
    summarize_source,
)


@dataclass
class RefreshStats:
    """What one :meth:`IncrementalAnalyzer.refresh` pass actually did."""

    modules_seen: int = 0
    modules_analyzed: int = 0
    modules_reused: int = 0
    modules_removed: int = 0

    @property
    def reuse_ratio(self) -> float:
        if not self.modules_seen:
            return 0.0
        return self.modules_reused / self.modules_seen


@dataclass
class _CacheEntry:
    digest: str
    summary: ModuleSummary


@dataclass
class IncrementalAnalyzer:
    """Content-hash-cached extraction over one source root."""

    root: str
    index: FunctionIndex = field(default_factory=FunctionIndex)
    root_function: Optional[Tuple[str, str]] = None
    _cache: Dict[str, _CacheEntry] = field(default_factory=dict)
    #: Cumulative counters across the analyzer's lifetime.
    total_analyzed: int = 0
    total_reused: int = 0

    def refresh(self) -> Tuple[StaticCallGraph, RefreshStats]:
        """Bring the graph up to date with the source tree.

        Re-summarizes only modules whose source hash changed (or that
        are new), drops modules whose files disappeared, and re-links.
        """
        stats = RefreshStats()
        live: Dict[str, _CacheEntry] = {}
        for path in iter_python_files(self.root):
            key = os.path.abspath(path)
            stats.modules_seen += 1
            with open(path, "rb") as handle:
                raw = handle.read()
            digest = hashlib.sha256(raw).hexdigest()
            cached = self._cache.get(key)
            if cached is not None and cached.digest == digest:
                stats.modules_reused += 1
                live[key] = cached
                continue
            summary = summarize_source(
                raw.decode("utf-8"),
                module_name_for(path, self.root),
                path=path,
            )
            stats.modules_analyzed += 1
            live[key] = _CacheEntry(digest=digest, summary=summary)
        stats.modules_removed = len(self._cache) - sum(
            1 for key in self._cache if key in live
        )
        self._cache = live
        self.total_analyzed += stats.modules_analyzed
        self.total_reused += stats.modules_reused
        graph = self.link()
        return graph, stats

    def link(self) -> StaticCallGraph:
        """Re-link the cached summaries without touching any source."""
        from .pyextract import link_summaries

        return link_summaries(
            [entry.summary for entry in self._cache.values()],
            index=self.index,
            root_function=self.root_function,
        )
