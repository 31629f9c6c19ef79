"""Continuous calling-context profiling on top of DACCE sample streams.

The paper's flagship client (Section 6): cheap context ids recorded
continuously, expanded offline (or live) into a weighted Calling
Context Tree.  The subsystem splits into:

* :mod:`repro.prof.cct` — the tree and the epoch-merging aggregator;
* :mod:`repro.prof.export` — folded stacks / JSON / top-N exporters;
* :mod:`repro.prof.diff` — node-by-node profile comparison;
* :mod:`repro.prof.overhead` — the profiler's self-overhead account.

CLI surface: ``dacce profile {record,report,flame,diff,serve}``.  Live
serving goes through the ingestion plane: ``profile serve`` folds the
engine's sample frames into an in-process
:class:`~repro.ingest.IngestService` (:mod:`repro.ingest`).
"""

from .cct import (
    CCT,
    CCTAggregator,
    CCTNode,
    PARTIAL_FUNCTION,
    PARTIAL_NAME,
    ROOT_FUNCTION,
    ROOT_NAME,
    default_names,
)
from .diff import DiffEntry, ProfileDiff, diff_profiles, flatten
from .export import (
    names_from_mapping,
    names_from_program,
    parse_folded,
    render_top,
    to_folded,
    to_json_dict,
    top_contexts,
)
from .overhead import render_overhead, self_overhead_account

__all__ = [
    "CCT",
    "CCTAggregator",
    "CCTNode",
    "PARTIAL_FUNCTION",
    "PARTIAL_NAME",
    "ROOT_FUNCTION",
    "ROOT_NAME",
    "default_names",
    "DiffEntry",
    "ProfileDiff",
    "diff_profiles",
    "flatten",
    "names_from_mapping",
    "names_from_program",
    "parse_folded",
    "render_top",
    "to_folded",
    "to_json_dict",
    "top_contexts",
    "render_overhead",
    "self_overhead_account",
]
