"""Weighted Calling Context Tree aggregation over decoded samples.

The paper's headline application of cheap context ids is *always-on
calling-context profiling* (Section 6): the instrumented process records
``(context_id, gTimeStamp, weight)`` triples continuously, and an
analysis pass expands them into the weighted **Calling Context Tree**
the profiler reports from.  This module is that analysis pass.

The aggregation rule is the *epoch-merge rule*: every sample decodes
against the dictionary of its own ``gTimeStamp``, and the tree is keyed
purely by the **decoded function path** — so the same calling context
observed under two different encoding dictionaries (before and after a
re-encoding pass) folds into one CCT node.  The context-keyed structure
mirrors the value-contexts aggregation of Padhye & Khedker: results are
stored per calling context, and contexts met again (in any epoch) reuse
the node instead of growing the tree.

Samples that only partially decode (damaged logs, dropped dictionaries)
are *not* discarded: their recovered leaf-ward suffix is attached under
a dedicated ``<partial>`` pseudo-node, so the tree's total weight always
equals the total recorded weight and the damage is visible as its own
subtree instead of a silent hole.

Thread safety: a :class:`CCTAggregator` may be fed by one thread while
exporters and the ingest server read it from others; all mutation and
traversal happens under the aggregator's internal lock.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.context import CallingContext, CollectedSample
from ..core.decoder import Decoder
from ..core.errors import DecodingError
from ..core.faults import PartialDecode

#: Sentinel function id for the pseudo-node that collects the decodable
#: suffixes of partially decoded samples.  Negative ids never collide
#: with real function ids (generators and tracers allocate from 0 up).
PARTIAL_FUNCTION = -1

#: Sentinel id of the synthetic tree root (above ``main``).
ROOT_FUNCTION = -2

#: Rendered names of the sentinel nodes.
PARTIAL_NAME = "<partial>"
ROOT_NAME = "<root>"

#: ``names`` callables map a function id to a display name.
NameResolver = Callable[[int], str]


def default_names(function: int) -> str:
    """Fallback display name for a function id."""
    if function == PARTIAL_FUNCTION:
        return PARTIAL_NAME
    if function == ROOT_FUNCTION:
        return ROOT_NAME
    return "fn%d" % function


class CCTNode:
    """One calling context: a path from the root to this node.

    ``self_weight`` / ``self_samples`` count samples whose innermost
    frame landed here; ``total_weight`` (computed) adds every
    descendant's weight — the flamegraph width of the node.
    """

    __slots__ = ("function", "children", "self_weight", "self_samples")

    def __init__(self, function: int):
        self.function = function
        self.children: Dict[int, "CCTNode"] = {}
        self.self_weight = 0.0
        self.self_samples = 0

    def child(self, function: int) -> "CCTNode":
        node = self.children.get(function)
        if node is None:
            node = CCTNode(function)
            self.children[function] = node
        return node

    def total_weight(self) -> float:
        total = self.self_weight
        for node in self.children.values():
            total += node.total_weight()
        return total

    def total_samples(self) -> int:
        total = self.self_samples
        for node in self.children.values():
            total += node.total_samples()
        return total

    def num_nodes(self) -> int:
        return 1 + sum(node.num_nodes() for node in self.children.values())

    def to_dict(self, names: NameResolver = default_names) -> Dict[str, object]:
        """Nested JSON form (the ``/cct`` endpoint and JSON export)."""
        return {
            "function": self.function,
            "name": names(self.function),
            "self_weight": self.self_weight,
            "self_samples": self.self_samples,
            "total_weight": self.total_weight(),
            "children": [
                child.to_dict(names)
                for child in sorted(
                    self.children.values(),
                    key=lambda n: -n.total_weight(),
                )
            ],
        }


class CCT:
    """A weighted calling context tree with a synthetic root.

    Insertion is by *expanded* function path (compressed recursion
    counts expanded, exactly :meth:`CallingContext.functions`), so two
    samples of the same logical context always land on the same node
    regardless of the encoding epoch or ccStack compression state they
    were recorded under.
    """

    def __init__(self) -> None:
        self.root = CCTNode(ROOT_FUNCTION)

    # ------------------------------------------------------------------
    def insert(self, path: Sequence[int], weight: float = 1.0) -> CCTNode:
        """Add one sample along ``path``; returns the leaf node."""
        node = self.root
        for function in path:
            node = node.child(function)
        node.self_weight += weight
        node.self_samples += 1
        return node

    def insert_partial(self, path: Sequence[int], weight: float = 1.0) -> CCTNode:
        """Add a partially decoded sample under the ``<partial>`` node."""
        node = self.root.child(PARTIAL_FUNCTION)
        for function in path:
            node = node.child(function)
        node.self_weight += weight
        node.self_samples += 1
        return node

    # ------------------------------------------------------------------
    @property
    def partial_node(self) -> Optional[CCTNode]:
        return self.root.children.get(PARTIAL_FUNCTION)

    def partial_weight(self) -> float:
        """Total weight filed under ``<partial>`` (0.0 on a clean log)."""
        node = self.partial_node
        return node.total_weight() if node is not None else 0.0

    def total_weight(self) -> float:
        return self.root.total_weight()

    def total_samples(self) -> int:
        return self.root.total_samples()

    def num_nodes(self) -> int:
        """Number of context nodes (the synthetic root excluded)."""
        return self.root.num_nodes() - 1

    def max_depth(self) -> int:
        def depth(node: CCTNode) -> int:
            if not node.children:
                return 0
            return 1 + max(depth(child) for child in node.children.values())

        return depth(self.root)

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Tuple[Tuple[int, ...], CCTNode]]:
        """Yield ``(path, node)`` pairs depth-first (root excluded)."""
        stack: List[Tuple[Tuple[int, ...], CCTNode]] = [
            ((), self.root)
        ]
        while stack:
            path, node = stack.pop()
            if node is not self.root:
                yield path, node
            for child in node.children.values():
                stack.append((path + (child.function,), child))

    def leaf_weights(self) -> Dict[Tuple[int, ...], float]:
        """``{path: self_weight}`` for every node that received samples."""
        return {
            path: node.self_weight
            for path, node in self.walk()
            if node.self_samples
        }

    def to_dict(self, names: NameResolver = default_names) -> Dict[str, object]:
        return self.root.to_dict(names)


#: One decode result the aggregator can ingest directly.
DecodedSample = Union[CallingContext, PartialDecode]


class CCTAggregator:
    """Incrementally aggregate decoded samples into a weighted CCT.

    Three ingestion paths, all converging on the same tree:

    * :meth:`add_sample` — decode one :class:`CollectedSample` through
      the attached decoder (best-effort: partial decodes are kept).
      This is the live path the engine's sampling hook drives.
    * :meth:`add_decoded` — ingest an already decoded
      :class:`CallingContext` / :class:`PartialDecode`; it unwraps into
      :meth:`add_path`, which ingest calls with shipped paths directly.
    * :meth:`aggregate_log` — batch path: shard a recorded log through
      :func:`~repro.core.parallel.decode_log_parallel` (worker-local
      :class:`~repro.core.decoder.DecodeCache` memoisation) and fold
      the results in record order.
    """

    def __init__(
        self,
        decoder: Optional[Decoder] = None,
        names: NameResolver = default_names,
    ):
        self.cct = CCT()
        self.decoder = decoder
        self.names = names
        self.samples_total = 0
        self.samples_partial = 0
        self.weight_total = 0.0
        self.weight_partial = 0.0
        #: Epochs (gTimeStamps) observed across ingested samples — the
        #: merge evidence the profile report surfaces.
        self.epochs_seen: Dict[int, int] = {}
        self.decode_batches = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine, names: NameResolver = default_names) -> "CCTAggregator":
        """An aggregator decoding through the engine's shared cache."""
        return cls(decoder=engine.decoder(), names=names)

    @classmethod
    def aggregate_log(
        cls,
        state_path: str,
        samples: Sequence[CollectedSample],
        jobs: int = 1,
        weights: Optional[Sequence[float]] = None,
        names: NameResolver = default_names,
        best_effort_state: bool = False,
        stats: Optional[dict] = None,
    ) -> "CCTAggregator":
        """Batch-aggregate a recorded log against an exported state file.

        Decoding runs through :func:`decode_log_parallel` — record-range
        sharding, per-worker memoisation — always in best-effort mode,
        so damaged samples land under ``<partial>`` instead of aborting
        the profile.
        """
        from ..core.parallel import decode_log_parallel

        aggregator = cls(names=names)
        results = decode_log_parallel(
            state_path,
            samples,
            jobs=jobs,
            best_effort=True,
            best_effort_state=best_effort_state,
            stats=stats,
        )
        aggregator.extend_decoded(
            results, weights, timestamps=[s.timestamp for s in samples]
        )
        aggregator.decode_batches += 1
        return aggregator

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_sample(self, sample: CollectedSample, weight: float = 1.0) -> None:
        """Decode one sample (best-effort) and fold it into the tree."""
        decoder = self.decoder
        if decoder is None:
            raise DecodingError(
                "CCTAggregator has no decoder; use add_decoded or "
                "aggregate_log"
            )
        result = decoder.decode_best_effort(sample)
        self.add_decoded(result, weight, timestamp=sample.timestamp)

    def add_decoded(
        self,
        result: DecodedSample,
        weight: float = 1.0,
        timestamp: Optional[int] = None,
    ) -> None:
        """Fold one decode result into the tree (epoch-merge rule)."""
        if isinstance(result, PartialDecode):
            self.add_path(
                result.context.functions(), weight, timestamp,
                not result.complete,
            )
        else:
            self.add_path(result.functions(), weight, timestamp)

    def add_path(
        self,
        path: Sequence[int],
        weight: float = 1.0,
        timestamp: Optional[int] = None,
        partial: bool = False,
    ) -> None:
        """Fold one decoded function path; a ``partial`` one files under
        ``<partial>``."""
        with self._lock:
            self.samples_total += 1
            self.weight_total += weight
            if timestamp is not None:
                self.epochs_seen[timestamp] = (
                    self.epochs_seen.get(timestamp, 0) + 1
                )
            if partial:
                self.samples_partial += 1
                self.weight_partial += weight
                self.cct.insert_partial(path, weight)
            else:
                self.cct.insert(path, weight)

    def extend_decoded(
        self,
        results: Iterable[DecodedSample],
        weights: Optional[Sequence[float]] = None,
        timestamps: Optional[Sequence[int]] = None,
    ) -> None:
        for index, result in enumerate(results):
            self.add_decoded(
                result,
                weights[index] if weights is not None else 1.0,
                timestamp=(
                    timestamps[index] if timestamps is not None else None
                ),
            )

    # ------------------------------------------------------------------
    # consistent read-side snapshots (safe while ingestion runs)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "samples": self.samples_total,
                "samples_partial": self.samples_partial,
                "weight": self.weight_total,
                "weight_partial": self.weight_partial,
                "nodes": self.cct.num_nodes(),
                "max_depth": self.cct.max_depth(),
                "epochs": len(self.epochs_seen),
                "decode_batches": self.decode_batches,
            }

    def leaf_weights(self) -> Dict[Tuple[int, ...], float]:
        with self._lock:
            return self.cct.leaf_weights()

    def to_dict(self) -> Dict[str, object]:
        """The full tree as nested JSON plus the aggregate counters."""
        with self._lock:
            return {
                "samples": self.samples_total,
                "samples_partial": self.samples_partial,
                "weight": self.weight_total,
                "weight_partial": self.weight_partial,
                "epochs": dict(self.epochs_seen),
                "root": self.cct.to_dict(self.names),
            }

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Register ``prof_*`` pull-mode instruments on a registry."""
        samples = registry.counter(
            "prof_samples_total",
            "Profile samples aggregated into the CCT, by decode outcome.",
            labelnames=("result",),
        )
        weight = registry.counter(
            "prof_weight_total",
            "Aggregated profile weight, by decode outcome.",
            labelnames=("result",),
        )
        shape = registry.gauge(
            "prof_cct",
            "Calling-context-tree shape (nodes, depth, epochs).",
            labelnames=("property",),
        )

        def collect() -> None:
            snapshot = self.stats()
            complete = int(snapshot["samples"]) - int(
                snapshot["samples_partial"]
            )
            samples.set_total(complete, "complete")
            samples.set_total(snapshot["samples_partial"], "partial")
            weight.set_total(
                float(snapshot["weight"]) - float(snapshot["weight_partial"]),
                "complete",
            )
            weight.set_total(snapshot["weight_partial"], "partial")
            shape.set_labeled(snapshot["nodes"], "nodes")
            shape.set_labeled(snapshot["max_depth"], "max_depth")
            shape.set_labeled(snapshot["epochs"], "epochs")
            shape.set_labeled(snapshot["decode_batches"], "decode_batches")

        registry.register_collector(collect)
