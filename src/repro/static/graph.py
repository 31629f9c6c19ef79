"""The static call graph — common output of every static extractor.

DACCE (Section 3) deliberately starts from a call graph containing only
``main`` and discovers every edge at runtime, paying one runtime-handler
invocation plus unencoded-edge ccStack saves per edge.  Static analysis
inverts the trade: it enumerates edges *before* execution, imprecisely.
This module is the meeting point — a :class:`StaticCallGraph` carries

* the functions the analysis found, with their source locations,
* the call edges it could resolve, each tagged with a
  :class:`Confidence` describing how trustworthy the resolution is,
* the call sites it could *not* resolve (:class:`UnresolvedSite`) —
  indirect dispatch, ``getattr`` tricks, lazily loaded plugins — which
  is exactly the set of edges DACCE's dynamic discovery still owns.

Two extractors emit this structure: :mod:`repro.static.pyextract`
(AST-based, for real Python source) and :mod:`repro.static.synthetic`
(exact, for the ``repro.program`` model).  Consumers are
:mod:`repro.static.warmstart` (pre-seeded encodings) and
:mod:`repro.static.lint` (offline verification).
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import DacceError
from ..core.events import CallKind, CallSiteId, FunctionId

logger = logging.getLogger(__name__)


class StaticAnalysisError(DacceError):
    """Invalid static-analysis input or malformed persisted graph."""


class Confidence(enum.Enum):
    """How trustworthy a statically derived edge is.

    * ``HIGH`` — the edge is certain to be a real call-graph edge if the
      site ever executes (direct call to a known definition).
    * ``MEDIUM`` — probably real, but dispatch may go elsewhere
      (``self.method()`` ignoring inheritance overrides, class
      instantiation, module-attribute calls).
    * ``LOW`` — speculative (points-to supersets of indirect sites,
      functions behind lazily loaded libraries).
    """

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @property
    def rank(self) -> int:
        return _CONFIDENCE_RANK[self]

    def at_least(self, other: "Confidence") -> bool:
        return self.rank >= other.rank


_CONFIDENCE_RANK: Dict[Confidence, int] = {
    Confidence.LOW: 0,
    Confidence.MEDIUM: 1,
    Confidence.HIGH: 2,
}


@dataclass(frozen=True)
class StaticFunction:
    """A function definition the extractor found.

    ``lineno`` is the line of the ``def`` statement; ``firstlineno`` is
    the line a live code object reports (``co_firstlineno``), which for
    decorated functions is the first decorator line — keeping both makes
    the code-object mapping in :mod:`repro.pytrace.tracer` exact.
    """

    id: FunctionId
    qualname: str
    module: str
    lineno: int = 0
    firstlineno: int = 0

    @property
    def location(self) -> str:
        return "%s:%d:%s" % (self.module, self.lineno, self.qualname)


@dataclass(frozen=True)
class StaticEdge:
    """One statically derived call edge with its resolution confidence."""

    caller: FunctionId
    callee: FunctionId
    callsite: CallSiteId
    kind: CallKind = CallKind.NORMAL
    confidence: Confidence = Confidence.HIGH
    #: Source line of the call expression (0 when unknown).
    lineno: int = 0
    #: Why the extractor assigned this confidence (``direct-call``,
    #: ``self-method``, ``points-to``, ...).
    reason: str = "direct-call"

    def key(self) -> Tuple[CallSiteId, FunctionId]:
        return (self.callsite, self.callee)


@dataclass(frozen=True)
class UnresolvedSite:
    """A call site the extractor explicitly gave up on.

    These are *flagged*, not silently dropped: the lint cross-check
    excuses dynamic edges only where static analysis admitted blindness.
    """

    module: str
    function: Optional[FunctionId]
    lineno: int
    reason: str
    detail: str = ""

    @property
    def location(self) -> str:
        return "%s:%d" % (self.module, self.lineno)


class StaticCallGraph:
    """Functions, resolved edges and admitted blind spots of one analysis."""

    def __init__(self, root: Optional[FunctionId] = None) -> None:
        self.root = root
        self._functions: Dict[FunctionId, StaticFunction] = {}
        self._edges: Dict[Tuple[CallSiteId, FunctionId], StaticEdge] = {}
        self._pairs: Set[Tuple[FunctionId, FunctionId]] = set()
        self.unresolved: List[UnresolvedSite] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_function(self, function: StaticFunction) -> StaticFunction:
        existing = self._functions.get(function.id)
        if existing is not None and existing != function:
            raise StaticAnalysisError(
                "function id %d defined twice: %s and %s"
                % (function.id, existing.location, function.location)
            )
        self._functions[function.id] = function
        return function

    def add_edge(self, edge: StaticEdge) -> StaticEdge:
        if edge.caller not in self._functions:
            raise StaticAnalysisError(
                "edge %r references unknown caller %d" % (edge, edge.caller)
            )
        if edge.callee not in self._functions:
            raise StaticAnalysisError(
                "edge %r references unknown callee %d" % (edge, edge.callee)
            )
        existing = self._edges.get(edge.key())
        if existing is not None:
            # Keep the more confident resolution of a duplicate.
            if edge.confidence.rank > existing.confidence.rank:
                self._edges[edge.key()] = edge
            return self._edges[edge.key()]
        self._edges[edge.key()] = edge
        self._pairs.add((edge.caller, edge.callee))
        return edge

    def flag_unresolved(self, site: UnresolvedSite) -> None:
        self.unresolved.append(site)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def functions(self) -> Iterator[StaticFunction]:
        return iter(self._functions.values())

    def function(self, function_id: FunctionId) -> StaticFunction:
        try:
            return self._functions[function_id]
        except KeyError:
            raise StaticAnalysisError(
                "unknown static function %d" % function_id
            ) from None

    def find_function(self, function_id: FunctionId) -> Optional[StaticFunction]:
        return self._functions.get(function_id)

    def edges(self) -> Iterator[StaticEdge]:
        return iter(self._edges.values())

    def has_pair(self, caller: FunctionId, callee: FunctionId) -> bool:
        """Whether *any* static edge connects ``caller`` to ``callee``."""
        return (caller, callee) in self._pairs

    def pairs(self) -> Set[Tuple[FunctionId, FunctionId]]:
        return set(self._pairs)

    @property
    def num_functions(self) -> int:
        return len(self._functions)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def confidence_histogram(self) -> Dict[str, int]:
        histogram = {c.value: 0 for c in Confidence}
        for edge in self._edges.values():
            histogram[edge.confidence.value] += 1
        return histogram

    def __repr__(self) -> str:
        return "StaticCallGraph(functions=%d, edges=%d, unresolved=%d)" % (
            self.num_functions,
            self.num_edges,
            len(self.unresolved),
        )

    # ------------------------------------------------------------------
    # persistence (feeds ``dacce lint --static``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT_VERSION,
            "root": self.root,
            "functions": [
                {
                    "id": fn.id,
                    "qualname": fn.qualname,
                    "module": fn.module,
                    "lineno": fn.lineno,
                    "firstlineno": fn.firstlineno,
                }
                for fn in sorted(self._functions.values(), key=lambda f: f.id)
            ],
            "edges": [
                {
                    "caller": edge.caller,
                    "callee": edge.callee,
                    "callsite": edge.callsite,
                    "kind": edge.kind.value,
                    "confidence": edge.confidence.value,
                    "lineno": edge.lineno,
                    "reason": edge.reason,
                }
                for edge in sorted(
                    self._edges.values(), key=lambda e: (e.callsite, e.callee)
                )
            ],
            "unresolved": [
                {
                    "module": site.module,
                    "function": site.function,
                    "lineno": site.lineno,
                    "reason": site.reason,
                    "detail": site.detail,
                }
                for site in self.unresolved
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StaticCallGraph":
        if not isinstance(data, dict):
            raise StaticAnalysisError(
                "static graph document must be an object, got %s"
                % type(data).__name__
            )
        major, minor = parse_format_version(data.get("format"))
        if minor > _FORMAT_MINOR:
            # Same major → additive fields only; load what we know and
            # leave a trace so silent downgrades are diagnosable.
            logger.warning(
                "static graph was written by a newer minor format %d.%d "
                "(this reader knows %s); unknown fields will be ignored",
                major,
                minor,
                FORMAT_VERSION,
            )
        graph = cls(root=data.get("root"))  # type: ignore[arg-type]
        try:
            for entry in data["functions"]:  # type: ignore[index, union-attr]
                graph.add_function(
                    StaticFunction(
                        id=entry["id"],
                        qualname=entry["qualname"],
                        module=entry["module"],
                        lineno=entry.get("lineno", 0),
                        firstlineno=entry.get("firstlineno", 0),
                    )
                )
            for entry in data["edges"]:  # type: ignore[index, union-attr]
                graph.add_edge(
                    StaticEdge(
                        caller=entry["caller"],
                        callee=entry["callee"],
                        callsite=entry["callsite"],
                        kind=CallKind(entry.get("kind", "normal")),
                        confidence=Confidence(entry.get("confidence", "high")),
                        lineno=entry.get("lineno", 0),
                        reason=entry.get("reason", ""),
                    )
                )
            for entry in data.get("unresolved", ()):  # type: ignore[union-attr]
                graph.flag_unresolved(
                    UnresolvedSite(
                        module=entry["module"],
                        function=entry.get("function"),
                        lineno=entry.get("lineno", 0),
                        reason=entry.get("reason", "unknown"),
                        detail=entry.get("detail", ""),
                    )
                )
        except (KeyError, TypeError, ValueError) as error:
            raise StaticAnalysisError(
                "malformed static-graph data: %s" % error
            ) from error
        return graph

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)
        return path

    @classmethod
    def load(cls, path: str) -> "StaticCallGraph":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise StaticAnalysisError(
                    "not a static-graph file: %s" % error
                ) from error
        return cls.from_dict(data)


#: Persisted static-graph format version, ``"major.minor"``.  The major
#: number changes when existing fields are reshaped (readers must
#: refuse); the minor number changes when fields are *added* (readers
#: may load, ignoring what they do not know).  The original releases
#: wrote the bare integer ``1``, which parses as ``1.0``.
FORMAT_VERSION = "1.0"

_FORMAT_MAJOR = 1
_FORMAT_MINOR = 0


def parse_format_version(value: object) -> Tuple[int, int]:
    """Parse a persisted ``format`` field into ``(major, minor)``.

    Accepts the current ``"major.minor"`` string scheme and the legacy
    bare integer ``1``.  Raises :class:`StaticAnalysisError` for
    anything unparseable (``reason="malformed-version"``) or for a
    major version this reader does not understand
    (``reason="unsupported-major"``).
    """
    if isinstance(value, bool):
        # bool is an int subclass; a True "format" is corruption.
        raise StaticAnalysisError(
            "unsupported static-graph format %r" % (value,),
            reason="malformed-version",
        )
    if isinstance(value, int):
        major, minor = value, 0
    elif isinstance(value, str):
        head, _, tail = value.partition(".")
        try:
            major = int(head)
            minor = int(tail) if tail else 0
        except ValueError:
            raise StaticAnalysisError(
                "unsupported static-graph format %r" % (value,),
                reason="malformed-version",
            ) from None
    else:
        raise StaticAnalysisError(
            "unsupported static-graph format %r" % (value,),
            reason="malformed-version",
        )
    if minor < 0:
        raise StaticAnalysisError(
            "unsupported static-graph format %r" % (value,),
            reason="malformed-version",
        )
    if major != _FORMAT_MAJOR:
        raise StaticAnalysisError(
            "static graph uses format %d.%d; this reader only "
            "understands major version %d" % (major, minor, _FORMAT_MAJOR),
            reason="unsupported-major",
        )
    return major, minor
