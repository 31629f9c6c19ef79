"""Structural invariant checking for encodings (debugging / testing aid).

The soundness of Algorithm 1 rests on three structural properties of
every decoding dictionary (DESIGN.md §2):

1. the encoded-edge subset is acyclic,
2. ``numCC(n) = max(1, Σ numCC(p))`` over the encoded in-edges,
3. each node's in-edge intervals ``[En(e), En(e) + numCC(p))`` exactly
   partition ``[0, numCC(n))``.

:func:`check_dictionary` verifies all three and returns the list of
violations (empty = sound).  The engine can run it after every
re-encoding when ``DacceConfig``-level debugging is wanted; the property
tests use it to gate every randomly generated encoding.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .dictionary import EncodingDictionary
from .events import FunctionId


def check_dictionary(dictionary: EncodingDictionary) -> List[str]:
    """All invariant violations of one dictionary (empty list = sound)."""
    functions = _functions(dictionary)
    violations: List[str] = []
    violations.extend(_check_acyclic(dictionary, functions))
    violations.extend(_check_numcc(dictionary, functions))
    violations.extend(_check_intervals(dictionary, functions))
    violations.extend(_check_maxid(dictionary, functions))
    return violations


def assert_sound(dictionary: EncodingDictionary) -> None:
    """Raise ``AssertionError`` listing any violations."""
    violations = check_dictionary(dictionary)
    assert not violations, "; ".join(violations)


# ----------------------------------------------------------------------
def _functions(dictionary: EncodingDictionary) -> Set[FunctionId]:
    """Every function the dictionary's edges touch, and its root."""
    functions: Set[FunctionId] = set()
    for info in dictionary.edges():
        functions.add(info.caller)
        functions.add(info.callee)
    functions.add(dictionary.root)
    return functions


def _check_acyclic(
    dictionary: EncodingDictionary, functions: Set[FunctionId]
) -> List[str]:
    adjacency: Dict[FunctionId, List[FunctionId]] = {}
    for info in dictionary.edges():
        if info.encoding is not None:
            adjacency.setdefault(info.caller, []).append(info.callee)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {fn: WHITE for fn in functions}
    violations = []
    for start in color:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adjacency.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color.get(child, WHITE) == GRAY:
                    violations.append(
                        "cycle through encoded edges at %r -> %r" % (node, child)
                    )
                elif color.get(child, WHITE) == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(adjacency.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
        if violations:
            break
    return violations


def _check_numcc(
    dictionary: EncodingDictionary, functions: Set[FunctionId]
) -> List[str]:
    violations = []
    for fn in functions:
        total = sum(
            dictionary.numcc(info.caller)
            for info in dictionary.encoded_in_edges(fn)
        )
        expected = max(1, total)
        actual = dictionary.numcc(fn)
        if actual != expected:
            violations.append(
                "numCC(%r) = %d, expected %d" % (fn, actual, expected)
            )
    return violations


def _check_intervals(
    dictionary: EncodingDictionary, functions: Set[FunctionId]
) -> List[str]:
    violations = []
    for fn in functions:
        intervals = sorted(
            (info.encoding, info.encoding + dictionary.numcc(info.caller))
            for info in dictionary.encoded_in_edges(fn)
        )
        cursor = 0
        for low, high in intervals:
            if low != cursor:
                violations.append(
                    "gap/overlap in intervals of %r at %d (expected %d)"
                    % (fn, low, cursor)
                )
                break
            cursor = high
        else:
            if intervals and cursor != dictionary.numcc(fn):
                violations.append(
                    "intervals of %r cover %d of numCC=%d"
                    % (fn, cursor, dictionary.numcc(fn))
                )
    return violations


def _check_maxid(
    dictionary: EncodingDictionary, functions: Set[FunctionId]
) -> List[str]:
    peak = max((dictionary.numcc(fn) for fn in functions), default=1)
    if dictionary.max_id != peak - 1:
        return [
            "maxID = %d but max numCC - 1 = %d"
            % (dictionary.max_id, peak - 1)
        ]
    return []
