"""Persistence of decoding state — offline context reconstruction.

The paper's deployment story separates recording from decoding: the
instrumented process writes compact context records continuously, and a
*different* process (the debugger, the race-report generator) decodes
them later.  That requires everything Algorithm 1 consumes to be
persistable:

* every decoding dictionary produced so far (per ``gTimeStamp``),
* the call-site owner map (callsite -> containing function),
* the thread-creation samples used to stitch cross-thread contexts.

:func:`export_decoding_state` captures all of it from a live engine as
JSON; :func:`load_decoder` reconstructs a fully functional
:class:`~repro.core.decoder.Decoder` from the file — no engine, graph or
program required.  Together with :class:`~repro.core.samplelog.SampleLog`
this completes the offline pipeline::

    # recording process
    engine.run(events)
    log.extend(engine.samples)
    export_decoding_state(engine, "run.state.json")
    open("run.log", "wb").write(log.to_bytes())

    # analysis process (later, elsewhere)
    decoder = load_decoder("run.state.json")
    log = SampleLog.from_bytes(open("run.log", "rb").read())
    contexts = decode_log(decoder, log)          # lazy iterator of contexts

Decoded contexts are *returned*, never printed — library code writes
nothing to stdout (rendering is the CLI's job; see ``dacce decode``).
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Iterable, Iterator, List, Union

from .context import CallingContext, CcStackEntry, CollectedSample
from .decoder import Decoder
from .dictionary import DictionaryStore, EdgeInfo, EncodingDictionary
from .errors import DacceError
from .events import CallKind
from .faults import PartialDecode

#: Version 2 adds a per-dictionary ``checksum`` field (CRC32 of the
#: canonical JSON of the dictionary payload).  Version 1 files — no
#: checksums — are still loadable.
FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class SerializationError(DacceError):
    """Invalid or incompatible decoding-state data.

    Structured attributes: ``reason`` (``not-json`` /
    ``unsupported-format`` / ``checksum-mismatch`` /
    ``bad-dictionary``) plus context such as ``gts`` where it applies.
    """


def dictionary_checksum(payload: Dict[str, Any]) -> int:
    """CRC32 over the canonical JSON of one dictionary payload.

    The ``checksum`` key itself is excluded, so the stored value can be
    verified against the rest of the entry.
    """
    trimmed = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def dictionary_to_dict(dictionary: EncodingDictionary) -> Dict[str, Any]:
    return {
        "timestamp": dictionary.timestamp,
        "max_id": dictionary.max_id,
        "root": dictionary.root,
        "overflow_bits": dictionary.overflow_bits,
        "numcc": {str(fn): dictionary.numcc(fn) for fn in _numcc_keys(dictionary)},
        "edges": [
            {
                "caller": info.caller,
                "callee": info.callee,
                "callsite": info.callsite,
                "kind": info.kind.value,
                "is_back": info.is_back,
                "encoding": info.encoding,
            }
            for info in dictionary.edges()
        ],
    }


def _numcc_keys(dictionary: EncodingDictionary):
    return dictionary._numcc.keys()  # noqa: SLF001 — serializer is a friend


def sample_to_dict(sample: CollectedSample) -> Dict[str, Any]:
    return {
        "timestamp": sample.timestamp,
        "context_id": sample.context_id,
        "function": sample.function,
        "thread": sample.thread,
        "ccstack": [
            [entry.id, entry.callsite, entry.target, entry.count]
            for entry in sample.ccstack
        ],
    }


def sample_from_dict(data: Dict[str, Any]) -> CollectedSample:
    return CollectedSample(
        timestamp=data["timestamp"],
        context_id=data["context_id"],
        function=data["function"],
        thread=data.get("thread", 0),
        ccstack=tuple(
            CcStackEntry(entry[0], entry[1], entry[2], entry[3])
            for entry in data.get("ccstack", [])
        ),
    )


def decoding_state_to_dict(engine) -> Dict[str, Any]:
    """Everything a future decoder needs, as plain JSON-able data."""
    store = engine.dictionaries
    dictionaries = []
    for ts in sorted(store._by_timestamp):  # noqa: SLF001
        entry = dictionary_to_dict(store.get(ts))
        entry["checksum"] = dictionary_checksum(entry)
        dictionaries.append(entry)
    return {
        "format": FORMAT_VERSION,
        "dictionaries": dictionaries,
        "callsite_owners": {
            str(callsite): owner
            for callsite, owner in engine.graph.callsite_owners.items()
        },
        "thread_parents": {
            str(thread): sample_to_dict(sample)
            for thread, sample in engine.thread_parents.items()
        },
        # Additive sections (still format 2 — older loaders ignore them).
        # ``config`` carries what offline verification needs to reason
        # about the id space; ``edge_stats`` carries the dynamic edge
        # list with invocation counts, which powers the ``dacce lint``
        # cross-check against a static call graph and the dead-edge scan.
        "config": {"id_bits": engine.config.id_bits},
        "edge_stats": [
            {
                "caller": edge.caller,
                "callee": edge.callee,
                "callsite": edge.callsite,
                "kind": edge.kind.value,
                "is_back": edge.is_back,
                "seeded": edge.seeded,
                "invocations": edge.invocations,
            }
            for edge in engine.graph.edges()
        ],
        **_targeted_section(engine),
    }


def _targeted_section(engine) -> Dict[str, Any]:
    """Additive ``targeted`` section for engines in targeted mode.

    Records the targeted function set and resolved sinks so offline
    tools (``dacce lint --targets``, ``dacce guard check``) can verify
    coverage against the plan the run actually used.
    """
    plan = getattr(engine, "_targeted", None)
    if plan is None:
        return {}
    fns = getattr(engine, "_targeted_fns", None) or plan.functions
    return {
        "targeted": {
            "functions": sorted(fns),
            "sinks": sorted(plan.sinks),
        }
    }


def export_decoding_state(engine, path: str) -> str:
    """Write the engine's complete decoding state to ``path`` (JSON)."""
    with open(path, "w") as handle:
        json.dump(decoding_state_to_dict(engine), handle)
    return path


# ----------------------------------------------------------------------
# import
# ----------------------------------------------------------------------
def dictionary_from_dict(data: Dict[str, Any]) -> EncodingDictionary:
    try:
        edges = {}
        for edge in data["edges"]:
            info = EdgeInfo(
                caller=edge["caller"],
                callee=edge["callee"],
                callsite=edge["callsite"],
                kind=CallKind(edge["kind"]),
                is_back=edge["is_back"],
                encoding=edge["encoding"],
            )
            edges[(info.callsite, info.callee)] = info
        return EncodingDictionary(
            timestamp=data["timestamp"],
            numcc={int(k): v for k, v in data["numcc"].items()},
            edges=edges,
            max_id=data["max_id"],
            root=data["root"],
            overflow_bits=data.get("overflow_bits"),
        )
    except (KeyError, ValueError, TypeError) as error:
        raise SerializationError(
            "bad dictionary data: %s" % error,
            reason="bad-dictionary",
            gts=data.get("timestamp"),
        ) from error


def verify_dictionary_entry(entry: Dict[str, Any]) -> None:
    """Raise :class:`SerializationError` when a v2 checksum fails."""
    stored = entry.get("checksum")
    actual = dictionary_checksum(entry)
    if stored != actual:
        raise SerializationError(
            "dictionary ts=%r checksum mismatch (stored %r, computed %d)"
            % (entry.get("timestamp"), stored, actual),
            reason="checksum-mismatch",
            gts=entry.get("timestamp"),
            stored=stored,
            actual=actual,
        )


def decoder_from_dict(data: Dict[str, Any], best_effort: bool = False) -> Decoder:
    version = data.get("format")
    if version not in _SUPPORTED_VERSIONS:
        raise SerializationError(
            "unsupported decoding-state format %r" % version,
            reason="unsupported-format",
            format=version,
            supported=list(_SUPPORTED_VERSIONS),
        )
    store = DictionaryStore()
    load_faults: List[Dict[str, Any]] = []
    for entry in data["dictionaries"]:
        try:
            if version >= 2:
                verify_dictionary_entry(entry)
            store.add(dictionary_from_dict(entry))
        except SerializationError as error:
            if not best_effort:
                raise
            load_faults.append(
                {
                    "reason": error.reason or "bad-dictionary",
                    "message": str(error),
                    "gts": error.gts,
                }
            )
    thread_parents = {
        int(thread): sample_from_dict(sample)
        for thread, sample in data.get("thread_parents", {}).items()
    }
    owners = {
        int(callsite): owner
        for callsite, owner in data.get("callsite_owners", {}).items()
    }
    decoder = Decoder(store, thread_parents, callsite_owners=owners)
    #: Dictionaries dropped by a best-effort load (empty when clean).
    decoder.load_faults = load_faults
    return decoder


def load_decoder(path: str, best_effort: bool = False) -> Decoder:
    """Reconstruct a decoder from an exported decoding-state file.

    With ``best_effort=True`` dictionaries that fail their checksum (or
    fail to parse) are skipped and reported on ``decoder.load_faults``
    instead of aborting the load; samples tagged with a dropped
    dictionary's timestamp then surface as stale-dictionary faults at
    decode time.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise SerializationError(
                "not a decoding-state file", reason="not-json"
            ) from error
    return decoder_from_dict(data, best_effort=best_effort)


def decode_log(
    decoder: Decoder,
    samples: Iterable[CollectedSample],
    best_effort: bool = False,
) -> Iterator[Union[CallingContext, PartialDecode]]:
    """Lazily decode a recorded sample stream to calling contexts.

    The offline counterpart of the engine's live queries: pairs a
    reconstructed decoder with a :class:`~repro.core.samplelog.SampleLog`
    (or any sample iterable) and yields one
    :class:`~repro.core.context.CallingContext` per record.  With
    ``best_effort=True`` each record instead yields a
    :class:`~repro.core.faults.PartialDecode` and undecodable samples
    degrade to their longest decodable suffix rather than raising.
    """
    for sample in samples:
        if best_effort:
            yield decoder.decode_best_effort(sample)
        else:
            yield decoder.decode(sample)
