"""DACCE core: dynamic call graph, encoder, runtime engine, decoder."""

from .adaptive import AdaptiveConfig, AdaptivePolicy, classify_back_edges
from .callgraph import CallEdge, CallGraph, CallNode, dfs_classify_back_edges
from .ccstack import CLONE_CALLSITE, CcStack
from .context import CallingContext, CcStackEntry, CollectedSample, ContextStep
from .decoder import DecodeCache, Decoder, decode_sample
from .dictionary import DictionaryStore, EdgeInfo, EncodingDictionary
from .encoder import Encoder, encode_graph, frequency_order, insertion_order
from .fastpath import FastPathStats, FastPathTable, compile_table
from .engine import (
    CompressionMode,
    DacceConfig,
    DacceEngine,
    DacceStats,
    SampleCallback,
    SampleHook,
)
from .errors import (
    CallGraphError,
    DacceError,
    DecodingError,
    EncodingError,
    EncodingOverflowError,
    ProgramModelError,
    ReencodeError,
    StaleDictionaryError,
    TraceError,
)
from .faults import (
    DecodeFault,
    FaultKind,
    FaultLog,
    FaultPolicy,
    FaultRecord,
    PartialDecode,
    RecoveryAction,
)
from .events import (
    CallEvent,
    CallKind,
    Event,
    LibraryLoadEvent,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadStartEvent,
)
from .invariants import assert_sound, check_dictionary
from .indirect import (
    DEFAULT_HASH_THRESHOLD,
    DispatchStrategy,
    IndirectCallSite,
    IndirectDispatchTable,
)
from .parallel import decode_log_parallel
from .samplelog import SampleLog, SampleLogError, SampleLogFault
from .serialize import (
    SerializationError,
    decode_log,
    export_decoding_state,
    load_decoder,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptivePolicy",
    "CLONE_CALLSITE",
    "CallEdge",
    "CallEvent",
    "CallGraph",
    "CallGraphError",
    "CallKind",
    "CallNode",
    "CallingContext",
    "CcStack",
    "CcStackEntry",
    "CollectedSample",
    "CompressionMode",
    "ContextStep",
    "DEFAULT_HASH_THRESHOLD",
    "DacceConfig",
    "DacceEngine",
    "DacceError",
    "DacceStats",
    "DecodeCache",
    "DecodeFault",
    "Decoder",
    "DecodingError",
    "DictionaryStore",
    "DispatchStrategy",
    "EdgeInfo",
    "Encoder",
    "EncodingDictionary",
    "EncodingError",
    "EncodingOverflowError",
    "Event",
    "FastPathStats",
    "FastPathTable",
    "FaultKind",
    "FaultLog",
    "FaultPolicy",
    "FaultRecord",
    "IndirectCallSite",
    "IndirectDispatchTable",
    "LibraryLoadEvent",
    "PartialDecode",
    "ProgramModelError",
    "RecoveryAction",
    "ReencodeError",
    "SampleCallback",
    "SampleHook",
    "ReturnEvent",
    "SampleEvent",
    "SampleLog",
    "SampleLogError",
    "SampleLogFault",
    "SerializationError",
    "export_decoding_state",
    "load_decoder",
    "StaleDictionaryError",
    "ThreadExitEvent",
    "ThreadStartEvent",
    "TraceError",
    "assert_sound",
    "check_dictionary",
    "classify_back_edges",
    "compile_table",
    "decode_log",
    "decode_log_parallel",
    "decode_sample",
    "dfs_classify_back_edges",
    "encode_graph",
    "frequency_order",
    "insertion_order",
]
