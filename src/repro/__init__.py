"""DACCE — Dynamic and Adaptive Calling Context Encoding (CGO 2014).

A complete reproduction of Li, Wang, Wu, Hsu and Xu's runtime
calling-context encoding system, including the PCCE / stack-walking /
CCT / probabilistic-calling-context baselines, a synthetic program
substrate standing in for SPEC CPU2006 + Parsec 2.1 binaries, a
``sys.setprofile``-based frontend for real Python programs, and the
benchmark harness regenerating the paper's Table 1 and Figures 8-10.

Quickstart::

    from repro import DacceEngine, GeneratorConfig, WorkloadSpec
    from repro import generate_program, TraceExecutor

    program = generate_program(GeneratorConfig(seed=7))
    engine = DacceEngine(root=program.main)
    for event in TraceExecutor(program, WorkloadSpec(calls=20_000)).events():
        engine.on_event(event)
    decoder = engine.decoder()
    contexts = [decoder.decode(sample) for sample in engine.samples[:3]]
"""

from .core import (
    CallGraph,
    CallingContext,
    CcStackEntry,
    CollectedSample,
    CompressionMode,
    ContextStep,
    DacceConfig,
    DacceEngine,
    DacceError,
    Decoder,
    DictionaryStore,
    Encoder,
    EncodingDictionary,
    encode_graph,
)
from .baselines import CctEngine, PccEngine, PcceEngine, StackWalkEngine
from .obs import MetricsRegistry, Telemetry
from .program import (
    GeneratorConfig,
    Program,
    TraceExecutor,
    WorkloadSpec,
    generate_program,
)
from .analysis import validate_run

__version__ = "1.0.0"

__all__ = [
    "CallGraph",
    "CallingContext",
    "CcStackEntry",
    "CctEngine",
    "CollectedSample",
    "CompressionMode",
    "ContextStep",
    "DacceConfig",
    "DacceEngine",
    "DacceError",
    "Decoder",
    "DictionaryStore",
    "Encoder",
    "EncodingDictionary",
    "GeneratorConfig",
    "MetricsRegistry",
    "PccEngine",
    "PcceEngine",
    "Program",
    "StackWalkEngine",
    "Telemetry",
    "TraceExecutor",
    "WorkloadSpec",
    "encode_graph",
    "generate_program",
    "validate_run",
    "__version__",
]
