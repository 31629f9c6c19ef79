"""Benchmark suite scaffolding — SPEC CPU2006 + Parsec 2.1 stand-ins.

The paper evaluates on 29 SPEC CPU2006 programs (ref inputs) and 12
Parsec 2.1 programs (native inputs) on a 1.87 GHz Xeon E7-4807.  The
reproduction cannot run those binaries; instead each benchmark is a
:class:`BenchmarkSpec` carrying

* the *published* Table 1 row (:class:`PaperRow`) — the ground truth the
  reproduction is compared against in EXPERIMENTS.md, and
* derivation logic that turns the row into a synthetic-program
  generator configuration and a workload: dynamic node/edge counts size
  the program, PCCE's larger static counts size the never-executed code
  and points-to false positives, the ccStack rate and depth calibrate
  recursion pressure, ``gTS`` sets the number of phase shifts, and
  ``calls/s`` sets the baseline application cycles per call for the
  overhead model (call-dense programs amortise instrumentation over
  fewer cycles — the paper's central overhead correlation).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..program.generator import GeneratorConfig
from ..program.trace import PhaseSpec, ThreadSpec, WorkloadSpec

#: The paper's machine: 1.87 GHz Intel Xeon E7-4807.
CLOCK_HZ = 1.87e9


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 1 plus the Figure 8 overheads.

    ``pcce_maxid`` is kept as the paper prints it (``"overflow"`` for
    400.perlbench and 403.gcc).  ``overhead_*`` are percentages read off
    Figure 8; the paper only states the geomeans (about 2.5% PCCE, 2%
    DACCE) numerically, so the per-benchmark values are approximate
    digitisations and are treated as such in EXPERIMENTS.md.
    """

    pcce_nodes: int
    pcce_edges: int
    pcce_maxid: str
    pcce_ccstack_s: int
    pcce_depth: float
    nodes: int
    edges: int
    maxid: float
    ccstack_s: int
    depth: float
    gts: int
    costs_us: int
    calls_s: int
    overhead_pcce: float
    overhead_dacce: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark: name, suite, paper row, and tuning hints."""

    name: str
    suite: str
    paper: PaperRow
    #: Worker threads (Parsec programs are multi-threaded).
    threads: int = 0
    #: Fraction of call sites that are indirect (perlbench/gobmk/x264
    #: are the paper's function-pointer-heavy cases).
    indirect_fraction: float = 0.04
    #: Dynamic target count range of indirect sites; x264's large sets
    #: are what motivates the hash-table dispatch (Section 3.2).
    indirect_targets: Tuple[int, int] = (2, 4)
    #: Extra seed offset so benchmarks differ structurally.
    seed: int = 0

    # -- derived quantities -------------------------------------------
    @property
    def ccstack_rate(self) -> float:
        """DACCE ccStack operations per dynamic call (from Table 1)."""
        if self.paper.calls_s <= 0:
            return 0.0
        return min(1.0, self.paper.ccstack_s / self.paper.calls_s)

    @property
    def pcce_ccstack_rate(self) -> float:
        """PCCE ccStack operations per dynamic call (from Table 1)."""
        if self.paper.calls_s <= 0:
            return 0.0
        return min(1.0, self.paper.pcce_ccstack_s / self.paper.calls_s)

    @property
    def hot_cycle_edges(self) -> int:
        """Dead cycle-closing static edges through hot code.

        Sized from how much *extra* ccStack traffic PCCE shows over
        DACCE in Table 1 — the signature of hot edges trapped as back
        edges by never-executed code (perlbench, xalancbmk, h264ref...).
        """
        excess = max(0.0, self.pcce_ccstack_rate - self.ccstack_rate)
        if excess <= 0:
            return 0
        return max(2, min(80, int(excess * 400)))

    @property
    def persistent_recursion(self) -> bool:
        """Long-lived recursion bases (depth >= 1 in Table 1)."""
        return self.paper.depth >= 1.0

    @property
    def recursion_affinity(self) -> float:
        """Burst-continuation probability, from Table 1's average depth.

        A geometric burst with continuation ``a`` has mean depth
        ``1 / (1 - a)``; inverting the paper's average ccStack depth
        (clamped — xalancbmk's depth 6 maps to a deep but finite 0.9).
        """
        depth = self.paper.depth
        if depth <= 0.01:
            return 0.0
        return min(0.85, 1.0 - 1.0 / (1.0 + 0.6 * depth))

    @property
    def recursive_sites(self) -> int:
        """Cycle-closing sites; a handful suffices at the right weight."""
        if self.ccstack_rate <= 0 and self.paper.depth <= 0:
            return 1
        return max(1, min(12, int(round(200 * self.ccstack_rate)) + 2))

    @property
    def recursion_weight(self) -> float:
        """Entry weight for recursive sites, from the ccStack op rate.

        Each burst of mean depth d costs about 2d ccStack operations, so
        entries-per-call ~= rate * (1 - affinity) / 2; the weight is that
        entry probability scaled against typical site weights (~1).
        """
        rate = self.ccstack_rate
        if rate <= 0:
            return 0.001
        entry = rate * max(0.1, 1.0 - self.recursion_affinity) / 2.0
        weight = 6.0 * entry
        # In tiny programs the recursion-site functions take a much
        # larger share of execution, so the same site weight would yield
        # far more entries per call; scale it down proportionally.
        size_correction = min(1.0, self.paper.nodes / 80.0)
        return max(0.0005, min(0.2, weight * size_correction))

    @property
    def baseline_cycles_per_call(self) -> float:
        """Application cycles of real work per call at the paper's rate."""
        if self.paper.calls_s <= 0:
            return CLOCK_HZ
        return CLOCK_HZ / self.paper.calls_s

    # -- build ----------------------------------------------------------
    def generator_config(self, scale: float = 1.0) -> GeneratorConfig:
        """Synthetic-program parameters matching this benchmark's shape.

        ``scale`` < 1 shrinks graph sizes proportionally for quick runs;
        dynamic/static proportions are preserved.
        """
        paper = self.paper
        functions = max(3, int(paper.nodes * scale))
        edges = max(functions, int(paper.edges * scale))
        static_fn = max(0, int((paper.pcce_nodes - paper.nodes) * scale))
        static_edges = max(0, int((paper.pcce_edges - paper.edges) * scale))
        library_functions = max(4, functions // 40)
        return GeneratorConfig(
            name=self.name,
            seed=_name_digest(self.name) % 100_000 + self.seed,
            functions=functions,
            edges=edges,
            static_only_functions=static_fn,
            static_only_edges=static_edges,
            hot_cycle_edges=self.hot_cycle_edges,
            indirect_fraction=self.indirect_fraction,
            indirect_targets=self.indirect_targets,
            pointsto_false_targets=(2, max(4, static_fn // 50 + 4)),
            recursive_sites=self.recursive_sites,
            recursion_weight=self.recursion_weight,
            tail_fraction=0.03,
            library_functions=library_functions,
            libraries=2,
            lazy_library=self.suite.startswith("Parsec"),
            hot_skew=1.2,
            max_fanout=max(8, (2 * edges) // max(1, functions) + 4),
        )

    def workload_spec(
        self, calls: int = 40_000, seed: int = 1
    ) -> WorkloadSpec:
        """Workload matching this benchmark's dynamic behaviour."""
        paper = self.paper
        phases = [
            PhaseSpec(
                at_call=int(calls * position),
                seed=seed * 37 + index,
            )
            for index, position in enumerate(
                _phase_positions(min(8, max(0, paper.gts - 1)))
            )
        ]
        threads = [
            ThreadSpec(
                thread=index + 1,
                entry=2 + index,
                spawn_at_call=500 + 400 * index,
            )
            for index in range(self.threads)
        ]
        depth_target = 12 if paper.depth < 1 else 18
        return WorkloadSpec(
            calls=calls,
            seed=seed + (_name_digest(self.name) % 1000),
            sample_period=max(11, calls // 1200),
            target_depth=depth_target,
            max_depth=400,
            recursion_affinity=self.recursion_affinity,
            persistent_recursion=self.persistent_recursion,
            threads=threads,
            phases=phases,
        )


def _name_digest(name: str) -> int:
    """A seed component derived from ``name`` that is the same in every
    process (``hash(str)`` is salted per process by PYTHONHASHSEED)."""
    return zlib.crc32(name.encode())


def _phase_positions(count: int) -> List[float]:
    """Spread ``count`` phase changes over the middle of the run."""
    if count <= 0:
        return []
    return [(index + 1) / (count + 1) for index in range(count)]


class BenchmarkSuite:
    """All benchmarks, addressable by name."""

    def __init__(self, benchmarks: List[BenchmarkSpec]):
        self._by_name: Dict[str, BenchmarkSpec] = {}
        for benchmark in benchmarks:
            self._by_name[benchmark.name] = benchmark

    def names(self) -> List[str]:
        return list(self._by_name.keys())

    def get(self, name: str) -> BenchmarkSpec:
        return self._by_name[name]

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)


def full_suite() -> BenchmarkSuite:
    """SPEC CPU2006 + Parsec 2.1, in the paper's Table 1 order."""
    from .parsec import PARSEC_2_1
    from .spec2006 import SPEC_CPU2006

    return BenchmarkSuite(list(SPEC_CPU2006) + list(PARSEC_2_1))
