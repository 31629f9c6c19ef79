"""Abstract cycle-cost model for instrumentation overhead (Figure 8).

The paper measures wall-clock overhead of instrumented binaries.  The
reproduction replaces the hardware with an explicit cost model: every
instrumentation action is charged a cycle cost, the uninstrumented
program is charged a baseline cost per call (derived from the
benchmark's ``calls/s`` characteristics — call-dense programs have fewer
application cycles per call over which to amortise instrumentation), and
overhead is the ratio of the two.

The constants are calibrated so that the *shape* of Figure 8 holds:
id arithmetic is nearly free, ccStack traffic and indirect comparisons
dominate, runtime-handler invocations and re-encoding passes are
expensive but rare.  Absolute percentages are model outputs, not
hardware measurements; EXPERIMENTS.md discusses the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class CostParameters:
    """Per-operation cycle charges.

    Defaults approximate a modern x86 core: an add to a TLS id is a
    couple of cycles, a ccStack push/pop touches memory, the runtime
    handler is a patched-out call into the shared library, re-encoding
    suspends every thread and rewrites instrumentation.
    """

    id_update: float = 1.5        # id += En / id -= En (En != 0)
    ccstack_push: float = 9.0     # spill <id, cs, target> + bump pointer
    ccstack_pop: float = 6.0      # reload id + drop entry
    ccstack_compress: float = 7.0 # compare top + counter bump (Fig. 5(e))
    compare: float = 2.5          # inline-cache compare+branch (Fig. 3(d));
                                  # deep chains mispredict, hence > 1 cycle
    hash_lookup: float = 7.0      # hash + load + compare (Fig. 4)
    tcstack_op: float = 5.0       # TcStack save/restore pair share (Fig. 7)
    handler: float = 2500.0       # runtime handler: patch + graph insert
    sample: float = 120.0         # record (gTS, id, ccStack snapshot)
    reencode_per_edge: float = 220.0   # re-encoding pass, per graph edge
    thread_suspend: float = 4000.0     # stop/resume the world per thread
    # Baseline application work per dynamic call.  Programs making tens of
    # millions of calls per second spend roughly this many cycles of real
    # work per call (frequency-derived; see bench.suite).
    baseline_cycles_per_call: float = 150.0


#: Charges that occur a bounded number of times per program run (edge
#: discovery, re-encoding passes).  The paper measures hour-long runs
#: where these amortise to nothing; the reproduction simulates a short
#: window, so Figure 8's overhead amortises them over a full-run budget
#: instead of charging them against the window (see analysis.stats).
ONETIME_CATEGORIES = frozenset({"handler", "reencode", "discovery"})

#: Charges belonging to the *client tool* (the libpfm4 sampling module),
#: not to the encoding instrumentation Figure 8 measures.
CLIENT_CATEGORIES = frozenset({"sample"})


@dataclass
class CostReport:
    """Accumulated instrumentation charges for one run."""

    charges: Dict[str, float] = field(default_factory=dict)
    baseline_cycles: float = 0.0

    def add(self, category: str, cycles: float) -> None:
        self.charges[category] = self.charges.get(category, 0.0) + cycles

    @property
    def instrumentation_cycles(self) -> float:
        return sum(self.charges.values())

    @property
    def steady_cycles(self) -> float:
        """Per-call instrumentation work (scales with execution length)."""
        return sum(
            value
            for key, value in self.charges.items()
            if key not in ONETIME_CATEGORIES and key not in CLIENT_CATEGORIES
        )

    @property
    def onetime_cycles(self) -> float:
        """Bounded-per-run work: runtime handler + re-encoding passes."""
        return sum(
            value
            for key, value in self.charges.items()
            if key in ONETIME_CATEGORIES
        )

    @property
    def overhead(self) -> float:
        """Total instrumentation cycles over baseline cycles (raw)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return self.instrumentation_cycles / self.baseline_cycles

    def amortized_overhead(self, full_run_cycles: Optional[float] = None) -> float:
        """Steady-state overhead plus one-time work amortised over a run.

        ``full_run_cycles`` is the application-cycle budget of the *real*
        benchmark run the simulated window stands in for (defaults to the
        window itself, i.e. no amortisation).
        """
        if self.baseline_cycles <= 0:
            return 0.0
        steady = self.steady_cycles / self.baseline_cycles
        budget = full_run_cycles if full_run_cycles else self.baseline_cycles
        return steady + self.onetime_cycles / budget

    def merged(self, other: "CostReport") -> "CostReport":
        out = CostReport(dict(self.charges), self.baseline_cycles)
        for key, value in other.charges.items():
            out.add(key, value)
        out.baseline_cycles += other.baseline_cycles
        return out


class CostModel:
    """Charges instrumentation actions against a :class:`CostReport`."""

    def __init__(self, parameters: CostParameters = CostParameters()):
        self.parameters = parameters
        self.report = CostReport()

    # -- application baseline ------------------------------------------
    def charge_call_baseline(
        self, calls: int = 1, work: Optional[float] = None
    ) -> None:
        """Account uninstrumented application work for ``calls`` calls."""
        per_call = (
            self.parameters.baseline_cycles_per_call if work is None else work
        )
        self.report.baseline_cycles += calls * per_call

    # -- instrumentation actions ---------------------------------------
    def charge_id_update(self, count: int = 1) -> None:
        self.report.add("id_update", count * self.parameters.id_update)

    def charge_ccstack_push(self, count: int = 1) -> None:
        self.report.add("ccstack", count * self.parameters.ccstack_push)

    def charge_ccstack_pop(self, count: int = 1) -> None:
        self.report.add("ccstack", count * self.parameters.ccstack_pop)

    def charge_ccstack_compress(self, count: int = 1) -> None:
        self.report.add("ccstack", count * self.parameters.ccstack_compress)

    def charge_comparisons(self, count: int) -> None:
        self.report.add("indirect", count * self.parameters.compare)

    def charge_hash_lookup(self) -> None:
        self.report.add("indirect", self.parameters.hash_lookup)

    def charge_tcstack(self, count: int = 1) -> None:
        self.report.add("tcstack", count * self.parameters.tcstack_op)

    def charge_handler(self) -> None:
        self.report.add("handler", self.parameters.handler)

    def charge_sample(self, ccstack_entries: int = 0) -> None:
        self.report.add(
            "sample",
            self.parameters.sample + 2.0 * ccstack_entries,
        )

    def charge_reencode(self, edges: int, threads: int) -> None:
        self.report.add(
            "reencode",
            edges * self.parameters.reencode_per_edge
            + threads * self.parameters.thread_suspend,
        )

    def charge_stack_walk(self, frames: int) -> None:
        """Used by the stack-walking baseline: one load chain per frame."""
        self.report.add("stackwalk", 14.0 * frames)

    def charge_cct_step(self) -> None:
        """Used by the CCT baseline: child lookup + position update."""
        self.report.add("cct", 11.0)

    def charge_pcc_hash(self) -> None:
        """Used by the probabilistic-calling-context baseline."""
        self.report.add("pcc", 3.0)
