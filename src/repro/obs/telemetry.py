"""The engine-facing telemetry facade.

:class:`Telemetry` bundles the metrics registry and the re-encoding
pass metrics behind one object the engine can hold.  A disabled engine
holds :data:`NULL_TELEMETRY` instead, whose ``enabled`` flag
short-circuits every hot-path hook to a single boolean test and whose
instruments are shared no-ops, so the telemetry layer costs nothing
unless asked for.

The pass reports themselves live on the engine
(``engine.reencode_passes``); the engine hands that list to its
telemetry, which renders it into both exports without copying it.

Typical use::

    from repro.obs import Telemetry
    from repro.core.engine import DacceEngine

    telemetry = Telemetry()
    engine = DacceEngine(root=program.main, telemetry=telemetry)
    engine.run(events)

    exposition = telemetry.to_prometheus()      # Prometheus text format
    document = telemetry.to_json(indent=2)      # JSON snapshot
    passes = engine.reencode_passes             # why each pass fired
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from .exporters import to_json_snapshot, to_prometheus_text
from .registry import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from .report import ReencodePassReport


class Telemetry:
    """Live telemetry: the metrics registry plus the pass metrics."""

    enabled = True

    def __init__(self):
        self.registry = MetricsRegistry(enabled=True)
        #: The pass reports of the engine this telemetry serves — the
        #: engine's own list, not a copy (set when the engine attaches).
        self.passes: Sequence[ReencodePassReport] = ()
        self._pass_duration = self.registry.histogram(
            "reencode_duration_seconds",
            "Wall-clock duration of re-encoding passes.",
            buckets=DEFAULT_DURATION_BUCKETS,
        )
        self._pass_count = self.registry.counter(
            "reencode_passes_total",
            "Re-encoding passes by trigger reason.",
            labelnames=("reason",),
        )

    # ------------------------------------------------------------------
    def record_pass(self, report: ReencodePassReport) -> None:
        """Count one pass into the duration histogram and reason counter."""
        self._pass_duration.observe(report.duration_seconds)
        for reason in report.reasons:
            self._pass_count.labels(reason).inc()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        return to_prometheus_text(self.snapshot(), self.passes)

    def to_json(self, indent: Optional[int] = None) -> str:
        return to_json_snapshot(self.snapshot(), self.passes, indent=indent)


class _NullTelemetry:
    """Disabled telemetry: every surface is an inert shared object.

    The engine stores this by default; hooks guard on ``enabled`` and
    anything that slips through lands on no-op instruments.  Immutable
    and shared — do not attach state to it.
    """

    enabled = False

    def __init__(self):
        self.registry = MetricsRegistry(enabled=False)

    def record_pass(self, report: ReencodePassReport) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def to_json(self, indent: Optional[int] = None) -> str:
        return to_json_snapshot({}, (), indent=indent)


NULL_TELEMETRY = _NullTelemetry()
