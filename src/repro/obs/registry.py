"""A lightweight metrics registry for the DACCE runtime.

The adaptive policy (Section 4) acts on runtime signals — new-edge
counts, hot-path churn, ccStack traffic — that were previously spread
over ad-hoc counters (``DacceStats``, ``CcStack.stats``,
``IndirectCallSite`` hit/miss fields).  The registry gives those signals
one uniform surface:

* :class:`Counter` — monotone event counts, optionally labelled
  (e.g. calls by ``kind``).
* :class:`Gauge` — point-in-time values (live threads, graph size).
* :class:`Histogram` — bounded-bucket distributions (ccStack depth,
  pass duration); bucket bounds are fixed at creation so the memory
  footprint is constant regardless of traffic.

Two usage modes keep the engine's hot path cheap:

* **Push** — pre-bound instrument children are updated inline by the
  instrumentation hooks (call/return/sample throughput, depth
  histograms).  With the registry *disabled* every constructor returns a
  shared no-op singleton, so a disabled engine pays only one boolean
  check per event.
* **Pull** — :meth:`MetricsRegistry.register_collector` callbacks run at
  snapshot/export time and copy already-maintained statistics
  (``DacceStats``, the ccStack counters, indirect dispatch tables)
  into instruments.  Migrating an existing counter costs nothing on the
  hot path.

Snapshots are plain dictionaries; the exporters render them as
Prometheus text or JSON (see :mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import bisect
import logging
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

LabelValues = Tuple[str, ...]

#: Default ccStack-depth style buckets: fine-grained near zero (the
#: steady state Figure 10 predicts), coarse for recursion bursts.
DEFAULT_DEPTH_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

#: Default duration buckets (seconds) for re-encoding pass timing.
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class MetricError(ValueError):
    """Invalid metric definition or usage."""


def _check_labels(
    labelnames: Sequence[str], labelvalues: Sequence[str]
) -> LabelValues:
    if len(labelnames) != len(labelvalues):
        raise MetricError(
            "expected %d label values %r, got %r"
            % (len(labelnames), tuple(labelnames), tuple(labelvalues))
        )
    return tuple(str(value) for value in labelvalues)


class _Instrument:
    """Common shape of counters, gauges and histograms."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    # Subclasses provide: labels(), series() -> {labelvalues: value}.
    def series(self) -> Dict[LabelValues, object]:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotone counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def labels(self, *labelvalues: str) -> "_CounterChild":
        key = _check_labels(self.labelnames, labelvalues)
        if key not in self._values:
            self._values[key] = 0.0
        return _CounterChild(self, key)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series."""
        if self.labelnames:
            raise MetricError(
                "%s has labels %r; use .labels(...)" % (self.name, self.labelnames)
            )
        self._values[()] += amount

    def set_total(self, value: float, *labelvalues: str) -> None:
        """Absolute update for pull-mode collectors.

        Collectors that mirror an externally maintained count (e.g.
        ``DacceStats.calls``) overwrite the running total at scrape time
        instead of replaying increments.
        """
        key = _check_labels(self.labelnames, labelvalues)
        self._values[key] = float(value)

    def value(self, *labelvalues: str) -> float:
        return self._values.get(_check_labels(self.labelnames, labelvalues), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        return dict(self._values)


class _CounterChild:
    """A counter bound to one label-value combination (hot-path handle)."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Counter, key: LabelValues):
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._parent._values[self._key] += amount


class Gauge(_Instrument):
    """A point-in-time value, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def labels(self, *labelvalues: str) -> "_GaugeChild":
        key = _check_labels(self.labelnames, labelvalues)
        if key not in self._values:
            self._values[key] = 0.0
        return _GaugeChild(self, key)

    def set(self, value: float) -> None:
        if self.labelnames:
            raise MetricError(
                "%s has labels %r; use .labels(...)" % (self.name, self.labelnames)
            )
        self._values[()] = float(value)

    def set_labeled(self, value: float, *labelvalues: str) -> None:
        self._values[_check_labels(self.labelnames, labelvalues)] = float(value)

    def value(self, *labelvalues: str) -> float:
        return self._values.get(_check_labels(self.labelnames, labelvalues), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        return dict(self._values)


class _GaugeChild:
    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Gauge, key: LabelValues):
        self._parent = parent
        self._key = key

    def set(self, value: float) -> None:
        self._parent._values[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._parent._values[self._key] += amount


class HistogramData:
    """Bucket counts + sum + count for one label combination."""

    __slots__ = ("bounds", "counts", "sum", "count", "exemplar")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0
        #: Most recent exemplar (OpenMetrics-style): a dict linking this
        #: series to a trace, e.g. ``{"trace": ..., "span": ...,
        #: "value": v}``.  ``None`` until an observation carries one.
        self.exemplar: Optional[Dict[str, object]] = None

    def observe(
        self, value: float, exemplar: Optional[Dict[str, object]] = None
    ) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if exemplar is not None:
            exemplar = dict(exemplar)
            exemplar.setdefault("value", value)
            self.exemplar = exemplar

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs (+Inf last)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class Histogram(_Instrument):
    """A bounded-bucket histogram, optionally labelled."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DEPTH_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("%s: histogram needs at least one bucket" % name)
        self.bounds = bounds
        self._data: Dict[LabelValues, HistogramData] = {}
        if not self.labelnames:
            self._data[()] = HistogramData(bounds)

    def labels(self, *labelvalues: str) -> "_HistogramChild":
        key = _check_labels(self.labelnames, labelvalues)
        data = self._data.get(key)
        if data is None:
            data = self._data[key] = HistogramData(self.bounds)
        return _HistogramChild(data)

    def observe(
        self, value: float, exemplar: Optional[Dict[str, object]] = None
    ) -> None:
        if self.labelnames:
            raise MetricError(
                "%s has labels %r; use .labels(...)" % (self.name, self.labelnames)
            )
        self._data[()].observe(value, exemplar)

    def data(self, *labelvalues: str) -> Optional[HistogramData]:
        return self._data.get(_check_labels(self.labelnames, labelvalues))

    def series(self) -> Dict[LabelValues, HistogramData]:
        return dict(self._data)


class _HistogramChild:
    __slots__ = ("_data",)

    def __init__(self, data: HistogramData):
        self._data = data

    def observe(
        self, value: float, exemplar: Optional[Dict[str, object]] = None
    ) -> None:
        self._data.observe(value, exemplar)


# ----------------------------------------------------------------------
# no-op twins — what a disabled registry hands out
# ----------------------------------------------------------------------
class _NullInstrument:
    """Shared do-nothing instrument; every method is a constant no-op.

    A single instance stands in for counters, gauges and histograms so
    instrumented code never branches on the telemetry mode: it calls
    ``inc``/``set``/``observe`` unconditionally and a disabled registry
    makes those calls vanish.
    """

    kind = "null"
    name = ""
    help = ""
    labelnames: Tuple[str, ...] = ()

    def labels(self, *labelvalues: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_labeled(self, value: float, *labelvalues: str) -> None:
        pass

    def set_total(self, value: float, *labelvalues: str) -> None:
        pass

    def observe(
        self, value: float, exemplar: Optional[Dict[str, object]] = None
    ) -> None:
        pass

    def value(self, *labelvalues: str) -> float:
        return 0.0

    def data(self, *labelvalues: str) -> None:
        return None

    def series(self) -> Dict[LabelValues, float]:
        return {}


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Owns every instrument; snapshot/export entry point.

    ``enabled=False`` turns the registry into a zero-cost shell: all
    constructors return :data:`NULL_INSTRUMENT`, collectors are dropped,
    and :meth:`snapshot` returns an empty mapping.
    """

    def __init__(self, enabled: bool = True, namespace: str = "dacce"):
        self.enabled = enabled
        self.namespace = namespace
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- instrument construction ---------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DEPTH_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        full = name if name.startswith(self.namespace) else (
            "%s_%s" % (self.namespace, name)
        )
        with self._lock:
            existing = self._instruments.get(full)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise MetricError(
                        "metric %s re-registered with a different shape" % full
                    )
                return existing
            instrument = cls(full, help, labelnames, **kwargs)
            self._instruments[full] = instrument
            return instrument

    # -- pull-mode collectors ------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every snapshot/export.

        Collectors copy externally maintained statistics into
        instruments; a disabled registry drops them.
        """
        if self.enabled:
            self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            try:
                collector()
            except Exception:  # pragma: no cover - collector bugs must not kill export
                logger.exception("metrics collector %r failed", collector)

    # -- introspection --------------------------------------------------
    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def get(self, name: str) -> Optional[_Instrument]:
        full = name if name.startswith(self.namespace) else (
            "%s_%s" % (self.namespace, name)
        )
        return self._instruments.get(full)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-data view of every series (runs collectors first).

        Shape::

            {metric_name: {
                "kind": "counter" | "gauge" | "histogram",
                "help": str,
                "labelnames": [...],
                "series": [
                    {"labels": {...}, "value": float}               # counter/gauge
                    {"labels": {...}, "sum": s, "count": n,
                     "buckets": [[le, cumulative], ...]}            # histogram
                ],
            }}
        """
        if not self.enabled:
            return {}
        self.collect()
        out: Dict[str, Dict[str, object]] = {}
        for instrument in self.instruments():
            series = []
            for key, value in sorted(instrument.series().items()):
                labels = dict(zip(instrument.labelnames, key))
                if isinstance(value, HistogramData):
                    entry: Dict[str, object] = {
                        "labels": labels,
                        "sum": value.sum,
                        "count": value.count,
                        "buckets": [
                            [le, count] for le, count in value.cumulative()
                        ],
                    }
                    # Additive: only series that ever saw an exemplar
                    # carry the key, so exemplar-free snapshots are
                    # byte-identical to the pre-exemplar format.
                    if value.exemplar is not None:
                        entry["exemplar"] = dict(value.exemplar)
                    series.append(entry)
                else:
                    series.append({"labels": labels, "value": value})
            out[instrument.name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "series": series,
            }
        return out


def null_registry() -> MetricsRegistry:
    """A disabled registry (every instrument is a shared no-op)."""
    return MetricsRegistry(enabled=False)
