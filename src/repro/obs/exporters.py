"""Render registry snapshots as Prometheus text or JSON.

Both exporters consume the plain-data snapshot produced by
:meth:`repro.obs.registry.MetricsRegistry.snapshot` — they never touch
live instruments, so an export is a consistent point-in-time view and
can be serialized off-thread.

The Prometheus exposition follows the text format 0.0.4: ``# HELP`` /
``# TYPE`` headers, cumulative ``_bucket{le=...}`` series plus ``_sum``
and ``_count`` for histograms.  Re-encoding pass reports ride along as
an info-style series (``dacce_reencode_pass_duration_seconds``) labelled
with the pass's ``gts`` and trigger ``reasons`` so a scrape shows *why*
every encoding epoch exists.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional

from .report import ReencodePassReport

SNAPSHOT_FORMAT_VERSION = 1


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in sorted(labels.items())
    )
    return "{%s}" % inner


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(
    snapshot: Dict[str, Dict[str, Any]],
    pass_reports: Iterable[ReencodePassReport] = (),
) -> str:
    """Render a snapshot (plus optional pass reports) as exposition text."""
    lines: List[str] = []
    for name in sorted(snapshot):
        metric = snapshot[name]
        if metric["help"]:
            lines.append("# HELP %s %s" % (name, metric["help"]))
        lines.append("# TYPE %s %s" % (name, metric["kind"]))
        for series in metric["series"]:
            labels = series["labels"]
            if metric["kind"] == "histogram":
                for le, count in series["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_number(le)
                    lines.append(
                        "%s_bucket%s %d"
                        % (name, _format_labels(bucket_labels), count)
                    )
                lines.append(
                    "%s_sum%s %s"
                    % (name, _format_labels(labels), _format_number(series["sum"]))
                )
                lines.append(
                    "%s_count%s %d" % (name, _format_labels(labels), series["count"])
                )
            else:
                lines.append(
                    "%s%s %s"
                    % (name, _format_labels(labels), _format_number(series["value"]))
                )
    lines.extend(_pass_report_lines(list(pass_reports)))
    return "\n".join(lines) + ("\n" if lines else "")


def _pass_report_lines(reports: List[ReencodePassReport]) -> List[str]:
    if not reports:
        return []
    lines = [
        "# HELP dacce_reencode_pass_duration_seconds Wall-clock duration "
        "of each re-encoding pass, labelled by gTimeStamp and trigger "
        "reasons.",
        "# TYPE dacce_reencode_pass_duration_seconds gauge",
    ]
    for report in reports:
        labels = {
            "gts": str(report.timestamp),
            "reasons": ",".join(report.reasons),
            "at_call": str(report.at_call),
            "max_id": str(report.max_id),
        }
        lines.append(
            "dacce_reencode_pass_duration_seconds%s %s"
            % (_format_labels(labels), _format_number(report.duration_seconds))
        )
    return lines


def to_json_snapshot(
    snapshot: Dict[str, Dict[str, Any]],
    pass_reports: Iterable[ReencodePassReport] = (),
    indent: Optional[int] = None,
) -> str:
    """Render a snapshot as one JSON document (round-trippable)."""
    document: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "metrics": snapshot,
        "reencode_passes": [report.to_dict() for report in pass_reports],
    }
    return json.dumps(document, indent=indent, sort_keys=True)


def parse_json_snapshot(text: str) -> Dict[str, Any]:
    """Parse :func:`to_json_snapshot` output back to plain data."""
    document = json.loads(text)
    if document.get("format") != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            "unsupported snapshot format %r" % document.get("format")
        )
    return document
