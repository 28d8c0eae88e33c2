"""repro.telemetry — structured tracing, metrics, and run reporting.

See :mod:`repro.telemetry.core` for the tracer/metrics registry,
:mod:`repro.telemetry.trace` for cross-process trace propagation and
reconstruction, :mod:`repro.telemetry.timeseries` for the incremental
event tailer and Prometheus exposition, :mod:`repro.telemetry.report` for
the ``repro telemetry report`` merger, and :mod:`repro.telemetry.log` for
stdlib ``logging`` wiring.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LOG_FORMAT",
    "Telemetry",
    "TelemetryTailer",
    "activate",
    "active",
    "attach_carrier",
    "attach_trace",
    "configure",
    "count",
    "current_span_id",
    "current_trace_id",
    "deactivate",
    "default_process_id",
    "disable",
    "enable",
    "event",
    "format_report",
    "format_trace",
    "gauge",
    "get_logger",
    "list_traces",
    "load_events",
    "mint_trace_id",
    "render_prometheus",
    "span",
    "summarize_events",
    "summarize_trace",
    "telemetry_report",
    "timing",
    "trace_carrier",
    "validate_exposition",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.core": (
            "Telemetry",
            "activate",
            "active",
            "count",
            "current_span_id",
            "deactivate",
            "default_process_id",
            "disable",
            "enable",
            "event",
            "gauge",
            "span",
            "timing",
            "trace_carrier",
        ),
        "repro.telemetry.log": ("LOG_FORMAT", "configure", "get_logger"),
        "repro.telemetry.report": (
            "format_report",
            "load_events",
            "summarize_events",
            "telemetry_report",
        ),
        "repro.telemetry.timeseries": (
            "TelemetryTailer",
            "render_prometheus",
            "validate_exposition",
        ),
        "repro.telemetry.trace": (
            "attach_carrier",
            "attach_trace",
            "current_trace_id",
            "format_trace",
            "list_traces",
            "mint_trace_id",
            "summarize_trace",
        ),
    },
)
