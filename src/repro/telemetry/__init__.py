"""repro.telemetry — structured tracing, metrics, and run reporting.

See :mod:`repro.telemetry.core` for the tracer/metrics registry,
:mod:`repro.telemetry.trace` for cross-process trace propagation and
reconstruction, :mod:`repro.telemetry.timeseries` for the incremental
event tailer and Prometheus exposition, :mod:`repro.telemetry.report` for
the ``repro telemetry report`` merger, and :mod:`repro.telemetry.log` for
stdlib ``logging`` wiring.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
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
