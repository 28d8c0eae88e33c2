"""``repro serve`` — read-through simulation-as-a-service over the fleet.

The content-addressed :class:`~repro.engine.ResultStore` makes every
(model, parameters, seed) batch globally addressable; this package puts a
thin HTTP/JSON boundary in front of it, turning the whole platform into a
shared read-through result cache with the fleet as compute backend:

``repro.serve.service``
    :class:`SimulationService` — the framework-free core.  Requests compile
    through :func:`repro.api.compile_request` at the boundary; warm queries
    assemble straight from store records (zero simulation, store-key-digest
    ETags for conditional GETs), cold queries become deterministic-id jobs
    on a fleet :class:`~repro.fleet.queue.JobSpool` behind a bounded
    in-flight queue with 429 backpressure and per-request priorities.
``repro.serve.http``
    The stdlib :class:`~http.server.ThreadingHTTPServer` adapter
    (``repro serve --spool DIR --results-dir DIR [--port N]``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.http": ("ServeHandler", "create_server"),
        "repro.serve.service": (
            "DEFAULT_MAX_QUEUE",
            "ServeResult",
            "SimulationService",
            "plan_etag",
            "request_ticket",
        ),
    },
)
