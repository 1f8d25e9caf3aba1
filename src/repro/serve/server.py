"""The shard server: one warm-started :class:`PathService` over HTTP/JSON.

Stdlib only — :class:`http.server.ThreadingHTTPServer` carries the serve
wire protocol (:mod:`repro.serve.protocol`), one thread per in-flight
request, all of them sharing the process's single ``PathService`` exactly
the way a parallel batch shares it (the service's pool/executor machinery
is already thread-safe).

Endpoints (all responses are ``{"ok", "protocol", "data" | "error"}``
envelopes):

========================  =====  =============================================
``/health``               GET    liveness + hosted graphs
``/routing``              GET    the catalog manifest entries (routing slice)
``/stats``                GET    cache counters and graph list
``/metrics``              GET    Prometheus text exposition (no JSON envelope)
``/stamp``                POST   record a graph's owning shard in the manifest
``/shortest_path``        POST   one query
``/explain``              POST   plan one query without executing
``/plan_many``            POST   validate/plan a batch slice (fail-fast pass)
``/execute``              POST   execute a batch slice, stats included
========================  =====  =============================================

Library errors cross the wire as their :mod:`repro.errors` class name with
HTTP 400; anything unexpected is a 500.  Use :class:`ShardServer` for
embedded (in-test) serving and ``python -m repro.serve`` for a standalone
process.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServerOverloadedError,
)
from repro.obs import bind_request_id, get_logger, timer
from repro.obs.schema import (
    METRIC_HTTP_LATENCY,
    METRIC_HTTP_REQUESTS,
    METRIC_SHED,
)
from repro.serve import protocol
from repro.service.batch import execute_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.session import PathService

MAX_REQUEST_BYTES = 64 * 1024 * 1024
"""Upper bound on one request body; a batch of a million specs fits."""

REQUEST_ID_HEADER = "X-Request-Id"
"""Correlation header: a client stamps the same id on every retry attempt
of one logical request, and the server binds it so traces and structured
log lines on both ends share it."""

SHUTDOWN_JOIN_TIMEOUT = 5.0
"""Seconds :meth:`ShardServer.close` waits for the serve thread."""

_GATED_ENDPOINTS = frozenset({"/shortest_path", "/execute"})
"""Execution endpoints subject to admission control.  Cheap control-plane
endpoints (health, routing, metrics, planning) always answer — an
operator must be able to observe an overloaded server."""

_LOG = get_logger("serve.server")


class _AdmissionGate:
    """Bounded in-flight execution with a bounded wait queue.

    At most ``max_inflight`` requests execute concurrently; up to
    ``max_queue`` more wait for a slot.  Beyond that the request is
    *shed*: :meth:`admit` raises a typed, retryable
    :class:`~repro.errors.ServerOverloadedError` whose ``retry_after``
    hint scales with the queue depth, so backed-off clients spread out
    instead of stampeding back in unison.
    """

    def __init__(self, max_inflight: int, max_queue: int,
                 retry_after: float) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self._cond = threading.Condition()
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._retry_after = retry_after
        self._inflight = 0
        self._queued = 0

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    def admit(self) -> None:
        """Take an execution slot, queueing for one if all are busy.

        Raises:
            ServerOverloadedError: the queue is full too; the error's
                ``retry_after`` tells the client how long to back off.
        """
        with self._cond:
            if self._inflight < self._max_inflight:
                self._inflight += 1
                return
            if self._queued >= self._max_queue:
                hint = self._retry_after * (1.0 + self._queued)
                raise ServerOverloadedError(
                    f"server overloaded: {self._inflight} in flight and "
                    f"{self._queued} queued; retry after {hint:.3f}s",
                    retry_after=hint,
                )
            self._queued += 1
            try:
                while self._inflight >= self._max_inflight:
                    self._cond.wait()
            finally:
                self._queued -= 1
            self._inflight += 1

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()


class _ShardRequestHandler(BaseHTTPRequestHandler):
    """Dispatches one HTTP request against the server's PathService."""

    # The server attribute is a _ShardHTTPServer (set by ShardServer).
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        # Route through the server's quiet flag instead of stderr spam.
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------------

    def _reply(self, status: int, data: Dict[str, object]) -> None:
        body = json.dumps(data).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _ok(self, data: Dict[str, object]) -> None:
        self._reply(200, {"ok": True,
                          "protocol": protocol.PROTOCOL_VERSION,
                          "data": data})

    def _fail(self, status: int, exc: BaseException) -> None:
        self._reply(status, {"ok": False,
                             "protocol": protocol.PROTOCOL_VERSION,
                             "error": protocol.error_to_dict(exc)})

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0))
        if length > MAX_REQUEST_BYTES:
            raise ValueError(f"request body of {length} bytes exceeds the "
                             f"{MAX_REQUEST_BYTES}-byte bound")
        raw = self.rfile.read(length) if length else b"{}"
        document = json.loads(raw.decode("utf-8"))
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    def _dispatch(self, handlers: Dict[str, object]) -> None:
        handler = handlers.get(self.path)
        # Known endpoints keep their own label; everything else collapses
        # onto one, so a port scan cannot explode metric cardinality.
        endpoint = self.path if handler is not None else "(unknown)"
        request_id = self.headers.get(REQUEST_ID_HEADER) or None
        self._status = 500
        with bind_request_id(request_id), timer() as took:
            if handler is None:
                self._reply(404, {
                    "ok": False,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "error": {"type": "RemoteProtocolError",
                              "message": f"unknown endpoint {self.path!r}"},
                })
            else:
                try:
                    self._ok(self._admitted(handler))
                except ServerOverloadedError as exc:
                    # Typed + retryable: 503 with the retry_after hint in
                    # the error document, counted as a shed.
                    self._service.registry.counter(
                        METRIC_SHED, {"endpoint": endpoint},
                        help="Requests shed by admission control").inc()
                    self._fail(503, exc)
                except ReproError as exc:
                    self._fail(400, exc)
                except Exception as exc:  # noqa: BLE001 - must answer, not die
                    self._fail(500, exc)
            self._observe_http(endpoint, self._status, took.seconds)

    def _admitted(self, handler: object) -> Dict[str, object]:
        """Run ``handler`` under the server's admission gate when its
        endpoint is execution-gated; control-plane endpoints bypass it."""
        gate = self.server.admission  # type: ignore[attr-defined]
        if gate is None or self.path not in _GATED_ENDPOINTS:
            return handler()  # type: ignore[operator]
        gate.admit()
        try:
            return handler()  # type: ignore[operator]
        finally:
            gate.release()

    def _observe_http(self, endpoint: str, status: int,
                      seconds: float) -> None:
        registry = self._service.registry
        registry.counter(METRIC_HTTP_REQUESTS,
                         {"endpoint": endpoint, "status": str(status)}).inc()
        registry.histogram(METRIC_HTTP_LATENCY,
                           {"endpoint": endpoint}).observe(seconds)
        _LOG.info("request served", extra={
            "endpoint": endpoint, "status": status,
            "duration_s": round(seconds, 6),
        })

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/metrics":
            # Prometheus scrapes expect the raw text exposition format,
            # not the JSON envelope — answered before JSON dispatch.
            self._handle_metrics()
            return
        self._dispatch({
            "/health": self._handle_health,
            "/routing": self._handle_routing,
            "/stats": self._handle_stats,
        })

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch({
            "/stamp": self._handle_stamp,
            "/shortest_path": self._handle_shortest_path,
            "/explain": self._handle_explain,
            "/plan_many": self._handle_plan_many,
            "/execute": self._handle_execute,
        })

    # -- endpoints ---------------------------------------------------------------

    @property
    def _service(self) -> "PathService":
        return self.server.service  # type: ignore[attr-defined]

    def _handle_metrics(self) -> None:
        with timer() as took:
            body = self._service.registry.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        self._observe_http("/metrics", 200, took.seconds)

    def _handle_health(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "shard": self._service.shard_id,
            "graphs": list(self._service.graphs()),
        }

    def _handle_routing(self) -> Dict[str, object]:
        catalog = self._service.catalog
        entries = {} if catalog is None else {
            name: entry.to_dict()
            for name, entry in catalog.entries().items()
        }
        return {"entries": entries}

    def _handle_stats(self) -> Dict[str, object]:
        return {
            "shard": self._service.shard_id,
            "graphs": list(self._service.graphs()),
            "cache": asdict(self._service.cache_info()),
        }

    def _handle_stamp(self) -> Dict[str, object]:
        body = self._read_body()
        catalog = self._service.catalog
        if catalog is None:
            raise ReproError("this shard server has no catalog to stamp")
        catalog.set_shard(str(body["graph"]), str(body["shard"]))
        return {"stamped": True}

    def _handle_shortest_path(self) -> Dict[str, object]:
        body = self._read_body()
        raw_spec = body.get("spec", {})
        if isinstance(raw_spec, dict):
            # Reject a request whose budget expired in flight BEFORE spec
            # validation: a QuerySpec cannot even express a non-positive
            # budget, and the caller must see the typed deadline error,
            # not a validation complaint about its own (once-valid) spec.
            budget = raw_spec.get("timeout_s")
            if isinstance(budget, (int, float)) and budget <= 0:
                raise DeadlineExceededError(
                    f"query budget already expired on arrival "
                    f"({float(budget) * 1000.0:.1f}ms remaining)"
                )
        spec = protocol.spec_from_dict(raw_spec)
        result = self._service.shortest_path(
            spec.source, spec.target, graph=spec.graph, method=spec.method,
            sql_style=spec.sql_style, max_iterations=spec.max_iterations,
            use_cache=bool(body.get("use_cache", True)),
            kind=spec.kind, max_hops=spec.max_hops,
            timeout_s=spec.timeout_s)
        return {"result": protocol.result_to_dict(result)}

    def _handle_explain(self) -> Dict[str, object]:
        body = self._read_body()
        spec = protocol.spec_from_dict(body.get("spec", {}))
        return {"plan": protocol.plan_to_dict(self._service.plan(spec))}

    def _handle_plan_many(self) -> Dict[str, object]:
        body = self._read_body()
        specs = protocol.specs_from_list(body.get("specs", []))
        plans = [self._service.plan(spec) for spec in specs]
        return {"plans": [protocol.plan_to_dict(plan) for plan in plans]}

    def _handle_execute(self) -> Dict[str, object]:
        body = self._read_body()
        specs = protocol.specs_from_list(body.get("specs", []))
        timeout = body.get("checkout_timeout")
        batch = execute_batch(
            self._service, specs, raise_on_unreachable=False,
            concurrency=int(body.get("concurrency", 1)),
            checkout_timeout=None if timeout is None else float(timeout))
        return {
            "results": protocol.results_to_list(batch.results),
            "from_cache": list(batch.from_cache),
            # Positional per-query failures (deadline expiries).  Older
            # clients simply ignore the extra field.
            "errors": protocol.errors_to_list(batch.errors),
            "stats": batch.stats.as_dict(),
        }


class _ShardHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the PathService for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: "PathService", quiet: bool,
                 handler_class: Optional[type] = None,
                 admission: Optional[_AdmissionGate] = None) -> None:
        super().__init__(address, handler_class or _ShardRequestHandler)
        self.service = service
        self.quiet = quiet
        self.admission = admission


class ShardServer:
    """One shard server: a PathService listening on ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port` —
    this is how the tests and the smoke bench run hermetically).  The
    server does **not** own the service by default: closing the server
    stops answering but leaves the service usable in-process; pass
    ``own_service=True`` (the CLI does) to close it too.

    ``max_inflight`` turns on admission control for the execution
    endpoints (``/shortest_path`` and ``/execute``): at most that many
    requests execute at once, up to ``max_queue`` more wait, and
    everything beyond is shed with a retryable
    :class:`~repro.errors.ServerOverloadedError` carrying a
    ``retry_after`` backoff hint (``shed_retry_after`` scaled by queue
    depth).  ``None`` (the default) leaves admission unbounded — the
    pre-existing behaviour.

    Usable as a context manager::

        with ShardServer(service, port=0) as server:
            client = ShardClient(server.url)
    """

    def __init__(self, service: "PathService", host: str = "127.0.0.1",
                 port: int = 0, *, own_service: bool = False,
                 quiet: bool = True,
                 handler_class: Optional[type] = None,
                 max_inflight: Optional[int] = None,
                 max_queue: int = 16,
                 shed_retry_after: float = 0.05) -> None:
        self._service = service
        self._own_service = own_service
        admission = (None if max_inflight is None else
                     _AdmissionGate(max_inflight, max_queue,
                                    shed_retry_after))
        self._httpd = _ShardHTTPServer((host, port), service, quiet,
                                       handler_class, admission=admission)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._shutdown_stats: Optional[Dict[str, object]] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, after ``port=0`` resolution)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The base URL remote clients (and specs) should use."""
        return f"http://{self.host}:{self.port}"

    @property
    def service(self) -> "PathService":
        return self._service

    @property
    def admission(self) -> Optional[_AdmissionGate]:
        """The admission gate, or ``None`` when unbounded."""
        return self._httpd.admission

    @property
    def shutdown_stats(self) -> Optional[Dict[str, object]]:
        """How the last :meth:`close` went (``None`` until closed).

        Keys: ``thread_joined`` (bool — ``False`` means the serve thread
        was still alive after :data:`SHUTDOWN_JOIN_TIMEOUT` and the close
        proceeded anyway), ``join_timeout_s``, and ``join_seconds``.
        """
        return self._shutdown_stats

    def start(self) -> "ShardServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-serve-{self.port}", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's main loop)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop serving (idempotent); in-flight requests finish first.

        Waits :data:`SHUTDOWN_JOIN_TIMEOUT` seconds for the serve thread.
        A thread that fails to join in time (a wedged in-flight request)
        no longer passes silently: the close emits a structured warning
        and records the outcome in :attr:`shutdown_stats`.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        joined = True
        join_seconds = 0.0
        if self._thread is not None:
            started = time.monotonic()
            self._thread.join(timeout=SHUTDOWN_JOIN_TIMEOUT)
            join_seconds = time.monotonic() - started
            joined = not self._thread.is_alive()
            if not joined:
                _LOG.warning("serve thread failed to join", extra={
                    "thread": self._thread.name,
                    "join_timeout_s": SHUTDOWN_JOIN_TIMEOUT,
                    "port": self.port,
                })
        self._shutdown_stats = {
            "thread_joined": joined,
            "join_timeout_s": SHUTDOWN_JOIN_TIMEOUT,
            "join_seconds": round(join_seconds, 6),
        }
        self._httpd.server_close()
        if self._own_service:
            self._service.close()

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


__all__ = ["MAX_REQUEST_BYTES", "REQUEST_ID_HEADER",
           "SHUTDOWN_JOIN_TIMEOUT", "ShardServer"]
