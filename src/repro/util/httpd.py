"""The HTTP kernel both service planes run on.

A plane (the :mod:`repro.dist` coordinator, the :mod:`repro.serve` plan
server) subclasses :class:`ServicePlane` and supplies only its endpoint
logic and one route table; the kernel owns the rest:

* one dispatcher over the route table: ``GET /healthz`` is answered
  before the auth gate (supervisor probes carry no credentials), then
  the bearer-auth hook runs, then ``GET /metrics`` and the plane's
  routes; the POST body is read and decoded once, ``ValueError`` maps
  to 400 and any other exception to 500;
* the bearer-auth hook: a constant-time compare of ``Authorization``
  against ``Bearer <token>``, counting each reject in the plane's
  registry;
* the serving thread's start/url/stop lifecycle.

Clients keep their connections alive (:mod:`repro.dist.protocol`), so
one handler thread serves many requests on one socket.  That shapes
three choices here:

* handler sockets set ``TCP_NODELAY``: a reply goes out as a header
  write and a body write, and with Nagle on, the body waits for the
  peer's delayed ACK of the header segment (~40 ms per request);
* every reply with a status of 400 or more closes the connection: the
  401 and 404 paths answer before reading a POST body, and an unread
  body left on a kept-alive socket would prefix the next request;
* :meth:`ServiceHTTPServer.server_close` shuts down every open
  connection, so a stopped server's handler threads cannot go on
  answering kept-alive clients.
"""

from __future__ import annotations

import hmac
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

#: Listen backlog of the service planes.  socketserver's default of 5
#: overflows when a handful of clients connect at once, and a dropped
#: connection then waits out the kernel's 1 s SYN retransmit.
LISTEN_BACKLOG = 128

#: ``(method, path) -> endpoint``; see :meth:`ServicePlane._start_http`
Routes = dict[tuple[str, str], Callable[..., Any]]


class ServiceHTTPServer(ThreadingHTTPServer):
    """:class:`ThreadingHTTPServer` with a :data:`LISTEN_BACKLOG` backlog
    that serves one :class:`ServicePlane`, tracks its open connections
    and shuts them down on close."""

    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: tuple[str, int], plane: "ServicePlane",
                 routes: Routes) -> None:
        self.plane = plane
        self.routes = routes
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        super().__init__(address, ServiceHandler)

    def process_request(self, request: socket.socket,
                        client_address: Any) -> None:
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def process_request_thread(self, request: socket.socket,
                               client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._conns_lock:
                self._conns.discard(request)

    def handle_error(self, request: socket.socket,
                     client_address: Any) -> None:
        if isinstance(sys.exc_info()[1], ConnectionError):
            return  # a kept-alive peer went away, or server_close hung up
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listener, then shut down every open connection: a
        handler thread waiting for a kept-alive client's next request
        reads EOF and exits, and the client sees the close.  Call it
        after :meth:`shutdown`, which returns once the serve loop has
        registered every connection it accepted."""
        super().server_close()
        with self._conns_lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler thread


class ServicePlane:
    """Base of a service plane: auth hook and HTTP lifecycle.

    A subclass has a ``config`` with ``host``, ``port`` and ``token``
    (``None`` or empty: auth off), a ``registry``, and the two endpoints
    the kernel serves itself: ``handle_healthz() -> (code, payload)``
    and ``metrics_text() -> str``.  It names its reject counter in
    :attr:`AUTH_REJECTS` and, if it counts 400 replies, that counter in
    :attr:`BAD_REQUESTS`.
    """

    #: registry counter bumped per request the auth hook rejects
    AUTH_REJECTS = ""
    #: registry counter bumped per 400 reply (``None``: not counted)
    BAD_REQUESTS: str | None = None

    _server: ServiceHTTPServer | None = None
    _thread: threading.Thread | None = None

    def authorized(self, header: str | None) -> bool:
        """Whether a request's ``Authorization`` header passes; always
        true when no token is configured.  The compare takes the same
        time wherever a wrong header first differs."""
        token = self.config.token
        if not token:
            return True
        expected = f"Bearer {token}".encode("utf-8")
        if hmac.compare_digest((header or "").encode("utf-8"), expected):
            return True
        self.registry.inc(self.AUTH_REJECTS)
        return False

    def _start_http(self, name: str, routes: Routes) -> str:
        """Bind ``config.host:config.port`` and serve ``routes`` on a
        daemon thread called ``name``; returns the URL.

        A path ending in ``/`` is a prefix entry: it serves every path
        one segment below it, and its endpoint takes that segment.  A
        POST endpoint also takes the decoded JSON body, last.  An
        endpoint returns its JSON payload (200) or a ``(code, payload)``
        pair."""
        self._server = ServiceHTTPServer(
            (self.config.host, self.config.port), self, routes
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=name, daemon=True
        )
        self._thread.start()
        return self.url

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def _stop_http(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class ServiceHandler(BaseHTTPRequestHandler):
    """Kept-alive JSON/text handler: one dispatcher for both planes."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: ServiceHTTPServer

    def log_message(self, format: str, *args: Any) -> None:
        pass  # each plane's CLI summary is its UI; no per-request spam

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        plane = self.server.plane
        try:
            if method == "GET" and self.path == "/healthz":
                code, payload = plane.handle_healthz()
                self._reply(payload, code)
            elif not plane.authorized(self.headers.get("Authorization")):
                self._reply({"error": "unauthorized"}, 401)
            elif method == "GET" and self.path == "/metrics":
                self._reply_text(plane.metrics_text())
            else:
                self._route(method)
        except ValueError as exc:
            if plane.BAD_REQUESTS:
                plane.registry.inc(plane.BAD_REQUESTS)
            self._reply({"error": str(exc)}, 400)
        except Exception as exc:
            self._reply({"error": str(exc)}, 500)

    def _route(self, method: str) -> None:
        routes = self.server.routes
        endpoint = routes.get((method, self.path))
        args: tuple = ()
        if endpoint is None or self.path.endswith("/"):
            head, _, tail = self.path.rpartition("/")
            endpoint = routes.get((method, head + "/"))
            args = (tail,)
        if endpoint is None:
            self._reply({"error": f"unknown path {self.path}"}, 404)
            return
        if method == "POST":
            args += (self._body(),)
        result = endpoint(*args)
        code, payload = result if isinstance(result, tuple) else (200, result)
        self._reply(payload, code)

    def _body(self) -> dict:
        """The request's JSON object body (``{}`` when empty)."""
        length = self.headers.get("Content-Length", "0")
        if not length.isdigit():
            raise ValueError(f"bad Content-Length {length!r}")
        raw = self.rfile.read(int(length))
        if not raw:
            return {}
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError(
                f"expected a JSON object, got {type(body).__name__}"
            )
        return body

    def _send(self, raw: bytes, content_type: str, code: int,
              headers: dict[str, str] | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if code >= 400:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def _reply(self, payload: dict, code: int = 200) -> None:
        headers = {}
        if code == 503 and "retry_after" in payload:
            headers["Retry-After"] = str(payload["retry_after"])
        self._send(json.dumps(payload).encode("utf-8"), "application/json",
                   code, headers)

    def _reply_text(self, text: str, code: int = 200) -> None:
        self._send(text.encode("utf-8"),
                   "text/plain; version=0.0.4; charset=utf-8", code)
