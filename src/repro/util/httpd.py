"""The threaded HTTP server and request handler both service planes use.

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

import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

#: Listen backlog of the service planes.  socketserver's default of 5
#: overflows when a handful of clients connect at once, and a dropped
#: connection then waits out the kernel's 1 s SYN retransmit.
LISTEN_BACKLOG = 128


class ServiceHTTPServer(ThreadingHTTPServer):
    """:class:`ThreadingHTTPServer` with a :data:`LISTEN_BACKLOG` backlog
    that tracks its open connections and shuts them down on close."""

    request_queue_size = LISTEN_BACKLOG

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        super().__init__(*args, **kwargs)

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


class ServiceHandler(BaseHTTPRequestHandler):
    """Kept-alive JSON/text handler base of both service planes."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        pass  # each plane's CLI summary is its UI; no per-request spam

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
