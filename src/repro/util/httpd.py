"""The threaded HTTP server both service planes listen with."""

from __future__ import annotations

from http.server import ThreadingHTTPServer

#: Listen backlog of the service planes.  socketserver's default of 5
#: overflows when a handful of clients connect at once, and a dropped
#: connection then waits out the kernel's 1 s SYN retransmit.
LISTEN_BACKLOG = 128


class ServiceHTTPServer(ThreadingHTTPServer):
    """:class:`ThreadingHTTPServer` with a :data:`LISTEN_BACKLOG` backlog."""

    request_queue_size = LISTEN_BACKLOG
