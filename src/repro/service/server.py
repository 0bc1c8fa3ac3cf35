"""The controller service: HTTP/JSON framing over ControllerState.

Two layers, deliberately separated:

* :func:`dispatch` — the entire API surface as one pure-synchronous
  function ``(state, method, path, query, body) -> (status, payload)``.
  The blocking server below calls it per request; the load generator's
  ``direct`` transport calls it without any socket at all.  One code
  path for both is what guarantees the farm digests are transport-
  independent (an HTTP churn run and a direct churn run of the same
  seed produce byte-identical operation logs).
* :class:`ControllerService` — a blocking stdlib-``socket`` HTTP/1.1
  server around one :class:`~repro.service.state.ControllerState`: one
  handler thread per connection answers every complete request in its
  buffer after each ``recv``, in order (a head up to the blank line,
  then a ``Content-Length`` body; keep-alive and pipelining).  A head
  over :data:`MAX_HEAD_BYTES`, a body over :data:`MAX_BODY_BYTES`, any
  ``Transfer-Encoding`` or two differing ``Content-Length`` values is
  answered ``400 bad-request`` and the connection closed; so is, with
  ``408 request-timeout``, a request still incomplete
  :data:`REQUEST_TIMEOUT_S` after its first byte (an idle keep-alive
  connection, its buffer empty, stays open).  One lock
  around :func:`dispatch` serializes requests, so the threads buy
  concurrent connection handling, not data races.

API (all bodies JSON):

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
GET    ``/healthz``                 liveness probe
GET    ``/stats``                   service + admission + engine counters
GET    ``/topology``                switches, links, link state, epoch
GET    ``/audit``                   admission invariant violations (none = ok)
GET    ``/flows``                   list flows (``?tenant=`` filter)
GET    ``/flows/{id}``              one flow (route ID, residues, ingress view)
POST   ``/flows``                   provision: ``{tenant, src, dst[,
                                    bandwidth_mbps, max_latency_s, ttl]}``
POST   ``/flows/{id}/reroute``      detour: ``{switch, next}``
POST   ``/topology/events``         ``{kind: link_down|link_up|port_flap,
                                    a, b}``
DELETE ``/flows/{id}``              release the flow and its reservation
====== ============================ ===========================================

Errors are structured: ``{"error": <machine-readable reason>,
"message": <human text>}`` with 400 for malformed requests
(:class:`~repro.controller.provision.ProvisionError` reasons), 404 for
unknown flows/paths, 405 for bad methods, and 409 for admission
rejections (:class:`~repro.service.admission.AdmissionError` reasons).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import suppress
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.controller.provision import ProvisionError
from repro.service.admission import AdmissionError
from repro.service.state import ControllerState, UnknownFlowError
from repro.topology.graph import PortGraph

__all__ = ["dispatch", "ControllerService", "ServiceThread"]

#: Largest accepted request body; the API's bodies are tiny, so
#: anything bigger is a client bug, not a use case.
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request head: request line, headers and the blank
#: line that ends them.
MAX_HEAD_BYTES = 1 << 16
#: Longest a request may take to arrive, from its first byte.
REQUEST_TIMEOUT_S = 10.0

Response = Tuple[int, Dict[str, Any]]

#: One codec per process, not one encoder per ``json.dumps`` call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
}


def _error(status: int, reason: str, message: str) -> Response:
    return status, {"error": reason, "message": message}


def _is_number(value: Any) -> bool:
    """A JSON number that is a value: not a bool, not the NaN literal."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value == value
    )


def _provision_body(state: ControllerState, body: Dict[str, Any]) -> Response:
    for field in ("tenant", "src", "dst"):
        if not isinstance(body.get(field), str) or not body[field]:
            return _error(
                400, "bad-request", f"missing or non-string field {field!r}"
            )
    bandwidth = body.get("bandwidth_mbps", 0.0)
    latency = body.get("max_latency_s")
    ttl = body.get("ttl")
    if not _is_number(bandwidth):
        return _error(400, "bad-request", "bandwidth_mbps must be a number")
    if latency is not None and not _is_number(latency):
        return _error(400, "bad-request", "max_latency_s must be a number")
    if ttl is not None and (
        not isinstance(ttl, int) or isinstance(ttl, bool)
        or not 1 <= ttl <= 255
    ):
        # The KAR header carries the TTL in one byte (rns.wire).
        return _error(
            400, "bad-request", "ttl must be an integer in 1..255"
        )
    try:
        bandwidth = float(bandwidth)
        latency = float(latency) if latency is not None else None
    except OverflowError:  # a JSON integer beyond the float range
        return _error(
            400, "bad-request",
            "bandwidth_mbps / max_latency_s is out of range",
        )
    record = state.provision(
        tenant=body["tenant"],
        src_edge=body["src"],
        dst_edge=body["dst"],
        bandwidth_mbps=bandwidth,
        max_latency_s=latency,
        ttl=ttl,
    )
    return 201, {"flow": record.describe()}


def dispatch(
    state: ControllerState,
    method: str,
    path: str,
    query: Dict[str, str],
    body: Any,
) -> Response:
    """Route one API operation; returns ``(status, JSON payload)``.

    Pure function of the call (modulo the state it mutates): no I/O,
    no clock, no randomness.  Both the HTTP layer and the direct
    transport call exactly this.  *body* is the decoded JSON body, or
    None when there was none or it did not decode; a POST whose body
    is not a JSON object is answered ``400 bad-json`` here, so both
    transports agree.
    """
    try:
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if parts == ["healthz"]:
                return 200, {"ok": True}
            if parts == ["stats"]:
                return 200, state.stats()
            if parts == ["topology"]:
                return 200, state.topology_view()
            if parts == ["audit"]:
                violations = state.audit()
                return 200, {"ok": not violations, "violations": violations}
            if parts == ["flows"]:
                records = state.list_flows(tenant=query.get("tenant"))
                return 200, {"flows": [r.describe() for r in records]}
            if len(parts) == 2 and parts[0] == "flows":
                return 200, {"flow": state.flow(parts[1]).describe()}
        elif method == "POST":
            if not isinstance(body, dict):
                return _error(
                    400, "bad-json", "request body is not a JSON object"
                )
            if parts == ["flows"]:
                return _provision_body(state, body)
            if (
                len(parts) == 3
                and parts[0] == "flows"
                and parts[2] == "reroute"
            ):
                for field in ("switch", "next"):
                    if not isinstance(body.get(field), str):
                        return _error(
                            400, "bad-request",
                            f"missing or non-string field {field!r}",
                        )
                record = state.reroute(parts[1], body["switch"], body["next"])
                return 200, {"flow": record.describe()}
            if parts == ["topology", "events"]:
                for field in ("kind", "a", "b"):
                    if not isinstance(body.get(field), str):
                        return _error(
                            400, "bad-request",
                            f"missing or non-string field {field!r}",
                        )
                summary = state.topology_event(
                    body["kind"], body["a"], body["b"]
                )
                return 200, summary
        elif method == "DELETE":
            if len(parts) == 2 and parts[0] == "flows":
                record = state.release(parts[1])
                return 200, {"released": record.flow_id}
        else:
            return _error(405, "method-not-allowed", f"method {method}")
        return _error(404, "not-found", f"no route for {method} {path}")
    except AdmissionError as exc:
        return _error(409, exc.reason, str(exc))
    except UnknownFlowError as exc:
        return _error(404, "unknown-flow", str(exc))
    except ProvisionError as exc:
        return _error(400, exc.reason, str(exc))


def _decoded(state: ControllerState, method: str, target: str,
             raw: bytes) -> Response:
    """:func:`dispatch` one framed request: target split into path and
    query, body bytes decoded as JSON (None when they do not decode)."""
    body: Any = None
    if raw:
        try:
            body = _DECODER.decode(raw.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            body = None
    elif method == "POST":
        body = {}
    if "?" not in target:
        return dispatch(state, method.upper(), target, {}, body)
    split = urlsplit(target)
    query = {
        key: values[0]
        for key, values in parse_qs(split.query).items()
    }
    return dispatch(state, method.upper(), split.path, query, body)


class ControllerService:
    """Blocking HTTP/1.1 server around one :class:`ControllerState`."""

    def __init__(self, state: ControllerState):
        self.state = state
        #: Held around every dispatch(): one request at a time.
        self.lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._closed = False
        #: Live connections and the handler thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        #: When the request each connection is part-way through began.
        self._partial: Dict[socket.socket, float] = {}

    def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and listen; ``port=0`` picks an ephemeral port."""
        family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((host, port), family=family)

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._listener is not None
        return self._listener.getsockname()[1]

    def close(self) -> None:
        """Stop accepting; :meth:`serve_forever` closes the rest."""
        if self._listener is not None:
            self._closed = True
            with suppress(OSError):  # wakes the blocked accept()
                self._listener.shutdown(socket.SHUT_RDWR)
            self._listener.close()

    def serve_forever(self) -> None:
        """Accept until :meth:`close`, one handler thread per connection;
        then close every live connection and wait for its handler.  The
        loop wakes at least once a second to cut stalled requests."""
        listener = self._listener
        assert listener is not None, "call start() first"
        listener.settimeout(1.0)
        try:
            while True:
                self._cut_stalled()
                try:
                    conn, _addr = listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    if self._closed:
                        return
                    raise
                handler = threading.Thread(
                    target=self._handle, args=(conn,),
                    name="controller-connection", daemon=True,
                )
                self._connections[conn] = handler
                handler.start()
        finally:
            listener.close()
            self._drop_connections()
            for handler in self._connections.copy().values():
                handler.join(timeout=10)

    def _drop_connections(self) -> None:
        """Shut every live connection down: its handler sees EOF."""
        for conn in self._connections.copy():
            with suppress(OSError):  # closed by its handler meanwhile
                conn.shutdown(socket.SHUT_RDWR)

    def _cut_stalled(self) -> None:
        """End the reads of connections past :data:`REQUEST_TIMEOUT_S`
        on one request: each handler's ``recv`` returns, and it answers."""
        deadline = time.monotonic() - REQUEST_TIMEOUT_S
        for conn, since in self._partial.copy().items():
            if since <= deadline:
                with suppress(OSError):  # closed by its handler meanwhile
                    conn.shutdown(socket.SHUT_RD)

    def _handle(self, conn: socket.socket) -> None:
        """One connection: answer what each ``recv`` completes, in order."""
        buffer = bytearray()
        partial = self._partial
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while data := conn.recv(1 << 16):
                size = len(buffer) + len(data)
                buffer += data
                if not self._answer(conn, buffer):
                    break
                if not buffer:
                    partial.pop(conn, None)
                elif len(buffer) < size or conn not in partial:
                    partial[conn] = time.monotonic()  # a request began
            else:
                since = partial.get(conn)
                if since is not None and (
                    time.monotonic() - since >= REQUEST_TIMEOUT_S
                ):
                    self._send(conn, *_error(
                        408, "request-timeout", "request incomplete after "
                        f"{REQUEST_TIMEOUT_S:g} s"), True)
        except OSError:  # reset by the peer, or shut down by close()
            pass
        finally:
            conn.close()
            partial.pop(conn, None)
            del self._connections[conn]

    def _answer(self, conn: socket.socket, buffer: bytearray) -> bool:
        """Answer and consume every complete request; False on close."""
        while True:
            end = buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
            if end < 0:
                if len(buffer) >= MAX_HEAD_BYTES:
                    return self._refuse(conn, "request head too large")
                return True
            lines = buffer[:end].decode("latin-1").split("\r\n")
            request = lines[0].split(" ", 2)
            if len(request) != 3 or not lines[0].isascii():
                return self._refuse(conn, "malformed request line")
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, colon, value = line.partition(":")
                if colon:
                    name, value = name.strip().lower(), value.strip()
                    if name == "content-length" \
                            and headers.get(name, value) != value:
                        return self._refuse(
                            conn, "conflicting content lengths")
                    headers[name] = value
            if "transfer-encoding" in headers:
                # Content-Length framing only: a chunked body would be
                # read as the next request.
                return self._refuse(conn, "transfer-encoding not supported")
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                return self._refuse(conn, "bad content length")
            start = end + 4
            if len(buffer) < start + length:
                return True
            raw = bytes(buffer[start:start + length])
            del buffer[:start + length]
            method, target, version = request
            with self.lock:
                status, payload = _decoded(self.state, method, target, raw)
            if not self._send(
                conn, status, payload,
                close=version == "HTTP/1.0"
                or headers.get("connection", "").lower() == "close",
            ):
                return False

    def _refuse(self, conn: socket.socket, message: str) -> bool:
        return self._send(conn, *_error(400, "bad-request", message), True)

    @staticmethod
    def _send(conn: socket.socket, status: int, payload: Dict[str, Any],
              close: bool) -> bool:
        """Write one answer; False when it closes the connection."""
        body = _ENCODER.encode(payload).encode("utf-8")
        conn.sendall(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n".encode("ascii") + body
        )
        return not close


class ServiceThread:
    """A live service on a background thread, for tests and benches.

    Binds the socket in :meth:`start` and runs the accept loop of a
    :class:`ControllerService` on its own thread; ``host``/``port`` are
    then ready for any client.  The state object stays accessible: call
    :meth:`run_sync` to inspect or mutate it without racing the
    handler threads.

    Usage::

        with ServiceThread(graph) as svc:
            client = ServiceClient(svc.host, svc.port)
            ...
    """

    def __init__(self, graph: PortGraph, host: str = "127.0.0.1"):
        self.state = ControllerState(graph)
        self.service = ControllerService(self.state)
        self.host = host
        self.port: int = 0
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> None:
        self.service.start(host=self.host)
        self.port = self.service.port
        self._thread = threading.Thread(target=self.service.serve_forever,
                                        name="controller-service", daemon=True)
        self._thread.start()

    def run_sync(self, fn, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(state, ...)`` under the service's dispatch lock.

        The safe way to audit or read stats while HTTP traffic is in
        flight: the call serializes with request handling instead of
        racing it from the test thread.
        """
        with self.service.lock:
            return fn(self.state, *args, **kwargs)

    def stop(self) -> None:
        """Close the service and wait until no handler thread is left."""
        if self._thread is not None:
            self.service.close()
            self._thread.join(timeout=10)
            self._thread = None
