"""The controller service: HTTP/JSON framing over ControllerState.

Two layers, deliberately separated:

* :func:`dispatch` — the entire API surface as one pure-synchronous
  function ``(state, method, path, query, body) -> (status, payload)``.
  The asyncio server below calls it per request; the load generator's
  ``direct`` transport calls it without any socket at all.  One code
  path for both is what guarantees the farm digests are transport-
  independent (an HTTP churn run and a direct churn run of the same
  seed produce byte-identical operation logs).
* :class:`ControllerService` — a stdlib-``asyncio`` HTTP/1.1 server
  around one :class:`~repro.service.state.ControllerState`: one
  :class:`asyncio.Protocol` per connection, whose ``data_received``
  answers every complete request in its buffer, in order (a head up to
  the blank line, then a ``Content-Length`` body; keep-alive and
  pipelining).  A head over :data:`MAX_HEAD_BYTES` or a body over
  :data:`MAX_BODY_BYTES` is answered ``400 bad-request`` and the
  connection closed.  State methods are plain synchronous calls on the
  event-loop thread, so requests serialize naturally — the asyncio
  layer buys concurrent connection handling, not data races.

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

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Set, Tuple
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

Response = Tuple[int, Dict[str, Any]]

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
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
            body = json.loads(raw.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            body = None
    elif method == "POST":
        body = {}
    split = urlsplit(target)
    query = {
        key: values[0]
        for key, values in parse_qs(split.query).items()
    }
    return dispatch(state, method.upper(), split.path, query, body)


class _Connection(asyncio.Protocol):
    """One client connection: each arrival of bytes answers every
    complete request in the buffer, in order."""

    def __init__(self, service: "ControllerService"):
        self.service = service
        self.buffer = bytearray()
        self.paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.service._transports.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.service._transports.discard(self.transport)

    # drain()'s backpressure: while the peer is not reading its answers,
    # read (and so answer) nothing more.
    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()
        self.data_received(b"")

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        while not self.paused and not self.transport.is_closing():
            end = buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
            if end < 0:
                if len(buffer) >= MAX_HEAD_BYTES:
                    self._refuse("request head too large")
                return
            lines = buffer[:end].decode("latin-1").split("\r\n")
            request = lines[0].split(" ", 2)
            if len(request) != 3 or not lines[0].isascii():
                self._refuse("malformed request line")
                return
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, colon, value = line.partition(":")
                if colon:
                    headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                self._refuse("bad content length")
                return
            start = end + 4
            if len(buffer) < start + length:
                return
            raw = bytes(buffer[start:start + length])
            del buffer[:start + length]
            method, target, version = request
            status, payload = _decoded(
                self.service.state, method, target, raw
            )
            self._respond(
                status, payload,
                close=version == "HTTP/1.0"
                or headers.get("connection", "").lower() == "close",
            )

    def _respond(
        self, status: int, payload: Dict[str, Any], close: bool
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.transport.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n".encode("ascii") + body
        )
        if close:
            self.transport.close()  # after the answer is flushed

    def _refuse(self, message: str) -> None:
        self._respond(*_error(400, "bad-request", message), close=True)


class ControllerService:
    """Asyncio HTTP/1.1 server around one :class:`ControllerState`."""

    def __init__(self, state: ControllerState):
        self.state = state
        self._server: Optional[asyncio.AbstractServer] = None
        self._transports: Set[asyncio.BaseTransport] = set()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=host, port=port
        )

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting and close every live connection."""
        if self._server is not None:
            self._server.close()
            for transport in list(self._transports):
                transport.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()


class ServiceThread:
    """A live service on a background thread, for tests and benches.

    Boots an event loop + :class:`ControllerService` on its own thread
    and blocks until the socket is bound; ``host``/``port`` are then
    ready for any client.  The state object stays accessible (all its
    mutations happen on the service thread; call :meth:`run_sync` to
    inspect it without racing the event loop).

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="controller-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("controller service failed to start")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start(host=self.host))
            self.port = self.service.port
            self._started.set()
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.close())
            loop.close()

    def run_sync(self, fn, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(state, ...)`` on the service thread and return it.

        The safe way to audit or read stats while HTTP traffic is in
        flight: the call serializes with request handling on the event
        loop instead of racing it from the test thread.
        """
        assert self._loop is not None

        async def call() -> Any:
            return fn(self.state, *args, **kwargs)

        future = asyncio.run_coroutine_threadsafe(call(), self._loop)
        return future.result(timeout=30)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
