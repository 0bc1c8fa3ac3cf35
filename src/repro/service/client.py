"""Minimal keep-alive HTTP/JSON client for the controller service.

Stdlib sockets only, one persistent connection read through one
buffered reader, blocking semantics — exactly what the load
generator's ``http`` transport and the CLI need.
Not a general HTTP client: it speaks the subset the service emits
(HTTP/1.1, ``Content-Length``-framed JSON bodies, keep-alive).
"""

from __future__ import annotations

import json
import socket
from typing import Any, BinaryIO, Dict, Optional, Tuple

__all__ = ["ServiceClient", "ServiceUnavailable"]

#: One codec per process, not one encoder per ``json.dumps`` call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


class ServiceUnavailable(ConnectionError):
    """The service socket could not be reached or died mid-request."""


class ServiceClient:
    """One persistent connection to a controller service."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None  # one per connection

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:
                raise ServiceUnavailable(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from exc
            self._sock, self._reader = sock, sock.makefile("rb")
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            finally:
                self._sock = self._reader = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(status, payload)``.

        A ``GET`` is retried exactly once on a fresh connection (the
        server may have closed an idle keep-alive socket between
        requests).  Any other method is not: the service may already
        have acted on it, so its failure raises
        :class:`ServiceUnavailable`, as does any failure of the retry.
        """
        if method != "GET":
            return self._roundtrip(method, path, body)
        try:
            return self._roundtrip(method, path, body)
        except OSError:  # ServiceUnavailable too; the socket is closed
            return self._roundtrip(method, path, body)

    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Dict[str, Any]]:
        sock = self._connect()
        payload = (
            _ENCODER.encode(body).encode("utf-8")
            if body is not None
            else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode("ascii")
        try:
            sock.sendall(head + payload)
            return self._read_response()
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(str(exc)) from exc

    def _read_response(self) -> Tuple[int, Dict[str, Any]]:
        reader = self._reader
        status_line = reader.readline()
        if not status_line:
            raise ServiceUnavailable("connection closed by service")
        parts = status_line.decode("ascii", "replace").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServiceUnavailable(
                f"malformed status line: {status_line!r}"
            )
        status = int(parts[1])
        length = 0
        close_after = False
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise ServiceUnavailable(
                        f"bad response content length {value!r}"
                    )
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close_after = True
        raw = reader.read(length) if length else b""
        if close_after:
            self.close()
        try:
            decoded = _DECODER.decode(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:
            raise ServiceUnavailable(
                f"non-JSON response body: {raw[:200]!r}"
            ) from exc
        return status, decoded if isinstance(decoded, dict) else {}

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    def get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        return self.request("GET", path)

    def post(
        self, path: str, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        return self.request("POST", path, body)

    def delete(self, path: str) -> Tuple[int, Dict[str, Any]]:
        return self.request("DELETE", path)
