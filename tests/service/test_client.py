"""The client against scripted peers: what it retries, what it refuses."""

import socket
import threading

import pytest

from repro.service.client import ServiceClient, ServiceUnavailable


class FakePeer:
    """A listening socket that reads one request head per accepted
    connection, records its request line, sends ``answer(head)`` (None:
    nothing) and closes the connection."""

    def __init__(self, answer):
        self.answer = answer
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # closed by close()
                return
            with conn:
                raw = b""
                while b"\r\n\r\n" not in raw:
                    data = conn.recv(65536)
                    if not data:
                        break
                    raw += data
                self.requests.append(raw.split(b"\r\n", 1)[0])
                reply = self.answer(raw)
                if reply is not None:
                    conn.sendall(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(timeout=10)


@pytest.mark.parametrize("method, path, body", [
    ("POST", "/flows", {"tenant": "t", "src": "E-S", "dst": "E-D"}),
    ("DELETE", "/flows/f1", None),
], ids=["post", "delete"])
def test_a_write_the_peer_received_is_not_sent_twice(method, path, body):
    # The peer reads the request, then closes without answering: it may
    # have acted on it, so the client must not send it again.
    with FakePeer(lambda head: None) as peer:
        with ServiceClient("127.0.0.1", peer.port, timeout=5) as client:
            with pytest.raises(ServiceUnavailable):
                client.request(method, path, body)
            assert client._sock is None
    assert peer.requests == [f"{method} {path} HTTP/1.1".encode()]


@pytest.mark.parametrize("length", [b"12x", b"-1", b"", b"\xb2"],
                         ids=["trailing-junk", "negative", "empty",
                              "latin-1-digit"])
def test_a_malformed_response_length_drops_the_connection(length):
    answer = (b"HTTP/1.1 200 OK\r\nContent-Length: " + length
              + b"\r\n\r\n{\"ok\":true}")
    with FakePeer(lambda head: answer) as peer:
        with ServiceClient("127.0.0.1", peer.port, timeout=5) as client:
            with pytest.raises(ServiceUnavailable, match="content length"):
                client.post("/flows", {"tenant": "t"})
            assert client._sock is None
    assert len(peer.requests) == 1
