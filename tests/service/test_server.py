"""The HTTP layer: dispatch routing, framing, and concurrent clients.

The concurrency test is the issue's safety satellite: many client
threads churning QoS flows against one live server, then the service
audit must show reservations conserved, nothing oversubscribed, and no
orphaned ledger entries.
"""

import json
import select
import socket
import threading
import time

import pytest

import repro.service.server as server_module
from repro.service.client import ServiceClient
from repro.service.server import MAX_HEAD_BYTES, ServiceThread, dispatch
from repro.service.state import ControllerState
from repro.service.topology import service_topology


#: requests whose endpoints cannot be provisioned at all -> the slug
#: both the best-effort and the QoS path must answer (400).
QOS_ENDPOINT_ERRORS = [
    ({"src": "E-NOPE"}, "unknown-node"),
    ({"dst": "E-NOPE"}, "unknown-node"),
    ({"dst": "E-S"}, "same-edge"),
    ({"src": "SW4"}, "not-an-edge"),
]

#: TTLs a JSON body can carry but the one-byte KAR header cannot.
UNCARRIABLE_TTLS = [0, 256, 10**30]


@pytest.fixture()
def state():
    return ControllerState(service_topology("six_node"))


@pytest.fixture()
def service():
    with ServiceThread(service_topology("six_node")) as svc:
        yield svc


def _request(method, path, body=b"", extra=""):
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _exchange(port, chunks, half_close=True):
    """Send *chunks* one ``send`` each on a fresh connection and return
    every byte the server answers until it closes.  Sending may fail
    once the server has refused the request; its answer is read all the
    same."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for chunk in chunks:
                sock.sendall(chunk)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        got = []
        while True:
            try:
                data = sock.recv(65536)
            except ConnectionResetError:
                break
            if not data:
                break
            got.append(data)
    return b"".join(got)


def _read_answer(sock):
    """The bytes of one keep-alive answer: its head, then its body."""
    raw = b""
    while True:
        head, blank, body = raw.partition(b"\r\n\r\n")
        if blank:
            length = head.lower().split(b"content-length: ")[1]
            if len(body) >= int(length.split(b"\r\n")[0]):
                return raw
        data = sock.recv(65536)
        assert data, "connection closed before the answer"
        raw += data


def _responses(raw):
    """``[(status, JSON body, Connection header)]`` from a byte stream."""
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines[1:])
        length = int(fields["Content-Length"])
        out.append((int(lines[0].split(" ")[1]),
                    json.loads(raw[:length]), fields["Connection"]))
        raw = raw[length:]
    return out


def _audit_is_clean(port):
    with ServiceClient("127.0.0.1", port) as client:
        return client.get("/audit") == (200, {"ok": True, "violations": []})


class TestDispatchRouting:
    def test_healthz(self, state):
        assert dispatch(state, "GET", "/healthz", {}, None) == \
            (200, {"ok": True})

    def test_unknown_path_is_404(self, state):
        status, payload = dispatch(state, "GET", "/nope", {}, None)
        assert status == 404 and payload["error"] == "not-found"

    def test_unknown_method_is_405(self, state):
        status, payload = dispatch(state, "PUT", "/flows", {}, {})
        assert status == 405 and payload["error"] == "method-not-allowed"

    def test_provision_and_fetch(self, state):
        status, payload = dispatch(
            state, "POST", "/flows", {},
            {"tenant": "t0", "src": "E-S", "dst": "E-D"},
        )
        assert status == 201
        flow = payload["flow"]
        assert (flow["route_id"], flow["modulus"]) == (44, 308)
        status, fetched = dispatch(
            state, "GET", f"/flows/{flow['flow_id']}", {}, None
        )
        assert status == 200 and fetched["flow"] == flow

    def test_provision_missing_fields_is_400(self, state):
        status, payload = dispatch(state, "POST", "/flows", {}, {})
        assert status == 400 and payload["error"] == "bad-request"

    def test_provision_non_json_body_is_400(self, state):
        status, payload = dispatch(state, "POST", "/flows", {}, None)
        assert status == 400 and payload["error"] == "bad-json"

    @pytest.mark.parametrize("body, error", [
        ([1, 2], "bad-json"),
        ("x", "bad-json"),
        ({"ttl": True}, "bad-request"),
        ({"bandwidth_mbps": float("nan")}, "bad-request"),
        ({"max_latency_s": float("nan")}, "bad-request"),
        ({"bandwidth_mbps": 10**400}, "bad-request"),
        ({"max_latency_s": 10**400}, "bad-request"),
    ], ids=["list-body", "string-body", "bool-ttl", "nan-bandwidth",
            "nan-latency", "huge-bandwidth", "huge-latency"])
    def test_provision_non_values_are_400(self, state, body, error):
        # json.loads hands the service all of these: a body that is not
        # an object, a bool where an int is meant, the NaN literal.
        if isinstance(body, dict):
            body = {"tenant": "t0", "src": "E-S", "dst": "E-D", **body}
        status, payload = dispatch(state, "POST", "/flows", {}, body)
        assert status == 400 and payload["error"] == error
        assert state.list_flows() == []
        assert dispatch(state, "GET", "/audit", {}, None) == \
            (200, {"ok": True, "violations": []})

    def test_ttl_must_fit_the_header_byte(self, state):
        base = {"tenant": "t0", "src": "E-S", "dst": "E-D"}
        for ttl in UNCARRIABLE_TTLS:
            status, payload = dispatch(
                state, "POST", "/flows", {}, {**base, "ttl": ttl}
            )
            assert (status, payload["error"]) == (400, "bad-request"), ttl
            assert dispatch(state, "GET", "/audit", {}, None) == \
                (200, {"ok": True, "violations": []})
        assert state.list_flows() == []
        status, payload = dispatch(
            state, "POST", "/flows", {}, {**base, "ttl": 255}
        )
        assert status == 201 and payload["flow"]["ttl"] == 255

    def test_unknown_flow_is_404(self, state):
        for method, path in (
            ("GET", "/flows/f404"), ("DELETE", "/flows/f404"),
        ):
            status, payload = dispatch(state, method, path, {}, None)
            assert status == 404 and payload["error"] == "unknown-flow"

    def test_admission_rejection_is_409(self, state):
        too_much = max(l.rate_mbps for l in state.graph.links()) + 1
        status, payload = dispatch(
            state, "POST", "/flows", {},
            {"tenant": "t0", "src": "E-S", "dst": "E-D",
             "bandwidth_mbps": too_much},
        )
        assert status == 409
        assert payload["error"] == "insufficient-bandwidth"

    def test_provision_error_is_400(self, state):
        status, payload = dispatch(
            state, "POST", "/flows", {},
            {"tenant": "t0", "src": "E-S", "dst": "GHOST"},
        )
        assert status == 400 and payload["error"] == "unknown-node"

    @pytest.mark.parametrize("body, error", QOS_ENDPOINT_ERRORS)
    def test_qos_endpoint_errors_match_best_effort(self, state, body, error):
        # One endpoint rule: a constraint does not change the slug, and
        # a malformed request is not an admission reject.
        base = {"tenant": "t0", "src": "E-S", "dst": "E-D", **body}
        for qos in ({}, {"bandwidth_mbps": 1}, {"max_latency_s": 1.0}):
            status, payload = dispatch(
                state, "POST", "/flows", {}, {**base, **qos}
            )
            assert (status, payload["error"]) == (400, error), qos
        assert state.ledger.rejected == {}
        assert dispatch(state, "GET", "/audit", {}, None) == \
            (200, {"ok": True, "violations": []})
        status, _ = dispatch(
            state, "POST", "/flows", {},
            {"tenant": "t0", "src": "E-S", "dst": "E-D",
             "bandwidth_mbps": 1},
        )
        assert status == 201

    def test_tenant_filter_via_query(self, state):
        for tenant in ("alice", "bob"):
            dispatch(state, "POST", "/flows", {},
                     {"tenant": tenant, "src": "E-S", "dst": "E-D"})
        status, payload = dispatch(
            state, "GET", "/flows", {"tenant": "bob"}, None
        )
        assert status == 200
        assert [f["tenant"] for f in payload["flows"]] == ["bob"]

    def test_topology_event_roundtrip(self, state):
        status, summary = dispatch(
            state, "POST", "/topology/events", {},
            {"kind": "link_down", "a": "SW7", "b": "SW11"},
        )
        assert status == 200 and summary["changed"] is True
        status, topo = dispatch(state, "GET", "/topology", {}, None)
        assert ["SW11", "SW7"] in topo["links_down"]

    def test_audit_endpoint(self, state):
        status, payload = dispatch(state, "GET", "/audit", {}, None)
        assert status == 200
        assert payload == {"ok": True, "violations": []}


class TestHttpTransport:
    def test_end_to_end_over_a_real_socket(self):
        graph = service_topology("six_node")
        with ServiceThread(graph) as service:
            client = ServiceClient("127.0.0.1", service.port)
            try:
                status, payload = client.get("/healthz")
                assert (status, payload) == (200, {"ok": True})
                status, payload = client.post(
                    "/flows",
                    {"tenant": "t0", "src": "E-S", "dst": "E-D"},
                )
                assert status == 201
                flow = payload["flow"]
                assert (flow["route_id"], flow["modulus"]) == (44, 308)
                status, payload = client.delete(
                    f"/flows/{flow['flow_id']}"
                )
                assert status == 200
                status, payload = client.get("/stats")
                assert payload["service"]["released"] == 1
            finally:
                client.close()

    def test_malformed_qos_requests_keep_the_connection(self):
        # Each of these used to escape dispatch() as a bare exception
        # and kill the handler: the client saw a closed connection.
        graph = service_topology("six_node")
        bad = [
            ({**body, "bandwidth_mbps": 1}, error)
            for body, error in QOS_ENDPOINT_ERRORS
        ] + [({"bandwidth_mbps": 10**400}, "bad-request")]
        with ServiceThread(graph) as service:
            client = ServiceClient("127.0.0.1", service.port)
            try:
                for body, error in bad:
                    status, payload = client.post("/flows", {
                        "tenant": "t", "src": "E-S", "dst": "E-D", **body,
                    })
                    assert (status, payload["error"]) == (400, error), body
                    # same connection, next request
                    assert client.get("/audit") == \
                        (200, {"ok": True, "violations": []})
                status, payload = client.post("/flows", {
                    "tenant": "t", "src": "E-S", "dst": "E-D",
                    "bandwidth_mbps": 1,
                })
                assert status == 201
                status, stats = client.get("/stats")
                assert stats["admission"]["rejected"] == {}
            finally:
                client.close()

    def test_uncarriable_ttl_is_400_and_keeps_the_connection(self):
        graph = service_topology("six_node")
        with ServiceThread(graph) as service:
            client = ServiceClient("127.0.0.1", service.port)
            try:
                for ttl in UNCARRIABLE_TTLS:
                    status, payload = client.post("/flows", {
                        "tenant": "t", "src": "E-S", "dst": "E-D",
                        "ttl": ttl,
                    })
                    assert (status, payload["error"]) == \
                        (400, "bad-request"), ttl
                    assert client.get("/audit") == \
                        (200, {"ok": True, "violations": []})
                status, payload = client.get("/flows")
                assert (status, payload["flows"]) == (200, [])
            finally:
                client.close()

    def test_concurrent_tenants_conserve_reservations(self):
        graph = service_topology("torus33")
        n_threads, ops_each = 4, 12
        errors = []

        def churn(worker: int):
            client = ServiceClient("127.0.0.1", port)
            try:
                held = []
                for i in range(ops_each):
                    status, payload = client.post("/flows", {
                        "tenant": f"w{worker}",
                        "src": "E-SW0-0" if worker % 2 else "E-SW0-1",
                        "dst": "E-SW2-2",
                        "bandwidth_mbps": 3.0,
                    })
                    if status == 201:
                        held.append(payload["flow"]["flow_id"])
                    elif status != 409:
                        errors.append((worker, status, payload))
                    if i % 3 == 2 and held:
                        status, payload = client.delete(
                            f"/flows/{held.pop(0)}"
                        )
                        if status != 200:
                            errors.append((worker, status, payload))
                for flow_id in held:
                    status, payload = client.delete(f"/flows/{flow_id}")
                    if status != 200:
                        errors.append((worker, status, payload))
            finally:
                client.close()

        with ServiceThread(graph) as service:
            port = service.port
            threads = [
                threading.Thread(target=churn, args=(w,))
                for w in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            client = ServiceClient("127.0.0.1", port)
            try:
                status, audit = client.get("/audit")
                status2, stats = client.get("/stats")
            finally:
                client.close()

        assert errors == []
        # Reservations conserved: everything provisioned was released,
        # so no link holds bandwidth, no flow is live, no orphans.
        assert audit == {"ok": True, "violations": []}
        assert stats["service"]["flows_live"] == 0
        assert stats["admission"]["reserved_flows"] == 0
        assert stats["admission"]["reserved_mbps"] == {}
        accepted = stats["admission"]["accepted"]
        assert accepted == stats["admission"]["released"]
        rejected = sum(stats["admission"]["rejected"].values())
        assert accepted + rejected == n_threads * ops_each

    def test_run_sync_drives_the_same_state(self):
        graph = service_topology("six_node")
        with ServiceThread(graph) as service:
            # run_sync hops onto the event loop thread, so this direct
            # mutation cannot race the HTTP handlers.
            record = service.run_sync(
                ControllerState.provision, "t0", "E-S", "E-D"
            )
            client = ServiceClient("127.0.0.1", service.port)
            try:
                status, payload = client.get(
                    f"/flows/{record.flow_id}"
                )
            finally:
                client.close()
            assert status == 200
            assert payload["flow"]["route_id"] == record.route.route_id


PROVISION = json.dumps({"tenant": "t0", "src": "E-S", "dst": "E-D"}).encode()


class TestFraming:
    def test_pipelined_requests_are_answered_in_order(self, service):
        raw = _exchange(service.port, [
            _request("POST", "/flows", PROVISION) + _request("GET", "/healthz")
        ])
        (s1, flow, _), (s2, health, _) = _responses(raw)
        assert (s1, flow["flow"]["route_id"]) == (201, 44)
        assert (s2, health) == (200, {"ok": True})

    def test_a_post_sent_one_byte_per_send_is_answered(self, service):
        wire = _request("POST", "/flows", PROVISION)
        (status, body, _), = _responses(
            _exchange(service.port, [wire[i:i + 1] for i in range(len(wire))])
        )
        assert (status, body["flow"]["route_id"]) == (201, 44)

    @pytest.mark.parametrize("wire", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        _request("GET", "/healthz", extra="Connection: close\r\n"),
    ], ids=["http-1.0", "connection-close"])
    def test_close_requests_get_the_answer_then_eof(self, service, wire):
        # No half-close from this side: the EOF is the server's.
        raw = _exchange(service.port, [wire + wire], half_close=False)
        assert _responses(raw) == [(200, {"ok": True}, "close")]

    @pytest.mark.parametrize("wire, message", [
        (_request("GET", "/healthz", extra=f"X-Pad: {'a' * 70 * 1024}\r\n"),
         "request head too large"),
        (_request("GET", "/" + "a" * 70 * 1024), "request head too large"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200 * 1024,
         "request head too large"),
        (b"POST /flows HTTP/1.1\r\nHost: t\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n"
         + f"{len(PROVISION):x}\r\n".encode() + PROVISION + b"\r\n0\r\n\r\n",
         "transfer-encoding not supported"),
        (_request("POST", "/flows", PROVISION, extra="Content-Length: 5\r\n"),
         "conflicting content lengths"),
    ], ids=["70k-header-line", "70k-request-line", "200k-no-terminator",
            "chunked", "two-content-lengths"])
    def test_refused_request_is_400_and_close(
        self, service, wire, message, monkeypatch
    ):
        if message == "request head too large":
            assert len(wire) > MAX_HEAD_BYTES
        died = []  # a handler thread that raised instead of answering
        monkeypatch.setattr(threading, "excepthook", died.append)
        assert _responses(_exchange(service.port, [wire])) == [
            (400, {"error": "bad-request", "message": message}, "close"),
        ]
        assert _audit_is_clean(service.port)
        assert service.run_sync(ControllerState.list_flows) == []
        assert died == []

    def test_client_keeps_one_reader_and_reconnects(self, service):
        client = ServiceClient("127.0.0.1", service.port)
        try:
            assert client.get("/healthz") == (200, {"ok": True})
            reader = client._reader
            for _ in range(1000):
                assert client.get("/healthz") == (200, {"ok": True})
            assert client._reader is reader
            service.service._drop_connections()
            assert client.get("/healthz") == (200, {"ok": True})
            assert client._reader is not reader
        finally:
            client.close()


class TestHandlerThreads:
    def test_stop_closes_keep_alive_connections_and_handlers(self):
        before = set(threading.enumerate())
        service = ServiceThread(service_topology("six_node"))
        service.start()
        socks = []
        try:
            for _ in range(3):
                sock = socket.create_connection(
                    ("127.0.0.1", service.port), timeout=10
                )
                socks.append(sock)
                sock.sendall(_request("GET", "/healthz"))
                (status, _, connection), = _responses(_read_answer(sock))
                assert (status, connection) == (200, "keep-alive")
            assert len(service.service._connections) == 3
            service.stop()
            for sock in socks:
                assert sock.recv(1) == b""  # the server's EOF
        finally:
            service.stop()
            for sock in socks:
                sock.close()
        assert set(threading.enumerate()) - before == set()

    def test_a_half_sent_request_does_not_stall_another_connection(
        self, service
    ):
        wire = _request("POST", "/flows", PROVISION)
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as slow:
            slow.sendall(wire[:len(wire) - 5])
            with ServiceClient("127.0.0.1", service.port, timeout=5) as fast:
                assert fast.get("/healthz") == (200, {"ok": True})
                assert fast.get("/flows") == (200, {"flows": []})
            slow.sendall(wire[len(wire) - 5:])
            (status, body, _), = _responses(_read_answer(slow))
        assert (status, body["flow"]["route_id"]) == (201, 44)


class TestRequestDeadline:
    """A request must arrive within ``REQUEST_TIMEOUT_S`` of its first
    byte; an idle keep-alive connection has no deadline."""

    TIMEOUT = {"error": "request-timeout",
               "message": "request incomplete after 0.3 s"}

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.3)

    @staticmethod
    def _handlers_gone(service, within=2.0):
        end = time.monotonic() + within
        while service.service._connections and time.monotonic() < end:
            time.sleep(0.02)
        return not service.service._connections

    def test_a_half_sent_request_is_cut_with_408(self, service):
        wire = _request("POST", "/flows", PROVISION)
        start = time.monotonic()
        raw = _exchange(service.port, [wire[:len(wire) - 5]],
                        half_close=False)
        assert _responses(raw) == [(408, self.TIMEOUT, "close")]
        assert time.monotonic() - start < 2.0
        assert self._handlers_gone(service)
        assert service.run_sync(ControllerState.list_flows) == []

    def test_a_trickle_is_cut_too(self, service):
        wire = _request("POST", "/flows", PROVISION)
        assert len(wire) > 30
        got = b""
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            # One byte every 0.1 s until the answer is there to read,
            # so no byte is sent into a closed connection.
            for byte in wire[:30]:
                sock.sendall(bytes([byte]))
                if select.select([sock], [], [], 0.1)[0]:
                    break
            else:
                pytest.fail("a request still trickling in was never cut")
            while data := sock.recv(65536):
                got += data
        assert _responses(got) == [(408, self.TIMEOUT, "close")]
        assert self._handlers_gone(service)

    def test_a_busy_pipelined_connection_is_not_cut(self, service):
        # Every send ends one request and begins the next, so the buffer
        # never empties; each request still arrives within the deadline.
        wire = _request("GET", "/healthz")
        half = len(wire) // 2
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(wire[:half])
            for _ in range(15):
                time.sleep(0.1)
                sock.sendall(wire[half:] + wire[:half])
                assert _responses(_read_answer(sock)) == [
                    (200, {"ok": True}, "keep-alive")
                ]

    def test_an_idle_keep_alive_connection_stays_open(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            for pause in (1.5, 0):  # past the deadline and a wake
                sock.sendall(_request("GET", "/healthz"))
                assert _responses(_read_answer(sock)) == [
                    (200, {"ok": True}, "keep-alive")
                ]
                time.sleep(pause)
            # Blocking reads: no poll before each recv on a busy connection.
            conn, = service.service._connections
            assert conn.gettimeout() is None
