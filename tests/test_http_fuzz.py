"""Fuzzing the HTTP wire layer with malformed request heads.

Every head here is broken on purpose: random bytes, header floods, bad
or oversized Content-Length values, heads and bodies cut short.  The
client sends one, closes its write side and reads until the server
closes.  The server must answer with a 4xx or close the connection
within 5 s, nothing may reach the event loop's exception handler, and
a valid GET on a new connection must still get a 200.
"""

from __future__ import annotations

import asyncio
import re
import socket

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asrank import ASRank
from repro.serve.server import ServerThread
from repro.serve.store import SnapshotStore

_TIMEOUT = 5.0
_STATUS = re.compile(rb"HTTP/1\.[01] (\d{3}) ")


@pytest.fixture(scope="module")
def served(tiny_run):
    facade = ASRank(tiny_run.paths)
    facade._result = tiny_run.result
    thread = ServerThread(SnapshotStore(snapshot=facade.snapshot()))
    host, port = thread.start()
    errors = []

    async def record_errors():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )

    asyncio.run_coroutine_threadsafe(record_errors(), thread._loop).result(
        timeout=_TIMEOUT
    )
    yield host, port, errors
    thread.stop()


def _exchange(host, port, data: bytes) -> bytes:
    """Send ``data``, half-close, and return all bytes the server sent
    before it closed the connection."""
    with socket.create_connection((host, port), timeout=_TIMEOUT) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server answered and closed mid-send
        received = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                # closing with an unread oversized head resets the
                # connection: that is a close as well
                break
            if not chunk:
                break
            received.append(chunk)
        return b"".join(received)


_TARGETS = st.sampled_from(
    ["/healthz", "/snapshot", "/asns/1", "/what-if", "/ranks?limit=3"]
)
_METHODS = st.sampled_from(["GET", "POST"])
_BAD_LENGTHS = st.one_of(
    st.sampled_from(
        ["-1", "+3", "1_0", "", "abc", "0x10", "1e3", "1.5", "- 1", "٣"]
    ),
    st.text(
        st.characters(blacklist_characters="\r\n"), min_size=1, max_size=12
    ).filter(
        lambda v: not (v.strip().isascii() and v.strip().isdigit())
    ),
)


@st.composite
def _random_bytes(draw):
    data = draw(st.binary(max_size=512))
    if draw(st.booleans()):
        data += b"\r\n\r\n"
    return data


@st.composite
def _header_flood(draw):
    line = f"{draw(_METHODS)} {draw(_TARGETS)} HTTP/1.1\r\n".encode()
    # past the stream reader's 64 KiB limit on one head
    size = draw(st.integers(64, 4096))
    count = draw(st.integers((1 << 16) // size + 1, 200_000 // size))
    headers = b"".join(
        b"X-Flood-%d: %s\r\n" % (i, b"a" * size) for i in range(count)
    )
    return line + headers + b"\r\n"


@st.composite
def _bad_length(draw):
    value = draw(_BAD_LENGTHS).encode("utf-8", "surrogatepass")
    return (
        f"{draw(_METHODS)} {draw(_TARGETS)} HTTP/1.1\r\n".encode()
        + b"Content-Length: " + value + b"\r\n\r\n"
    )


@st.composite
def _oversized_length(draw):
    length = draw(st.integers((1 << 20) + 1, 10**30))
    return (
        f"POST /what-if HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        .encode()
    )


@st.composite
def _truncated_head(draw):
    head = (
        f"{draw(_METHODS)} {draw(_TARGETS)} HTTP/1.1\r\n"
        "Host: localhost\r\nContent-Length: 0\r\n\r\n"
    ).encode()
    return head[:draw(st.integers(0, len(head) - 1))]


@st.composite
def _truncated_body(draw):
    length = draw(st.integers(1, 4096))
    body = b"x" * draw(st.integers(0, length - 1))
    return (
        f"POST /what-if HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        .encode() + body
    )


_MALFORMED = st.one_of(
    _random_bytes(),
    _header_flood(),
    _bad_length(),
    _oversized_length(),
    _truncated_head(),
    _truncated_body(),
)


class TestMalformedRequests:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(data=_MALFORMED)
    def test_gets_4xx_or_a_close(self, served, data):
        host, port, errors = served
        seen = len(errors)
        reply = _exchange(host, port, data)
        statuses = [int(s) for s in _STATUS.findall(reply)]
        assert reply == b"" or (
            statuses and reply.startswith(b"HTTP/1.1 ")
        ), reply[:200]
        assert all(400 <= s < 500 for s in statuses), reply[:200]
        # the server still answers a valid request on a new connection
        reply = _exchange(host, port, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:200]
        assert errors[seen:] == []

    @pytest.mark.parametrize("value", [b"-1", b"+3", b"1_0"])
    def test_signed_or_underscored_length_is_400(self, served, value):
        host, port, errors = served
        seen = len(errors)
        reply = _exchange(
            host, port,
            b"POST /what-if HTTP/1.1\r\nContent-Length: " + value
            + b"\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed request" in reply
        assert errors[seen:] == []

    def test_body_cut_short_closes_quietly(self, served):
        host, port, errors = served
        seen = len(errors)
        reply = _exchange(
            host, port,
            b"POST /what-if HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        )
        assert reply == b""
        _exchange(host, port, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert errors[seen:] == []
