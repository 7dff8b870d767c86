"""Perf guard for the network front-end: pipelining must pay.

Marked ``perf`` and excluded from tier-1 (see pyproject addopts); run
via ``pytest benchmarks/perf -m perf``.  One :class:`ServerThread`
serves an in-process :class:`CacheService` over RESP, and one raw
socket replays the same read-through windows (``GET`` each key,
``SET`` the misses) at pipeline depth 1 and depth 16, interleaved,
min of 3.  The guard asserts that an op at depth 16 costs at most
:data:`MAX_P16_OVER_P1` of an op at depth 1.

Cost is this process's CPU time, which covers both the client and the
server thread: time spent waiting for a shared host's CPUs does not
count, and that wait is what made wall-clock ratios spread.  Both
depths run on the same host in the same process, so the ratio carries
no host speed and needs no recorded baseline or CPU count.
What it catches is structural: a server that stops executing a
chunk's commands as one batch, or writes one reply at a time, loses
the amortised round trip that depth 16 exists to measure.  Commands
are encoded before the clock starts and replies are scanned by their
fixed sizes, so the client's own per-op cost stays small next to the
server's.
"""

import socket
import time

import pytest

from repro.netsrv import ServerThread
from repro.service import CacheService
from repro.traces.synthetic import zipf_trace

#: Bound on (per-op CPU time at depth 16) / (per-op CPU time at depth
#: 1).  Measured 0.30-0.39 over 14 runs on a 2-CPU VM (CPython 3.11).
#: There, a server executing and writing each command on its own
#: measured 0.57-0.73, and one writing each reply on its own (batch
#: kept) 0.45-0.67, so the bound catches the first always and the
#: second in most runs.
MAX_P16_OVER_P1 = 0.45

VALUE = b"v" * 64
MISS = b"$-1\r\n"
HIT = b"$%d\r\n%s\r\n" % (len(VALUE), VALUE)
OK = b"+OK\r\n"


def _frame(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(
        b"$%d\r\n%s\r\n" % (len(a), a) for a in args)


def _recv(sock: socket.socket, buf: bytearray, n: int) -> None:
    """Receive into ``buf`` until it holds at least ``n`` bytes."""
    while len(buf) < n:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk


def _read_through(sock: socket.socket, windows, set_frames) -> float:
    """CPU seconds per request to replay the GET ``windows`` (pre-encoded
    ``(keys, payload)`` pairs), each followed by one write that SETs
    the window's misses."""
    start = time.process_time()
    for keys, payload in windows:
        sock.sendall(payload)
        buf, pos, misses = bytearray(), 0, []
        for key in keys:
            _recv(sock, buf, pos + len(MISS))
            if buf.startswith(MISS, pos):
                misses.append(key)
                pos += len(MISS)
            else:
                pos += len(HIT)
        _recv(sock, buf, pos)
        if misses:
            sock.sendall(b"".join(set_frames[key] for key in misses))
            _recv(sock, bytearray(), len(OK) * len(misses))
    return (time.process_time() - start) / sum(len(k) for k, _ in windows)


def measure() -> dict:
    """Min-of-3 CPU seconds per op at depth 1 and 16, interleaved."""
    keys = [b"%d" % key for key in zipf_trace(
        num_objects=2_000, num_requests=12_000, alpha=1.0, seed=42)]
    set_frames = {key: _frame(b"SET", key, VALUE) for key in set(keys)}
    windows = {
        depth: [(keys[i:i + depth],
                 b"".join(_frame(b"GET", key) for key in keys[i:i + depth]))
                for i in range(0, len(keys), depth)]
        for depth in (1, 16)
    }
    service = CacheService(1_000, "s3fifo")
    with ServerThread(service, resp_port=0) as st:
        sock = socket.create_connection(("127.0.0.1", st.resp_port),
                                        timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            _read_through(sock, windows[16], set_frames)  # warm up
            cost = {depth: float("inf") for depth in windows}
            for _ in range(3):
                for depth in windows:
                    cost[depth] = min(cost[depth], _read_through(
                        sock, windows[depth], set_frames))
        finally:
            sock.close()
    return cost


@pytest.mark.perf
def test_pipelining_amortises_the_round_trip():
    cost = measure()
    ratio = cost[16] / cost[1]
    assert ratio <= MAX_P16_OVER_P1, (
        f"a depth-16 op costs {ratio:.2f} of a depth-1 op (bound "
        f"{MAX_P16_OVER_P1}): {cost[16] * 1e6:.1f} vs "
        f"{cost[1] * 1e6:.1f} us/op"
    )
