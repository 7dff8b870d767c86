"""Serving half of a run: the repo's own server as a child process,
driven closed-loop from this process over at most 2 connections.

Two stacks:

* ``readthrough`` -- ``serve --backend mp --workers 2 --resp-port 0``
  (CLI defaults otherwise: ``s3fifo``, pipe transport, server metrics
  on).  One RESP connection; each window pipelines 16 GETs, then
  pipelines SETs of 100-byte values for the misses.
* ``write-mix`` -- ``serve --backend cluster --nodes 2 --replication 2
  --memcached-port 0``.  Two memcached connections, one thread each;
  each window is 16 ops of one type: 30% one multi-key ``get``, 60%
  pipelined ``set`` of 4 KiB values with an exptime longer than the
  run, 10% pipelined ``delete``.

A run holds three sessions, each with a fresh server: its set-up (child
start until the port is printed, connect, and an untimed warm-up prefix
that fills the cache) is timed in wall and in CPU time, the server's
process tree included, then windows run until the session's
share of the budget is spent.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from common import (
    CAPACITY, OBJECTS, ROOT, Checks, Workload, child_env, derive_seed,
    die_with_parent, percentile, tree_cpu_s, zipf_keys,
)
from repro.netsrv.client import RespClient
from repro.service.sharded import ShardedCacheService

HOST = "127.0.0.1"
WINDOW = 16
READ_VALUE_BYTES = 100
WRITE_VALUE_BYTES = 4096
#: Exptime of write-mix sets (s): far longer than any run.
EXPTIME = 3600
WARM_PIPELINE = 256
#: Write-mix window types and their probabilities.
MIX = (("get", 0.3), ("set", 0.6), ("delete", 0.1))
SERVER_START_TIMEOUT = 60.0
#: Write-mix GET hits count over each connection's first windows only:
#: every set moves the cache further from its warmed state, so a hit
#: ratio over all windows would fall as the host runs faster.
HIT_WINDOWS = 150

STACK_ARGS = {
    "readthrough": ["--backend", "mp", "--workers", "2",
                    "--resp-port", "0"],
    "write-mix": ["--backend", "cluster", "--nodes", "2",
                  "--replication", "2", "--memcached-port", "0"],
}


def value_for(key: str, size: int) -> bytes:
    """The bytes every set of ``key`` stores: checkable on any hit."""
    unit = key.encode() + b"|"
    return (unit * (size // len(unit) + 1))[:size]


def key_stream(alpha: float, n: int, seed: int) -> List[str]:
    return [f"k{k}" for k in zipf_keys(alpha, n, seed)]


def warm_prefix(keys: Sequence[str], distinct: int) -> Tuple[List[str], int]:
    """The first ``distinct`` distinct keys of the stream in order of
    first appearance, and the stream position just past them.

    A read-through replay would set exactly these keys (every first
    appearance misses), so the warm-up is the stream's own prefix with
    the GETs left out; it is sent in ``MSET`` batches, which the server
    runs as one ``set_many`` per batch.
    """
    seen = set()
    order: List[str] = []
    for pos, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            order.append(key)
            if len(order) == distinct:
                return order, pos + 1
    raise ValueError(f"stream has fewer than {distinct} distinct keys")


class Server:
    """``python -m repro.cli serve ...`` as a child process.

    The child runs in its own session so that :meth:`stop` can reach
    its worker processes as well if a graceful drain does not finish,
    and is killed if this process dies first.
    """

    def __init__(self, args: Sequence[str], ports: int = 1) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--objects", str(OBJECTS)] + list(args)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, start_new_session=True,
            preexec_fn=die_with_parent,
            bufsize=0,  # unbuffered, so select() sees every port line
        )
        self.ports: Dict[str, int] = {}
        try:
            for _ in range(ports):
                line = self._readline(SERVER_START_TIMEOUT)
                proto, _, rest = line.partition(":")
                self.ports[proto] = int(rest.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server printed no port in time")
        line = self.proc.stdout.readline().decode()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait()} before "
                f"printing its port"
            )
        return line.strip()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole session."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()


class Session:
    """What one session measured."""

    def __init__(self) -> None:
        #: Set-up wall time, and the CPU time this process and the
        #: server's process tree spent on it.
        self.setup_s = 0.0
        self.setup_cpu_s = 0.0
        self.duration_s = 0.0
        self.ops = 0
        self.gets = 0
        self.hits = 0
        #: (end ns, latency ns) of every window, in completion order.
        self.windows: List[Tuple[int, int]] = []

    def setup_done(self, t0: float, cpu0: float, server: Server) -> None:
        """Close the set-up that began at ``perf_counter() == t0`` and
        ``process_time() == cpu0``; every CPU second the server has
        used so far went to set-up."""
        self.setup_s = time.perf_counter() - t0
        self.setup_cpu_s = (time.process_time() - cpu0
                            + tree_cpu_s(server.proc.pid))


# ----------------------------------------------------------------------
# Read-through over RESP (mp backend)
# ----------------------------------------------------------------------
def readthrough_session(alpha: float, seed: int, duration: float,
                        checks: Checks) -> Session:
    keys = key_stream(alpha, 120_000 + int(30_000 * duration), seed)
    warm, pos = warm_prefix(keys, CAPACITY)
    out = Session()
    windows: List[Tuple[List[str], List[bool]]] = []
    t0, cpu0 = time.perf_counter(), time.process_time()
    server = Server(STACK_ARGS["readthrough"])
    try:
        with RespClient(HOST, server.ports["resp"], timeout=30) as client:
            for i in range(0, len(warm), WARM_PIPELINE):
                args = ["MSET"]
                for k in warm[i:i + WARM_PIPELINE]:
                    args += [k, value_for(k, READ_VALUE_BYTES)]
                reply = client.execute(*args)
                checks.expect(reply == "OK", f"warm-up MSET: {reply!r}")
            out.setup_done(t0, cpu0, server)
            start = time.perf_counter()
            deadline = start + duration
            clock = time.perf_counter_ns
            while pos + WINDOW <= len(keys) and time.perf_counter() < deadline:
                ks = keys[pos:pos + WINDOW]
                pos += WINDOW
                w0 = clock()
                replies = client.pipeline([("GET", k) for k in ks])
                missed = [k for k, r in zip(ks, replies) if r is None]
                sets = client.pipeline(
                    [("SET", k, value_for(k, READ_VALUE_BYTES))
                     for k in missed]) if missed else []
                w1 = clock()
                out.windows.append((w1, w1 - w0))
                hit_flags = []
                bad = 0
                for k, r in zip(ks, replies):
                    hit_flags.append(r is not None)
                    if r is not None and r != value_for(k, READ_VALUE_BYTES):
                        bad += 1
                bad += sum(r != "OK" for r in sets)
                checks.record(WINDOW, bad, f"bad GET/SET reply in {ks}")
                windows.append((ks, hit_flags))
            out.duration_s = time.perf_counter() - start
    finally:
        server.stop()
    out.ops = out.gets = WINDOW * len(windows)
    out.hits = sum(sum(flags) for _, flags in windows)
    replay_check(warm, windows, checks)
    return out


def replay_check(warm: List[str], windows, checks: Checks) -> None:
    """Replay the session in-process on ``ShardedCacheService(2)``:
    every GET must hit or miss exactly as it did on the server."""
    replay = ShardedCacheService(CAPACITY, "s3fifo", num_shards=2)
    for key in warm:
        replay.set(key, 1)
    mismatched = 0
    for ks, hit_flags in windows:
        values = replay.get_many(ks)
        for key, value, served_hit in zip(ks, values, hit_flags):
            mismatched += (value is not None) != served_hit
        for key, value in zip(ks, values):
            if value is None:
                replay.set(key, 1)
    checks.record(0, mismatched,
                  f"{mismatched} GETs differ from the in-process replay")


# ----------------------------------------------------------------------
# Write mix over memcached (cluster backend)
# ----------------------------------------------------------------------
class ProtocolViolation(Exception):
    """A reply that is not legal for its command; framing is lost."""


class McConn:
    """A raw memcached text connection with exact reply framing.

    The benchmark speaks the wire protocol itself, so that every reply
    is checked against the protocol rather than a client's parser.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def line(self) -> bytes:
        while True:
            idx = self.buf.find(b"\r\n")
            if idx >= 0:
                out = bytes(self.buf[:idx])
                del self.buf[:idx + 2]
                return out
            self._fill()

    def exact(self, n: int) -> bytes:
        while len(self.buf) < n:
            self._fill()
        out = bytes(self.buf[:n])
        del self.buf[:n]
        return out

    # One window of each type; each returns (ops failed, GET hits).
    def get_window(self, keys: List[str]) -> Tuple[int, int]:
        self.send(("get " + " ".join(keys) + "\r\n").encode())
        hits = bad = 0
        idx = 0  # VALUE replies follow the requested keys' order
        while True:
            line = self.line()
            if line == b"END":
                return bad, hits
            parts = line.split(b" ")
            if len(parts) != 4 or parts[0] != b"VALUE" or parts[2] != b"0":
                raise ProtocolViolation(f"get: {line[:80]!r}")
            key = parts[1].decode()
            while idx < len(keys) and keys[idx] != key:
                idx += 1
            if idx == len(keys):
                raise ProtocolViolation(f"get: unrequested {line[:80]!r}")
            idx += 1
            data = self.exact(int(parts[3]) + 2)
            if data[-2:] != b"\r\n":
                raise ProtocolViolation("get: data block not CRLF-ended")
            hits += 1
            bad += data[:-2] != value_for(key, WRITE_VALUE_BYTES)

    def set_window(self, keys: List[str]) -> Tuple[int, int]:
        payload = bytearray()
        for key in keys:
            payload += (f"set {key} 0 {EXPTIME} "
                        f"{WRITE_VALUE_BYTES}\r\n").encode()
            payload += value_for(key, WRITE_VALUE_BYTES) + b"\r\n"
        self.send(bytes(payload))
        return self._statuses(len(keys), (b"STORED", b"NOT_STORED")), 0

    def delete_window(self, keys: List[str]) -> Tuple[int, int]:
        self.send("".join(f"delete {k}\r\n" for k in keys).encode())
        return self._statuses(len(keys), (b"DELETED", b"NOT_FOUND")), 0

    def _statuses(self, n: int, legal: Tuple[bytes, ...]) -> int:
        for _ in range(n):
            line = self.line()
            if line not in legal:
                raise ProtocolViolation(f"expected {legal}: {line[:80]!r}")
        return 0


def _drive_mix(conn: McConn, keys: List[str], kinds: List[str],
               deadline: float, checks: Checks, conn_id: int,
               stats: Dict[str, object]) -> None:
    """One connection's closed loop; runs on its own thread."""
    lat: List[Tuple[int, int]] = stats["windows"]
    clock = time.perf_counter_ns
    handlers = {"get": conn.get_window, "set": conn.set_window,
                "delete": conn.delete_window}
    pos = 0
    w = 0
    try:
        while pos + WINDOW <= len(keys) and time.perf_counter() < deadline:
            kind = kinds[w]
            ks = keys[pos:pos + WINDOW]
            pos += WINDOW
            w0 = clock()
            try:
                bad, hits = handlers[kind](ks)
            except (ProtocolViolation, OSError) as exc:
                checks.record(WINDOW, WINDOW, f"{kind}: {exc}")
                return
            w1 = clock()
            lat.append((w1, w1 - w0))
            w += 1
            checks.record(WINDOW, bad, f"{kind}: wrong value bytes")
            stats["ops"] += WINDOW
            if kind == "get" and w <= HIT_WINDOWS:
                stats["gets"] += WINDOW
                stats["hits"] += hits
    except Exception as exc:  # a thread boundary: report, never hide
        checks.record(WINDOW, WINDOW, f"connection {conn_id}: {exc!r}")


def writemix_session(alpha: float, seed: int, duration: float,
                     checks: Checks) -> Session:
    n_windows = 400 + int(1_500 * duration)
    streams = []
    for c in range(2):
        cseed = derive_seed(seed, f"conn{c}")
        keys = key_stream(alpha, WINDOW * n_windows, cseed)
        draws = np.random.default_rng(cseed).random(n_windows)
        edges = np.cumsum([p for _, p in MIX])
        kinds = [MIX[i][0] for i in np.searchsorted(edges, draws,
                                                    side="right")]
        streams.append((keys, kinds))
    warm, _ = warm_prefix(streams[0][0], CAPACITY // 2)
    out = Session()
    t0, cpu0 = time.perf_counter(), time.process_time()
    server = Server(STACK_ARGS["write-mix"])
    conns: List[McConn] = []
    try:
        conns = [McConn(server.ports["memcached"]) for _ in range(2)]
        for i in range(0, len(warm), WARM_PIPELINE // 4):
            chunk = warm[i:i + WARM_PIPELINE // 4]
            try:
                conns[0].set_window(chunk)
                checks.record(len(chunk))
            except ProtocolViolation as exc:
                checks.record(len(chunk), len(chunk), f"warm: {exc}")
        out.setup_done(t0, cpu0, server)
        per_conn = [{"windows": [], "ops": 0, "gets": 0, "hits": 0}
                    for _ in conns]
        start = time.perf_counter()
        deadline = start + duration
        threads = [
            threading.Thread(
                target=_drive_mix,
                args=(conn, keys, kinds, deadline, checks, c, per_conn[c]),
                name=f"perfbench-mc-{c}", daemon=True,
            )
            for c, (conn, (keys, kinds)) in enumerate(zip(conns, streams))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=duration + 120)
            if t.is_alive():
                raise RuntimeError("write-mix connection did not finish")
        out.duration_s = time.perf_counter() - start
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    for stats in per_conn:
        out.windows.extend(stats["windows"])
        out.ops += stats["ops"]
        out.gets += stats["gets"]
        out.hits += stats["hits"]
    return out


# ----------------------------------------------------------------------
class ServeHalf:
    """The serving half: one fresh server per :meth:`session`; the
    caller interleaves sessions with the simulator half."""

    def __init__(self, workload: Workload, seed: int,
                 checks: Checks) -> None:
        self.workload = workload
        self.seed = seed
        self.checks = checks
        self.session_fn = (readthrough_session
                           if workload.stack == "readthrough"
                           else writemix_session)
        self.results: List[Session] = []

    def session(self, duration: float) -> None:
        index = len(self.results)
        self.results.append(self.session_fn(
            self.workload.alpha, derive_seed(self.seed, f"serve{index}"),
            duration, self.checks))

    def finish(self) -> Dict[str, float]:
        """Throughput and latency while the host lets the stack run.

        The host's other tenants slow its two CPUs in phases of tens of
        seconds, by up to 3x for this four-process stack.  So ops/s is
        the 90th percentile of the per-second rates of all sessions,
        and p50 the median window latency within the faster half of
        those seconds.  p99 is the median of the sessions' p99s.
        """
        seconds: List[List[int]] = []
        p99s: List[float] = []
        for r in self.results:
            r.windows.sort()
            if r.windows:
                seconds += per_second(r.windows)
                p99s.append(percentile(sorted(ns for _, ns in r.windows),
                                       99))
        if not seconds:
            raise RuntimeError("no serve window completed")
        seconds.sort(key=len, reverse=True)
        rates = sorted(len(sec) * WINDOW for sec in seconds)
        fast = sorted(ns for sec in seconds[:(len(seconds) + 1) // 2]
                      for ns in sec)
        return {
            "serve_ops_per_s": percentile(rates, 90),
            "serve_p50_us": percentile(fast, 50) / 1e3,
            "serve_p99_us": statistics.median(p99s) / 1e3,
            "serve_hit_ratio": (sum(r.hits for r in self.results)
                                / sum(r.gets for r in self.results)),
            "serve_setup_s": statistics.median(
                r.setup_cpu_s for r in self.results),
            "serve_setup_wall_s": statistics.median(
                r.setup_s for r in self.results),
            "serve_windows": sum(len(r.windows) for r in self.results),
            "serve_rates": rates,
        }


def per_second(windows: List[Tuple[int, int]]) -> List[List[int]]:
    """Window latencies of one session, grouped by the whole second of
    the session in which each window completed.

    ``windows`` holds (end ns, latency ns) in completion order; the
    trailing partial second is left out unless it is the only one.
    """
    start = windows[0][0] - windows[0][1]
    groups: Dict[int, List[int]] = {}
    for end, ns in windows:
        groups.setdefault((end - start) // 1_000_000_000, []).append(ns)
    whole = sorted(groups)[:-1] or sorted(groups)
    return [groups[sec] for sec in whole]

