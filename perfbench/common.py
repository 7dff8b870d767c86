"""Shared pieces of the benchmark: the workload table, seeded key
streams, check accounting, spans, order statistics and provenance.

Every workload has 100k distinct objects and a cache of 10% of them.
A workload is one seeded Zipf key stream; each run drives it through
the offline simulator and through a live server (see README.md for why
both halves run on every workload).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Span dumps and ladder reports land here (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

OBJECTS = 100_000
CAPACITY = OBJECTS // 10
#: The 8 fixed MRC sizes, 0.5%-50% of the objects; 10% is among them.
MRC_SIZES = (500, 1_000, 2_500, 5_000, 10_000, 20_000, 35_000, 50_000)
#: Second, held-out seed the regime guards also run on.
HELD_OUT_SEED = 20231023


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sim" or "serve": which half gets most of the measured time.
    primary: str
    alpha: float
    #: Length of the simulated trace.
    sim_requests: int
    #: Serving stack: "readthrough" (mp, RESP) or "write-mix" (cluster,
    #: memcached).
    stack: str
    #: S3-FIFO hit-ratio regime the workload must stay in, as
    #: ("min" | "max", bound); None for no guard.
    regime: Optional[tuple] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-hit-heavy", "sim", 1.2, 300_000, "readthrough",
                 ("min", 0.9)),
        Workload("sim-miss-heavy", "sim", 0.8, 100_000, "readthrough",
                 ("max", 0.6)),
        Workload("serve-write-mix", "serve", 0.6, 50_000, "write-mix"),
    )
}

#: Share of ``--seconds`` given to the workload's primary half.
PRIMARY_SHARE = 0.65
#: Server sessions (fresh server, timed set-up) per run.
SERVE_SESSIONS = 3


#: Seed of the fixed rank -> key permutation (see :func:`zipf_keys`).
KEY_ORDER_SEED = 0x5F1F0


def zipf_keys(alpha: float, n: int, seed: int) -> List[int]:
    """``n`` Zipf(alpha) draws over the objects, as integer keys.

    The seed draws the request sequence; which key holds which
    popularity rank is one fixed permutation, as in YCSB's scrambled
    Zipfian.  With a per-seed permutation the hottest key -- 18% of
    the requests at alpha 1.2 -- would land in or out of the sampled
    MRC's hash sample, and on one worker or the other, by the seed's
    luck, and the cost of those calls would swing with it.
    """
    import numpy as np

    from repro.traces.synthetic import zipf_trace

    ranks = zipf_trace(OBJECTS, n, alpha=alpha, seed=seed,
                       shuffle_ranks=False)
    order = np.random.default_rng(KEY_ORDER_SEED).permutation(OBJECTS)
    return order[ranks].tolist()


def derive_seed(seed: int, tag: str) -> int:
    """A 63-bit seed for one purpose (``tag``) of one benchmark seed."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
try:
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):  # pragma: no cover - not Linux
    _prctl = None


def guard_children() -> None:
    """Tie every child this process starts to it (Linux only).

    It becomes the parent of its orphaned descendants -- a server's
    workers outlive their own parent for a moment when it exits -- so
    :func:`end_children` can wait for them instead of leaving them to
    init.  And every child it forks, such as a multiprocessing worker,
    is killed if it dies first, so a benchmark killed from outside
    leaves no worker behind.
    """
    if _prctl is not None:
        _prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        os.register_at_fork(after_in_child=die_with_parent)


def die_with_parent() -> None:
    """In a child: have it SIGKILLed when its parent dies.  Passed as
    ``preexec_fn`` for children that are started by fork and exec."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _proc_stats() -> Dict[int, List[str]]:
    """pid -> the fields of ``/proc/<pid>/stat`` after the command
    name (index 0 is the state, 1 the parent pid)."""
    stats = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stats[int(entry)] = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
    return stats


def _child_pids() -> List[int]:
    me = str(os.getpid())
    return [pid for pid, fields in _proc_stats().items()
            if fields[1] == me]


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(root: int) -> float:
    """CPU seconds (user + system) used so far by process ``root`` and
    all its descendants, living or already waited for."""
    stats = _proc_stats()
    children: Dict[int, List[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    ticks = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        fields = stats.get(pid)
        if fields is None:
            continue
        # utime, stime, cutime, cstime
        ticks += sum(int(f) for f in fields[11:15])
        todo += children.get(pid, [])
    return ticks / _CLK_TCK


def end_children(timeout: float = 10.0) -> None:
    """Stop and wait for every child process still left.

    First multiprocessing's resource tracker, which shared-memory
    transports start and which otherwise outlives this process: closing
    its pipe makes it clean up and exit, and it is waited for.  Then
    any other child (an adopted orphan, say) is killed and reaped,
    until none is left or ``timeout`` seconds have passed.
    """
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception as exc:  # never mask the run's own outcome
        print(f"resource tracker stop failed: {exc!r}", file=sys.stderr)
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left at all
        if pid:
            continue
        if time.monotonic() > deadline:
            print("child processes still running after kill",
                  file=sys.stderr)
            return
        for child in _child_pids():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)


class Checks:
    """Output checks: every attempted op or run, and the ones that
    failed or disagreed with their reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._lock = threading.Lock()

    def record(self, attempted: int, failed: int = 0,
               message: Optional[str] = None) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if failed and message and len(self.messages) < 20:
                self.messages.append(message)

    def expect(self, ok: bool, message: str) -> None:
        self.record(1, 0 if ok else 1, message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent, request).

    The parent is the innermost open span of the same thread.  Spans
    are only appended while the run goes; :meth:`dump` writes them out
    once at the end.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, request))

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self time (ns).  Self time is
        a span's duration minus the time its child spans cover."""
        child_ns: Dict[int, int] = {}
        for _sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, _parent, _req in self.spans:
            row = out.setdefault(name, {"count": 0, "total_ns": 0,
                                        "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns.get(sid, 0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "request": req,
                }) + "\n")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, min, max and inter-quartile range of ``values``."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {
        "n": len(vals),
        "median": statistics.median(vals),
        "min": vals[0],
        "max": vals[-1],
        "iqr": q3 - q1,
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(files: Iterable[Path]) -> str:
    """Hash of the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance_start() -> Dict:
    from repro.perf.bench import env_block

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        nproc = os.cpu_count()
    return {
        "env": env_block(),
        "git_commit": _git_commit(),
        "src_digest": source_digest((SRC / "repro").rglob("*.py")),
        "nproc": nproc,
        "loadavg_start": _loadavg(),
    }


def provenance_end(prov: Dict) -> Dict:
    prov["loadavg_end"] = _loadavg()
    return prov
