"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-hit-heavy --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it climbs the layer ladder
(see ``ladder.py``) and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report, and the full result (with
provenance, and the spans of a traced run) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import (  # noqa: E402
    OUT_DIR, PRIMARY_SHARE, SERVE_SESSIONS, WORKLOADS, Checks, Tracer,
    end_children, guard_children, provenance_end, provenance_start,
)
from serve_phase import ServeHalf  # noqa: E402
from sim_phase import MIN_ROUNDS, RegimeError, SimHalf  # noqa: E402

#: End-to-end metric -> unit, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "s3fifo_req_per_s": "req/s",
    "fifo_req_per_s": "req/s",
    "sieve_req_per_s": "req/s",
    "lru_req_per_s": "req/s",
    "s3fifo_miss_ratio": "ratio",
    "fifo_mrc_s": "s",
    "s3fifo_mrc_s": "s",
    "peak_rss_mib": "MiB",
    "serve_hit_ratio": "ratio",
}
#: Serving metrics printed in the report but not gated (see README).
NOT_GATED = {"serve_ops_per_s": "ops/s", "serve_p50_us": "us",
             "serve_p99_us": "us"}


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(workload, seed: int, seconds: float,
                   checks: Checks) -> dict:
    """Both halves of the workload, interleaved: simulator samples fill
    the slots before, between and after the server sessions, so every
    metric samples the whole run.  The primary half gets most time."""
    primary = seconds * PRIMARY_SHARE
    sim_budget = primary if workload.primary == "sim" else seconds - primary
    slots = SERVE_SESSIONS + 1
    sim = SimHalf(workload, seed, checks)
    serve = ServeHalf(workload, seed, checks)
    sim_spent = 0.0
    for i in range(slots):
        # Keep the simulator on schedule: by the end of slot i it has
        # used (i + 1) / slots of its budget.
        t0 = time.perf_counter()
        sim.mrc()
        target = sim_budget * (i + 1) / slots
        while (time.perf_counter() - t0 + sim_spent < target
               or (i == slots - 1 and sim.rounds < MIN_ROUNDS)):
            sim.round()
        sim_spent += time.perf_counter() - t0
        if i < SERVE_SESSIONS:
            serve.session((seconds - sim_budget) / SERVE_SESSIONS)
    sim_metrics = sim.finish()
    serve_metrics = serve.finish()
    metrics = {k: v for k, v in {**sim_metrics, **serve_metrics}.items()
               if k in END_TO_END}
    # Set-up is gated as the CPU time it takes (see README): its wall
    # time also follows the CPU time the hypervisor steals from the
    # host, which doubled the server's set-up in some phases.
    metrics["setup_s"] = (sim_metrics["sim_setup_s"]
                          + serve_metrics["serve_setup_s"])
    setup_wall_s = (sim_metrics["sim_setup_wall_s"]
                    + serve_metrics["serve_setup_wall_s"])
    metrics["peak_rss_mib"] = peak_rss_mib()
    extra = {
        "setup_wall_s": setup_wall_s,
        "sim_setup_s": sim_metrics["sim_setup_s"],
        "sim_setup_wall_s": sim_metrics["sim_setup_wall_s"],
        "sim_rounds": sim.rounds,
        "sim_samples_s": sim.walls,
        "sim_probes_s": sim.probes,
        **{name: serve_metrics[name] for name in NOT_GATED},
        "serve_setup_s": serve_metrics["serve_setup_s"],
        "serve_setup_wall_s": serve_metrics["serve_setup_wall_s"],
        "serve_windows": serve_metrics["serve_windows"],
        "serve_rates": serve_metrics["serve_rates"],
    }
    lines = [
        f"sim rounds {sim.rounds}, serve sessions {SERVE_SESSIONS}, "
        f"serve windows {serve_metrics['serve_windows']}",
        f"setup_wall_s {setup_wall_s:.6g} s (not gated: setup_s is the "
        f"CPU time of the set-up, see README)",
    ] + [
        f"{name} {serve_metrics[name]:.6g} {unit} (not gated: follows "
        f"the host's slow phases, see README)"
        for name, unit in NOT_GATED.items()
    ] + [
        f"raw median wall {name:12s} {statistics.median(ws):.6g} s, "
        f"median probe {statistics.median(sim.probes[name]) * 1e3:.3f} ms"
        for name, ws in sim.walls.items()
    ]
    return {"metrics": metrics, "extra": extra, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    # A SIGTERM unwinds like an exception, so every server this run
    # started is stopped by the ``finally`` that owns it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    prov = provenance_start()
    checks = Checks()
    started = time.perf_counter()
    try:
        if args.trace:
            import ladder

            tracer = Tracer()
            result = ladder.run(workload, args.seed, args.seconds, checks,
                                tracer)
            units = result["units"]
        else:
            result = run_end_to_end(workload, args.seed, args.seconds,
                                    checks)
            units = END_TO_END
    except RegimeError as exc:
        print(f"regime guard failed: {exc}", file=sys.stderr)
        return 3
    provenance_end(prov)

    metrics = result["metrics"]
    report = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "provenance": prov,
        "attempted": checks.attempted, "failed": checks.failed,
        "op_error_rate": checks.error_rate,
        "check_failures": checks.messages,
        "metrics": metrics, "extra": result.get("extra", {}),
    }
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2))
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for line in result.get("lines", []):
        print(line)
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    print(f"op_error_rate {checks.error_rate:.6g} "
          f"({checks.failed} of {checks.attempted})")
    for message in checks.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    # Every process the run started -- servers, their workers, the
    # multiprocessing resource tracker -- has ended before it exits.
    guard_children()
    try:
        code = main()
    finally:
        end_children()
    sys.exit(code)
