"""Self-test of the benchmark: exact counts repeat, tracing changes no count,
and no tracing wrapper outlives a run.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes two untraced runs and two traced
runs of one second each with the same seed. Every exact count (graph nodes,
residual functions, passes, decided share) must be identical across all four,
and every ``.calls`` metric identical across the two traced runs. After each
run no name of any scpv module may still be bound to a wrapper, and the host
probe's timer and signal handler must be gone. Exits 1 on the first
difference.
"""

from __future__ import annotations

import signal
import sys

import run
import tracer

SEED = 11


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def selftest(workload: str) -> None:
    counts, calls = [], []
    for trace in (False, False, True, True):
        res = run.bench(workload, SEED, 1.0, trace)
        left = tracer.installed(res["lib"])
        if left:
            fail(f"{workload}: wrappers left installed: {left}")
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or (
            signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
        ):
            fail(f"{workload}: host probe left running")
        if not res["deterministic"]:
            fail(f"{workload}: passes of one run differ")
        counts.append(res["counts"])
        if trace:
            calls.append({k: v for k, v in res["layers"].items() if k.endswith(".calls")})
    if any(c != counts[0] for c in counts):
        fail(f"{workload}: exact counts differ between runs: {counts}")
    if calls[0] != calls[1]:
        fail(f"{workload}: call counts differ between traced runs: {calls}")
    print(f"ok {workload}: {counts[0]}, {len(calls[0])} call counts")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        selftest(name)
