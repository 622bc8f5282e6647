"""Seeded, correctness-checked benchmark for hadsplit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 22 --trace 0

One client drives the library in this process and waits for each op before
starting the next (a closed loop).  Set-up (a fresh import of hadsplit, the
seeded inputs and a warm-up on small instances) runs SETUP_RUNS times and
is timed outside the loop.  The loop then runs whole cycles of the
workload's op mix until it has run for at least --seconds and enough
latencies are in hand to leave ten beyond the workload's tail percentile
(workloads.TAIL_PERCENTILE).  Every op's result is checked by the oracle;
a wrong result, an exception or a hang-guard timeout counts as a failed op
and the run carries on.

Between ops, at least every REF_EVERY_S, the loop times a fixed reference
loop that does not use the library (hostref.py).  The end-to-end latencies
are scaled by hostref.REF_S over the mean reference time around each op,
so that they read the same whatever speed the shared host gives the run at
that moment; the unscaled figures are in the environment record.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 the loop alternates untraced and traced cycles and
reports the per-layer metrics (see tracing.py), and the spans are written
to perfbench/out/.  The line before the result is a JSON record of the
machine, the versions, the thread cap and the seed.
"""

from __future__ import annotations

import os

# One client thread and single-threaded BLAS/OpenMP: at most one busy
# thread on the 2-core machines this runs on, which keeps runs steady.
# This must be set before numpy is imported.
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from hostref import REF_S, time_reference  # noqa: E402
from oracle import Mismatch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
OP_LIMIT_S = 30.0  # hang guard per op; a failed op's latency counts as this
HARD_EXTRA_S = 60.0  # stop mid-cycle once the loop overruns --seconds by this
REF_EVERY_S = 0.25  # time the reference loop at least this often between ops
REF_SPAN = 6  # an op's host speed comes from this many references on each side
SETUP_REFS = 3  # references timed between set-up runs


class OpTimeout(BaseException):
    """Raised by the hang guard inside an op that ran past OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.latencies: list[float] = []  # one per attempted op
        self.passed: list[bool] = []  # aligned with latencies
        self.kinds: list[str] = []  # aligned with latencies
        self.cycle_of: list[int] = []  # aligned with latencies
        self.refs_before: list[int] = []  # aligned: references timed before the op
        self.busy = 0.0  # seconds spent inside ops
        self.refs: list[float] = []  # reference-loop times, in run order
        self.last_ref = float("-inf")
        self.errors: list[str] = []

    def record(self, kind: str, dt: float, ok: bool) -> None:
        self.latencies.append(dt)
        self.passed.append(ok)
        self.kinds.append(kind)
        self.cycle_of.append(self.cycles)
        self.refs_before.append(len(self.refs))

    def time_reference(self) -> None:
        self.refs.append(time_reference())
        self.last_ref = perf_counter()

    def fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind}: {why}")


def run_cycle(cycle, stats: Stats, hard_deadline: float, reference: bool = False) -> float:
    """Run each op once, check it, return the seconds spent inside ops.
    With `reference`, time the reference loop between ops as REF_EVERY_S
    asks."""
    spent = 0.0
    for op in cycle:
        if perf_counter() > hard_deadline:
            break
        if reference and perf_counter() - stats.last_ref >= REF_EVERY_S:
            stats.time_reference()
        stats.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = perf_counter()
        try:
            result = op.call()
        except OpTimeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
            spent += OP_LIMIT_S
            stats.record(op.kind, OP_LIMIT_S, False)
            stats.fail(op, "hang guard")
            continue
        except Exception as exc:  # a raising op is a failed op, not a failed run
            signal.setitimer(signal.ITIMER_REAL, 0)
            spent += perf_counter() - t0
            stats.record(op.kind, OP_LIMIT_S, False)
            stats.fail(op, "".join(traceback.format_exception_only(exc)).strip())
            continue
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent += dt
        try:
            op.check(result)
        except Mismatch as exc:
            stats.record(op.kind, OP_LIMIT_S, False)
            stats.fail(op, f"wrong result: {exc}")
            continue
        except Exception as exc:  # malformed result
            stats.record(op.kind, OP_LIMIT_S, False)
            stats.fail(op, f"unreadable result: {exc!r}")
            continue
        stats.record(op.kind, dt, True)
    stats.busy += spent
    stats.cycles += 1
    return spent


def host_speed(refs: list[float]) -> float:
    """REF_S over the mean of the reference times without the highest and
    the lowest.  The mean, since an op's time averages the host's speed
    over its length, which flips between a fast and a slow state many
    times a second; the extremes go, since one reference can catch a stray
    interrupt."""
    if len(refs) >= 3:
        refs = sorted(refs)[1:-1]
    return REF_S / statistics.fmean(refs)


def host_scaled(stats: Stats) -> list[float]:
    """Each latency times the host speed from the REF_SPAN reference times
    on either side of the op.  A failed op keeps OP_LIMIT_S."""
    out = []
    for dt, ok, i in zip(stats.latencies, stats.passed, stats.refs_before):
        if not ok:
            out.append(OP_LIMIT_S)
            continue
        out.append(dt * host_speed(stats.refs[max(0, i - REF_SPAN): i + REF_SPAN]))
    return out


def kind_medians(stats: Stats, latencies: list[float]) -> dict[str, float]:
    """Median latency of each op kind over its passed ops."""
    by_kind: dict[str, list[float]] = {}
    for dt, ok, kind in zip(latencies, stats.passed, stats.kinds):
        if ok:
            by_kind.setdefault(kind, []).append(dt)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def cycle_rates(stats: Stats, latencies: list[float]) -> list[float]:
    """Passed ops per second spent inside ops, for each whole cycle."""
    spent = [0.0] * stats.cycles
    passed = [0] * stats.cycles
    for dt, ok, c in zip(latencies, stats.passed, stats.cycle_of):
        spent[c] += dt
        passed[c] += ok
    return [p / s for p, s in zip(passed, spent) if s]


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def purge_library() -> None:
    for name in [k for k in sys.modules if k == "hadsplit" or k.startswith("hadsplit.")]:
        del sys.modules[name]


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hadsplit" / "__init__.py").is_file():
        print(f"error: no hadsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_times = []
    setup_refs = []  # SETUP_REFS reference times before each set-up run and after the last
    wl = None
    try:
        for _ in range(SETUP_RUNS):
            if wl is not None:
                wl.close()
            purge_library()
            gc.collect()
            setup_refs.append([time_reference() for _ in range(SETUP_REFS)])
            t0 = perf_counter()
            wl = workloads.build(args.workload, args.seed, SRC, OUT)
            for warm in wl.warmup:
                warm()
            setup_times.append(perf_counter() - t0)
        setup_refs.append([time_reference() for _ in range(SETUP_REFS)])
        setup_scaled = [
            dt * host_speed(setup_refs[i] + setup_refs[i + 1]) for i, dt in enumerate(setup_times)
        ]
        import hadsplit

        if not Path(hadsplit.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported hadsplit from {hadsplit.__file__}, not {SRC}", file=sys.stderr)
            return 2

        tail = workloads.TAIL_PERCENTILE[args.workload]
        min_samples = -(-1000 // (100 - tail))  # ten samples beyond the tail percentile
        stats = Stats()
        hard_deadline = perf_counter() + args.seconds + HARD_EXTRA_S
        tracer = None
        if args.trace:
            from tracing import LAYER_METRICS, Tracer

            tracer = Tracer()
            plain = traced = 0.0
            cycles = 0
            while (plain + traced < args.seconds or len(stats.latencies) < min_samples) and (
                perf_counter() < hard_deadline
            ):
                plain += run_cycle(wl.cycle, stats, hard_deadline)
                tracer.install()
                try:
                    traced += run_cycle(wl.cycle, stats, hard_deadline)
                finally:
                    tracer.uninstall()
                cycles += 1
            metrics = tracer.layer_metrics(cycles, traced / plain - 1)
            units = LAYER_METRICS
        else:
            start = perf_counter()
            while (perf_counter() - start < args.seconds or len(stats.latencies) < min_samples) and (
                perf_counter() < hard_deadline
            ):
                run_cycle(wl.cycle, stats, hard_deadline, reference=True)
            stats.time_reference()  # the last ops need a reference after them
            passed = stats.attempted - stats.failed
            scaled = host_scaled(stats)
            unscaled = {
                "ops_per_s": statistics.median(cycle_rates(stats, stats.latencies)),
                "op_p50_s": percentile(stats.latencies, 50),
                "op_tail_s": percentile(stats.latencies, tail),
                "setup_s": statistics.median(setup_times),
            }
            loop_s = perf_counter() - start
            metrics = {
                "ops_per_s": statistics.median(cycle_rates(stats, scaled)),
                "op_p50_s": percentile(scaled, 50),
                "op_tail_s": percentile(scaled, tail),
                "pass_ratio": passed / stats.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup_scaled),
            }
            units = {
                "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                "pass_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
            }
    finally:
        if wl is not None:
            wl.close()

    for err in stats.errors:
        print(f"failed op: {err}", file=sys.stderr)
    record = environment(args)
    record.update(
        {
            "samples": len(stats.latencies),
            "tail_percentile": tail,
            "fail_ratio": stats.failed / stats.attempted,
            "busy_s": stats.busy,
            "setup_runs_s": setup_times,
            "kind_p50_s": kind_medians(stats, stats.latencies),
        }
    )
    if not args.trace:
        record["reference_s"] = {"median": statistics.median(stats.refs), "count": len(stats.refs)}
        record["unscaled"] = unscaled
        record["kind_p50_scaled_s"] = kind_medians(stats, scaled)
        record["loop_s"] = loop_s
    if tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": record, **tracer.dump()}))
        record["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"env": record}))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
