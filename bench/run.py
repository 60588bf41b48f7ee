"""trainmem benchmark: one workload, one process, single-threaded.

    python3 bench/run.py --workload cost-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, not from an installed copy.  With `--trace 0` the workload runs
for `--seconds` seconds and the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` a fixed amount of
work runs once untraced and once traced, and the metrics are the per-layer
ones.  Earlier lines record the machine and any failed checks.  See
README.md in this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import threads  # noqa: E402

threads.pin()  # before anything imports numpy

from probe import REFERENCE_PROBE_S, probe  # noqa: E402

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

WORKLOADS = ("cost-sweep", "profile-cold", "train-fp32", "train-fp16")
SETUP_REPEATS = 5
TAIL_PERCENTILE = 95  # every workload gives at least 200 samples a run, ten beyond p95
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), (f"op_p{TAIL_PERCENTILE}_ms", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Peak RSS is read after this many operations (or at the end of a shorter
# run): profile-cold leaks every parsed graph, so its RSS grows with the
# number of calls, which the machine's speed would otherwise set.
RSS_AFTER_OPS = 2000
# Operations of a traced run per second of --seconds (a train operation is
# one 60-step call); each runs once untraced and once traced, about half of
# --seconds in all on a 2-core 2.1 GHz Xeon.
TRACE_OPS_PER_SECOND = {"cost-sweep": 30, "profile-cold": 40, "train-fp32": 0.24,
                        "train-fp16": 0.12}
# The self times plus the tracer's bookkeeping must cover the traced wall
# time to within this share of it.
TRACE_ACCOUNTING_TOL = 0.01
WORK_DIR = ROOT / ".bench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def end_to_end(tally, setups: list[tuple[float, float]], normalize: bool) -> dict[str, float]:
    """The end-to-end metrics.  Times are (seconds, probe) pairs; normalized
    times are seconds * REFERENCE_PROBE_S / probe (see probe.py)."""
    if not tally.latencies or tally.busy_s() <= 0:
        raise RuntimeError("the run completed no timed operation")

    def sec(t, p):
        return t * REFERENCE_PROBE_S / p if normalize else t

    lat_ms = [sec(t, p) * 1e3 for t, p in tally.latencies]
    tail = statistics.quantiles(lat_ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    import_s, *rest = [sec(t, p) for t, p in setups]
    return {
        "setup_s": import_s + statistics.median(rest),
        "op_p50_ms": statistics.median(lat_ms),
        f"op_p{TAIL_PERCENTILE}_ms": tail,
        "ops_per_s": tally.units / sum(sec(t, p) for t, p in tally.busy),
        "peak_rss_mb": tally.rss_mb or peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(workload, tally, deadline: float | None = None, max_ops: int | None = None):
    """Run the workload's operations until the deadline or for max_ops."""
    for n, op in enumerate(workload.operations()):
        if (max_ops is not None and n >= max_ops) or (
                deadline is not None and perf_counter() >= deadline):
            break
        workload.run_op(op, tally, deadline)
        if n + 1 == RSS_AFTER_OPS:
            tally.rss_mb = peak_rss_mb()
    return tally


def traced_run(workload, seconds: float):
    """A fixed list of operations, each run once untraced and once traced, so
    both sides see the same machine conditions; per-layer metrics.  Neither side
    probes the speed: the times are raw.

    The traced wall time splits into the self times of all spans, the
    tracer's bookkeeping and what no wrapper covers (the benchmark's own
    code between a timer and the first span, about a microsecond per
    operation).  A breach of TRACE_ACCOUNTING_TOL is a failed check: the
    self times would then miss or double-count part of the program's time.
    """
    from tracer import Tracer
    from workloads import Tally

    n_ops = max(1, math.ceil(seconds * TRACE_OPS_PER_SECOND[workload.name]))
    untraced, traced = Tally(probed=False), Tally(probed=False)
    tracer = Tracer()
    for n, op in enumerate(itertools.islice(workload.operations(), n_ops)):
        # alternate which side runs first, so that neither side always gets
        # the second, warmer run of an operation
        if n % 2:
            with tracer:
                workload.run_op(op, traced)
        workload.run_op(op, untraced)
        if not n % 2:
            with tracer:
                workload.run_op(op, traced)
    metrics = tracer.layer_metrics()
    self_sum = sum(t for _, t in tracer.self_times().values())
    metrics["trace.untraced_ms"] = untraced.busy_s() * 1e3
    metrics["trace.traced_ms"] = traced.busy_s() * 1e3
    metrics["trace.overhead_ms"] = (traced.busy_s() - untraced.busy_s()) * 1e3
    metrics["trace.unattributed_ms"] = (traced.busy_s() - self_sum) * 1e3
    metrics["trace.bookkeeping_ms"] = tracer.bookkeeping_s * 1e3
    gap = metrics["trace.unattributed_ms"] - metrics["trace.bookkeeping_ms"]
    if abs(gap) > TRACE_ACCOUNTING_TOL * metrics["trace.traced_ms"]:
        traced.fail(1, f"self times plus tracer bookkeeping miss the traced wall time "
                       f"by {gap:.1f} ms")
    return metrics, traced, untraced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trainmem" / "__init__.py").is_file():
        print(f"error: no trainmem sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import workloads  # imports numpy and trainmem
    # the import, then each set-up; the import is scaled by the probe just
    # after it, since a probe at interpreter start-up reads slow
    setups = [(perf_counter() - t0, probe())]
    import machine
    from tracer import LAYER_METRICS

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        try:
            for _ in range(SETUP_REPEATS):
                speed = probe()
                t0 = perf_counter()
                workload.setup()
                setups.append((perf_counter() - t0, speed))
            if args.trace:
                metrics, tally, untraced = traced_run(workload, args.seconds)
                tally.attempted += untraced.attempted
                tally.failed += untraced.failed
                tally.problems += untraced.problems
                units = dict(LAYER_METRICS)
                raw = {}
            else:
                tally = run_ops(workload, workloads.Tally(),
                                deadline=perf_counter() + args.seconds)
                metrics = end_to_end(tally, setups, normalize=True)
                raw = end_to_end(tally, setups, normalize=False)
                raw["median_probe_us"] = statistics.median(p for _, p in tally.busy) * 1e6
                units = dict(END_TO_END)
        finally:
            workload.close()
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # absent, or another run still uses it

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine.describe(ROOT)}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "samples": len(tally.latencies),
                      "tail_percentile": TAIL_PERCENTILE, "raw": raw,
                      "problems": tally.problems}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
