"""Time the five operations behind the hand timings in ROADMAP item 1, so
the benchmark's numbers can be set beside them on the same machine.

    python3 bench/crosscheck.py

Prints one line per operation: the median of repeated calls, in raw wall
time.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import threads  # noqa: E402

threads.pin()

import numpy as np  # noqa: E402

from trainmem import archfile, builders, engine, pareto, profiler  # noqa: E402
from trainmem.numerics import NumericFormat  # noqa: E402
from workloads import dct_spec, wrn_spec  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    fn()  # warm caches
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    wrn = builders.build_wrn(28, 2, 10)
    dct = builders.build_dc_transformer_cost()
    wrn_cfgs = list(wrn_spec().configs(wrn))
    dct_cfgs = list(dct_spec().configs(dct))
    rows = [
        ("WRN total_report, median over the 960-point grid",
         statistics.median(median_ms(lambda c=c: profiler.total_report(wrn, c), 3)
                           for c in wrn_cfgs), "ms"),
        ("DC-T total_report, median over the 320-point grid",
         statistics.median(median_ms(lambda c=c: profiler.total_report(dct, c), 3)
                           for c in dct_cfgs), "ms"),
        ("960-point WRN pareto.sweep",
         median_ms(lambda: pareto.sweep(wrn, wrn_spec()), 3) / 1e3, "s"),
    ]
    desk = archfile.load_arch("desk-cnn")
    rng = np.random.default_rng(0)
    batch = {"img": rng.normal(size=(16,) + desk.out_shape["img"]),
             "labels": rng.integers(0, 4, size=16)}
    for precision in (NumericFormat.FP32, NumericFormat.FP16):
        params = engine.init_params(desk, seed=0, precision=precision)
        cfg = engine.EngineConfig(precision=precision)
        rows.append((f"desk-cnn run_step, batch 16, {precision.name}",
                     median_ms(lambda: engine.run_step(desk, params, batch, cfg), 50), "ms"))
    for label, value, unit in rows:
        print(f"{label}: {value:.2f} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
