"""The library against the benchmark's recorded outputs and bindings.

The benchmark (`bench/`) checks its operations against `bench/refs/` and
traces functions it binds by name; its own tests are not part of this
suite, so these tests keep a refactor from silently breaking either.
The reference files are only read.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from trainmem import builders, pareto, profiler, train

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workloads, tracer


def test_cost_sweep_grid_matches_reference(bench):
    workloads, _ = bench
    ref = workloads.load_ref("cost_sweep.json")
    reports = ref["reports"]
    wrn = builders.build_wrn(28, 2, 10)
    dct = builders.build_dc_transformer_cost()
    points = pareto.sweep(wrn, workloads.wrn_spec())
    keys = [workloads.config_key("wrn", p.config) for p in points]
    assert len(points) == ref["sweep_points"]
    assert sorted(k for k, p in zip(keys, points) if p.on_frontier) == ref["on_frontier"]
    seen = 0
    for key, p in zip(keys, points):
        assert workloads.report_numbers(p.memory, p.flops) == reports[key], key
        seen += 1
    for cfg in workloads.dct_spec().configs(dct):
        key = workloads.config_key("dct", cfg)
        assert workloads.report_numbers(*profiler.total_report(dct, cfg)) == reports[key], key
        seen += 1
    assert seen == len(reports) == 1280


def test_profile_cold_outputs_match_reference(bench, tmp_path):
    """Every `trainmem profile` output the profile-cold workload can print."""
    workloads, _ = bench
    ref = workloads.load_ref("profile_cold.json")["outputs"]
    archs = workloads.write_profile_inputs(tmp_path, workloads.RANDOM_GRAPH_POOL)
    requests = workloads.profile_requests()
    for arch, cfg in requests:
        rc, text = workloads.profile_once(archs[arch], str(tmp_path / f"{cfg}.cfg"))
        assert rc == 0, (arch, cfg)
        assert text == ref[f"{arch}|{cfg}"], (arch, cfg)
    assert len(requests) == len(ref) == 202


@pytest.mark.parametrize("workload", ["train-fp32", "train-fp16"])
def test_train_calls_match_reference(bench, workload):
    """Two of the 24 recorded seeds of each train setting pass the
    benchmark's own check: finite losses, the engine peak equal to the
    profiler's, FP16 parameters on the grid, and the final loss and
    accuracy within tolerance of the recorded values."""
    workloads, _ = bench
    w = workloads.Train(workload, 0)
    w.setup()
    for setting in w.settings:
        for seed in (0, 12):
            s = workloads.train_settings(workload, setting, seed)
            assert w.check(setting, s, train.train_desk(w.graph, s)) is None, (setting, seed)


def test_tracer_targets_resolve(bench):
    """Each traced name exists where the tracer looks: a module function, or
    a method defined on the class itself."""
    _, tracer = bench
    for target in tracer.TARGETS:
        module = importlib.import_module(f"trainmem.{target.module}")
        cls_name, _, attr = target.attr.rpartition(".")
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        assert callable(owner.get(attr)), target
