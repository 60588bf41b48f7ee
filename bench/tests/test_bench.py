"""Tests of the benchmark itself: tracing changes no result, traced counts
repeat exactly, wrappers are restored, and the checks catch wrong outputs.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import run
import tracer as tracer_mod
import trainmem
import workloads
from tracer import LAYER_METRICS, Tracer
from trainmem import archfile, train
from workloads import Tally, make_workload, train_settings

ROOT = Path(__file__).resolve().parents[2]
COUNT_UNITS = ("count", "ratio", "fraction")


def _train_trace(graph, workload: str, setting: str, steps: int):
    """Losses and per-step gradient copies of one short training call."""
    grads = []
    result = train.train_desk(
        graph, train_settings(workload, setting, seed=3, steps=steps),
        on_after_backward=lambda step, g: grads.append({k: v.copy() for k, v in g.items()}))
    return [m["loss"] for m in result.metrics], grads, result.params


@pytest.mark.parametrize("workload,setting", [
    ("train-fp32", "dense-none"),
    ("train-fp32", "mb8-rstar1"),
    ("train-fp16", "mb8-d0.5-rewire50"),
])
def test_tracing_leaves_training_bit_identical(workload, setting):
    graph = archfile.load_arch("desk-cnn")
    plain = _train_trace(graph, workload, setting, steps=4)
    with Tracer() as t:
        traced = _train_trace(graph, workload, setting, steps=4)
    assert t.totals["train.train_desk"][0] == 1
    assert plain[0] == traced[0]
    assert len(plain[1]) == len(traced[1]) == 4
    for a, b in zip(plain[1], traced[1]):
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k], equal_nan=True), k
    for k in plain[2]:
        assert np.array_equal(plain[2][k], traced[2][k]), k


def _module_state():
    state = {}
    for name, mod in sys.modules.items():
        if name == "trainmem" or name.startswith("trainmem."):
            for attr, value in vars(mod).items():
                state[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for k, v in vars(value).items():
                        state[(name, attr, k)] = v
    return state


def test_wrappers_installed_on_every_binding_and_restored():
    before = _module_state()
    from trainmem import engine, kernels, numerics, optim

    originals = {"half_round": numerics.half_round, "forward_op": kernels.forward_op}
    with pytest.raises(KeyError):
        with Tracer():
            for mod in (numerics, kernels, engine, optim, train, trainmem):
                assert mod.half_round is not originals["half_round"]
                assert mod.half_round.__wrapped__ is originals["half_round"]
            for mod in (kernels, engine, train):
                assert mod.forward_op.__wrapped__ is originals["forward_op"]
            raise KeyError("leave the context by an exception")
    after = _module_state()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_every_target_is_wrapped():
    with Tracer():
        for target in tracer_mod.TARGETS:
            owner = sys.modules[f"trainmem.{target.module}"]
            for part in target.attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), target


def _traced_counts(name: str, max_ops: int, workdir: Path) -> dict:
    wl = make_workload(name, seed=5, workdir=workdir)
    try:
        wl.setup()
        tally = Tally(probed=False)
        with Tracer() as t:
            run.run_ops(wl, tally, max_ops=max_ops)
    finally:
        wl.close()
    assert tally.failed == 0, tally.problems
    units = dict(LAYER_METRICS)
    return {k: v for k, v in t.layer_metrics().items() if units[k] in COUNT_UNITS}


@pytest.mark.parametrize("name,max_ops", [
    ("cost-sweep", 3), ("profile-cold", 30), ("train-fp32", 1), ("train-fp16", 1),
])
def test_traced_counts_repeat_exactly(name, max_ops, tmp_path):
    first = _traced_counts(name, max_ops, tmp_path / "first")
    second = _traced_counts(name, max_ops, tmp_path / "second")
    assert first == second
    busy = [k for k, v in first.items() if k.endswith((".calls", ".builds")) and v]
    assert busy, "the traced run recorded no calls"
    if name == "train-fp16":
        assert first["numerics.half_round.calls"] > 0
        assert 0 < first["numerics.half_round.subnormal_frac"] < 0.01
    else:
        assert first["numerics.half_round.calls"] == 0
    if name == "cost-sweep":
        assert first["archfile.parse_arch.calls"] == 0
        assert first["plan.Plan.builds"] == 0
        assert first["profiler.replays_per_report"] == 2.0


def test_self_times_and_bookkeeping_cover_the_wall_time():
    graph = archfile.load_arch("desk-cnn")
    with Tracer() as t:
        t0 = perf_counter()
        _train_trace(graph, "train-fp32", "mb8-rstar1", steps=2)
        wall = perf_counter() - t0
    assert t.totals["train.train_desk"][0] == 1
    assert all(self_s >= 0.0 for _, self_s in t.self_times().values())
    covered = sum(self_s for _, self_s in t.self_times().values()) + t.bookkeeping_s
    assert 0.99 * wall < covered <= wall


def test_traced_run_does_not_probe(tmp_path, monkeypatch):
    """A probe inside train_desk would count as its self time."""
    probes = []

    def counting_probe():
        probes.append(1)
        return 1.0

    monkeypatch.setattr(workloads, "probe", counting_probe)
    wl = make_workload("train-fp32", seed=1, workdir=tmp_path)
    wl.setup()
    metrics, traced, untraced = run.traced_run(wl, seconds=1)
    assert probes == []
    assert traced.failed == untraced.failed == 0, traced.problems
    run.run_ops(wl, Tally(), max_ops=1)
    assert len(probes) > workloads.STEPS_PER_CALL  # a probed tally does probe


def test_traced_run_reports_every_layer_metric(tmp_path):
    wl = make_workload("profile-cold", seed=2, workdir=tmp_path)
    try:
        wl.setup()
        metrics, traced, untraced = run.traced_run(wl, seconds=0.2)
    finally:
        wl.close()
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    assert traced.attempted == untraced.attempted == 8
    assert metrics["cli.main.calls"] == 8
    assert metrics["trace.unattributed_ms"] >= metrics["trace.bookkeeping_ms"] > 0
    assert traced.failed == untraced.failed == 0, traced.problems


def test_checks_catch_wrong_outputs(tmp_path):
    wl = make_workload("profile-cold", seed=2, workdir=tmp_path)
    try:
        wl.setup()
        wl.ref = {k: v.replace("1", "2") for k, v in wl.ref.items()}
        tally = Tally()
        run.run_ops(wl, tally, max_ops=5)
    finally:
        wl.close()
    assert tally.failed == 5

    t = make_workload("train-fp32", seed=0, workdir=None)
    t.setup()
    t.peak = {k: v + 1 for k, v in t.peak.items()}
    tally = Tally()
    run.run_ops(t, tally, max_ops=1)
    assert tally.failed == tally.attempted > 0
    assert "engine peak" in tally.problems[0]

    # a final loss off by 2% of the cross-seed spread fails the per-seed check
    t = make_workload("train-fp32", seed=0, workdir=None)
    t.setup()
    setting, seed = next(t.operations())
    losses = t.ref[setting]["final_loss"]
    losses[seed] += 0.02 * (max(losses) - min(losses))
    tally = Tally()
    run.run_ops(t, tally, max_ops=1)
    assert tally.failed == tally.attempted > 0
    assert "final loss" in tally.problems[0]


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_output(capsys):
    assert run.main(["--workload", "profile-cold", "--seed", "4", "--seconds", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "machine" in json.loads(lines[0])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cost-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
