"""Byte and FLOP identity of the replay against a recorded fixture.

`tests/data/replay_golden.json` holds the replay results (peak split,
end-of-forward bytes, FLOP totals, recompute events) for random desk graphs
under every checkpoint strategy, batch, precision and density below, plus
`run_step` peaks for a subset, plus one SHA-256 per (graph, strategy) of the
compiled schedule itself (the `Plan` arrays and keep flags), so a refactor
of the lowering that moves no price but changes the schedule still fails.
Regenerate it only when a change to the accounting is intended:

    PYTHONPATH=src python3 tests/test_replay_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from trainmem.builders import build_dc_transformer_cost, build_wrn, random_desk_graph
from trainmem.engine import EngineConfig, init_params, run_step
from trainmem.errors import ConfigurationError
from trainmem.numerics import NumericFormat
from trainmem.plan import CheckpointStrategy, Sizing, plan_for, replay
from trainmem.profiler import param_nnz

FIXTURE = Path(__file__).resolve().parent / "data" / "replay_golden.json"

STRATEGIES = ("none", "no_bn", "every:2", "every:4", "residual:1", "residual:2",
              "residual_star:1", "residual_star:2")
SEEDS = range(16)
BATCHES = (1, 3, 8)
FORMATS = ("fp32", "fp16")
DENSITIES = (1.0, 0.5)
STEP_SEEDS = range(4)  # run_step subset: batch 3, every strategy and format
STEP_BATCH = 3


def _graphs():
    return {seed: random_desk_graph(seed) for seed in SEEDS}


def replay_cases() -> dict[str, list[int]]:
    """Case key -> [peak, peak forward, peak backward, end of forward,
    forward, backward, recompute FLOPs, recompute events]."""
    out = {}
    for seed, g in _graphs().items():
        for st in STRATEGIES:
            strategy = CheckpointStrategy.parse(st)
            for batch in BATCHES:
                for fmt in FORMATS:
                    for density in DENSITIES:
                        nnz = param_nnz(g, {"conv": density} if density < 1.0 else {})
                        sizing = Sizing(g, batch, NumericFormat.parse(fmt), nnz)
                        key = f"{seed}|{st}|{batch}|{fmt}|{density:g}"
                        try:
                            r = replay(g, strategy, sizing)
                        except ConfigurationError:
                            continue
                        out[key] = [r.peak_bytes, r.peak_forward_bytes,
                                    r.peak_backward_bytes, r.end_forward_bytes,
                                    r.forward_flops, r.backward_flops,
                                    r.recompute_flops, r.recompute_events]
    return out


def step_cases() -> dict[str, list[int]]:
    """Case key -> `run_step`'s [peak, peak forward, peak backward,
    recompute events, recompute FLOPs]; odd seeds train with random masks."""
    out = {}
    for seed in STEP_SEEDS:
        g = random_desk_graph(seed)
        rng = np.random.default_rng(seed)
        batch = {"img": rng.normal(size=(STEP_BATCH,) + g.out_shape["img"]),
                 "labels": rng.integers(0, g.node("loss").p("classes"), size=STEP_BATCH)}
        for fmt in FORMATS:
            precision = NumericFormat.parse(fmt)
            params = init_params(g, seed=seed, precision=precision)
            masks = None
            if seed % 2:
                masks = {s.name: (rng.random(s.shape) < 0.5).astype(params[s.name].dtype)
                         for s in g.all_params() if s.sparse}
            for st in STRATEGIES:
                cfg = EngineConfig(precision=precision, strategy=CheckpointStrategy.parse(st))
                try:
                    r = run_step(g, params, batch, cfg, masks)
                except ConfigurationError:
                    continue
                out[f"{seed}|{st}|{fmt}"] = [r.peak_bytes, r.peak_forward_bytes,
                                             r.peak_backward_bytes, r.recompute_events,
                                             r.recompute_flops]
    return out


PLAN_ARRAYS = ("events", "delta_idx", "stored_sign", "grad_sign", "samples",
               "recompute_count", "backprop")


def schedule_cases() -> dict[str, str | None]:
    """Case key -> SHA-256 of the compiled plan's arrays, scalars and keep
    flags, or None where the strategy does not apply to the graph."""
    graphs = {str(seed): g for seed, g in _graphs().items()}
    graphs["wrn-28-2"] = build_wrn(28, 2, 10)
    graphs["dc-t"] = build_dc_transformer_cost()
    out = {}
    for name, g in graphs.items():
        for st in STRATEGIES:
            try:
                plan = plan_for(g, CheckpointStrategy.parse(st))
            except ConfigurationError:
                out[f"{name}|{st}"] = None
                continue
            h = hashlib.sha256()
            for attr in PLAN_ARRAYS:
                arr = np.ascontiguousarray(getattr(plan, attr), dtype=np.int64)
                h.update(f"{attr}{arr.shape}".encode())
                h.update(arr.tobytes())
            h.update(json.dumps([plan.end_forward, plan.recompute_events, plan.trimmed,
                                 [int(k) for k in plan.keep]]).encode())
            out[f"{name}|{st}"] = h.hexdigest()
    return out


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_replay_matches_fixture():
    expected = _fixture()["replay"]
    got = replay_cases()
    assert len(got) == len(expected) > 1000
    bad = [k for k in expected if got.get(k) != expected[k]]
    assert bad == [], bad[:10]


def test_run_step_matches_fixture():
    expected = _fixture()["run_step"]
    got = step_cases()
    assert got == expected


def test_schedules_match_fixture():
    expected = _fixture()["schedule"]
    got = schedule_cases()
    assert len(got) == len(expected) == 18 * len(STRATEGIES)
    bad = [k for k in expected if got.get(k) != expected[k]]
    assert bad == [], bad[:10]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {"replay": replay_cases(), "run_step": step_cases(),
            "schedule": schedule_cases()}
    parts = [f"{json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(cases.items())) + "\n}"
        for name, cases in data.items()]  # one case per line, for readable diffs
    FIXTURE.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(data['replay'])} replay, {len(data['run_step'])} run_step and "
          f"{len(data['schedule'])} schedule cases")
