"""Desk training runs: smoke behavior, determinism across strategies, DSR."""

import dataclasses
import hashlib
import inspect
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trainmem.archfile import load_arch
from trainmem.builders import build_desk_cnn, random_desk_graph
from trainmem.engine import EngineConfig, init_params, run_microbatched
from trainmem.errors import ConfigurationError
from trainmem.kernels import forward_op
from trainmem.numerics import NumericFormat, half_round
from trainmem.plan import CheckpointStrategy, param_layout
from trainmem.train import (TrainingDiverged, TrainSettings, forward_eval, make_synthetic_task,
                            metrics_to_jsonl, train_desk)

S = CheckpointStrategy.parse


def test_synthetic_task_deterministic():
    a = make_synthetic_task(64, 4, (3, 8, 8), seed=5)
    b = make_synthetic_task(64, 4, (3, 8, 8), seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert set(np.unique(a[1])) <= {0, 1, 2, 3}


def test_dense_training_reduces_loss():
    g = build_desk_cnn([6, 6], 4)
    res = train_desk(g, TrainSettings(steps=200, minibatch=16, lr=0.05, seed=2))
    assert res.metrics[-1]["loss"] < res.metrics[0]["loss"]
    assert res.final_accuracy > 0.5


def test_metrics_identical_across_strategies():
    # checkpointing is numerically invisible: same seed, byte-identical logs
    g = build_desk_cnn([6, 6], 4)
    runs = []
    for st in ("none", "residual_star:1"):
        settings = TrainSettings(steps=60, minibatch=16, lr=0.05, seed=9,
                                 strategy=S(st), log_every=15)
        runs.append(metrics_to_jsonl(train_desk(g, settings)))
    assert runs[0] == runs[1]


def test_dsr_run_keeps_budget_in_log():
    g = build_desk_cnn([8, 8], 4)
    settings = TrainSettings(steps=120, minibatch=16, lr=0.05, seed=4,
                             density=0.5, rewire_every=30, log_every=30)
    res = train_desk(g, settings)
    assert len(res.rewire_log) == 4
    budgets = set()
    for line in res.rewire_log:
        event = json.loads(line)
        budgets.add(sum(event["per_tensor_nnz"].values()))
    assert len(budgets) == 1  # total nonzeros constant across every rewire
    nnzs = {m["nnz"] for m in res.metrics}
    assert nnzs == budgets


def test_final_accuracy_reuses_last_logged_evaluation(monkeypatch):
    # steps 2 and 4 are logged, and step 5 as the last; the final accuracy
    # is that last evaluation, not a fourth forward pass
    from trainmem import train

    calls = []
    forward_eval = train.forward_eval

    def counting(*args, **kwargs):
        calls.append(1)
        return forward_eval(*args, **kwargs)

    monkeypatch.setattr(train, "forward_eval", counting)
    res = train_desk(build_desk_cnn([4, 4], 4),
                     TrainSettings(steps=5, minibatch=8, log_every=2, seed=2))
    assert len(calls) == 3
    assert [m["step"] for m in res.metrics] == [2, 4, 5]
    assert round(res.final_accuracy, 6) == res.metrics[-1]["accuracy"]


def _eval_case(graph, precision, seed, n=256, with_stats=True):
    """Parameters, running statistics off their initial values (or none) and
    an `n`-example task, for `forward_eval`."""
    rng = np.random.default_rng(seed)
    ctx = EngineConfig(precision=precision).ctx()
    stats = {}
    for node in graph.nodes:
        if node.op == "batchnorm" and with_stats:
            ch = node.p("channels")
            stats[f"{node.node_id}.running_mean"] = ctx.asarray(rng.normal(0.0, 0.5, ch))
            stats[f"{node.node_id}.running_var"] = ctx.asarray(rng.uniform(0.5, 2.0, ch))
    images, labels = make_synthetic_task(n, graph.node(graph.loss_id).p("classes"),
                                         graph.out_shape["img"], seed=seed)
    params = init_params(graph, seed=seed, precision=precision)
    return params, stats, {"img": images, "labels": labels}


def _one_group(monkeypatch, *args):
    """`forward_eval` with every example in one group."""
    from trainmem import train

    with monkeypatch.context() as m:
        m.setattr(train, "EVAL_GROUP", 1 << 30)
        return train.forward_eval(*args)


@pytest.mark.parametrize("graph", ["desk-cnn"] + list(range(8)))
def test_grouped_evaluation_matches_one_group_bit_for_bit(monkeypatch, graph):
    # in groups of 32, no group holds one example, whose linear product numpy
    # sends to gemv: 33, 65 and 257 examples fold their lone last example into
    # the group before it
    from trainmem.train import EVAL_GROUP

    assert EVAL_GROUP == 32  # the sizes below are chosen around it
    g = load_arch(graph) if graph == "desk-cnn" else random_desk_graph(graph)
    for precision in (NumericFormat.FP32, NumericFormat.FP16, NumericFormat.FP64):
        cfg = EngineConfig(precision=precision)
        params, stats, task = _eval_case(g, precision, seed=len(g.nodes), n=257)
        for n in (1, 2, 7, 32, 33, 65, 100, 255, 256, 257):
            batch = {k: v[:n] for k, v in task.items()}
            logits, loss = _one_group(monkeypatch, g, params, stats, batch, cfg)
            got, got_loss = forward_eval(g, params, stats, batch, cfg)
            assert got.dtype == logits.dtype and got.tobytes() == logits.tobytes(), (precision, n)
            assert got_loss == loss, (precision, n)


@pytest.mark.parametrize("precision", [NumericFormat.FP32, NumericFormat.FP16])
def test_norm_without_running_statistics_normalizes_by_its_group(monkeypatch, precision):
    # the engine's microbatching rule: grouped logits are each group's own
    # call, concatenated, and the loss is the loss of those logits
    g = load_arch("desk-cnn")
    cfg = EngineConfig(precision=precision)
    params, _, task = _eval_case(g, precision, seed=3, with_stats=False)
    for starts in (range(0, 257, 32), (0, 32, 65)):
        batch = {k: v[:starts[-1]] for k, v in task.items()}
        logits, loss = forward_eval(g, params, {}, batch, cfg)
        alone = [forward_eval(g, params, {}, {k: v[a:b] for k, v in batch.items()}, cfg)[0]
                 for a, b in zip(starts, starts[1:])]
        assert np.concatenate(alone).tobytes() == logits.tobytes()
        whole, _ = _one_group(monkeypatch, g, params, {}, batch, cfg)
        assert logits.tobytes() != whole.tobytes()  # the statistics are the group's
        labels = batch["labels"].astype(np.int64)
        want, _ = forward_op(g.node(g.loss_id), [logits, labels], params, cfg.ctx())
        assert loss == float(want)


@pytest.mark.parametrize("precision", [NumericFormat.FP32, NumericFormat.FP16])
def test_grouped_evaluation_frees_values_after_their_last_reader(monkeypatch, precision):
    # desk-cnn over the 256-example task in groups of 32 holds one group's
    # live values at a time: 1.5 MB traced, against about 10 MB for one group
    from trainmem import train

    g = load_arch("desk-cnn")
    cfg = EngineConfig(precision=precision)
    params, stats, batch = _eval_case(g, precision, seed=0)
    train.forward_eval(g, params, stats, batch, cfg)  # conv geometry, cached per graph

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train.forward_eval(g, params, stats, batch, cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak() < 2 << 20
    kept = []

    def keeping(*args, **kwargs):  # the guard catches a walk that frees nothing
        kept.append(forward_op(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(train, "forward_op", keeping)
    assert peak() > 2 << 20


@pytest.mark.parametrize("steps", [0, -4])
def test_steps_must_be_positive(steps):
    with pytest.raises(ConfigurationError, match="steps must be >= 1"):
        TrainSettings(steps=steps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("precision,step", [(NumericFormat.FP32, 6), (NumericFormat.FP64, 33)])
def test_non_fp16_divergence_stops_at_the_first_non_finite_loss(precision, step):
    # no loss scaler can recover a non-finite loss outside FP16
    seen = []
    settings = TrainSettings(steps=50, minibatch=8, lr=1e6, precision=precision, log_every=50)
    with pytest.raises(TrainingDiverged, match=f"non-finite loss at step {step} in {precision.name}"):
        train_desk(build_desk_cnn([4, 4], 4), settings, lambda i, grads: seen.append(i))
    assert seen == list(range(1, step))


def test_fp16_training_runs_with_scaling():
    g = build_desk_cnn([4, 4], 4)
    settings = TrainSettings(steps=40, minibatch=8, lr=0.02, seed=1,
                             precision=NumericFormat.FP16, log_every=10)
    res = train_desk(g, settings)
    assert res.scale_trace, "loss scaling should be active in FP16"
    assert all(np.isfinite(m["loss"]) for m in res.metrics)


def test_microbatched_training_runs():
    g = build_desk_cnn([4, 4], 4)
    settings = TrainSettings(steps=30, minibatch=16, microbatch=4, lr=0.05, seed=3,
                             log_every=10)
    res = train_desk(g, settings)
    assert res.metrics[-1]["loss"] < 3.0


@pytest.mark.parametrize("optimizer", ["sgd_nesterov", "adam"])
@pytest.mark.parametrize("precision", [NumericFormat.FP32, NumericFormat.FP16])
def test_running_statistics_are_kept_apart_from_parameters(monkeypatch, optimizer, precision):
    # params, the optimizer state and the running statistics: the first two
    # hold exactly the graph's parameters, laid end to end in one flat array
    # apiece, the last one mean and one variance per batchnorm, moved by
    # training and, in FP16, on the grid
    from trainmem import train

    calls = []

    def recording(fn):
        def wrapped(w, g, state, *args, **kwargs):
            calls.append((w, g, state))
            return fn(w, g, state, *args, **kwargs)
        return wrapped

    for name in ("sgd_nesterov_step", "adam_step", "fp16_update_path"):
        monkeypatch.setattr(train, name, recording(getattr(train, name)))
    g = build_desk_cnn([4, 4], 4)
    res = train_desk(g, TrainSettings(steps=3, minibatch=8, optimizer=optimizer,
                                      precision=precision, log_every=3))
    assert list(res.params) == [s.name for s in g.all_params()]
    assert [p.shape for p in res.params.values()] == [s.shape for s in g.all_params()]
    size = sum(p.size for p in res.params.values())
    assert len(calls) == 3
    for w, grads, state in calls:
        assert w.shape == grads.shape == (size,)
        assert all(np.shares_memory(p, w) for p in res.params.values())
        assert len(state.buffers()) == (2 if optimizer == "adam" else 1)
        assert all(buf.shape == w.shape for buf in state.buffers())
    norms = [node.node_id for node in g.nodes if node.op == "batchnorm"]
    assert list(res.running_stats) == [f"{nid}.running_{key}" for nid in norms
                                       for key in ("mean", "var")]
    for name, v in res.running_stats.items():
        start = 0.0 if name.endswith("mean") else 1.0
        assert np.any(v != start), name
        if precision is NumericFormat.FP16:
            assert np.array_equal(half_round(v), v), name


@pytest.mark.parametrize("optimizer", ["sgd_nesterov", "adam"])
@pytest.mark.parametrize("precision", [NumericFormat.FP32, NumericFormat.FP16])
def test_sparse_training_keeps_state_on_the_final_masks(monkeypatch, optimizer, precision):
    # every masked tensor and each of its optimizer buffers is zero outside
    # its final mask; the masks are views of the one bool buffer every
    # update gets as `keep`; no layout is built once the first step is done
    from trainmem import numerics, train

    calls, builds, seen = [], [], [0]

    def recording(fn):
        def wrapped(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            calls.append((bound["state"], bound["keep"]))
            return fn(*args, **kwargs)
        return wrapped

    def counting(init):
        def wrapped(self, *args, **kwargs):
            builds.append(seen[0])
            init(self, *args, **kwargs)
        return wrapped

    def hook(step, grads):
        seen[0] = step

    for name in ("sgd_nesterov_step", "adam_step", "fp16_update_path"):
        monkeypatch.setattr(train, name, recording(getattr(train, name)))
    monkeypatch.setattr(numerics.FlatLayout, "__init__", counting(numerics.FlatLayout.__init__))
    g = load_arch("desk-cnn")
    res = train_desk(g, TrainSettings(steps=12, minibatch=16, lr=0.01, optimizer=optimizer,
                                      precision=precision, density=0.5, rewire_every=5,
                                      log_every=12), on_after_backward=hook)
    assert len(res.rewire_log) == 2 and res.steps_skipped == 0
    assert builds and set(builds) == {0}
    state, keep = calls[-1]
    assert len(calls) == 12 and all(st is state and k is keep for st, k in calls)
    assert keep.dtype == bool and keep.shape == (sum(p.size for p in res.params.values()),)
    assert res.masks and all(m.base is keep for m in res.masks.values())
    bufs = [param_layout(g).unpack(buf) for buf in state.buffers()]
    for name, mask in res.masks.items():
        assert 0 < mask.sum() < mask.size
        for tensor in [res.params[name], *(buf[name] for buf in bufs)]:
            assert tensor.shape == mask.shape and not np.any(tensor[~mask]), name
        assert np.any(res.params[name][mask]), name


@pytest.mark.xfail(strict=True, reason="train_desk updates batchnorm running statistics "
                   "only when microbatch == minibatch")
def test_microbatched_training_updates_running_stats():
    # Eval accuracy reads the running statistics, so every batchnorm's must
    # move off its initial zero mean during training, microbatched or not.
    g = load_arch("desk-cnn")
    res = train_desk(g, TrainSettings(steps=5, minibatch=32, microbatch=8, log_every=5))
    means = {k: v for k, v in res.running_stats.items() if k.endswith(".running_mean")}
    assert means
    for name, mean in means.items():
        assert np.any(mean != 0.0), name


# SHA-256 digests of short training runs and of microbatched engine calls,
# pinned in TRAIN_DIGEST: a change to the engine, kernels or optimizer that
# moves any bit of their results changes a digest.
TRAIN_DIGEST = Path(__file__).parent / "data" / "train_digest.json"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
DIGEST_STEPS = 12
DIGEST_SEEDS = (0, 5)
# engine configurations of the microbatched cases, by name
DIGEST_ENGINES = {
    "fp32": dict(precision=NumericFormat.FP32),
    "fp16-acc16": dict(precision=NumericFormat.FP16, accumulator_width=16),
    "fp16-acc32": dict(precision=NumericFormat.FP16),
    "fp16-joint": dict(precision=NumericFormat.FP16, exec_mode="joint"),
    "fp64": dict(precision=NumericFormat.FP64),
}
DIGEST_STRATEGIES = ("none", "every:2", "residual_star:1")
# benchmark train settings also run under Adam: (workload, setting)
DIGEST_ADAM = (("train-fp32", "dense-none"), ("train-fp32", "d0.5-rewire50-every2"),
               ("train-fp16", "mb8-none"), ("train-fp16", "mb8-d0.5-rewire50"))
ADAM_LR = 0.005


def _digest(*parts) -> str:
    """SHA-256 over parts: arrays by dtype, shape and bytes, dicts by sorted
    key, everything else by its JSON text."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(json.dumps(x, sort_keys=True).encode())

    for part in parts:
        feed(part)
    return h.hexdigest()


def _bench_train_settings():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workloads.TRAIN_SETTINGS, workloads.train_settings


def _train_digest(r) -> str:
    return _digest({**r.params, **r.running_stats}, r.metrics, r.scale_trace, r.rewire_log,
                   r.peak_activation_bytes, r.steps_skipped)


def train_digests() -> dict[str, str]:
    """One digest per case: the benchmark's six train settings x two seeds,
    FP16 with one group per step x two seeds and four of the settings under
    Adam x two seeds (final parameters, logged metrics, scale trace, rewire
    log and peak), and `run_microbatched` on random desk graphs (gradients,
    loss, peaks and recompute totals).  A training case hashes its final
    parameters and running statistics as one dict."""
    digests = {}
    settings, make = _bench_train_settings()
    g = load_arch("desk-cnn")

    def short(workload, name, seed):
        s = make(workload, name, seed, steps=DIGEST_STEPS)
        # logged every 4 steps, and rewired every 5 where the setting rewires
        return dataclasses.replace(s, log_every=4, rewire_every=min(s.rewire_every, 5))

    for workload, names in settings.items():
        for name in names:
            for seed in DIGEST_SEEDS:
                r = train_desk(g, short(workload, name, seed))
                digests[f"train {workload} {name} seed {seed}"] = _train_digest(r)
    for seed in DIGEST_SEEDS:  # FP16 without microbatching, which no bench setting runs
        s = make("train-fp16", "mb8-none", seed, steps=DIGEST_STEPS)
        s = dataclasses.replace(s, microbatch=s.minibatch, log_every=4)
        digests[f"train fp16 mb{s.minibatch} seed {seed}"] = _train_digest(train_desk(g, s))
    for workload, name in DIGEST_ADAM:
        for seed in DIGEST_SEEDS:
            s = dataclasses.replace(short(workload, name, seed), optimizer="adam", lr=ADAM_LR)
            digests[f"train adam {workload} {name} seed {seed}"] = _train_digest(train_desk(g, s))
    for seed in range(6):
        g = random_desk_graph(seed)
        rng = np.random.default_rng(seed)
        batch = {"img": rng.normal(size=(8,) + g.out_shape["img"]),
                 "labels": rng.integers(0, g.node("loss").p("classes"), 8)}
        strategy = S(DIGEST_STRATEGIES[seed % len(DIGEST_STRATEGIES)])
        for engine, kw in DIGEST_ENGINES.items():
            params = init_params(g, seed=seed, precision=kw["precision"])
            masks = None
            if seed % 2:
                masks = {"b1_conv1.weight": rng.random(params["b1_conv1.weight"].shape) < 0.5}
            for mb in (8, 2):
                cfg = EngineConfig(strategy=strategy, loss_scale=8.0, **kw)
                r = run_microbatched(g, params, batch, mb, cfg, masks=masks)
                digests[f"microbatched graph {seed} {engine} mb {mb}"] = _digest(
                    r.grads, r.loss, r.peak_bytes, r.peak_forward_bytes,
                    r.peak_backward_bytes, r.recompute_events, r.recompute_flops)
    return digests


def test_training_and_microbatched_numerics_match_recorded_digests():
    """Bit identity of training and microbatched gradients against
    TRAIN_DIGEST.  Regenerate it (`PYTHONPATH=src python3
    tests/test_train.py`) only for a change meant to move the numerics, and
    say in the change which results moved and why."""
    expected = json.loads(TRAIN_DIGEST.read_text(encoding="utf-8"))
    got = train_digests()
    assert list(got) == list(expected)
    moved = [case for case in got if got[case] != expected[case]]
    assert moved == []


if __name__ == "__main__":
    digests = train_digests()
    TRAIN_DIGEST.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {TRAIN_DIGEST}")
