"""Desk training runs: smoke behavior, determinism across strategies, DSR."""

import json

import numpy as np
import pytest

from trainmem.archfile import load_arch
from trainmem.builders import build_desk_cnn
from trainmem.errors import ConfigurationError
from trainmem.numerics import NumericFormat
from trainmem.plan import CheckpointStrategy
from trainmem.train import (TrainingDiverged, TrainSettings, make_synthetic_task, metrics_to_jsonl,
                            train_desk)

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


@pytest.mark.xfail(strict=True, reason="train_desk updates batchnorm running statistics "
                   "only when microbatch == minibatch")
def test_microbatched_training_updates_running_stats():
    # Eval accuracy reads the running statistics, so every batchnorm's must
    # move off its initial zero mean during training, microbatched or not.
    g = load_arch("desk-cnn")
    res = train_desk(g, TrainSettings(steps=5, minibatch=32, microbatch=8, log_every=5))
    means = {k: v for k, v in res.params.items() if k.endswith(".running_mean")}
    assert means
    for name, mean in means.items():
        assert np.any(mean != 0.0), name
