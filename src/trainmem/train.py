"""Desk-scale training demonstrations on a bundled synthetic task.

The task is a deterministic classification problem: each class has a
random template image and samples are noisy copies.  Runs exercise the
full technique stack (sparsity with rewiring, FP16 with dynamic loss
scaling, microbatching, checkpointing) and emit machine-readable metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .engine import (EngineConfig, init_params, prepare_inputs, require_executable,
                     run_microbatched, run_step)
from .errors import ConfigurationError, TrainmemError, UnsupportedOperationError
from .graph import ComputationGraph
from .kernels import NORM_EPS, forward_op
from .numerics import FlatLayout, NumericFormat, half_round
from .optim import (
    LossScaler,
    SGDState,
    AdamState,
    adam_step,
    fp16_update_path,
    grads_nonfinite,
    loss_scale_update,
    sgd_nesterov_step,
)
from .plan import NONE, CheckpointStrategy
from .profiler import OPTIMIZER_VALUE_ARRAYS
from .rewire import DSRState, init_sparse_pattern, rewire, rewire_due

TASK_SIZE = 256  # examples in the synthetic task


class TrainingDiverged(TrainmemError):
    """Loss went non-finite: at once in FP32/FP64, at minimum loss scale in FP16."""


def make_synthetic_task(
    n: int = TASK_SIZE,
    classes: int = 4,
    input_shape: tuple[int, int, int] = (3, 8, 8),
    noise: float = 0.35,
    seed: int = 1234,
):
    """Noisy class-template images; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    templates = rng.normal(0.0, 1.0, size=(classes,) + input_shape)
    labels = rng.integers(0, classes, size=n)
    images = templates[labels] + rng.normal(0.0, noise, size=(n,) + input_shape)
    return images, labels


def forward_eval(graph: ComputationGraph, params, batch, config: EngineConfig):
    """Forward-only pass; returns (logit array, loss).  Norm nodes use the
    running statistics kept in the parameter store."""
    ctx = config.ctx()
    values = prepare_inputs(graph, batch, ctx)
    logits_src = graph.node(graph.loss_id).inputs[0]
    logits = None
    for node in graph.nodes:
        if node.op == "input":
            continue
        stats = None
        if node.op in ("batchnorm", "layernorm"):
            rm = params.get(f"{node.node_id}.running_mean")
            rv = params.get(f"{node.node_id}.running_var")
            if rm is not None and rv is not None:
                stats = (np.asarray(rm, dtype=ctx.dtype),
                         1.0 / np.sqrt(np.asarray(rv, dtype=ctx.dtype) + NORM_EPS))
        ins = [values[i] for i in node.inputs]
        out, _ = forward_op(node, ins, params, ctx, stats=stats)
        values[node.node_id] = out
        if node.node_id == logits_src:
            logits = out
    return logits, float(values[graph.loss_id])


@dataclass
class TrainSettings:
    steps: int = 200
    minibatch: int = 32
    microbatch: int | None = None
    lr: float = 0.05
    density: float = 1.0
    precision: NumericFormat = NumericFormat.FP32
    strategy: CheckpointStrategy = NONE
    optimizer: str = "sgd_nesterov"
    exec_mode: str = "sequential"
    accumulator_width: int = 32
    seed: int = 0
    rewire_every: int = 0  # 0 = use the DSR schedule; >0 = fixed period
    log_every: int = 20

    def __post_init__(self):
        if self.microbatch is None:
            self.microbatch = self.minibatch
        for key in ("steps", "minibatch", "microbatch", "log_every"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        for key in ("seed", "rewire_every"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"{key} must be >= 0")
        if self.minibatch > TASK_SIZE:
            raise ConfigurationError(f"minibatch {self.minibatch} exceeds task_size {TASK_SIZE}")
        if self.minibatch % self.microbatch:
            raise ConfigurationError("microbatch must divide minibatch")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr:g}")
        if not 0.0 < self.density <= 1.0:
            raise ConfigurationError("density must be in (0, 1]")
        if self.optimizer not in OPTIMIZER_VALUE_ARRAYS:
            raise ConfigurationError(f"unknown optimizer '{self.optimizer}'")


@dataclass
class TrainResult:
    metrics: list[dict]
    rewire_log: list[str]
    scale_trace: list[float]
    final_accuracy: float
    peak_activation_bytes: int
    params: dict
    masks: dict
    steps_skipped: int = 0


def _accuracy(graph, params, images, labels, config) -> float:
    logits, _ = forward_eval(graph, params, {"img": images, "labels": labels}, config)
    return float((logits.argmax(axis=1) == labels).mean())


def check_trainable(graph: ComputationGraph):
    """The loss node of a graph `train_desk` can train; any other raises."""
    require_executable(graph)
    if "img" not in graph.index:
        raise UnsupportedOperationError(f"graph '{graph.name}' has no 'img' input to train on")
    loss = graph.node(graph.loss_id)
    if loss.op != "softmax_xent":
        raise UnsupportedOperationError(
            f"graph '{graph.name}' has loss '{loss.node_id}' ({loss.op}); "
            "training needs a softmax_xent loss")
    return loss


def train_desk(
    graph: ComputationGraph,
    settings: TrainSettings,
    on_after_backward=None,
) -> TrainResult:
    """Train on the synthetic task, with as many classes as the graph's
    softmax_xent loss; deterministic given the seed."""
    loss = check_trainable(graph)
    input_shape = graph.out_shape["img"]
    images, labels = make_synthetic_task(
        TASK_SIZE, loss.p("classes"), input_shape, seed=1234 + settings.seed
    )
    rng = np.random.default_rng(settings.seed)
    fp16 = settings.precision is NumericFormat.FP16
    params = init_params(graph, seed=settings.seed, precision=settings.precision)

    masks = None
    dsr_state: DSRState | None = None
    if settings.density < 1.0:
        dsr_state = init_sparse_pattern(graph, settings.density, settings.seed)
        masks = dsr_state.masks
        for name, mask in masks.items():
            params[name] = params[name] * mask

    if settings.optimizer == "sgd_nesterov":
        state = SGDState.init(params)
    else:
        state = AdamState.init(params)

    scaler = LossScaler()
    engine_cfg = EngineConfig(
        precision=settings.precision,
        accumulator_width=settings.accumulator_width,
        exec_mode=settings.exec_mode,
        strategy=settings.strategy,
    )
    eval_cfg = EngineConfig(precision=settings.precision)

    metrics: list[dict] = []
    rewire_log: list[str] = []
    scale_trace: list[float] = []
    peak_bytes = 0
    skipped = 0

    for step in range(1, settings.steps + 1):
        idx = rng.choice(images.shape[0], size=settings.minibatch, replace=False)
        batch = {"img": images[idx], "labels": labels[idx]}
        engine_cfg.loss_scale = scaler.scale if fp16 else 1.0
        if settings.microbatch == settings.minibatch:
            res = run_step(graph, params, batch, engine_cfg, masks=masks)
            _update_running_stats(graph, params, res.batch_stats)
        else:
            res = run_microbatched(graph, params, batch, settings.microbatch,
                                   engine_cfg, masks=masks)
        if not fp16 and not np.isfinite(res.loss):
            raise TrainingDiverged(f"non-finite loss at step {step} in {settings.precision.name}")
        peak_bytes = max(peak_bytes, res.peak_bytes)
        grads = res.grads
        if on_after_backward is not None:
            on_after_backward(step, grads)
        skip = False
        if fp16:
            layout = FlatLayout(grads)
            flat = layout.pack(grads)
            scaler, skip = loss_scale_update(scaler, grads_nonfinite(flat))
            scale_trace.append(scaler.scale)
            if not skip and engine_cfg.loss_scale != 1.0:
                grads = layout.unpack(half_round(flat * (1.0 / engine_cfg.loss_scale)))
        if skip:
            skipped += 1
            if not np.isfinite(res.loss) and scaler.scale <= scaler.min_scale:
                raise TrainingDiverged(
                    f"non-finite loss at step {step} with scale at minimum"
                )
        else:
            if fp16:
                fp16_update_path(params, grads, state, settings.lr, masks=masks)
            elif settings.optimizer == "sgd_nesterov":
                sgd_nesterov_step(params, grads, state, settings.lr, masks=masks)
            else:
                adam_step(params, grads, state, settings.lr, masks=masks)

        # rewiring clock advances on skipped steps too
        if dsr_state is not None:
            due = (
                step % settings.rewire_every == 0
                if settings.rewire_every
                else rewire_due(step)
            )
            if due:
                event = rewire(params, state, dsr_state,
                               seed=settings.seed * 100003 + step, update_index=step)
                rewire_log.append(event.to_json())
                masks = dsr_state.masks

        if step % settings.log_every == 0 or step == settings.steps:
            acc = _accuracy(graph, params, images, labels, eval_cfg)
            metrics.append({
                "step": step,
                "loss": round(float(res.loss), 10),
                "accuracy": round(acc, 6),
                "nnz": dsr_state.nnz() if dsr_state else None,
                "loss_scale": scaler.scale if fp16 else None,
            })

    return TrainResult(
        metrics=metrics,
        rewire_log=rewire_log,
        scale_trace=scale_trace,
        final_accuracy=acc,  # logged at the last step
        peak_activation_bytes=peak_bytes,
        params=params,
        masks=masks or {},
        steps_skipped=skipped,
    )


def _update_running_stats(graph, params, batch_stats: dict, momentum: float = 0.1):
    for nid, (mean, inv) in batch_stats.items():
        if graph.node(nid).op != "batchnorm":
            continue
        var = 1.0 / np.square(inv) - NORM_EPS
        rm = params[f"{nid}.running_mean"]
        rv = params[f"{nid}.running_var"]
        params[f"{nid}.running_mean"] = (1 - momentum) * rm + momentum * mean
        params[f"{nid}.running_var"] = (1 - momentum) * rv + momentum * var


def metrics_to_jsonl(result: TrainResult) -> str:
    lines = [json.dumps(m, sort_keys=True) for m in result.metrics]
    return "\n".join(lines) + "\n"
