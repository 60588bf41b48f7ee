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

from .engine import EngineConfig, init_params, prepare_inputs, require_executable, run_step
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
from .plan import NONE, CheckpointStrategy, graph_tables, param_layout
from .profiler import OPTIMIZER_VALUE_ARRAYS
from .rewire import DSRState, init_sparse_pattern, rewire, rewire_due

TASK_SIZE = 256  # examples in the synthetic task
EVAL_GROUP = 32  # examples per group in `forward_eval`


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


def forward_eval(graph: ComputationGraph, params, running_stats, batch, config: EngineConfig):
    """Forward-only pass; returns (logit array, loss).  A norm node with a
    "<node>.running_mean" and "<node>.running_var" in `running_stats`
    normalizes by them, any other by its own group's statistics.  The examples
    walk in groups of `EVAL_GROUP`, each value freed after its last reader.
    No group holds one example unless the batch does (numpy's one-row product
    rounds differently): a lone last example joins the group before it.  The
    loss runs once, on the groups' inputs."""
    t = graph_tables(graph)
    ctx = config.ctx(t.conv_grids)
    prepared = {graph.index[k]: v for k, v in prepare_inputs(graph, batch, ctx).items()}
    n = len(next(iter(prepared.values())))
    # the groups' starts after the first
    cuts = list(range(EVAL_GROUP, n - (n % EVAL_GROUP == 1), EVAL_GROUP))
    stats = {}
    for i, node in enumerate(graph.nodes):
        rm = running_stats.get(f"{node.node_id}.running_mean")
        if rm is not None:
            rv = np.asarray(running_stats[f"{node.node_id}.running_var"], dtype=ctx.dtype)
            stats[i] = (np.asarray(rm, dtype=ctx.dtype), 1.0 / np.sqrt(rv + NORM_EPS))
    parts = []
    for sl in map(slice, [0] + cuts, cuts + [n]):
        values = {i: v[sl] for i, v in prepared.items()}
        pending = [len(c) for c in t.consumer_idx]  # the loss never reads here: its inputs stay
        for i, node in enumerate(graph.nodes):
            if t.is_input[i] or i == t.loss_idx:
                continue
            ins = [values[j] for j in t.in_idx[i]]
            values[i], _ = forward_op(node, ins, params, ctx, stats=stats.get(i))
            for j in t.in_idx[i]:
                pending[j] -= 1
                if pending[j] == 0:
                    del values[j]
        parts.append([values[j] for j in t.in_idx[t.loss_idx]])
    loss_inputs = [np.concatenate(group) for group in zip(*parts)]
    loss, _ = forward_op(graph.node(graph.loss_id), loss_inputs, params, ctx)
    return loss_inputs[0], float(loss)


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
    params: dict  # one array per `graph.all_params()` spec, in that order: views of one buffer
    running_stats: dict  # batchnorm inference state, which no optimizer steps
    masks: dict  # bool, views of one buffer laid out as the parameters
    steps_skipped: int = 0


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
    softmax_xent loss; deterministic given the seed.  `on_after_backward(step,
    grads)` may change `grads` in place: they are views of the step's flat
    buffer, which the FP16 overflow check, unscaling and the optimizer read.

    The parameters, each optimizer buffer and the sparsity mask are one flat
    array apiece, laid out by the graph's `param_layout`; `params`, the DSR
    masks and `TrainResult`'s dicts are views of them, so the optimizer and
    rewiring update them in place.  The batchnorm running statistics live
    apart, in `TrainResult.running_stats`; in FP16 they are rounded to
    binary16 on each step the optimizer applies.  Each logged step evaluates
    the task in one `forward_eval`, in groups of `EVAL_GROUP`."""
    loss = check_trainable(graph)
    input_shape = graph.out_shape["img"]
    images, labels = make_synthetic_task(
        TASK_SIZE, loss.p("classes"), input_shape, seed=1234 + settings.seed
    )
    rng = np.random.default_rng(settings.seed)
    fp16 = settings.precision is NumericFormat.FP16
    layout = param_layout(graph)
    w = layout.pack(init_params(graph, seed=settings.seed, precision=settings.precision))
    params = layout.unpack(w)

    masks = keep = None
    dsr_state: DSRState | None = None
    if settings.density < 1.0:
        dsr_state = init_sparse_pattern(graph, settings.density, settings.seed)
        keep = dsr_state.share(layout)
        masks = dsr_state.masks
        w *= keep

    state = (SGDState if settings.optimizer == "sgd_nesterov" else AdamState).init(w)

    scaler = LossScaler()
    engine_cfg = EngineConfig(
        precision=settings.precision,
        accumulator_width=settings.accumulator_width,
        exec_mode=settings.exec_mode,
        strategy=settings.strategy,
    )
    eval_cfg = EngineConfig(precision=settings.precision)
    dtype = eval_cfg.ctx().dtype
    initial = {f"{node.node_id}.running_{key}": np.full(node.p("channels"), value, dtype)
               for node in graph.nodes if node.op == "batchnorm"
               for key, value in (("mean", 0.0), ("var", 1.0))}
    stats_layout = FlatLayout(initial)
    stats_flat = stats_layout.pack(initial, dtype)  # every statistic, updated in place
    running_stats = stats_layout.unpack(stats_flat)

    metrics: list[dict] = []
    rewire_log: list[str] = []
    scale_trace: list[float] = []
    peak_bytes = 0
    skipped = 0

    for step in range(1, settings.steps + 1):
        idx = rng.choice(images.shape[0], size=settings.minibatch, replace=False)
        batch = {"img": images[idx], "labels": labels[idx]}
        engine_cfg.loss_scale = scaler.scale if fp16 else 1.0
        res = run_step(graph, params, batch, engine_cfg, masks=masks,
                       microbatch=settings.microbatch)
        if len(res.batch_stats) == 1:  # a known defect: microbatched runs keep the initial ones
            _update_running_stats(graph, running_stats, res.batch_stats[0])
        if not fp16 and not np.isfinite(res.loss):
            raise TrainingDiverged(f"non-finite loss at step {step} in {settings.precision.name}")
        peak_bytes = max(peak_bytes, res.peak_bytes)
        if on_after_backward is not None:
            on_after_backward(step, res.grads)
        g = res.flat  # with the hook's in-place changes: `res.grads` are its views
        skip = False
        if fp16:
            scaler, skip = loss_scale_update(scaler, grads_nonfinite(g))
            scale_trace.append(scaler.scale)
            if not skip and engine_cfg.loss_scale != 1.0:
                g = half_round(g * (1.0 / engine_cfg.loss_scale))
        if skip:
            skipped += 1
            if not np.isfinite(res.loss) and scaler.scale <= scaler.min_scale:
                raise TrainingDiverged(
                    f"non-finite loss at step {step} with scale at minimum"
                )
        else:
            if fp16:
                fp16_update_path(w, g, state, settings.lr, layout, keep)
                stats_flat[...] = half_round(stats_flat)  # onto the grid with the parameters
            elif settings.optimizer == "sgd_nesterov":
                sgd_nesterov_step(w, g, state, settings.lr, keep)
            else:
                adam_step(w, g, state, settings.lr, keep=keep)

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

        if step % settings.log_every == 0 or step == settings.steps:
            logits, _ = forward_eval(graph, params, running_stats,
                                     {"img": images, "labels": labels}, eval_cfg)
            acc = float((logits.argmax(axis=1) == labels).mean())
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
        running_stats=running_stats,
        masks=masks or {},
        steps_skipped=skipped,
    )


def _update_running_stats(graph, running_stats, batch_stats: dict, momentum: float = 0.1):
    """(1 - momentum) * running + momentum * batch, into the running arrays."""
    for nid, (mean, inv) in batch_stats.items():
        if graph.node(nid).op == "batchnorm":
            for name, batch in ((f"{nid}.running_mean", mean),
                                (f"{nid}.running_var", 1.0 / np.square(inv) - NORM_EPS)):
                running = running_stats[name]
                running *= 1 - momentum
                running += momentum * batch


def metrics_to_jsonl(result: TrainResult) -> str:
    lines = [json.dumps(m, sort_keys=True) for m in result.metrics]
    return "\n".join(lines) + "\n"
