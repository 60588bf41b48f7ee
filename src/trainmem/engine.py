"""Desk-scale reverse-mode engine executing the compiled schedule.

`run_step` performs one forward/backward pass under a checkpoint strategy,
storing only what the strategy mandates and recomputing the rest during
backpropagation, exactly as the static cost model schedules it.  The
returned peak byte counts and recompute totals therefore equal the
profiler's predictions for the same configuration.

Sequential microbatching runs each microbatch through `run_step` and
accumulates weighted gradients at the configured accumulator width.  Joint
mode (simulated microbatching) normalizes each microbatch group
independently; it is evaluated group-wise with the accumulator forced to
32 bits, which is numerically identical to running the groups jointly
because examples only couple through the per-group normalization
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, UnsupportedOperationError
from .graph import ComputationGraph
from .kernels import QuantCtx, backward_op, forward_op
from .numerics import NumericFormat, half_round
from .plan import NONE, CheckpointStrategy, Plan, Sizing, graph_tables, replay


@dataclass
class EngineConfig:
    precision: NumericFormat = NumericFormat.FP32
    accumulator_width: int = 32  # cross-example reductions; 16 models true FP16 microbatching
    exec_mode: str = "sequential"  # sequential | joint
    strategy: CheckpointStrategy = NONE
    loss_scale: float = 1.0

    def __post_init__(self):
        if self.accumulator_width not in (16, 32):
            raise ConfigurationError("accumulator_width must be 16 or 32")
        if self.exec_mode not in ("sequential", "joint"):
            raise ConfigurationError("exec_mode must be 'sequential' or 'joint'")
        if self.exec_mode == "joint":
            self.accumulator_width = 32

    def ctx(self) -> QuantCtx:
        return QuantCtx(self.precision, self.accumulator_width)


@dataclass
class StepResult:
    loss: float
    grads: dict[str, np.ndarray]
    peak_bytes: int
    peak_forward_bytes: int
    peak_backward_bytes: int
    recompute_events: int
    recompute_flops: int
    batch_stats: dict[str, tuple] = field(default_factory=dict)


class _Executor:
    """The methods the schedule's events call, doing the real tensor math."""

    def __init__(self, graph, params, masks, batch, config: EngineConfig):
        self.g = graph
        self.params = params
        self.masks = masks or {}
        self.batch = batch
        self.config = config
        self.ctx = config.ctx()
        self.loss = None
        self.param_grads: dict[str, np.ndarray] = {}
        self.batch_stats: dict[str, tuple] = {}

    # -- lifecycle ---------------------------------------------------------
    def begin(self, plan: Plan, sizing: Sizing):
        self.plan = plan
        t = graph_tables(self.g)
        self.t = t
        n = len(self.g.nodes)
        self.values: dict[int, np.ndarray] = {}
        self.retain = [0] * n
        self.fwd_pending = [len(t.consumer_idx[i]) for i in range(n)]
        self.payloads: dict[int, dict] = {}
        self.stats: dict[int, tuple] = {}
        self.grads: dict[int, np.ndarray] = {}
        self.transients: list[int] = []
        self.forward_phase = True

    def finish(self):
        self.values.clear()

    # -- value table -------------------------------------------------------
    def _get(self, j: int) -> np.ndarray:
        v = self.values.get(j)
        if v is None:
            raise ContractError(
                f"value of '{self.g.nodes[j].node_id}' required but not stored"
            )
        return v

    def _maybe_drop(self, j: int):
        if (
            self.retain[j] == 0
            and (not self.forward_phase or self.fwd_pending[j] <= 0)
            and not self.t.is_input[j]
            and j in self.values
        ):
            del self.values[j]

    def _compute(self, i: int) -> np.ndarray:
        node = self.g.nodes[i]
        if node.op == "input":
            try:
                return self.batch[node.node_id]
            except KeyError:
                raise ContractError(f"batch is missing input '{node.node_id}'") from None
        ins = [self._get(j) for j in self.t.in_idx[i]]
        out, stats = forward_op(node, ins, self.params, self.ctx,
                                stats=self.stats.get(i))
        if stats is not None and i not in self.stats:
            self._fresh_stats = (i, stats)
        return out

    # -- event methods -------------------------------------------------------
    def forward(self, i: int):
        self._fresh_stats = None
        out = self._compute(i)
        self.values[i] = out
        if i == self.g.index[self.g.loss_id]:
            self.loss = float(out)

    def forward_done(self, i: int):
        for j in self.t.in_idx[i]:
            self.fwd_pending[j] -= 1
            self._maybe_drop(j)
        if self.fwd_pending[i] <= 0:
            self._maybe_drop(i)

    def store_stats(self, i: int):
        if self._fresh_stats is None or self._fresh_stats[0] != i:
            raise ContractError("no statistics produced for stats entry")
        self.stats[i] = self._fresh_stats[1]
        self.batch_stats[self.g.nodes[i].node_id] = self._fresh_stats[1]

    def drop_stats(self, i: int):
        self.stats.pop(i, None)

    def store_payload(self, i: int):
        node = self.g.nodes[i]
        payload: dict = {}
        if node.op == "relu":
            if not (self.plan.trimmed and node.node_id in self.plan.excluded):
                payload["mask"] = self._get(self.t.in_idx[i][0]) > 0
        else:
            kept = []
            for j in self.t.in_idx[i]:
                if self.t.is_input[j]:
                    continue
                if self.plan.trimmed and self.t.excluded_idx[j]:
                    continue
                self.retain[j] += 1
                kept.append(j)
            payload["inputs"] = kept
        self.payloads[i] = payload

    def drop_payload(self, i: int):
        payload = self.payloads.pop(i, None)
        if payload and "inputs" in payload:
            for j in payload["inputs"]:
                self.retain[j] -= 1
                self._maybe_drop(j)

    def add_hold(self, i: int):
        self._get(i)  # must exist now
        self.retain[i] += 1

    def drop_hold(self, i: int):
        self.retain[i] -= 1
        self._maybe_drop(i)

    def recompute(self, i: int):
        self._fresh_stats = None
        self.values[i] = self._compute(i)
        self.transients.append(i)

    def clear_transients(self):
        for j in self.transients:
            self._maybe_drop(j)
        self.transients.clear()

    # -- backward -----------------------------------------------------------
    def backprop(self, i: int):
        g = self.g
        t = self.t
        node = g.nodes[i]
        loss_idx = g.index[g.loss_id]
        upstream = self.grads.pop(i, None)
        if i == loss_idx:
            upstream = None
        elif upstream is None:
            raise ContractError(f"no upstream gradient for '{node.node_id}'")

        if not t.storing[i]:  # storage class NOTHING: no forward values needed
            contributions = self._pass_like_backward(i, node, upstream)
            param_grads = {}
        else:
            values = self._gather_values(i, node)
            scale = self.config.loss_scale if i == loss_idx else 1.0
            contributions, param_grads = backward_op(
                node, upstream, values, self.params, self.ctx, loss_scale=scale
            )
        for name, pg in param_grads.items():
            mask = self.masks.get(name)
            if mask is not None:
                pg = pg * mask
            if name in self.param_grads:
                self.param_grads[name] += pg
            else:
                self.param_grads[name] = pg
        # distribute activation gradients, mirroring the replay's buffers
        pass_through = t.pass_through[i]
        for pos, j in enumerate(t.in_idx[i]):
            if t.is_input[j] or not t.in_backward[j]:
                continue
            contrib = contributions[pos]
            if contrib is None:
                continue
            if j in self.grads:
                self.grads[j] = self.grads[j] + contrib
            elif pass_through and t.contribs[j] == 1 and upstream is not None:
                self.grads[j] = contrib  # aliased view of the upstream buffer
            else:
                self.grads[j] = contrib.copy() if contrib is upstream else contrib

    def _pass_like_backward(self, i, node, upstream):
        t = self.t
        if node.op == "add":
            return [upstream, upstream]
        if node.op == "reshape":
            j = t.in_idx[i][0]
            shape = (upstream.shape[0],) + self.g.out_shape[self.g.nodes[j].node_id]
            return [upstream.reshape(shape)]
        if node.op == "transpose":
            perm = (0,) + tuple(p + 1 for p in node.p("perm"))
            return [upstream.transpose(np.argsort(perm))]
        grads, _ = backward_op(node, upstream, {}, self.params, self.ctx)
        return grads

    def _gather_values(self, i, node) -> dict:
        t = self.t
        payload = self.payloads.get(i)
        values: dict = {}
        if node.op == "relu":
            if payload is not None and "mask" in payload:
                values["mask"] = payload["mask"]
            else:
                values["mask"] = self._get(t.in_idx[i][0]) > 0
            return values
        if node.op == "softmax_xent":
            values["x"] = self._get(t.in_idx[i][0])
            values["targets"] = self._get(t.in_idx[i][1])
            return values
        values["x"] = self._get(t.in_idx[i][0])
        if node.op in ("batchnorm", "layernorm"):
            if i not in self.stats:
                raise ContractError(f"missing cached statistics for '{node.node_id}'")
            values["stats"] = self.stats[i]
        return values


def _infer_batch(graph: ComputationGraph, batch: dict) -> int:
    for node in graph.nodes:
        if node.op == "input" and node.node_id in batch:
            return int(np.asarray(batch[node.node_id]).shape[0])
    raise ConfigurationError("batch supplies no graph inputs")


def require_executable(graph: ComputationGraph):
    """Reject graphs with cost-model-only nodes (dynamic_conv_cost and the
    fused-projection softmax_xent)."""
    for node in graph.nodes:
        if node.op == "dynamic_conv_cost" or (node.op == "softmax_xent" and node.p("d_in")):
            raise UnsupportedOperationError(
                f"graph '{graph.name}' contains cost-model-only nodes"
            )


def run_step(
    graph: ComputationGraph,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    config: EngineConfig,
    masks: dict[str, np.ndarray] | None = None,
) -> StepResult:
    """One forward/backward pass; gradients plus observed peak stored bytes."""
    require_executable(graph)
    ctx = config.ctx()
    prepared = {}
    for node in graph.nodes:
        if node.op == "input":
            if node.node_id not in batch:
                if graph.consumers[node.node_id]:
                    raise ConfigurationError(f"batch is missing input '{node.node_id}'")
                continue
            arr = np.asarray(batch[node.node_id])
            if graph.out_dtype[node.node_id] == "int":
                prepared[node.node_id] = arr.astype(np.int64)
            else:
                prepared[node.node_id] = ctx.asarray(arr)
    b = _infer_batch(graph, prepared)
    nnz = None
    if masks:
        nnz = {name: int(m.sum()) for name, m in masks.items()}
    sizing = Sizing(graph, b, config.precision, nnz)
    executor = _Executor(graph, params, masks, prepared, config)
    result = replay(graph, config.strategy, sizing, executor=executor)
    grads = executor.param_grads
    for name in params:
        if name not in grads and not name.endswith(("running_mean", "running_var")):
            grads.setdefault(name, np.zeros_like(params[name]))
    return StepResult(
        loss=executor.loss,
        grads=grads,
        peak_bytes=result.peak_bytes,
        peak_forward_bytes=result.peak_forward_bytes,
        peak_backward_bytes=result.peak_backward_bytes,
        recompute_events=result.recompute_events,
        recompute_flops=result.recompute_flops,
        batch_stats=executor.batch_stats,
    )


def run_microbatched(
    graph: ComputationGraph,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    microbatch_size: int,
    config: EngineConfig,
    masks: dict[str, np.ndarray] | None = None,
) -> StepResult:
    """Split the minibatch into microbatches and accumulate weighted
    gradients; parameters are untouched (the optimizer steps after this).

    Sequential mode accumulates at the configured accumulator width; joint
    mode (simulated microbatching) forces a 32-bit accumulator and differs
    from sequential only in that width.
    """
    n = _infer_batch(graph, batch)
    if n % microbatch_size != 0:
        raise ConfigurationError("microbatch size must divide the minibatch size")
    groups = n // microbatch_size
    if groups == 1:
        return run_step(graph, params, batch, config, masks)
    ctx = config.ctx()
    weight = microbatch_size / n
    acc: dict[str, np.ndarray] = {}
    losses = []
    stats = {}
    peaks = []
    rec_events = 0
    rec_flops = 0
    for gi in range(groups):
        sl = slice(gi * microbatch_size, (gi + 1) * microbatch_size)
        sub = {k: v[sl] for k, v in batch.items()}
        step = run_step(graph, params, sub, config, masks)
        losses.append(step.loss)
        stats[gi] = step.batch_stats
        peaks.append((step.peak_bytes, step.peak_forward_bytes, step.peak_backward_bytes))
        rec_events += step.recompute_events
        rec_flops += step.recompute_flops
        for name, gr in step.grads.items():
            update = ctx.q(gr * np.asarray(weight, dtype=gr.dtype)) if ctx.fp16 else gr * weight
            if name in acc:
                acc[name] = ctx.accumulate(acc[name], update)
            else:
                acc[name] = update
    loss = float(np.mean(losses))
    if config.exec_mode == "joint":
        # simulated microbatching holds every group at once
        peak = tuple(sum(axis) for axis in zip(*peaks))
    else:
        peak = max(peaks)
    return StepResult(loss=loss, grads=acc, peak_bytes=peak[0],
                      peak_forward_bytes=peak[1], peak_backward_bytes=peak[2],
                      recompute_events=rec_events, recompute_flops=rec_flops,
                      batch_stats={"groups": stats})


def init_params(
    graph: ComputationGraph,
    seed: int = 0,
    precision: NumericFormat = NumericFormat.FP32,
) -> dict[str, np.ndarray]:
    """He-style initialization at the requested precision."""
    rng = np.random.default_rng(seed)
    dtype = np.float32 if precision is NumericFormat.FP32 else np.float64
    params: dict[str, np.ndarray] = {}
    for node in graph.nodes:
        for spec in graph.params_of(node):
            if spec.kind == "norm":
                arr = np.ones(spec.shape) if spec.name.endswith(".gamma") else np.zeros(spec.shape)
            elif spec.kind == "bias":
                arr = np.zeros(spec.shape)
            else:
                fan_in = int(np.prod(spec.shape[1:])) or 1
                arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.shape)
            arr = arr.astype(dtype)
            if precision is NumericFormat.FP16:
                arr = half_round(arr.astype(np.float64))
            params[spec.name] = arr
        if node.op == "batchnorm":
            c = node.p("channels")
            params[f"{node.node_id}.running_mean"] = np.zeros(c, dtype=dtype)
            params[f"{node.node_id}.running_var"] = np.ones(c, dtype=dtype)
    return params

