"""Desk-scale reverse-mode engine walking the compiled schedule.

`run_step` is the one step entry.  It takes the `Plan` the cost model
prices for the graph and checkpoint strategy and walks its events in one
loop per microbatch group, branching on the opcode: forward, store
statistics or payload, hold, recompute, backprop, drop.  Each node runs
through the kernels' two entries, `forward_op` and `backward_op`.  It
keeps its own value reference counts, so a schedule that frees a value
still needed raises `ContractError`.  Its peak byte counts and recompute
totals are `Plan.evaluate` on that same plan, so they equal the
profiler's predictions for the same configuration.  What no group's
examples change is done once per call: the instruction list, the inputs'
conversion, the precision context with its conv caches, and the pricing.

A step's gradients are views of one flat buffer, `StepResult.flat`,
laid out by the graph's `plan.param_layout`, as the optimizers' flat
parameters and buffers are.  Sequential
microbatching splits the minibatch into k groups, walks the schedule once
per group and accumulates the weighted gradients at the configured
accumulator width; one group (the default) is the k = 1 case, whose
walk's buffer is the result.  Joint mode (simulated microbatching)
normalizes each microbatch group independently; it is evaluated
group-wise with the accumulator forced to 32 bits, which is numerically
identical to running the groups jointly because examples only couple
through the per-group normalization statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, UnsupportedOperationError
from .graph import ComputationGraph
from .kernels import QuantCtx, backward_op, forward_op
from .numerics import NumericFormat
from .numerics import half_round  # noqa: F401  (bench/tracer.py wraps this name)
from .plan import (BACKPROP, CLEAR, DROP_HOLD, DROP_PAYLOAD, DROP_STATS, FORWARD, FORWARD_DONE,
                   HOLD, NONE, RECOMPUTE, STORE_PAYLOAD, STORE_STATS, CheckpointStrategy, Plan,
                   Sizing, graph_tables, param_layout, plan_for)


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

    def ctx(self, grids: dict | None = None) -> QuantCtx:
        return QuantCtx(self.precision, self.accumulator_width, grids)


@dataclass
class StepResult:
    loss: float
    flat: np.ndarray  # every parameter gradient, laid out by `param_layout(graph)`, in the carrier
    grads: dict[str, np.ndarray]  # views of `flat`
    peak_bytes: int
    peak_forward_bytes: int
    peak_backward_bytes: int
    recompute_events: int
    recompute_flops: int
    batch_stats: list[dict[str, tuple]]  # one dict per microbatch group


class _Step:
    """One step's forward/backward walks, one per microbatch group, over the
    plan's events as they are when the step starts.  The walk's own
    reference counts decide when a value is freed, so a schedule that drops
    a value it still needs fails here with a `ContractError` instead of
    computing with stale data.  Each walk assigns every parameter gradient
    to its entry of `param_grads`, views of a zeroed buffer."""

    def __init__(self, graph, params, masks, plan: Plan, ctx: QuantCtx, loss_scale, param_grads):
        self.g = graph
        self.t = t = graph_tables(graph)
        self.params = params
        self.masks = masks or {}
        self.payload = plan.payload
        self.events = plan.events.tolist()
        self.ctx = ctx
        self.loss_scale = loss_scale
        self.param_grads: dict[str, np.ndarray] = param_grads
        self.consumers = [len(c) for c in t.consumer_idx]

    def walk(self, batch: dict):
        """One group's walk: the events in order, branching on the opcode."""
        t, in_idx, maybe_drop = self.t, self.t.in_idx, self._maybe_drop
        self.batch, self.loss, self.batch_stats = batch, None, {}
        self.values = values = {}
        self.retain = retain = [0] * len(self.g.nodes)  # payloads and holds keeping a value
        self.fwd_pending = pending = list(self.consumers)  # forward reads still to come
        # by node: payloads (kept inputs, ReLU mask or None), statistics, gradients
        self.payloads, self.stats, self.grads = {}, {}, {}
        transients: list[int] = []
        fresh = None  # (node, statistics) the last forward produced, if new
        for op, i in self.events:
            if op == FORWARD:
                values[i], fresh = self._compute(i)
                if i == t.loss_idx:
                    self.loss = float(values[i])
            elif op == FORWARD_DONE:
                for j in in_idx[i]:
                    pending[j] -= 1
                    maybe_drop(j)
                maybe_drop(i)
            elif op == BACKPROP:
                self._backprop(i)
            elif op == CLEAR:
                for j in transients:
                    maybe_drop(j)
                transients.clear()
            elif op == STORE_PAYLOAD:
                sources = self.payload.sources[i]
                for j in sources:
                    retain[j] += 1
                mask = self._get(in_idx[i][0]) > 0 if self.payload.mask[i] else None
                self.payloads[i] = sources, mask
            elif op == DROP_PAYLOAD:
                for j in self.payloads.pop(i, ((),))[0]:
                    retain[j] -= 1
                    maybe_drop(j)
            elif op == STORE_STATS:
                if fresh is None or fresh[0] != i:
                    raise ContractError("no statistics produced for stats entry")
                self.stats[i] = self.batch_stats[self.g.nodes[i].node_id] = fresh[1]
            elif op == DROP_STATS:
                self.stats.pop(i, None)
            elif op == HOLD:
                self._get(i)  # must exist now
                retain[i] += 1
            elif op == RECOMPUTE:
                values[i], fresh = self._compute(i)
                transients.append(i)
            elif op == DROP_HOLD:
                retain[i] -= 1
                maybe_drop(i)
            else:
                raise ContractError(f"unknown schedule opcode {op}")

    # -- value table -------------------------------------------------------
    def _get(self, j: int) -> np.ndarray:
        v = self.values.get(j)
        if v is None:
            raise ContractError(
                f"value of '{self.g.nodes[j].node_id}' required but not stored"
            )
        return v

    def _maybe_drop(self, j: int):
        if self.retain[j] == 0 and self.fwd_pending[j] <= 0 and not self.t.is_input[j]:
            self.values.pop(j, None)

    def _compute(self, i: int) -> tuple[np.ndarray, tuple | None]:
        """Node i's output, and its statistics if they are new."""
        node = self.g.nodes[i]
        if node.op == "input":
            return self.batch.get(node.node_id), None  # None: absent and never read
        ins = [self._get(j) for j in self.t.in_idx[i]]
        out, stats = forward_op(node, ins, self.params, self.ctx, stats=self.stats.get(i))
        fresh = (i, stats) if stats is not None and i not in self.stats else None
        return out, fresh

    # -- backward -----------------------------------------------------------
    def _backprop(self, i: int):
        t = self.t
        node = self.g.nodes[i]
        upstream = self.grads.pop(i, None)
        if i == t.loss_idx:
            upstream, scale = None, self.loss_scale
        elif upstream is None:
            raise ContractError(f"no upstream gradient for '{node.node_id}'")
        else:
            scale = 1.0
        contributions, param_grads = backward_op(node, upstream, self._gather_values(i, node),
                                                 self.params, self.ctx, loss_scale=scale)
        for name, pg in param_grads.items():  # one node per parameter, one backprop per walk
            mask = self.masks.get(name)
            self.param_grads[name][...] = pg if mask is None else pg * mask
        # distribute activation gradients, mirroring the schedule's buffers
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

    def _gather_values(self, i, node) -> dict:
        """What node i's backward reads: its ReLU mask, its inputs and a
        norm's statistics, or for a node storing nothing, no value."""
        t = self.t
        if not t.storing[i]:
            if node.op == "reshape":
                return {"in_shape": self.g.out_shape[self.g.nodes[t.in_idx[i][0]].node_id]}
            return {}
        if node.op == "relu":
            mask = self.payloads.get(i, (None, None))[1]
            return {"mask": self._get(t.in_idx[i][0]) > 0 if mask is None else mask}
        values = {"x": self._get(t.in_idx[i][0])}
        if node.op == "softmax_xent":
            values["targets"] = self._get(t.in_idx[i][1])
        elif node.op in ("batchnorm", "layernorm"):
            if i not in self.stats:
                raise ContractError(f"missing cached statistics for '{node.node_id}'")
            values["stats"] = self.stats[i]
        return values


def prepare_inputs(graph: ComputationGraph, batch: dict, ctx: QuantCtx) -> dict[str, np.ndarray]:
    """The batch's graph inputs as int64 or carrier arrays, all of one
    length.  An input that some node reads must be in the batch; an absent
    one no node reads gets no value."""
    prepared = {}
    for node in graph.nodes:
        nid = node.node_id
        if node.op == "input" and nid in batch:
            arr = np.asarray(batch[nid])
            is_int = graph.out_dtype[nid] == "int"
            prepared[nid] = arr.astype(np.int64) if is_int else ctx.asarray(arr)
        elif node.op == "input" and graph.consumers[nid]:
            raise ConfigurationError(f"batch is missing input '{nid}'")
    if not prepared:
        raise ConfigurationError("batch supplies no graph inputs")
    lengths = {nid: len(v) for nid, v in prepared.items()}
    if len(set(lengths.values())) > 1:
        raise ConfigurationError("graph inputs differ in length: " + ", ".join(
            f"'{nid}' {n}" for nid, n in lengths.items()))
    return prepared


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
    microbatch: int | None = None,
) -> StepResult:
    """One forward/backward pass in groups of `microbatch` examples (default:
    one group of all): gradients in one flat buffer, laid out by the graph's
    `param_layout`, and the observed peak stored bytes.  Parameters are
    untouched (the optimizer steps after this).

    The inputs are converted and the plan sized and priced once per call:
    equal-size groups have equal peaks, held one at a time or, in joint
    mode, all at once.  One group's gradients are its walk's buffer as it
    is; more groups accumulate weighted gradients at the accumulator width.
    """
    if microbatch is not None and microbatch < 1:
        raise ConfigurationError(f"microbatch must be >= 1, got {microbatch}")
    require_executable(graph)
    ctx = config.ctx(graph_tables(graph).conv_grids)
    prepared = prepare_inputs(graph, batch, ctx)
    n = len(next(iter(prepared.values())))
    mb = n if microbatch is None else microbatch
    if n % mb:
        raise ConfigurationError("microbatch size must divide the minibatch size")
    groups = n // mb
    nnz = {name: int(m.sum()) for name, m in masks.items()} if masks else None
    plan = plan_for(graph, config.strategy)
    layout = param_layout(graph)
    flat = np.empty(layout.size, ctx.dtype)
    grads = layout.unpack(flat)
    step = _Step(graph, params, masks, plan, ctx, config.loss_scale, grads)
    acc, losses, batch_stats = None, [], []
    for gi in range(groups):
        flat.fill(0)  # a parameter the walk reaches no gradient for stays zero
        sl = slice(gi * mb, (gi + 1) * mb)
        step.walk({k: v[sl] for k, v in prepared.items()})
        losses.append(step.loss)
        batch_stats.append(step.batch_stats)
        if groups > 1:
            update = ctx.q(flat * (mb / n))
            acc = update if acc is None else ctx.accumulate(acc, update)
    loss = step.loss
    if groups > 1:
        loss, flat, grads = float(np.mean(losses)), acc, layout.unpack(acc)
    r = plan.evaluate(Sizing(graph, mb, config.precision, nnz))
    k = groups if config.exec_mode == "joint" else 1  # groups held at once
    return StepResult(loss=loss, flat=flat, grads=grads,
                      peak_bytes=k * r.peak_bytes, peak_forward_bytes=k * r.peak_forward_bytes,
                      peak_backward_bytes=k * r.peak_backward_bytes,
                      recompute_events=groups * r.recompute_events,
                      recompute_flops=groups * r.recompute_flops, batch_stats=batch_stats)


def run_microbatched(graph, params, batch, microbatch_size: int, config: EngineConfig,
                     masks=None) -> StepResult:
    """`run_step` in groups of `microbatch_size` examples."""
    return run_step(graph, params, batch, config, masks, microbatch=microbatch_size)


def init_params(
    graph: ComputationGraph,
    seed: int = 0,
    precision: NumericFormat = NumericFormat.FP32,
) -> dict[str, np.ndarray]:
    """He-style initialization at the requested precision, in its carrier:
    one array per `graph.all_params()` spec, in that order."""
    rng = np.random.default_rng(seed)
    ctx = QuantCtx(precision)
    params: dict[str, np.ndarray] = {}
    for spec in graph.all_params():
        if spec.kind == "norm":
            arr = np.ones(spec.shape) if spec.name.endswith(".gamma") else np.zeros(spec.shape)
        elif spec.kind == "bias":
            arr = np.zeros(spec.shape)
        else:
            fan_in = int(np.prod(spec.shape[1:])) or 1
            arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.shape)
        params[spec.name] = ctx.asarray(arr)
    return params

