"""Checkpoint strategies and the one compiled forward/backward schedule.

`Plan` compiles the schedule once per (graph, strategy): a symbolic run of
one training step records a flat event list (forward, store statistics or
payload, hold, recompute, backprop, drop).  What is stored, recomputed or
dropped never depends on tensor sizes, and every byte and FLOP count is
linear in the batch, so one list serves every configuration.
`Plan.evaluate` (and `replay`, which looks the plan up first) prices it
as vectors: a `Sizing` holds a configuration's sizes, the plan's byte
deltas gather them, a cumulative sum gives the stored and gradient bytes
at each sample point, and the first maximum is the peak; FLOPs are dot
products.  The engine walks the same events doing the real tensor math,
so the schedule it runs is the schedule priced here.

`Plan.__init__` is the one place a strategy kind is lowered: into keep
flags, the trim variant, recompute segments with their holds and
triggers, and the exits held from the forward pass or at a block's
backward.  `_Compiler` turns that into events without reading the
strategy.  What a stored payload holds is stated once, in
`_PayloadTable`: `Sizing` prices it and the engine stores it.

Accounting conventions (matching the node storage classes):
  - Each storing node owns a payload entry holding its input tensors plus
    any per-node aux quantities; entries are counted per node, so a tensor
    stored by two consumers is charged twice (a per-operation sum).
    Tensors that are network inputs are pinned once for the whole step and
    charged zero inside payload entries.
  - Norm layers always keep their batch statistics from the forward pass;
    re-running a norm therefore costs the cheap cached rate.
  - A gradient buffer is live from its first contribution until the node
    producing its tensor has been backpropagated; pass-through nodes
    (add/reshape/transpose) alias their upstream buffer when the target
    tensor has a single consumer.  Byte counts are sampled at step
    boundaries, so transient in/out coexistence inside one kernel is not
    charged (temporary workspace is excluded throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graph import (
    BITMASK_INPUT,
    CACHED_STATS,
    FULL_INPUT,
    NOTHING,
    STORAGE_CLASS,
    ComputationGraph,
    Node,
)
from .numerics import NumericFormat
from .sparse import csr_dims

PASS_THROUGH_OPS = ("add", "reshape", "transpose")


@dataclass(frozen=True)
class CheckpointStrategy:
    kind: str  # none | every | no_bn | residual | residual_star
    m: int = 1

    def __post_init__(self):
        if self.kind not in ("none", "every", "no_bn", "residual", "residual_star"):
            raise ConfigurationError(f"unknown checkpoint strategy '{self.kind}'")
        if self.m < 1:
            raise ConfigurationError("checkpoint period m must be >= 1")

    @staticmethod
    def parse(text: str) -> "CheckpointStrategy":
        text = text.strip()
        if ":" in text:
            kind, m = text.split(":", 1)
            try:
                return CheckpointStrategy(kind.strip(), int(m))
            except ValueError:
                raise ConfigurationError(f"strategy '{text}': period must be an integer") from None
        return CheckpointStrategy(text)

    def __str__(self):
        if self.kind in ("every", "residual", "residual_star"):
            return f"{self.kind}:{self.m}"
        return self.kind


NONE = CheckpointStrategy("none")


# ---------------------------------------------------------------------------
# Strategy structure


def checkpoint_nodes(graph: ComputationGraph, strategy: CheckpointStrategy) -> set[str]:
    """Nodes whose stored payload is retained through the forward pass."""
    keep = plan_for(graph, strategy).keep
    return {n.node_id for n, k in zip(graph.nodes, keep) if k}


def checkpointed_exits(graph: ComputationGraph, strategy: CheckpointStrategy) -> list[str]:
    """Block-exit node ids retained under a residual strategy, in order."""
    spans = graph_tables(graph).spans
    return [graph.nodes[hi].node_id for k, (lo, hi) in enumerate(spans, start=1)
            if k % strategy.m == 0]


# ---------------------------------------------------------------------------
# Derived tables


class _GraphTables:
    """Strategy-independent tables derived from one graph (per-example sizes
    and FLOPs as int64 vectors), plus the graph's `Plan`s keyed by strategy."""

    def __init__(self, g: ComputationGraph):
        self.plans: dict[CheckpointStrategy, Plan] = {}
        n = len(g.nodes)
        index = g.index
        ops = [nd.op for nd in g.nodes]
        classes = [STORAGE_CLASS[op] for op in ops]
        self.is_input = [op == "input" for op in ops]
        self.in_idx = [tuple(index[s] for s in nd.inputs) for nd in g.nodes]
        self.consumer_idx = [
            tuple(index[c] for c in g.consumers[nd.node_id]) for nd in g.nodes
        ]
        self.full_or_stats = [c in (FULL_INPUT, CACHED_STATS) for c in classes]
        self.storing = [c != NOTHING for c in classes]
        self.bitmask = [c == BITMASK_INPUT for c in classes]
        self.pass_through = [op in PASS_THROUGH_OPS for op in ops]
        norm = [c == CACHED_STATS for c in classes]
        self.is_norm = np.array(norm)
        # tensors trimming never stores: norm outputs and the outputs of
        # ReLUs fed directly by a norm
        self.excluded_idx = [norm[i] or (self.bitmask[i] and norm[self.in_idx[i][0]])
                             for i in range(n)]
        self.spans = sorted((index[e], index[x]) for e, x in g.residual_blocks)
        # tensor indices the backward kernel reads when the node's payload is
        # missing; a stored payload covers the rest (see `_PayloadTable.needs`)
        self.needs_without_payload = [
            () if not self.storing[i]
            else self.in_idx[i] if self.bitmask[i]
            else tuple(j for j in self.in_idx[i] if not self.is_input[j])
            for i in range(n)
        ]
        # ancestors of the loss (plus the loss itself)
        self.in_backward = [False] * n
        stack = [index[g.loss_id]]
        while stack:
            i = stack.pop()
            if self.in_backward[i]:
                continue
            self.in_backward[i] = True
            for j in self.in_idx[i]:
                stack.append(j)
        # gradient contribution counts per tensor
        self.contribs = [0] * n
        for i in range(n):
            if not self.in_backward[i] or self.is_input[i]:
                continue
            for j in self.in_idx[i]:
                if self.in_backward[j] and not self.is_input[j]:
                    self.contribs[j] += 1

        # per-example sizes and FLOPs; `Sizing` scales them by the batch
        self.elems = _vec([g.out_elements(nd.node_id) for nd in g.nodes])
        self.out_int = np.array([g.out_dtype[nd.node_id] == "int" for nd in g.nodes])
        self.loss_idx = index[g.loss_id]
        self.pinned = _vec([i for i, nd in enumerate(g.nodes)
                           if self.is_input[i] and g.consumers[nd.node_id]])
        self.stats_fixed = _vec([2 * nd.p("channels") * 4 if nd.op == "batchnorm" else 0
                                for nd in g.nodes])
        self.stats_per_example = _vec([2 * 4 if op == "layernorm" else 0 for op in ops])
        self.dense_fwd = _vec([g.forward_flops(nd) for nd in g.nodes])
        self.norm_cached = _vec([g.cached_recompute_flops(nd) if self.is_norm[i] else 0
                                for i, nd in enumerate(g.nodes)])
        self.bwd_factor = _vec([g.backward_factor(nd) for nd in g.nodes])
        # weight tensor name -> (node, forward FLOPs per example per nonzero);
        # the FLOP model is linear in the nonzero count
        self.weight_of: dict[str, tuple[int, int]] = {}
        for i, nd in enumerate(g.nodes):
            if nd.op in ("conv2d", "linear"):
                name = g.params_of(nd)[0].name
                self.weight_of[name] = (i, g.forward_flops(nd, {name: 1}))
        # parameter elements: batchnorm parameters (which FP16 keeps at
        # FP32) and all others, plus each sparse-eligible tensor by name:
        # (group, numel, CSR rows, CSR cols, is a batchnorm parameter)
        self.norm_param_numel = self.other_param_numel = 0
        self.sparse_params: dict[str, tuple[str | None, int, int, int, bool]] = {}
        for nd in g.nodes:
            norm = nd.op == "batchnorm"
            for spec in g.params_of(nd):
                if norm:
                    self.norm_param_numel += spec.numel
                else:
                    self.other_param_numel += spec.numel
                if spec.sparse:
                    self.sparse_params[spec.name] = (spec.group, spec.numel,
                                                     *csr_dims(spec.shape), norm)
        # payload aux quantities per example: elements at the activation
        # width, and bytes independent of it
        self.aux_per_elem = _vec([_aux_elements(g, nd) for nd in g.nodes])
        self.aux_fixed = _vec([2 * 4 if nd.op == "softmax_xent" and nd.p("d_in") else 0
                              for nd in g.nodes])  # log-normalizer + target log-prob
        # A generous bound per example on any running byte sum of a
        # schedule: each tensor at 8 bytes per element, counted twice as a
        # hold, twice as a gradient and once in every consumer's payload,
        # plus aux quantities and statistics.
        self.byte_bound = sum(
            8 * (int(e) * (4 + len(c)) + int(a)) + int(f) + int(s0) + int(s1)
            for e, c, a, f, s0, s1 in zip(self.elems, self.consumer_idx, self.aux_per_elem,
                                           self.aux_fixed, self.stats_fixed,
                                           self.stats_per_example))
        self._payload: dict[bool, _PayloadTable] = {}

    def payload_table(self, trimmed: bool) -> _PayloadTable:
        """The payload sources under one trim variant, built on first use."""
        table = self._payload.get(trimmed)
        if table is None:
            table = self._payload[trimmed] = _PayloadTable(self, trimmed)
        return table


def _vec(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ConfigurationError("graph sizes exceed the 64-bit accounting range") from None


def _aux_elements(g: ComputationGraph, node: Node) -> int:
    """Per-example aux elements a dynamic convolution stores with its inputs."""
    if node.op != "dynamic_conv_cost":
        return 0
    heads = node.p("heads")
    span = node.p("span")
    if node.p("mix", "conv") == "conv":
        k = node.p("kernel")
        d = math.prod(g.out_shape[node.node_id])
        return heads * k + heads * span + k * (d // heads)
    return 2 * heads * span


def graph_tables(g: ComputationGraph) -> _GraphTables:
    """The graph's derived tables, built on first use and kept in its one
    cache slot."""
    if g._tables is None:
        g._tables = _GraphTables(g)
    return g._tables


def plan_for(graph: ComputationGraph, strategy: CheckpointStrategy) -> Plan:
    """The graph's cached `Plan` for a strategy."""
    plans = graph_tables(graph).plans
    plan = plans.get(strategy)
    if plan is None:
        plan = plans[strategy] = Plan(graph, strategy)
    return plan


# ---------------------------------------------------------------------------
# Sizing


class _PayloadTable:
    """What every node's stored payload holds under one trim variant: the
    input tensors it keeps (`sources`), and whether it keeps a ReLU bitmask
    of its input instead (`mask`).  The cost model prices these and the
    engine stores them.  Network inputs among the sources are pinned once
    for the whole step, so pricing charges them zero."""

    def __init__(self, t: _GraphTables, trimmed: bool):
        n = len(t.storing)
        dropped = t.excluded_idx if trimmed else [False] * n
        self.sources = sources = [()] * n
        self.mask = mask = [False] * n
        self.needs = needs = [()] * n  # what node i's backward reads beside its payload
        self.holders = holders = [[] for _ in range(n)]  # the payloads holding tensor j
        dst, src, masks = [], [], []  # the priced input edges and masks
        for i in range(n):
            if t.bitmask[i]:
                if not dropped[i]:
                    mask[i] = True
                    masks.append(i)
            elif t.storing[i]:
                kept = t.in_idx[i]
                if trimmed:
                    kept = tuple([j for j in kept if not dropped[j]])
                sources[i] = kept
                for j in kept:
                    holders[j].append(i)
                    if not t.is_input[j]:
                        dst.append(i)
                        src.append(j)
            if trimmed and t.needs_without_payload[i]:
                needs[i] = tuple([j for j in t.needs_without_payload[i] if dropped[j]])
        self.dst = np.array(dst, dtype=np.int64)
        self.src = np.array(src, dtype=np.int64)
        self.mask_idx = np.array(masks, dtype=np.int64)
        # elements of the masked input
        self.mask_elems = t.elems[np.array([t.in_idx[i][0] for i in masks], dtype=np.int64)]


class Sizing:
    """Byte and FLOP vectors (int64, one entry per node) for one (graph,
    config) pair: bytes for the batch, FLOPs per example (the batch scales
    the totals exactly, in Python integers)."""

    def __init__(
        self,
        graph: ComputationGraph,
        batch: int,
        act_format: NumericFormat,
        nnz: dict[str, int] | None = None,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        t = self._t = graph_tables(graph)
        if batch * t.byte_bound >= 2**63:
            raise ConfigurationError(f"batch {batch} puts byte counts beyond the 64-bit range")
        self.batch = batch
        self.act_format = act_format
        eb = act_format.element_bytes
        self.out_bytes = t.elems * np.where(t.out_int, 4 * batch, eb * batch)
        if not t.out_int[t.loss_idx]:
            self.out_bytes[t.loss_idx] = eb
        fwd = t.dense_fwd
        if nnz:
            fwd = fwd.copy()
            for name, count in nnz.items():
                hit = t.weight_of.get(name)
                if hit is not None:
                    fwd[hit[0]] = hit[1] * count
        self.fwd_flops = fwd
        self.cached_flops = np.where(t.is_norm, t.norm_cached, fwd)
        self.bwd_flops = fwd * t.bwd_factor
        self.stats_bytes = t.stats_fixed + t.stats_per_example * batch
        self.pin_bytes = int(self.out_bytes[t.pinned].sum())
        self._sizes: dict[bool, np.ndarray] = {}

    def byte_sizes(self, trimmed: bool) -> np.ndarray:
        """out bytes ‖ payload bytes ‖ stats bytes ‖ 0: the vector a compiled
        schedule's byte deltas index, cached per trim variant."""
        sizes = self._sizes.get(trimmed)
        if sizes is None:
            t = self._t
            p = t.payload_table(trimmed)
            eb = self.act_format.element_bytes
            payload = (t.aux_per_elem * eb + t.aux_fixed) * self.batch
            np.add.at(payload, p.dst, self.out_bytes[p.src])
            payload[p.mask_idx] += (p.mask_elems * self.batch + 7) // 8
            sizes = np.concatenate((self.out_bytes, payload, self.stats_bytes, [0]))
            self._sizes[trimmed] = sizes
        return sizes


# ---------------------------------------------------------------------------
# The compiled schedule

# Event opcodes: forward node i, i's forward done (each input has one
# forward reader fewer), store i's statistics or payload, hold i's output,
# recompute i, clear the step's recomputed values (node -1), backprop i,
# drop i's payload, statistics or hold.
(FORWARD, FORWARD_DONE, STORE_STATS, STORE_PAYLOAD, HOLD, RECOMPUTE, CLEAR,
 BACKPROP, DROP_PAYLOAD, DROP_STATS, DROP_HOLD) = range(11)


@dataclass
class ReplayResult:
    peak_bytes: int
    peak_forward_bytes: int
    peak_backward_bytes: int
    forward_flops: int
    backward_flops: int
    recompute_flops: int
    recompute_events: int
    end_forward_bytes: int  # stored payload bytes when the forward pass ends


class Plan:
    """The schedule of one (graph, strategy), compiled once.

    `events` holds the (opcode, node index) pairs of the step, one row
    each, in the order they happen.  The byte arrays price the same run: delta
    k adds `sign * sizes[delta_idx[k]]` to the stored or the gradient bytes,
    where `sizes` is `Sizing.byte_sizes`; `samples` are the delta counts at
    which the peak is sampled (the first is the pin-only state before the
    step), and `end_forward` the count when the forward pass ends.
    """

    def __init__(self, graph: ComputationGraph, strategy: CheckpointStrategy):
        # No reference to the graph: the graph owns its plans, and without
        # a cycle it is freed as soon as its last user drops it.
        self.strategy = strategy
        kind, m = strategy.kind, strategy.m
        g = graph
        t = graph_tables(g)
        n = len(g.nodes)
        if kind in ("residual", "residual_star") and not t.spans:
            raise ConfigurationError(f"strategy {strategy} requires residual-block annotations")
        self.trimmed = kind in ("no_bn", "residual_star")
        self.payload = t.payload_table(self.trimmed)
        self.segments: list[list[int]] = []  # member node indices, topo order
        self.seg_holds: list[list[int]] = []  # interior exits held as raw tensors
        self.trigger: dict[int, int] = {}  # node idx -> segment id
        self.fwd_exit_holds: list[int] = []  # checkpointed exits held from forward
        self.exit_holds: dict[int, int] = {}  # block exit -> node held at its backward

        storing = [i for i in range(n) if t.storing[i]]
        dropped = t.excluded_idx if self.trimmed else [False] * n

        def keeps_nothing(i: int) -> bool:
            """A ReLU whose mask is dropped, or a full-input node whose float
            inputs are all dropped (without trimming: it has none)."""
            if t.bitmask[i]:
                return dropped[i]
            return (t.full_or_stats[i] and not t.is_norm[i] and bool(t.in_idx[i])
                    and all(dropped[j] for j in t.in_idx[i] if not t.out_int[j]))

        if kind == "none":
            keep = set(storing)
        elif kind == "every":
            keep = {i for pos, i in enumerate(storing, start=1)
                    if pos % m == 0 and pos < len(storing)}
        elif kind == "no_bn":
            keep = {i for i in storing if not keeps_nothing(i)}
        else:
            exits = {g.index[x] for x in checkpointed_exits(g, strategy)}
            in_block = {i for lo, hi in t.spans for i in range(lo, hi + 1)}
            keep = {i for i in storing
                    if (t.full_or_stats[i] and any(j in exits for j in t.in_idx[i])
                        if i in in_block else not keeps_nothing(i))}
        self.keep = [i in keep for i in range(n)]

        if kind == "every":
            current: list[int] = []
            for i in storing:
                if not t.in_backward[i]:
                    continue
                if self.keep[i]:
                    if current:
                        self._push_segment(current, [], current[-1])
                        current = []
                else:
                    current.append(i)
            if current:
                self._push_segment(current, [], current[-1])
        elif kind == "residual":
            # One group per block, materialized lazily when the backward
            # pass enters it; the previous block's exit is held as the
            # recompute source where nothing captures it.
            for s0 in range(0, len(t.spans), m):
                chunk = t.spans[s0 : s0 + m]
                for bi in range(len(chunk) - 1, -1, -1):
                    lo, hi = chunk[bi]
                    members = [i for i in range(lo, hi + 1)
                               if t.storing[i] and t.in_backward[i] and not self.keep[i]]
                    prev = chunk[bi - 1][1] if bi > 0 else None
                    needed = prev is not None and t.in_backward[prev]
                    holds = [prev] if needed and not self._captured(prev, set(members)) else []
                    self._push_segment(members, holds, hi)
        elif kind == "residual_star":
            # One group per chunk: interior block inputs (the "other residual
            # block outputs") persist for the whole segment; each block's
            # first conv or linear is held when the backward pass reaches
            # the block's exit.
            for s0 in range(0, len(t.spans), m):
                chunk = t.spans[s0 : s0 + m]
                members = [lo for lo, hi in chunk
                           if t.storing[lo] and t.in_backward[lo] and not self.keep[lo]
                           and t.full_or_stats[lo]]
                holds = [hi for lo, hi in chunk
                         if hi not in exits and t.in_backward[hi]
                         and not self._captured(hi, set(members))]
                self._push_segment(members, holds, chunk[-1][1])
            for lo, hi in t.spans:
                fc = next((i for i in range(lo, hi + 1)
                           if g.nodes[i].op in ("conv2d", "linear")), None)
                if fc is not None:
                    self.exit_holds[hi] = fc
        if kind in ("residual", "residual_star"):
            self.fwd_exit_holds = [e for e in sorted(exits)
                                   if t.in_backward[e] and not self._captured(e, set())]

        s = _Compiler(self, t)
        self.events = np.array(s.events, dtype=np.int32)
        self.delta_idx = np.array(s.delta_idx, dtype=np.int64)
        self.stored_sign = np.array(s.stored_sign, dtype=np.int64)
        self.grad_sign = np.array(s.grad_sign, dtype=np.int64)
        self.samples = np.array(s.samples, dtype=np.int64)
        self.end_forward = s.end_forward
        self.recompute_count = np.array(s.recompute, dtype=np.int64)
        self.recompute_events = sum(s.recompute)
        self.backprop = np.array(s.backprop, dtype=np.int64)

    def _push_segment(self, members: list[int], holds: list[int], trigger: int):
        """A segment materialized when the backward pass reaches `trigger`."""
        self.trigger[trigger] = len(self.segments)
        self.segments.append(members)
        self.seg_holds.append(holds)

    def _captured(self, idx: int, extra: set[int]) -> bool:
        """True if a kept (or to-be-materialized) payload stores this node's
        output tensor."""
        return any(self.keep[c] or c in extra for c in self.payload.holders[idx])

    def evaluate(self, sizing: Sizing) -> ReplayResult:
        """Bytes and FLOPs of the schedule for one sizing."""
        sizes = sizing.byte_sizes(self.trimmed)[self.delta_idx]
        stored = np.cumsum(sizes * self.stored_sign)
        grads = np.cumsum(sizes * self.grad_sign)
        totals = stored[self.samples] + grads[self.samples]
        at = self.samples[totals.argmax()]  # the first maximum
        pin = sizing.pin_bytes
        return ReplayResult(
            peak_bytes=pin + int(stored[at] + grads[at]),
            peak_forward_bytes=pin + int(stored[at]),
            peak_backward_bytes=int(grads[at]),
            forward_flops=sizing.batch * int(sizing.fwd_flops.sum()),
            backward_flops=sizing.batch * int(sizing.bwd_flops @ self.backprop),
            recompute_flops=sizing.batch * int(sizing.cached_flops @ self.recompute_count),
            recompute_events=self.recompute_events,
            end_forward_bytes=pin + int(stored[self.end_forward]),
        )


class _Compiler:
    """One symbolic forward/backward step under a plan's strategy.

    Which values are live, stored, recomputed or dropped never depends on
    tensor sizes, so one run records the whole schedule: the events and the
    byte deltas and sample points that price them.
    """

    def __init__(self, plan: Plan, t: _GraphTables):
        n = len(t.storing)
        self.t = t
        self.plan = plan
        self.n = n
        self.events: list[tuple[int, int]] = []
        self.delta_idx = [3 * n]  # a leading zero delta: cumsum[k] follows k real deltas
        self.stored_sign = [0]
        self.grad_sign = [0]
        self.samples = [0]  # the pin-only state before the step
        self.recompute = [0] * n
        self.backprop = [0] * n
        self.payload_live = [False] * n
        self.stats_live = [False] * n
        self.hold_live: set[int] = set()
        self.transient: set[int] = set()
        self.grad_buffer: dict[int, list[int]] = {}  # tensor -> [owner node, refs]
        self._forward()
        self._backward()

    # -- bookkeeping ---------------------------------------------------------

    def _stored(self, idx: int, sign: int):
        self.delta_idx.append(idx)
        self.stored_sign.append(sign)
        self.grad_sign.append(0)

    def _grads(self, idx: int, sign: int):
        self.delta_idx.append(idx)
        self.stored_sign.append(0)
        self.grad_sign.append(sign)

    def _sample(self):
        self.samples.append(len(self.delta_idx) - 1)

    def _store_payload(self, i: int):
        self.payload_live[i] = True
        self._stored(self.n + i, 1)
        self.events.append((STORE_PAYLOAD, i))

    def _hold(self, i: int):
        self.hold_live.add(i)
        self._stored(i, 1)
        self.events.append((HOLD, i))

    def _end_step(self):
        self.transient.clear()
        self.events.append((CLEAR, -1))

    def _value_live(self, i: int) -> bool:
        t = self.t
        if t.is_input[i] or i in self.transient or i in self.hold_live:
            return True
        return any(self.payload_live[c] for c in self.plan.payload.holders[i])

    def _ensure_value(self, i: int):
        if self._value_live(i):
            return
        for j in self.t.in_idx[i]:
            self._ensure_value(j)
        self.recompute[i] += 1
        self.events.append((RECOMPUTE, i))
        self.transient.add(i)

    def _materialize(self, seg: int):
        t = self.t
        for i in self.plan.segments[seg]:
            for j in t.in_idx[i]:
                if not t.is_input[j]:
                    self._ensure_value(j)
            self._store_payload(i)
            self._sample()
        for e in self.plan.seg_holds[seg]:
            self._ensure_value(e)
            if e not in self.hold_live:
                self._hold(e)
            self._sample()
        self._end_step()

    # -- the step ------------------------------------------------------------

    def _forward(self):
        t, plan, n = self.t, self.plan, self.n
        fwd_holds = set(plan.fwd_exit_holds)
        for i in range(n):
            self.events.append((FORWARD, i))
            if t.in_backward[i]:
                if t.is_norm[i]:
                    self.stats_live[i] = True
                    self._stored(2 * n + i, 1)
                    self.events.append((STORE_STATS, i))
                if plan.keep[i]:
                    self._store_payload(i)
                if i in fwd_holds:
                    self._hold(i)
            self.events.append((FORWARD_DONE, i))
        self._sample()  # stored bytes are monotone during forward; one sample suffices
        self.end_forward = len(self.delta_idx) - 1

    def _backward(self):
        t, plan, n = self.t, self.plan, self.n
        seg_done = [False] * len(plan.segments)
        for i in range(n - 1, -1, -1):
            if not t.in_backward[i] or t.is_input[i]:
                continue
            seg = plan.trigger.get(i, -1)
            if seg >= 0 and not seg_done[seg]:
                seg_done[seg] = True
                self._materialize(seg)
            fc = plan.exit_holds.get(i)
            if fc is not None and not self._value_live(fc):
                self._ensure_value(fc)
                self._hold(fc)
                self._end_step()
                self._sample()
            # A stored payload that is empty (no untrimmed non-input inputs)
            # needs exactly what a missing one needs, so sizes never decide.
            if self.payload_live[i]:
                needs = plan.payload.needs[i]
            else:
                needs = t.needs_without_payload[i]
            for j in needs:
                self._ensure_value(j)
            self._sample()  # upstream gradient plus stored state
            self.events.append((BACKPROP, i))
            self.backprop[i] = 1
            self._release_grads(i)
            if self.payload_live[i]:
                self.payload_live[i] = False
                self._stored(n + i, -1)
                self.events.append((DROP_PAYLOAD, i))
            if self.stats_live[i]:
                self.stats_live[i] = False
                self._stored(2 * n + i, -1)
                self.events.append((DROP_STATS, i))
            if i in self.hold_live:
                self.hold_live.discard(i)
                self._stored(i, -1)
                self.events.append((DROP_HOLD, i))
            self._end_step()
            self._sample()

    def _release_grads(self, i: int):
        """Open the gradient buffers of node i's inputs and release its own.
        Pass-through nodes alias their upstream buffer when the target
        tensor has a single consumer."""
        t = self.t
        upstream = self.grad_buffer.pop(i, None)
        alias = t.pass_through[i] and upstream is not None
        for j in t.in_idx[i]:
            if t.is_input[j] or not t.in_backward[j] or j in self.grad_buffer:
                continue
            if alias and t.contribs[j] == 1:
                upstream[1] += 1
                self.grad_buffer[j] = upstream
            else:
                self._grads(j, 1)
                self.grad_buffer[j] = [j, 1]
        if upstream is not None:
            upstream[1] -= 1
            if upstream[1] == 0:
                self._grads(upstream[0], -1)


def replay(graph: ComputationGraph, strategy: CheckpointStrategy, sizing: Sizing) -> ReplayResult:
    """Bytes and FLOPs of one forward/backward step under a checkpoint
    strategy: the static cost model."""
    return plan_for(graph, strategy).evaluate(sizing)
