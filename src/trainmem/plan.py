"""Checkpoint strategies and the one compiled forward/backward schedule.

`Plan` compiles the schedule once per (graph, strategy): a symbolic run of
one training step records a flat event list (forward, store statistics or
payload, hold, recompute, backprop, drop).  What is stored, recomputed or
dropped never depends on tensor sizes, so one list serves every
configuration.  The engine walks the same events doing the real tensor
math, so the schedule it runs is the schedule priced here.

Pricing is linear algebra over a fixed basis.  Every byte slot a schedule
touches (a node's output, its payload, its statistics) is an exact integer
linear form in the terms `eb·batch`, `batch`, `eb` and `1` (`eb` is the
activation element width) plus one `ceil(m·batch/8)` term per distinct
ReLU-mask size `m`; the graph's tables hold each slot's coefficients.
`Plan.__init__` runs that basis once through the schedule's byte deltas
into the coefficients of the stored and the total bytes at every sample
point.  FLOPs per example are linear too: a dense rate per node, plus each
conv or linear weight's cost per nonzero times its nonzero count.  A
`Sizing` holds one configuration's term values and nonzero counts, and
`Plan.evaluate` (and `replay`, which looks the plan up first) prices the
schedule with small integer vector-matrix products and an argmax: the
first maximum of the total bytes is the peak.  `Plan.evaluate_many`
prices k sizings at once, with one matrix product and a row-wise argmax.

`Plan.__init__` is the one place a strategy kind is lowered: into keep
flags, the trim variant, recompute segments with their holds and
triggers, and the exits held from the forward pass or at a block's
backward.  `_Compiler` turns that into events without reading the
strategy.  What a stored payload holds is stated once, in
`_PayloadTable`: its byte basis prices it and the engine stores it.

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
from operator import mul

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
from .numerics import FlatLayout, NumericFormat
from .sparse import csr_bits

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


def checkpointed_exits(graph: ComputationGraph, strategy: CheckpointStrategy) -> list[str]:
    """Block-exit node ids retained under a residual strategy, in order."""
    spans = graph_tables(graph).spans
    return [graph.nodes[hi].node_id for k, (lo, hi) in enumerate(spans, start=1)
            if k % strategy.m == 0]


# ---------------------------------------------------------------------------
# Derived tables


class _GraphTables:
    """Strategy-independent tables derived from one graph (its structure,
    the byte basis, FLOP rates and parameter sizes), plus the graph's
    `Plan`s keyed by strategy and, once the engine asks, its parameter
    layout."""

    def __init__(self, g: ComputationGraph):
        self.plans: dict[CheckpointStrategy, Plan] = {}
        n = len(g.nodes)
        index = g.index
        ops = [nd.op for nd in g.nodes]
        classes = [STORAGE_CLASS[op] for op in ops]
        self.is_input = [op == "input" for op in ops]
        self.in_idx = [tuple([index[s] for s in nd.inputs]) for nd in g.nodes]
        self.consumer_idx = [
            tuple([index[c] for c in g.consumers[nd.node_id]]) for nd in g.nodes
        ]
        self.full_or_stats = [c in (FULL_INPUT, CACHED_STATS) for c in classes]
        self.storing = [c != NOTHING for c in classes]
        self.bitmask = [c == BITMASK_INPUT for c in classes]
        self.pass_through = [op in PASS_THROUGH_OPS for op in ops]
        self.is_norm = norm = [c == CACHED_STATS for c in classes]
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
            else tuple([j for j in self.in_idx[i] if not self.is_input[j]])
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

        # The byte basis.  The slots are each node's output, payload and
        # statistics, then a zero slot.  A slot's bytes are an integer linear
        # form in the terms eb·batch, batch, eb and 1, plus ceil(m·batch/8)
        # for each distinct ReLU-mask size m (`mask_sizes`); row k of
        # `slot_terms` holds slot k's coefficients.  A payload row holds
        # only the node's aux quantities here; `_PayloadTable` adds its
        # inputs and mask.  `terms` lists which of the first four terms are
        # nonzero somewhere in the graph, and the basis keeps only those.
        elems = [g.out_elements(nd.node_id) for nd in g.nodes]
        self.out_int = [g.out_dtype[nd.node_id] == "int" for nd in g.nodes]
        self.loss_idx = loss = index[g.loss_id]
        float_elems = [0 if i else e for e, i in zip(elems, self.out_int)]
        loss_scalar = [0] * n
        if not self.out_int[loss]:
            float_elems[loss], loss_scalar[loss] = 0, 1  # one scalar, whatever the batch
        # payload aux quantities: elements at the activation width, and the
        # log-normalizer and target log-prob of a fused-projection loss
        aux_elems = [_aux_elements(g, nd) for nd in g.nodes]
        aux_fixed = [2 * 4 if op == "softmax_xent" and nd.p("d_in") else 0
                     for nd, op in zip(g.nodes, ops)]
        stats_per_example = [2 * 4 if op == "layernorm" else 0 for op in ops]
        stats_fixed = [2 * nd.p("channels") * 4 if op == "batchnorm" else 0
                       for nd, op in zip(g.nodes, ops)]
        coefficients = (  # (slot block: output, payload or statistics; term; per-node values)
            (0, 0, float_elems), (0, 1, [4 * e if i else 0 for e, i in zip(elems, self.out_int)]),
            (0, 2, loss_scalar), (1, 0, aux_elems), (1, 1, aux_fixed),
            (2, 1, stats_per_example), (2, 3, stats_fixed))
        coefficients = [c for c in coefficients if any(c[2])]
        self.terms = terms = sorted({term for _, term, _ in coefficients})
        relus = [i for i in range(n) if self.bitmask[i]]
        sizes = sorted({elems[self.in_idx[i][0]] for i in relus})
        self.mask_sizes = sizes
        column = {m: len(terms) + k for k, m in enumerate(sizes)}
        self.mask_term = {i: column[elems[self.in_idx[i][0]]] for i in relus}  # ReLU -> column
        self.slot_terms = np.zeros((3 * n + 1, len(terms) + len(sizes)), dtype=np.int64)
        self.slot_terms[:3 * n].reshape(3, n, -1)[
            [block for block, _, _ in coefficients], :,
            [terms.index(term) for _, term, _ in coefficients]] = _vec([v for _, _, v in coefficients])
        self.pin_terms = self.slot_terms[[i for i, nd in enumerate(g.nodes) if self.is_input[i]
                                          and g.consumers[nd.node_id]]].sum(axis=0)
        # A generous bound per example on any running byte sum of a
        # schedule: each tensor at 8 bytes per element, counted twice as a
        # hold, twice as a gradient and once in every consumer's payload,
        # plus aux quantities and statistics.
        self.byte_bound = (8 * sum(map(mul, elems, [4 + len(c) for c in self.consumer_idx]))
                           + 8 * sum(aux_elems) + sum(aux_fixed)
                           + sum(stats_fixed) + sum(stats_per_example))

        # The weight list: every conv or linear weight (its FLOPs are per
        # nonzero) and every sparse-eligible tensor (its CSR bytes), in
        # parameter order.  Nonzero counts are int64 vectors over it, the
        # dense ones `weight_numel`; `weight_group` holds group positions.
        weights = [(i, spec) for i, nd in enumerate(g.nodes) for spec in g.params_of(nd)
                   if spec.kind == "weight" and (spec.sparse or nd.op in ("conv2d", "linear"))]
        self.weight_index = {spec.name: k for k, (_, spec) in enumerate(weights)}
        self.flop_node, self.weight_numel = _vec(([i for i, _ in weights],
                                                  [spec.numel for _, spec in weights]))
        self.weight_group = {grp: _vec([k for k, (_, spec) in enumerate(weights)
                                        if spec.sparse and spec.group == grp])
                             for grp in g.sparsifiable_groups()}
        self.csr_index_bits, self.csr_fixed_bits = _vec(
            [csr_bits(spec.shape) for _, spec in weights]).reshape(-1, 2).T
        # FLOPs per example as rates per run of a node, forward, backward
        # and recompute (a norm re-run from its cached statistics costs the
        # cheap rate).  Conv and linear weights cost exactly their FLOPs per
        # nonzero times their nonzero count, so their nodes' rates are kept
        # per nonzero, by weight, and are zero in the dense rates; the other
        # weights' rows are zero.
        per_nnz = [g.forward_flops(g.nodes[i], {spec.name: 1}) for i, spec in weights]
        bwd_factor = [g.backward_factor(nd) for nd in g.nodes]
        fwd = [0 if nd.op in ("conv2d", "linear") else g.forward_flops(nd) for nd in g.nodes]
        self.dense_flops = _vec((fwd, list(map(mul, fwd, bwd_factor)),
                                 [g.cached_recompute_flops(nd) if c == CACHED_STATS else f
                                  for nd, c, f in zip(g.nodes, classes, fwd)]))
        self.weight_flops = _vec((per_nnz,
                                  [p * bwd_factor[i] for p, (i, _) in zip(per_nnz, weights)],
                                  per_nnz))
        # parameter elements: batchnorm ones (FP16 keeps them at FP32) and
        # all others
        self.norm_param_numel = sum(spec.numel for nd in g.nodes if nd.op == "batchnorm"
                                    for spec in g.params_of(nd))
        self.other_param_numel = g.total_param_count() - self.norm_param_numel
        self._payload: dict[bool, _PayloadTable] = {}
        self.param_layout: FlatLayout | None = None  # built by `param_layout`
        self.conv_grids: dict = {}  # the kernels' conv geometry, filled by engine steps

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


def param_layout(graph: ComputationGraph) -> FlatLayout:
    """The engine's gradient layout: the graph's parameters in `all_params()`
    order, built on first engine use (never by the cost model) and kept."""
    t = graph_tables(graph)
    if t.param_layout is None:
        t.param_layout = FlatLayout({spec.name: spec for spec in graph.all_params()})
    return t.param_layout


# ---------------------------------------------------------------------------
# Sizing


class _PayloadTable:
    """What every node's stored payload holds under one trim variant: the
    input tensors it keeps (`sources`), and whether it keeps a ReLU bitmask
    of its input instead (`mask`).  The engine stores these, and `basis`
    prices them: the coefficient rows of the byte slots out ‖ payload ‖
    stats ‖ 0 that a compiled schedule's byte deltas index.  Network inputs
    among the sources are pinned once for the whole step, so pricing
    charges them zero."""

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
                else:
                    needs[i] = t.in_idx[i]  # a ReLU without its mask reads its input
            elif t.storing[i]:
                kept = t.in_idx[i]
                if trimmed:
                    kept = tuple([j for j in kept if not dropped[j]])
                    needs[i] = tuple([j for j in t.needs_without_payload[i] if dropped[j]])
                sources[i] = kept
                for j in kept:
                    holders[j].append(i)
                    if not t.is_input[j]:
                        dst.append(i)
                        src.append(j)
        self.basis = t.slot_terms.copy()
        payload = self.basis[n:2 * n]
        np.add.at(payload, np.array(dst, dtype=np.int64), self.basis[np.array(src, dtype=np.int64)])
        payload[masks, [t.mask_term[i] for i in masks]] = 1


class Sizing:
    """One (graph, config) pair as the byte basis and the FLOP model see it.

    `terms` holds the basis terms' values at this batch and activation
    width (int64, in the order of the basis columns); `nonzeros` is `nnz`,
    the count vector over the tables' weight list (dense: `weight_numel`).
    The constructor rejects a batch that could carry a running byte sum
    past int64, so every byte total is exact; FLOP totals are scaled by
    the batch in Python integers.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        batch: int,
        act_format: NumericFormat,
        nnz: np.ndarray | None = None,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        t = graph_tables(graph)
        if batch * t.byte_bound >= 2**63:
            raise ConfigurationError(f"batch {batch} puts byte counts beyond the 64-bit range")
        self.batch = batch
        eb = act_format.element_bytes
        fixed = (eb * batch, batch, eb, 1)
        self.terms = _vec([fixed[k] for k in t.terms]
                          + [(m * batch + 7) // 8 for m in t.mask_sizes])
        self.nonzeros = t.weight_numel if nnz is None else nnz


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
    each, in the order they happen.  The byte arrays describe the same run:
    delta k adds `sign * basis[delta_idx[k]]` to the stored or the gradient
    bytes, where `basis` is the payload table's; `samples` are the delta
    counts at which the peak is sampled (the first is the pin-only state
    before the step), and `end_forward` the count when the forward pass
    ends.  The constructor sums the deltas once, over the basis: row s of
    `stored_at` and `total_at` holds the coefficients of the stored and the
    total (stored plus gradient) bytes at sample s, pins included, and
    `end_forward_terms` those of the stored bytes at the end of the
    forward pass.  FLOPs per example (forward, backward, recompute) are
    `flop_base` plus the weights' nonzero counts times `flop_weights`.
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
        self.events = np.array(s.events, dtype=np.int32).reshape(-1, 2)
        deltas = np.array(s.deltas, dtype=np.int64).reshape(-1, 3)
        self.delta_idx, self.stored_sign, self.grad_sign = deltas.T
        self.samples = np.array(s.samples, dtype=np.int64)
        self.end_forward = s.end_forward
        runs = np.array(([1] * n, s.backprop, s.recompute), dtype=np.int64)
        _, self.backprop, self.recompute_count = runs
        self.recompute_events = sum(s.recompute)
        # (delta, stored or gradient, term); the leading delta adds nothing,
        # so it carries the pins
        signed = self.payload.basis[self.delta_idx, None, :] * deltas[:, 1:, None]
        signed[0, 0] = t.pin_terms
        at = signed.cumsum(axis=0)[self.samples]
        self.stored_at = at[:, 0]
        self.total_at = at[:, 0] + at[:, 1]
        self.end_forward_terms = self.stored_at[s.samples.index(s.end_forward)]  # a sample point
        # FLOP rates times how often the step runs each node forward,
        # backward and recompute
        self.flop_base = (t.dense_flops * runs).sum(axis=1)
        self.flop_weights = (t.weight_flops * runs[:, t.flop_node]).T

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
        """Bytes and FLOPs of the schedule for one sizing: the byte tables
        times its term values, with the first maximum of the totals as the
        peak, and the FLOP tables times its nonzero counts."""
        x = sizing.terms
        totals = self.total_at @ x
        k = totals.argmax()
        peak = int(totals[k])
        forward = int(self.stored_at[k] @ x)
        fwd, bwd, rec = (self.flop_base + sizing.nonzeros @ self.flop_weights).tolist()
        batch = sizing.batch
        return ReplayResult(
            peak_bytes=peak,
            peak_forward_bytes=forward,
            peak_backward_bytes=peak - forward,
            forward_flops=batch * fwd,
            backward_flops=batch * bwd,
            recompute_flops=batch * rec,
            recompute_events=self.recompute_events,
            end_forward_bytes=int(self.end_forward_terms @ x),
        )

    def evaluate_many(self, sizings: list[Sizing]):
        """`evaluate` for k sizings, as int64 arrays: the peaks, their forward
        parts and the end-of-forward bytes (k each), and the (k, 3) forward,
        backward and recompute FLOPs per example, unscaled by any batch."""
        x = np.stack([s.terms for s in sizings])
        totals = x @ self.total_at.T
        k = totals.argmax(axis=1)  # the first maximum of each row
        peak = totals[np.arange(len(k)), k]
        forward = np.einsum("ij,ij->i", self.stored_at[k], x)
        flops = np.stack([s.nonzeros for s in sizings]) @ self.flop_weights + self.flop_base
        return peak, forward, x @ self.end_forward_terms, flops


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
        self.events: list[int] = []  # flat (opcode, node) pairs
        # flat (slot, stored sign, gradient sign) triples, led by a zero
        # delta so that a running sum after delta k follows k real deltas
        self.deltas = [3 * n, 0, 0]
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
        self.deltas += (idx, sign, 0)

    def _grads(self, idx: int, sign: int):
        self.deltas += (idx, 0, sign)

    def _sample(self):
        self.samples.append(len(self.deltas) // 3 - 1)

    def _store_payload(self, i: int):
        self.payload_live[i] = True
        self._stored(self.n + i, 1)
        self.events += (STORE_PAYLOAD, i)

    def _hold(self, i: int):
        self.hold_live.add(i)
        self._stored(i, 1)
        self.events += (HOLD, i)

    def _end_step(self):
        self.transient.clear()
        self.events += (CLEAR, -1)

    def _value_live(self, i: int) -> bool:
        t = self.t
        if t.is_input[i] or i in self.transient or i in self.hold_live:
            return True
        payload_live = self.payload_live
        for c in self.plan.payload.holders[i]:
            if payload_live[c]:
                return True
        return False

    def _ensure_value(self, i: int):
        if self._value_live(i):
            return
        for j in self.t.in_idx[i]:
            self._ensure_value(j)
        self.recompute[i] += 1
        self.events += (RECOMPUTE, i)
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
            self.events += (FORWARD, i)
            if t.in_backward[i]:
                if t.is_norm[i]:
                    self.stats_live[i] = True
                    self._stored(2 * n + i, 1)
                    self.events += (STORE_STATS, i)
                if plan.keep[i]:
                    self._store_payload(i)
                if i in fwd_holds:
                    self._hold(i)
            self.events += (FORWARD_DONE, i)
        self._sample()  # stored bytes are monotone during forward; one sample suffices
        self.end_forward = len(self.deltas) // 3 - 1

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
            self.events += (BACKPROP, i)
            self.backprop[i] = 1
            self._release_grads(i)
            if self.payload_live[i]:
                self.payload_live[i] = False
                self._stored(n + i, -1)
                self.events += (DROP_PAYLOAD, i)
            if self.stats_live[i]:
                self.stats_live[i] = False
                self._stored(2 * n + i, -1)
                self.events += (DROP_STATS, i)
            if i in self.hold_live:
                self.hold_live.discard(i)
                self._stored(i, -1)
                self.events += (DROP_HOLD, i)
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
