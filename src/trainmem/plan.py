"""Checkpoint strategies and the shared forward/backward schedule.

One traversal drives both the static cost model and the execution engine:
`replay` walks the graph under a checkpoint strategy, tracking stored
payload bytes and live gradient bytes, counting forward, backward, and
recompute FLOPs, and invoking an executor callback for each step.  The
profiler runs it with no executor; the engine runs it with one that does
the real tensor math.  Both therefore report byte-identical peaks and
identical recompute counts by construction.

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


def _trim_excluded(graph: ComputationGraph) -> set[str]:
    """Tensors never stored under recompute-friendly strategies: norm outputs
    and outputs of ReLUs fed directly by a norm."""
    out = set()
    for n in graph.nodes:
        if n.op in ("batchnorm", "layernorm"):
            out.add(n.node_id)
        elif n.op == "relu" and graph.node(n.inputs[0]).op in ("batchnorm", "layernorm"):
            out.add(n.node_id)
    return out


def _block_spans(graph: ComputationGraph) -> list[tuple[int, int]]:
    spans = [(graph.index[e], graph.index[x]) for e, x in graph.residual_blocks]
    spans.sort()
    return spans


def checkpoint_nodes(graph: ComputationGraph, strategy: CheckpointStrategy) -> set[str]:
    """Nodes whose stored payload is retained through the forward pass."""
    t = graph_tables(graph)
    storing = [n for i, n in enumerate(graph.nodes) if t.storing[i]]
    if strategy.kind == "none":
        return {n.node_id for n in storing}
    if strategy.kind == "every":
        m = strategy.m
        ckpt = set()
        for pos, n in enumerate(storing, start=1):
            if pos % m == 0 and pos < len(storing):
                ckpt.add(n.node_id)
        return ckpt

    excluded = _trim_excluded(graph) if strategy.kind in ("no_bn", "residual_star") else set()

    def keeps_nothing(n: Node) -> bool:
        """Under trimming, a node whose whole stored part vanishes."""
        if n.node_id in excluded and n.op == "relu":
            return True
        if graph.storage_class(n) == FULL_INPUT and n.inputs and all(
            i in excluded for i in n.inputs if graph.out_dtype[i] == "float"
        ):
            return True
        return False

    if strategy.kind == "no_bn":
        return {n.node_id for n in storing if not keeps_nothing(n)}

    if strategy.kind in ("residual", "residual_star"):
        spans = _block_spans(graph)
        if not spans:
            raise ConfigurationError(f"strategy {strategy} requires residual-block annotations")
        in_block = set()
        for lo, hi in spans:
            in_block.update(range(lo, hi + 1))
        exits = set(checkpointed_exits(graph, strategy))
        kept = set()
        for n in storing:
            idx = graph.index[n.node_id]
            if idx not in in_block:
                if not keeps_nothing(n):
                    kept.add(n.node_id)
            elif t.full_or_stats[idx] and any(i in exits for i in n.inputs):
                kept.add(n.node_id)
        return kept
    raise ConfigurationError(f"unhandled strategy {strategy}")


def checkpointed_exits(graph: ComputationGraph, strategy: CheckpointStrategy) -> list[str]:
    """Block-exit node ids retained under a residual strategy, in order."""
    spans = _block_spans(graph)
    return [graph.nodes[hi].node_id for k, (lo, hi) in enumerate(spans, start=1)
            if k % strategy.m == 0]


# ---------------------------------------------------------------------------
# Sizing


class _GraphTables:
    """Strategy-independent integer tables derived from one graph, plus the
    graph's `Plan`s keyed by strategy."""

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
        self.pass_through = [op in PASS_THROUGH_OPS for op in ops]
        self.excluded = _trim_excluded(g)
        self.excluded_idx = [nd.node_id in self.excluded for nd in g.nodes]
        # backward-needs variants: tensor indices the backward kernel reads.
        # A stored, untrimmed payload covers everything its backward reads,
        # so only the missing-payload and trimmed-payload variants are listed.
        self.needs_without_payload = []
        self.needs_trim_extra = []
        for i, nd in enumerate(g.nodes):
            if not self.storing[i]:
                wo = ()
            elif ops[i] == "relu":
                wo = self.in_idx[i]
            else:
                wo = tuple(j for j in self.in_idx[i] if not self.is_input[j])
            self.needs_without_payload.append(wo)
            self.needs_trim_extra.append(
                tuple(j for j in wo if self.excluded_idx[j])
            )
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


class Sizing:
    """Batch-bound byte and FLOP tables for one (graph, config) pair."""

    def __init__(
        self,
        graph: ComputationGraph,
        batch: int,
        act_format: NumericFormat,
        nnz: dict[str, int] | None = None,
    ):
        self.graph = graph
        self.batch = batch
        self.act_format = act_format
        g = graph
        eb = act_format.element_bytes
        n = len(g.nodes)
        self.out_bytes = [0] * n
        self.fwd_flops = [0] * n
        self.cached_flops = [0] * n
        self.bwd_flops = [0] * n
        self.stats_bytes = [0] * n
        self._psize: dict[bool, list[int]] = {}
        for i, node in enumerate(g.nodes):
            elems = g.out_elements(node.node_id) * batch
            if g.out_dtype[node.node_id] == "int":
                self.out_bytes[i] = elems * 4
            elif node.node_id == g.loss_id:
                self.out_bytes[i] = eb
            else:
                self.out_bytes[i] = elems * eb
            f = g.forward_flops(node, nnz) * batch
            self.fwd_flops[i] = f
            self.cached_flops[i] = (
                g.cached_recompute_flops(node) * batch
                if node.op in ("batchnorm", "layernorm")
                else f
            )
            self.bwd_flops[i] = f * g.backward_factor(node)
            if node.op == "batchnorm":
                self.stats_bytes[i] = 2 * node.p("channels") * 4
            elif node.op == "layernorm":
                self.stats_bytes[i] = 2 * batch * 4

    def payload_sizes(self, trimmed: bool) -> list[int]:
        """Per-node stored-input bytes, cached per trim variant."""
        arr = self._psize.get(trimmed)
        if arr is None:
            excluded = graph_tables(self.graph).excluded if trimmed else set()
            arr = [
                self.payload_bytes(node, trimmed, excluded)
                for node in self.graph.nodes
            ]
            self._psize[trimmed] = arr
        return arr

    def payload_bytes(self, node: Node, trimmed: bool, excluded: set[str]) -> int:
        """Bytes of the node's stored input part (norm stats are separate)."""
        g = self.graph
        cls = g.storage_class(node)
        if cls == NOTHING:
            return 0
        if cls == BITMASK_INPUT:
            if trimmed and node.node_id in excluded:
                return 0
            elems = g.out_elements(node.inputs[0]) * self.batch
            return (elems + 7) // 8
        total = 0
        for src in node.inputs:
            if g.node(src).op == "input":
                continue  # pinned once for the whole step
            if trimmed and src in excluded:
                continue
            total += self.out_bytes[g.index[src]]
        total += self.aux_bytes(node)
        return total

    def aux_bytes(self, node: Node) -> int:
        eb = self.act_format.element_bytes
        if node.op == "dynamic_conv_cost":
            heads = node.p("heads")
            span = node.p("span")
            if node.p("mix", "conv") == "conv":
                k = node.p("kernel")
                d = math.prod(self.graph.out_shape[node.node_id])
                per_tok = heads * k + heads * span + k * (d // heads)
            else:
                per_tok = 2 * heads * span
            return per_tok * self.batch * eb
        if node.op == "softmax_xent" and node.p("d_in"):
            return 2 * self.batch * 4  # cached log-normalizer + target log-prob
        return 0

    def pin_bytes(self) -> int:
        total = 0
        for node in self.graph.nodes:
            if node.op == "input" and self.graph.consumers[node.node_id]:
                total += self.out_bytes[self.graph.index[node.node_id]]
        return total


# ---------------------------------------------------------------------------
# Replay


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


class _Buffer:
    __slots__ = ("bytes", "refs")

    def __init__(self, nbytes: int):
        self.bytes = nbytes
        self.refs = 1


class Plan:
    """Precomputed structure shared across replays of one (graph, strategy)."""

    def __init__(self, graph: ComputationGraph, strategy: CheckpointStrategy):
        self.graph = graph
        self.strategy = strategy
        g = graph
        t = graph_tables(g)
        n = len(g.nodes)
        self.keep = [False] * n
        for nid in checkpoint_nodes(g, strategy):
            self.keep[g.index[nid]] = True
        self.trimmed = strategy.kind in ("no_bn", "residual_star")
        self.excluded = t.excluded if self.trimmed else set()
        self.in_backward = t.in_backward
        self.contribs = t.contribs

        # segments to materialize during backward
        self.segments: list[list[int]] = []  # member node indices, topo order
        self.seg_holds: list[list[int]] = []  # interior exits held as raw tensors
        self.trigger: dict[int, int] = {}  # node idx -> segment id
        self.fwd_exit_holds: list[int] = []  # checkpointed exits held from forward
        self.block_of_exit: dict[int, tuple[int, int]] = {}
        self.first_conv: dict[tuple[int, int], int | None] = {}

        if strategy.kind == "every":
            storing = [i for i in range(n) if t.storing[i] and t.in_backward[i]]
            current: list[int] = []
            for i in storing:
                if self.keep[i]:
                    if current:
                        self._push_segment(current, [])
                        current = []
                else:
                    current.append(i)
            if current:
                self._push_segment(current, [])
        elif strategy.kind in ("residual", "residual_star"):
            spans = _block_spans(g)
            exits = {g.index[x] for x in checkpointed_exits(g, strategy)}
            star = strategy.kind == "residual_star"
            for lo, hi in spans:
                self.block_of_exit[hi] = (lo, hi)
                fc = None
                for i in range(lo, hi + 1):
                    if g.nodes[i].op in ("conv2d", "linear"):
                        fc = i
                        break
                self.first_conv[(lo, hi)] = fc
            m = strategy.m
            for s0 in range(0, len(spans), m):
                chunk = spans[s0 : s0 + m]
                if star:
                    # One group per chunk: interior block inputs (the "other
                    # residual block outputs") persist for the whole segment.
                    members = [
                        lo
                        for lo, hi in chunk
                        if t.storing[lo] and t.in_backward[lo] and not self.keep[lo]
                        and t.full_or_stats[lo]
                    ]
                    member_set = set(members)
                    holds = []
                    for lo, hi in chunk:
                        if hi in exits or not t.in_backward[hi]:
                            continue
                        if not self._captured(hi, member_set):
                            holds.append(hi)
                    seg = self._push_segment(members, holds)
                    self.trigger[chunk[-1][1]] = seg
                else:
                    # One group per block, materialized lazily when the
                    # backward pass enters it; the previous block's exit is
                    # held as the recompute source where nothing captures it.
                    for bi in range(len(chunk) - 1, -1, -1):
                        lo, hi = chunk[bi]
                        members = [
                            i
                            for i in range(lo, hi + 1)
                            if t.storing[i] and t.in_backward[i] and not self.keep[i]
                        ]
                        member_set = set(members)
                        holds = []
                        if bi > 0:
                            prev_exit = chunk[bi - 1][1]
                            if t.in_backward[prev_exit] and not self._captured(
                                prev_exit, member_set
                            ):
                                holds.append(prev_exit)
                        seg = self._push_segment(members, holds)
                        self.trigger[hi] = seg
            for e in sorted(exits):
                if t.in_backward[e] and not self._captured(e, set()):
                    self.fwd_exit_holds.append(e)

        if strategy.kind == "every":
            for seg, members in enumerate(self.segments):
                self.trigger[members[-1]] = seg

    def _push_segment(self, members: list[int], holds: list[int]) -> int:
        self.segments.append(members)
        self.seg_holds.append(holds)
        return len(self.segments) - 1

    def _captured(self, idx: int, extra: set[int]) -> bool:
        """True if a kept (or to-be-materialized) full/stats payload stores
        this node's output tensor."""
        t = graph_tables(self.graph)
        if self.trimmed and t.excluded_idx[idx]:
            return False
        return any((self.keep[c] or c in extra) and t.full_or_stats[c]
                   for c in t.consumer_idx[idx])


def replay(
    graph: ComputationGraph,
    strategy: CheckpointStrategy,
    sizing: Sizing,
    executor=None,
) -> ReplayResult:
    """Run one forward/backward step under a checkpoint strategy.

    With `executor=None` this is the static cost model; with an engine
    executor it performs the actual computation on the same schedule.
    """
    g = graph
    plan = plan_for(g, strategy)
    t = graph_tables(g)
    n = len(g.nodes)
    in_idx = t.in_idx
    consumer_idx = t.consumer_idx
    full_or_stats = t.full_or_stats
    is_input = t.is_input
    is_excluded = t.excluded_idx if plan.trimmed else [False] * n
    psize = sizing.payload_sizes(plan.trimmed)
    out_bytes = sizing.out_bytes
    stats_bytes = sizing.stats_bytes
    cached_flops = sizing.cached_flops
    in_backward = plan.in_backward
    keep = plan.keep
    contribs = plan.contribs

    payload_live = [False] * n
    stats_live = [False] * n
    hold_live: dict[int, int] = {}
    seg_done = [False] * len(plan.segments)
    grad_entry: dict[int, _Buffer] = {}

    stored = sizing.pin_bytes()
    grads = 0
    peak = stored
    peak_split = (stored, 0)
    fwd_flops = 0
    bwd_flops = 0
    rec_flops = 0
    rec_events = 0
    transient: set[int] = set()
    live_exec = executor is not None

    if live_exec:
        executor.begin(plan, sizing)

    def sample():
        nonlocal peak, peak_split
        total = stored + grads
        if total > peak:
            peak = total
            peak_split = (stored, grads)

    def value_live(i: int) -> bool:
        if is_input[i] or i in transient or i in hold_live:
            return True
        if is_excluded[i]:
            return False
        for c in consumer_idx[i]:
            if payload_live[c] and full_or_stats[c]:
                return True
        return False

    def ensure_value(i: int):
        nonlocal rec_flops, rec_events
        if value_live(i):
            return
        for j in in_idx[i]:
            ensure_value(j)
        rec_flops += cached_flops[i]
        rec_events += 1
        if live_exec:
            executor.recompute(i)
        transient.add(i)

    def end_step():
        if transient:
            transient.clear()
        if live_exec:
            executor.clear_transients()

    def materialize_segment(seg: int):
        nonlocal stored
        seg_done[seg] = True
        for i in plan.segments[seg]:
            for j in in_idx[i]:
                if not is_input[j]:
                    ensure_value(j)
            payload_live[i] = True
            stored += psize[i]
            if live_exec:
                executor.store_payload(i)
            sample()
        for e in plan.seg_holds[seg]:
            ensure_value(e)
            if e not in hold_live:
                hold_live[e] = out_bytes[e]
                stored += out_bytes[e]
                if live_exec:
                    executor.add_hold(e)
            sample()
        end_step()

    # forward ----------------------------------------------------------------
    fwd_hold_set = set(plan.fwd_exit_holds)
    for i in range(n):
        if live_exec:
            executor.forward(i)
        fwd_flops += sizing.fwd_flops[i]
        if in_backward[i]:
            if stats_bytes[i]:
                stats_live[i] = True
                stored += stats_bytes[i]
                if live_exec:
                    executor.store_stats(i)
            if keep[i]:
                payload_live[i] = True
                stored += psize[i]
                if live_exec:
                    executor.store_payload(i)
            if i in fwd_hold_set:
                hold_live[i] = out_bytes[i]
                stored += out_bytes[i]
                if live_exec:
                    executor.add_hold(i)
        if live_exec:
            executor.forward_done(i)
    sample()  # stored bytes are monotone during forward; one sample suffices
    end_forward = stored

    # backward ---------------------------------------------------------------
    star = strategy.kind == "residual_star"
    trigger = [-1] * n
    for k, v in plan.trigger.items():
        trigger[k] = v
    pass_through = t.pass_through
    trimmed = plan.trimmed
    nwo = t.needs_without_payload
    ntx = t.needs_trim_extra
    for i in range(n - 1, -1, -1):
        if not in_backward[i] or is_input[i]:
            continue
        seg = trigger[i]
        if seg >= 0 and not seg_done[seg]:
            materialize_segment(seg)
        if star and i in plan.block_of_exit:
            fc = plan.first_conv.get(plan.block_of_exit[i])
            if fc is not None and not value_live(fc):
                ensure_value(fc)
                hold_live[fc] = out_bytes[fc]
                stored += out_bytes[fc]
                if live_exec:
                    executor.add_hold(fc)
                end_step()
                sample()
        if payload_live[i] and psize[i] > 0:
            needs = ntx[i] if trimmed else ()
        else:
            needs = nwo[i]
        for j in needs:
            ensure_value(j)
        # pre-sample: upstream grad + stored state
        total = stored + grads
        if total > peak:
            peak = total
            peak_split = (stored, grads)
        if live_exec:
            executor.backprop(i)
        bwd_flops += sizing.bwd_flops[i]
        upstream = grad_entry.pop(i, None)
        is_pass = pass_through[i]
        for j in in_idx[i]:
            if is_input[j] or not in_backward[j]:
                continue
            if j not in grad_entry:
                if is_pass and contribs[j] == 1 and upstream is not None:
                    upstream.refs += 1
                    grad_entry[j] = upstream
                else:
                    nb = out_bytes[j]
                    grads += nb
                    grad_entry[j] = _Buffer(nb)
        if upstream is not None:
            upstream.refs -= 1
            if upstream.refs == 0:
                grads -= upstream.bytes
        if payload_live[i]:
            payload_live[i] = False
            stored -= psize[i]
            if live_exec:
                executor.drop_payload(i)
        if stats_live[i]:
            stats_live[i] = False
            stored -= stats_bytes[i]
            if live_exec:
                executor.drop_stats(i)
        if i in hold_live:
            stored -= hold_live.pop(i)
            if live_exec:
                executor.drop_hold(i)
        if transient:
            transient.clear()
        if live_exec:
            executor.clear_transients()
        total = stored + grads
        if total > peak:
            peak = total
            peak_split = (stored, grads)

    if live_exec:
        executor.finish()
    return ReplayResult(
        peak_bytes=peak,
        peak_forward_bytes=peak_split[0],
        peak_backward_bytes=peak_split[1],
        forward_flops=fwd_flops,
        backward_flops=bwd_flops,
        recompute_flops=rec_flops,
        recompute_events=rec_events,
        end_forward_bytes=end_forward,
    )
