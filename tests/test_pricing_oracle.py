"""`Plan.evaluate` and `Plan.evaluate_many` against an explicit per-slot
byte vector.

The oracle prices a compiled schedule the direct way: it writes out the
bytes of every slot the schedule's deltas index (each node's output, its
stored payload and its norm statistics, then a zero slot) from the
accounting conventions in README.md, in Python integers, and runs the
deltas through a cumulative sum.  Its FLOPs are sums over the graph's nodes
of `ComputationGraph.forward_flops` with the config's nonzero counts, read
by weight name.  It shares no pricing table with `plan` (only the weight
list's name → position map), so a wrong coefficient in the linear forms
shows up as a mismatch; the Python integers catch an int64 wrap.
"""

from __future__ import annotations

import numpy as np
import pytest

from trainmem.builders import build_dc_transformer_cost, build_wrn, random_desk_graph
from trainmem.errors import ConfigurationError
from trainmem.graph import GraphBuilder
from trainmem.numerics import NumericFormat
from trainmem.plan import RECOMPUTE, CheckpointStrategy, Sizing, graph_tables, plan_for
from trainmem.profiler import param_nnz

STRATEGIES = ("none", "no_bn", "every:2", "every:4", "residual:1", "residual:2",
              "residual_star:1", "residual_star:2")
FORMATS = (NumericFormat.FP16, NumericFormat.FP32, NumericFormat.FP64)


def _aux_elements(g, node) -> int:
    """Per-example elements a dynamic convolution keeps beside its inputs:
    heads·kernel + heads·span + kernel·d/heads (convolution mixing) or
    2·heads·span (attention mixing)."""
    if node.op != "dynamic_conv_cost":
        return 0
    heads, span = node.p("heads"), node.p("span")
    if node.p("mix", "conv") == "conv":
        k = node.p("kernel")
        return heads * k + heads * span + k * (g.out_elements(node.node_id) // heads)
    return 2 * heads * span


def slot_bytes(g, plan, batch: int, fmt: NumericFormat) -> tuple[list[int], int]:
    """(bytes of every slot, pinned bytes) for one batch and width."""
    eb = fmt.element_bytes
    nodes = g.nodes

    def out_bytes(node) -> int:
        if g.out_dtype[node.node_id] == "int":
            return 4 * batch * g.out_elements(node.node_id)
        if node.node_id == g.loss_id:
            return eb  # the loss is one scalar, whatever the batch
        return eb * batch * g.out_elements(node.node_id)

    out = [out_bytes(nd) for nd in nodes]
    payload = []
    for i, nd in enumerate(nodes):
        # stored inputs, except network inputs (pinned once for the step)
        b = sum(out[j] for j in plan.payload.sources[i] if nodes[j].op != "input")
        if plan.payload.mask[i]:  # 1 bit per element of the ReLU's input
            b += -(-g.out_elements(nd.inputs[0]) * batch // 8)
        b += _aux_elements(g, nd) * eb * batch
        if nd.op == "softmax_xent" and nd.p("d_in"):
            b += 2 * 4 * batch  # log-normalizer and target log-prob, FP32
        payload.append(b)
    stats = [2 * 4 * nd.p("channels") if nd.op == "batchnorm"
             else 2 * 4 * batch if nd.op == "layernorm" else 0 for nd in nodes]
    pinned = sum(out[i] for i, nd in enumerate(nodes)
                 if nd.op == "input" and g.consumers[nd.node_id])
    return out + payload + stats + [0], pinned


def oracle(g, plan, batch: int, fmt: NumericFormat, nnz: np.ndarray | None) -> list[int]:
    """The `ReplayResult` fields in order, priced the direct way; `nnz` is
    a nonzero-count vector over the weight list (None: dense), which the
    FLOPs read by weight name."""
    named = {} if nnz is None else {name: int(nnz[k])
                                    for name, k in graph_tables(g).weight_index.items()}
    slots, pinned = slot_bytes(g, plan, batch, fmt)
    sizes = np.array(slots, dtype=object)[plan.delta_idx]
    stored = np.cumsum(sizes * plan.stored_sign)
    grads = np.cumsum(sizes * plan.grad_sign)
    totals = [stored[k] + grads[k] for k in plan.samples]
    at = plan.samples[totals.index(max(totals))]  # the first maximum
    fwd = [g.forward_flops(nd, named) for nd in g.nodes]
    rec = [g.cached_recompute_flops(nd) if nd.op in ("batchnorm", "layernorm") else f
           for nd, f in zip(g.nodes, fwd)]
    return [
        pinned + stored[at] + grads[at],
        pinned + stored[at],
        grads[at],
        batch * sum(fwd),
        batch * sum(int(b) * f * g.backward_factor(nd)
                    for b, f, nd in zip(plan.backprop, fwd, g.nodes)),
        batch * sum(int(c) * r for c, r in zip(plan.recompute_count, rec)),
        int((plan.events[:, 0] == RECOMPUTE).sum()),
        pinned + stored[plan.end_forward],
    ]


def evaluated(plan, sizing) -> list[int]:
    r = plan.evaluate(sizing)
    return [r.peak_bytes, r.peak_forward_bytes, r.peak_backward_bytes, r.forward_flops,
            r.backward_flops, r.recompute_flops, r.recompute_events, r.end_forward_bytes]


def evaluated_many(plan, sizings) -> list[list[int]]:
    """`evaluate_many`'s rows in the fields of `evaluated`, FLOPs scaled by
    each sizing's batch in Python integers."""
    peak, forward, end, flops = plan.evaluate_many(sizings)
    return [[p, f, p - f, *(s.batch * x for x in fl), plan.recompute_events, e]
            for s, p, f, e, fl in zip(sizings, peak.tolist(), forward.tolist(), end.tolist(),
                                      flops.tolist())]


def _plans(g):
    for st in STRATEGIES:
        try:
            yield st, plan_for(g, CheckpointStrategy.parse(st))
        except ConfigurationError:
            continue


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_match_the_oracle(seed):
    g = random_desk_graph(seed)
    checked = 0
    for density in (1.0, 0.3):
        nnz = param_nnz(g, {"conv": density} if density < 1.0 else {})
        for st, plan in _plans(g):
            sizings, wants = [], []
            for batch in (1, 3, 8, 250):
                for fmt in FORMATS:
                    want = oracle(g, plan, batch, fmt, nnz)
                    sizings.append(Sizing(g, batch, fmt, nnz))
                    wants.append(want)
                    assert evaluated(plan, sizings[-1]) == want, (st, batch, fmt)
                    checked += 1
            assert evaluated_many(plan, sizings) == wants, st
    assert checked >= 2 * 6 * 4 * 3  # none, no_bn and every:m apply to every graph


def _odd_masks():
    """ReLU masks of 27 and 45 bits per example, so that rounding them up
    to whole bytes depends on the batch; a ReLU also reads a ReLU."""
    b = GraphBuilder(name="odd-masks")
    b.add("img", "input", shape=(3, 3, 3), dtype="float")
    b.add("labels", "input", shape=(), dtype="int")
    b.add("c1", "conv2d", "img", c_in=3, c_out=3, k1=3, k2=3, stride=1, pad=1,
          sparse=1, group="conv")
    b.add("b1", "batchnorm", "c1", channels=3)
    b.add("r1", "relu", "b1")
    b.add("r2", "relu", "r1")
    b.add("c2", "conv2d", "r2", c_in=3, c_out=5, k1=3, k2=3, stride=1, pad=1,
          sparse=1, group="conv")
    b.add("r3", "relu", "c2")
    b.add("p", "avgpool", "r3", window=3)
    b.add("f", "reshape", "p", shape=(5,))
    b.add("fc", "linear", "f", d_in=5, d_out=3)
    b.add("loss", "softmax_xent", ("fc", "labels"), classes=3)
    b.block("c1", "r2")
    b.block("c2", "r3")
    b.loss("loss")
    return b.build()


def test_odd_mask_sizes_match_the_oracle():
    g = _odd_masks()
    nnz = param_nnz(g, {"conv": 0.3})
    plans = list(_plans(g))
    assert len(plans) == len(STRATEGIES)
    for st, plan in plans:
        sizings, wants = [], []
        for batch in range(1, 10):
            for fmt in FORMATS:
                want = oracle(g, plan, batch, fmt, nnz)
                sizings.append(Sizing(g, batch, fmt, nnz))
                wants.append(want)
                assert evaluated(plan, sizings[-1]) == want, (st, batch, fmt)
        assert evaluated_many(plan, sizings) == wants, st


@pytest.mark.parametrize("name", ["wrn-28-2", "dc-t"])
def test_presets_match_the_oracle(name):
    if name == "wrn-28-2":
        g, batch, density = build_wrn(28, 2, 10), 10, {"conv": 0.3}
    else:
        g, batch, density = build_dc_transformer_cost(), 250, {"fc_embed": 0.3}
    nnz = param_nnz(g, density)
    plans = list(_plans(g))
    assert len(plans) == len(STRATEGIES)
    for st, plan in plans:
        want = oracle(g, plan, batch, NumericFormat.FP16, nnz)
        sizing = Sizing(g, batch, NumericFormat.FP16, nnz)
        assert evaluated(plan, sizing) == want, st
        assert evaluated_many(plan, [sizing]) == [want], st


def test_largest_batch_is_exact():
    # the largest batch the 64-bit guard admits prices exactly, with no
    # wrap in the int64 tables; one more is rejected
    g = build_wrn(16, 1, 10)
    batch = (2**63 - 1) // graph_tables(g).byte_bound
    for st, plan in _plans(g):
        want = oracle(g, plan, batch, NumericFormat.FP64, None)
        sizing = Sizing(g, batch, NumericFormat.FP64)
        assert evaluated(plan, sizing) == want, st
        assert want[0] > 2**53
        # stacked under a batch-1 row, so that each row keeps its own argmax
        small = Sizing(g, 1, NumericFormat.FP16)
        assert evaluated_many(plan, [small, sizing]) == [
            oracle(g, plan, 1, NumericFormat.FP16, None), want], st
    with pytest.raises(ConfigurationError, match="64-bit"):
        Sizing(g, batch + 1, NumericFormat.FP64)
