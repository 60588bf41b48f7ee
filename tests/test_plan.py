"""Checkpoint sets, the chain formula, and strategy ordering."""

import numpy as np
import pytest

from trainmem.builders import build_desk_cnn, build_wrn, random_desk_graph
from trainmem.engine import EngineConfig, init_params, run_step
from trainmem.errors import ConfigurationError
from trainmem.graph import NOTHING, STORAGE_CLASS, GraphBuilder
from trainmem.numerics import NumericFormat
from trainmem.plan import (
    BACKPROP,
    HOLD,
    RECOMPUTE,
    CheckpointStrategy,
    Sizing,
    checkpointed_exits,
    plan_for,
    replay,
)
from trainmem.profiler import TrainingConfig, activation_memory, flops

S = CheckpointStrategy.parse


def chain(length, staged=False):
    g = GraphBuilder(name="chain")
    g.add("x0", "input", shape=(1,), dtype="float")
    g.add("y", "input", shape=(), dtype="int")
    prev = "x0"
    if staged:
        prev = g.add("stage", "reshape", "x0", shape=(1,))
    for i in range(length - 1):
        prev = g.add(f"n{i + 1}", "linear", prev, d_in=1, d_out=1, bias=0)
    g.add("loss", "softmax_xent", (prev, "y"), classes=1)
    g.loss("loss")
    return g.build()


def kept(g, strategy):
    """Nodes whose stored payload the plan retains through the forward pass."""
    return {n.node_id for n, k in zip(g.nodes, plan_for(g, strategy).keep) if k}


def test_every_m_checkpoint_positions():
    g = chain(20)
    ck = kept(g, S("every:4"))
    positions = sorted(int(c[1:]) for c in ck if c.startswith("n"))
    assert positions == [4, 8, 12, 16]
    assert "loss" not in ck


def test_none_keeps_all_storing_nodes():
    g = build_desk_cnn([4, 4], 3)
    ck = kept(g, S("none"))
    storing = {n.node_id for n in g.nodes if STORAGE_CLASS[n.op] != NOTHING}
    assert ck == storing


def test_wrn_residual2_checkpoints_six_exits():
    g = build_wrn(28, 2, 10)
    exits = checkpointed_exits(g, S("residual:2"))
    assert len(exits) == 6  # 12 residual blocks, every other exit
    assert len(checkpointed_exits(g, S("residual:1"))) == 12


def test_residual_requires_annotations():
    g = chain(6)
    with pytest.raises(ConfigurationError):
        plan_for(g, S("residual:1"))


def test_network_input_block_exit_is_not_held():
    # A block exit that is a network input is pinned for the whole step and
    # the kept payload of the conv reading it holds it too: no strategy
    # charges it again as a hold.
    b = GraphBuilder(name="pinned-exit")
    b.add("img", "input", shape=(2, 4, 4), dtype="float")
    b.add("labels", "input", shape=(), dtype="int")
    b.add("c1", "conv2d", "img", c_in=2, c_out=2, k1=3, k2=3, stride=1, pad=1)
    b.add("r1", "relu", "c1")
    b.add("p", "avgpool", "r1", window=4)
    b.add("f", "reshape", "p", shape=(2,))
    b.add("loss", "softmax_xent", ("f", "labels"), classes=2)
    b.block("img", "img")
    b.block("c1", "r1")
    b.loss("loss")
    g = b.build()
    for st in ("residual:1", "residual_star:1"):
        assert [HOLD, g.index["img"]] not in plan_for(g, S(st)).events.tolist(), st


def test_chain_nine_vs_twenty():
    # m=4, n=5: nine stored quantities with checkpointing, twenty without
    g = chain(20)
    sz = Sizing(g, 1, NumericFormat.FP32)
    label_pin = 4
    with_ckpt = replay(g, S("every:4"), sz).peak_forward_bytes
    without = replay(g, S("none"), sz).peak_forward_bytes
    assert (with_ckpt - label_pin) / 4 == 9
    assert (without - label_pin) / 4 == 20


def test_chain_formula_sampled():
    # full exhaustive sweep lives in the acceptance suite; spot-check here
    for m, n in [(1, 1), (1, 7), (7, 1), (2, 3), (5, 5), (3, 8)]:
        g = chain(m * n, staged=True)
        sz = Sizing(g, 1, NumericFormat.FP32)
        r = replay(g, CheckpointStrategy("every", m), sz)
        assert (r.peak_forward_bytes - 4) / 4 == n + m, (m, n)


def test_strategy_dominance_and_recompute_ordering():
    # Activation bytes decrease along star:2 <= res:2 <= res:1 <= no_bn <= none.
    # Recompute FLOPs increase in the opposite direction within each family;
    # between residual:m and residual_star:m they are a near-tie (both
    # re-execute the same convolutions per segment, differing only in
    # elementwise recomputes), so the cross-family comparison is not asserted.
    order = ["residual_star:2", "residual:2", "residual:1", "no_bn", "none"]
    rec_chains = [
        ["none", "no_bn", "residual:1", "residual:2"],
        ["none", "no_bn", "residual_star:1", "residual_star:2"],
    ]
    graphs = [build_wrn(16, 2, 10)] + [random_desk_graph(s) for s in range(6)]
    for g in graphs:
        batch = 4
        acts, recs = {}, {}
        for st in set(order) | {"residual_star:1"}:
            cfg = TrainingConfig(minibatch=batch, microbatch=batch, strategy=S(st))
            acts[st] = sum(activation_memory(g, cfg))
            recs[st] = flops(g, cfg).recompute_flops
        for a, b in zip(order, order[1:]):
            assert acts[a] <= acts[b], (g.name, a, b, acts)
        for chain_ in rec_chains:
            for a, b in zip(chain_, chain_[1:]):
                assert recs[a] <= recs[b], (g.name, a, b, recs)
        assert recs["none"] == 0


def test_recompute_zero_iff_none():
    g = build_desk_cnn([4, 4], 3)
    cfg = TrainingConfig(minibatch=4, microbatch=4)
    assert flops(g, cfg).recompute_flops == 0
    cfg2 = TrainingConfig(minibatch=4, microbatch=4, strategy=S("residual_star:1"))
    assert flops(g, cfg2).recompute_flops > 0


def test_sparse_flop_scaling_halves_exactly():
    # halving density halves each sparsified node's FLOPs exactly (the
    # per-weight cost times the integer nonzero count)
    from trainmem.profiler import param_nnz

    g = build_wrn(16, 2, 10)

    def conv_flops(density):
        nnz = param_nnz(g, {"conv": density})
        return [g.forward_flops(n, nnz) for n in g.nodes if n.op == "conv2d" and n.p("sparse")]

    at_half = conv_flops(0.5)
    at_quarter = conv_flops(0.25)
    assert all(2 * q == h for q, h in zip(at_quarter, at_half))


def test_activation_monotone_in_microbatch():
    g = build_wrn(16, 2, 10)
    vals = []
    for mb in (2, 4, 10, 20):
        cfg = TrainingConfig(minibatch=20, microbatch=mb, strategy=S("residual_star:2"))
        vals.append(sum(activation_memory(g, cfg)))
    assert vals == sorted(vals)


def test_sizing_rejects_empty_batch():
    # an empty batch is no training step
    with pytest.raises(ConfigurationError, match="batch"):
        Sizing(chain(3), 0, NumericFormat.FP32)


def test_flops_exact_beyond_64_bits():
    g = build_wrn(16, 1, 10)
    one = flops(g, TrainingConfig(minibatch=1))
    big = flops(g, TrainingConfig(minibatch=2**45, microbatch=1))
    assert big.forward_flops == 2**45 * one.forward_flops > 2**63


def test_byte_counts_beyond_64_bits_rejected():
    with pytest.raises(ConfigurationError, match="64-bit"):
        Sizing(build_wrn(16, 1, 10), 2**50, NumericFormat.FP32)


def _relu_after_relu():
    # conv -> batchnorm -> relu r1 -> relu r2 -> conv: under trimming r1
    # drops its mask (it reads a norm) and r2 keeps its own
    b = GraphBuilder(name="relu-relu")
    b.add("img", "input", shape=(2, 4, 4), dtype="float")
    b.add("labels", "input", shape=(), dtype="int")
    b.add("c1", "conv2d", "img", c_in=2, c_out=2, k1=3, k2=3, stride=1, pad=1)
    b.add("b1", "batchnorm", "c1", channels=2)
    b.add("r1", "relu", "b1")
    b.add("r2", "relu", "r1")
    b.add("c2", "conv2d", "r2", c_in=2, c_out=2, k1=3, k2=3, stride=1, pad=1)
    b.add("p", "avgpool", "c2", window=4)
    b.add("f", "reshape", "p", shape=(2,))
    b.add("loss", "softmax_xent", ("f", "labels"), classes=2)
    b.loss("loss")
    return b.build()


def test_relu_keeping_its_mask_recomputes_nothing():
    # r2's backward reads only its mask, so the only recompute is b1 for
    # r1's backward, after r2's
    g = _relu_after_relu()
    plan = plan_for(g, S("no_bn"))
    events = plan.events.tolist()
    before_r2 = events[:events.index([BACKPROP, g.index["r2"]])]
    assert not [op for op, _ in before_r2 if op == RECOMPUTE]
    assert plan.recompute_events == 1

    rng = np.random.default_rng(0)
    batch = {"img": rng.normal(size=(3, 2, 4, 4)), "labels": rng.integers(0, 2, size=3)}
    params = init_params(g, seed=0)
    base = run_step(g, params, batch, EngineConfig(strategy=S("none")))
    trimmed = run_step(g, params, batch, EngineConfig(strategy=S("no_bn")))
    for name, grad in base.grads.items():
        assert np.array_equal(grad, trimmed.grads[name]), name
    assert trimmed.peak_bytes == plan.evaluate(Sizing(g, 3, NumericFormat.FP32)).peak_bytes
    assert trimmed.recompute_events == 1
