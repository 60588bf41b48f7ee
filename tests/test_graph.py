"""Graph IR: builders, shape propagation, parameter accounting, FLOP models."""

import numpy as np
import pytest

from trainmem.builders import (
    DEFAULT_DC_TRANSFORMER,
    build_dc_transformer_cost,
    build_desk_cnn,
    build_wrn,
)
from trainmem.errors import ArchSemanticError, ConfigurationError
from trainmem.graph import CACHED_STATS, STORAGE_CLASS, ComputationGraph, GraphBuilder, Node


def test_wrn_parameter_count():
    g = build_wrn(28, 2, 10)
    total = g.total_param_count()
    assert abs(total / 1.46e6 - 1) < 0.01
    # hand count: 24 block convs + stem + batch norms + classifier
    assert total == 1_451_520 + 432 + 3_616 + 1_290


def test_wrn_sparsifiable_share():
    g = build_wrn(28, 2, 10)
    group = g.group_param_count("conv")
    assert group / g.total_param_count() > 0.996
    # group + excluded == total, exactly
    excluded = sum(p.numel for p in g.all_params() if not p.sparse)
    assert group + excluded == g.total_param_count()


def test_wrn_block_structure():
    g = build_wrn(10, 1, 10)
    assert len(g.residual_blocks) == 3  # 3 groups x 1 block
    assert (28 - 4) % 6 == 0
    with pytest.raises(ConfigurationError):
        build_wrn(27, 2, 10)


def test_desk_cnn_shapes():
    g = build_desk_cnn([8, 16], classes=4)
    # stride-2 second stage halves the spatial extents
    assert g.out_shape["b1_add"] == (8, 8, 8)
    assert g.out_shape["b2_add"] == (16, 4, 4)
    g2 = build_desk_cnn([8, 8], classes=4, with_batchnorm=False)
    assert all(n.op != "batchnorm" for n in g2.nodes)
    assert all(STORAGE_CLASS[n.op] != CACHED_STATS for n in g2.nodes)
    with pytest.raises(ConfigurationError):
        build_desk_cnn([])


def test_dc_transformer_parameters():
    g = build_dc_transformer_cost()
    total = g.total_param_count()
    assert abs(total / 38.7e6 - 1) < 0.03
    share = g.group_param_count("fc_embed") / total
    assert share > 0.98
    halved = build_dc_transformer_cost(
        DEFAULT_DC_TRANSFORMER.scaled(
            encoder_layers=4, decoder_layers=3,
            encoder_kernels=(3, 7, 15, 31), decoder_kernels=(3, 7, 15),
        )
    )
    assert halved.total_param_count() < total


def test_dc_transformer_is_cost_model_only():
    g = build_dc_transformer_cost()
    assert any(n.op == "dynamic_conv_cost" for n in g.nodes)
    assert g.batch_unit == "tokens"
    # the output head is fused: no vocabulary-sized activation anywhere
    vocab = DEFAULT_DC_TRANSFORMER.vocab
    assert all(g.out_elements(n.node_id) < vocab for n in g.nodes if n.op != "input")


def test_random_dag_topological_property():
    rng = np.random.default_rng(0)
    for _ in range(30):
        b = GraphBuilder()
        b.add("x", "input", shape=(4,), dtype="float")
        b.add("y", "input", shape=(), dtype="int")
        ids = ["x"]
        for i in range(int(rng.integers(3, 12))):
            src = ids[int(rng.integers(0, len(ids)))]
            ids.append(b.add(f"n{i}", "linear", src, d_in=4, d_out=4))
        b.add("out", "linear", ids[-1], d_in=4, d_out=2)
        b.add("loss", "softmax_xent", ("out", "y"), classes=2)
        b.loss("loss")
        g = b.build()
        for n in g.nodes:
            for src in n.inputs:
                assert g.index[src] < g.index[n.node_id]


def test_shape_propagation_deterministic():
    a = build_wrn(16, 1, 10)
    b = build_wrn(16, 1, 10)
    assert a.out_shape == b.out_shape
    assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]


def test_conv_flop_formula():
    # brute-force oracle: one multiply and one add per weight-tap per output
    b = GraphBuilder()
    b.add("x", "input", shape=(16, 32, 32), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("c", "conv2d", "x", c_in=16, c_out=32, k1=3, k2=3, stride=1, pad=1)
    b.add("p", "avgpool", "c", window=32)
    b.add("f", "reshape", "p", shape=(32,))
    b.add("l", "linear", "f", d_in=32, d_out=10)
    b.add("loss", "softmax_xent", ("l", "y"), classes=10)
    b.loss("loss")
    g = b.build()
    assert g.forward_flops(g.node("c")) == 2 * 32 * 16 * 9 * 32 * 32 == 9_437_184
    assert g.forward_flops(g.node("l")) == 2 * 32 * 10


def test_validation_errors():
    with pytest.raises(ArchSemanticError):
        ComputationGraph([Node("a", "relu", ("a",))], "a")  # self edge
    b = GraphBuilder()
    b.add("x", "input", shape=(3, 8, 8), dtype="float")
    b.add("c", "conv2d", "x", c_in=4, c_out=8, k1=3, k2=3, stride=1, pad=1)
    b.loss("c")
    with pytest.raises(ArchSemanticError):
        b.build()  # channel mismatch
