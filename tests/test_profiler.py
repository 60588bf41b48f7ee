"""Static memory model: model, optimizer, and activation components."""

import gc
import itertools
import math
import weakref

import pytest

from trainmem.builders import (
    build_dc_transformer_cost,
    build_desk_cnn,
    build_wrn,
    random_desk_graph,
)
from trainmem.errors import ConfigurationError
from trainmem.graph import GraphBuilder
from trainmem.numerics import NumericFormat
from trainmem.plan import CheckpointStrategy
from trainmem.profiler import (
    CSV_HEADER,
    TrainingConfig,
    activation_memory,
    flops,
    model_memory,
    optimizer_memory,
    report_to_csv_row,
    stored_forward_bytes,
    total_report,
)

S = CheckpointStrategy.parse
FP16 = NumericFormat.FP16


@pytest.fixture(scope="module")
def wrn():
    return build_wrn(28, 2, 10)


def test_model_memory_dense_fp32(wrn):
    cfg = TrainingConfig(minibatch=100, microbatch=100)
    assert model_memory(wrn, cfg) == wrn.total_param_count() * 4
    assert abs(model_memory(wrn, cfg) / 5.84e6 - 1) < 0.01


def param_bytes_oracle(graph, cfg):
    """(model, optimizer) bytes by a walk over every node's parameters.

    Each element costs the config's width, or 4 bytes for a batchnorm
    parameter under FP16.  A sparsified tensor
    keeps round(density * numel) values plus CSR indices in the model: a
    ceil(log2(cols))-bit column index per value, packed to whole bytes, and
    a 32-bit row pointer per row plus one.  The optimizer keeps 2 (SGD
    with Nesterov momentum) or 3 (Adam) value arrays per tensor.
    """
    width = cfg.precision.element_bytes
    arrays = {"sgd_nesterov": 2, "adam": 3}[cfg.optimizer_kind]
    model = optimizer = 0
    for node in graph.nodes:
        w = width
        if node.op == "batchnorm" and cfg.precision is FP16:
            w = 4
        for spec in graph.params_of(node):
            density = cfg.density.get(spec.group, 1.0) if spec.sparse else 1.0
            if density < 1.0:
                values = round(density * spec.numel)
                rows = spec.shape[0]
                cols = spec.numel // rows
                index_bytes = (values * math.ceil(math.log2(cols)) + 7) // 8
                model += values * w + index_bytes + (rows + 1) * 4
            else:
                values = spec.numel
                model += values * w
            optimizer += arrays * values * w
    return model, optimizer


@pytest.mark.parametrize("graph_name", ["wrn", "dct", *(f"random{s}" for s in range(8))])
def test_param_bytes_match_per_parameter_oracle(graph_name):
    if graph_name == "wrn":
        g = build_wrn(28, 2, 10)
    elif graph_name == "dct":
        g = build_dc_transformer_cost()
    else:
        g = random_desk_graph(int(graph_name[len("random"):]))
    batch = 4000 if g.batch_unit == "tokens" else 8
    groups = g.sparsifiable_groups()
    checked = 0
    for densities in itertools.product((1.0, 0.5, 0.01), repeat=len(groups)):
        density = {grp: d for grp, d in zip(groups, densities) if d < 1.0}
        for precision, opt in itertools.product(NumericFormat, ("sgd_nesterov", "adam")):
            cfg = TrainingConfig(density=density, precision=precision, minibatch=batch,
                                 optimizer_kind=opt, batch_unit=g.batch_unit)
            expected = param_bytes_oracle(g, cfg)
            assert (model_memory(g, cfg), optimizer_memory(g, cfg)) == expected, cfg
            mem, _ = total_report(g, cfg)
            assert (mem.model_bytes, mem.optimizer_bytes) == expected, cfg
            checked += 1
    assert checked == 3 ** len(groups) * 6


def test_model_memory_param_free_graph():
    b = GraphBuilder()
    b.add("x", "input", shape=(4,), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("loss", "softmax_xent", ("x", "y"), classes=4)
    b.loss("loss")
    g = b.build()
    cfg = TrainingConfig(minibatch=4, microbatch=4)
    assert model_memory(g, cfg) == 0
    assert optimizer_memory(g, cfg) == 0


def test_model_memory_sparse_fp16_quarter(wrn):
    dense = model_memory(wrn, TrainingConfig(minibatch=100, microbatch=100))
    sparse = model_memory(
        wrn, TrainingConfig(minibatch=100, microbatch=100, density={"conv": 0.3},
                            precision=FP16)
    )
    assert abs(dense / sparse - 4.0) < 0.15 * 4.0


def test_batchnorm_params_stay_fp32_under_fp16(wrn):
    fp16 = model_memory(wrn, TrainingConfig(minibatch=100, microbatch=100, precision=FP16))
    bn_params = 3_616
    other = wrn.total_param_count() - bn_params
    assert fp16 == other * 2 + bn_params * 4


def test_optimizer_ratios(wrn):
    cfg = TrainingConfig(minibatch=100, microbatch=100)
    assert optimizer_memory(wrn, cfg) == 2 * model_memory(wrn, cfg)
    adam = TrainingConfig(minibatch=100, microbatch=100, optimizer_kind="adam")
    assert optimizer_memory(wrn, adam) == 3 * model_memory(wrn, adam)


def test_optimizer_sparse_six_fold(wrn):
    dense = optimizer_memory(wrn, TrainingConfig(minibatch=100, microbatch=100))
    sparse = optimizer_memory(
        wrn, TrainingConfig(minibatch=100, microbatch=100, density={"conv": 0.3},
                            precision=FP16)
    )
    assert abs(dense / sparse - 6.0) < 0.15 * 6.0


def test_single_linear_activation_split():
    # One linear into the loss: the peak is the stored input plus the
    # output-gradient bytes.  Those two instants tie exactly (the logit
    # payload is retired the moment the logit gradient appears), so the
    # reported split lands on the earlier, forward-laden instant.
    b = GraphBuilder()
    b.add("x", "input", shape=(16,), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("l", "linear", "x", d_in=16, d_out=4, bias=0)
    b.add("loss", "softmax_xent", ("l", "y"), classes=4)
    b.loss("loss")
    g = b.build()
    fwd, bwd = activation_memory(g, TrainingConfig(minibatch=1, microbatch=1))
    input_bytes = 16 * 4 + 4  # pinned image and label
    logit_bytes = 4 * 4
    assert fwd + bwd == input_bytes + logit_bytes
    assert fwd + bwd == input_bytes + logit_bytes  # == inputs + output gradient
    # deeper graphs separate the parts: the backward share is nonzero
    wrn = build_wrn(10, 1, 10)
    f2, b2 = activation_memory(wrn, TrainingConfig(minibatch=4, microbatch=4))
    assert b2 > 0 and f2 > b2


def test_total_report_golden_row(wrn):
    cfg = TrainingConfig(minibatch=100, microbatch=10, precision=FP16,
                         strategy=S("residual_star:2"))
    mem, fl = total_report(wrn, cfg)
    assert abs(mem.total_mb / 12.2 - 1) < 0.10
    assert mem.total_bytes == (mem.model_bytes + mem.optimizer_bytes +
                               mem.activation_forward_bytes + mem.activation_backward_bytes)
    assert fl.ratio_to_baseline > 1.25


def test_csv_row_shape(wrn):
    cfg = TrainingConfig(minibatch=100, microbatch=100)
    mem, fl = total_report(wrn, cfg)
    row = report_to_csv_row("wrn", cfg, mem, fl)
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainingConfig(minibatch=100, microbatch=33)  # does not divide
    with pytest.raises(ConfigurationError):
        TrainingConfig(minibatch=100, microbatch=100, density={"conv": 0.0})
    with pytest.raises(ConfigurationError):
        TrainingConfig(minibatch=4000, microbatch=100, batch_unit="tokens")  # below floor
    with pytest.raises(ConfigurationError):
        TrainingConfig(minibatch=100, microbatch=100, optimizer_kind="adagrad")


def test_config_graph_mismatch(wrn):
    tokens_cfg = TrainingConfig(minibatch=4000, microbatch=250, batch_unit="tokens")
    for cost in (activation_memory, stored_forward_bytes, flops):
        with pytest.raises(ConfigurationError):
            cost(wrn, tokens_cfg)
        with pytest.raises(ConfigurationError):
            cost(wrn, TrainingConfig(minibatch=4, microbatch=4, density={"nope": 0.5}))


def test_total_monotone_in_precision_width(wrn):
    for strategy in ("none", "residual_star:2"):
        cfgs = [
            TrainingConfig(minibatch=100, microbatch=10, precision=p, strategy=S(strategy))
            for p in (NumericFormat.FP16, NumericFormat.FP32, NumericFormat.FP64)
        ]
        totals = [total_report(wrn, c)[0].total_bytes for c in cfgs]
        assert totals == sorted(totals)


def test_model_memory_monotone_in_density(wrn):
    vals = [
        model_memory(wrn, TrainingConfig(minibatch=4, microbatch=4, density={"conv": d}))
        for d in (0.1, 0.3, 0.5, 0.9)
    ]
    assert vals == sorted(vals)


def test_dct_report_runs():
    g = build_dc_transformer_cost()
    cfg = TrainingConfig(minibatch=4000, microbatch=250, batch_unit="tokens",
                         optimizer_kind="adam", strategy=S("residual:1"))
    mem, fl = total_report(g, cfg)
    assert mem.total_bytes > 0 and fl.ratio_to_baseline > 1.0


def test_profiled_graph_is_freed():
    # the per-graph cache of tables and plans must not keep a graph alive
    g = build_desk_cnn([4, 4], 3)
    for st in ("none", "residual_star:1", "every:2"):
        total_report(g, TrainingConfig(minibatch=4, microbatch=2, strategy=S(st)))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("fn", [model_memory, optimizer_memory])
def test_parameter_memory_validates_the_config(fn):
    g = build_wrn(16, 1, 10)
    with pytest.raises(ConfigurationError, match="no sparsifiable group 'nope'"):
        fn(g, TrainingConfig(density={"nope": 0.5}))
    with pytest.raises(ConfigurationError, match="batch unit"):
        fn(g, TrainingConfig(minibatch=4000, microbatch=4000, batch_unit="tokens"))
