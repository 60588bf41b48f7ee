"""The kernel table behind `forward_op` and `backward_op`: an entry for
every executable kind, the pass-through gradients among them, unknown
kinds rejected by both entries, and the engine's gradients through the
table against finite differences."""

import numpy as np
import pytest

from trainmem import kernels
from trainmem.errors import ContractError, UnsupportedOperationError
from trainmem.graph import STORAGE_CLASS, Node
from trainmem.kernels import QuantCtx, backward_op, forward_op
from trainmem.numerics import NumericFormat

FP32 = NumericFormat.FP32


def test_kernel_table_has_both_entries_for_every_executable_kind():
    # every kind but the graph inputs and the cost-model-only one runs, and
    # any of them can be reached by a backward pass: add, reshape and
    # transpose too, whose gradients read no stored value
    executable = set(STORAGE_CLASS) - {"input", "dynamic_conv_cost"}
    assert {"add", "reshape", "transpose"} <= executable
    assert set(kernels._KERNELS) == executable
    assert all(callable(fwd) and callable(bwd) for fwd, bwd in kernels._KERNELS.values())


def test_pass_through_gradients_are_table_entries():
    ctx = QuantCtx(FP32)
    rng = np.random.default_rng(5)
    x = ctx.asarray(rng.normal(size=(2, 4, 2, 3)))
    add = Node("a", "add", ("x", "y"), {})
    (ga, gb), grads = backward_op(add, x, {}, {}, ctx)
    assert ga is x and gb is x and grads == {}  # one shared upstream; the engine copies
    transpose = Node("t", "transpose", ("x",), dict(perm=(1, 2, 0)))
    out, _ = forward_op(transpose, [x], {}, ctx)
    (back,), _ = backward_op(transpose, out, {}, {}, ctx)
    assert back.shape == x.shape and np.array_equal(back, x)
    reshape = Node("r", "reshape", ("x",), dict(shape=(24,)))
    out, _ = forward_op(reshape, [x], {}, ctx)
    assert out.shape == (2, 24)
    (back,), _ = backward_op(reshape, out, {"in_shape": (4, 2, 3)}, {}, ctx)
    assert back.shape == x.shape and np.array_equal(back, x)
    with pytest.raises(ContractError, match="missing payload 'in_shape'"):
        backward_op(reshape, out, {}, {}, ctx)


@pytest.mark.parametrize("kind", ["no_such_kind", "dynamic_conv_cost", "input"])
def test_unknown_kind_is_unsupported_in_both_entries(kind):
    node = Node("n", kind, ("x",), {})
    ctx = QuantCtx(FP32)
    x = np.zeros((2, 3), np.float32)
    with pytest.raises(UnsupportedOperationError, match="no executable semantics"):
        forward_op(node, [x], {}, ctx)
    with pytest.raises(UnsupportedOperationError, match="no backward semantics"):
        backward_op(node, x, {"x": x}, {}, ctx)


def test_folded_gradients_pass_the_finite_difference_check(monkeypatch):
    # criterion 9's FP64 graph feeds one tensor to an add and a ReLU whose
    # output is the add's other input, then a transpose and a reshape: the
    # add's shared upstream, the engine's copy where it would alias and the
    # two view gradients all come from `backward_op`
    from trainmem import engine
    from trainmem.verification import check_09_numerics

    kinds = set()

    def recording(node, *args, **kwargs):
        kinds.add(node.op)
        return backward_op(node, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_op", recording)
    check_09_numerics()  # raises on a finite-difference mismatch
    assert {"add", "reshape", "transpose", "pad_channels", "avgpool"} <= kinds
