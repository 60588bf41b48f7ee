"""Optimizer updates, loss scaling, and the FP16 path."""

import math

import numpy as np
import pytest

from trainmem.errors import ContractError
from trainmem.numerics import FlatLayout, half_round
from trainmem.optim import (
    AdamState,
    LossScaler,
    SGDState,
    adam_step,
    fp16_update_path,
    loss_scale_update,
    sgd_nesterov_step,
)
from trainmem.profiler import OPTIMIZER_VALUE_ARRAYS


def test_sgd_zero_grad_no_change():
    w = np.array([1.0, -2.0])
    state = SGDState.init(w, weight_decay=0.0)
    sgd_nesterov_step(w, np.zeros(2), state, lr=0.1)
    assert np.array_equal(w, [1.0, -2.0])
    assert np.array_equal(state.momentum, [0.0, 0.0])


def test_sgd_hand_values():
    # w=1, g=1, mu=0.9, lr=0.1, wd=0: b -> 1, w -> 1 - 0.1*(1 + 0.9) = 0.81
    w = np.array([1.0])
    state = SGDState.init(w, mu=0.9, weight_decay=0.0)
    sgd_nesterov_step(w, np.array([1.0]), state, lr=0.1)
    assert np.allclose(state.momentum, [1.0])
    assert np.allclose(w, [0.81])


def test_sgd_one_value_array_per_param():
    w = np.zeros(7)  # two tensors of 3 and 2 x 2 elements, laid end to end
    state = SGDState.init(w)
    assert [b.shape for b in state.buffers()] == [w.shape]
    # the cost model charges the gradient plus this one momentum buffer
    assert OPTIMIZER_VALUE_ARRAYS["sgd_nesterov"] == 1 + 1


def test_adam_hand_values():
    # scalar w=0, g=1, beta=(0.9, 0.98), lr=1e-3, t=1:
    # m=0.1, v=0.02, corrected to 1 and 1; update ~ -1e-3/(1 + eps)
    w = np.array([0.0])
    state = AdamState.init(w)
    adam_step(w, np.array([1.0]), state, lr=1e-3, weight_decay=0.0)
    assert np.allclose(state.m, [0.1])
    assert np.allclose(state.v, [0.02])
    assert abs(w[0] + 1e-3 / (1.0 + 1e-8)) < 1e-12
    assert [b.shape for b in state.buffers()] == [w.shape] * 2
    # the cost model charges the gradient plus the two moment buffers
    assert OPTIMIZER_VALUE_ARRAYS["adam"] == 1 + 2


def test_adam_zero_grad_from_zero_state():
    w = np.array([0.7])
    state = AdamState.init(w)
    adam_step(w, np.zeros(1), state, lr=1e-3, weight_decay=0.0)
    assert w[0] == 0.7


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(0)
    w = rng.normal(size=8)
    state = AdamState.init(w)
    for _ in range(200):
        adam_step(w, rng.normal(size=8) * 10, state, lr=1e-3)
        assert np.all(state.v >= 0)


@pytest.mark.parametrize("adam", [False, True])
def test_keep_zeroes_parameters_and_buffers_outside_it(adam):
    rng = np.random.default_rng(3)
    w = rng.normal(size=12)
    keep = rng.random(12) < 0.5
    state = AdamState.init(w) if adam else SGDState.init(w)
    for _ in range(3):
        if adam:
            adam_step(w, rng.normal(size=12), state, lr=0.1, keep=keep)
        else:
            sgd_nesterov_step(w, rng.normal(size=12), state, lr=0.1, keep=keep)
        assert not np.any(w[~keep]) and np.all(w[keep])
        for buf in state.buffers():
            assert not np.any(buf[~keep]) and np.all(buf[keep])


def test_buffers_of_another_shape_are_rejected():
    w = np.zeros(4)
    short_momentum = SGDState(np.zeros(3))
    short_second_moment = AdamState(np.zeros(4), np.zeros(3))
    for step, state, g in ((sgd_nesterov_step, SGDState.init(w), np.zeros(5)),
                           (sgd_nesterov_step, short_momentum, np.zeros(4)),
                           (adam_step, AdamState.init(w), np.zeros(5)),
                           (adam_step, short_second_moment, np.zeros(4))):
        with pytest.raises(ContractError, match="does not match"):
            step(w, g, state, lr=0.1)
    w = np.zeros(4, np.float32)
    with pytest.raises(ContractError, match="does not match"):
        fp16_update_path(w, np.zeros(5, np.float32), SGDState.init(w), 0.1, FlatLayout({"w": w}))


def test_fp16_path_rejects_a_non_float32_carrier():
    w = np.ones(4, np.float32)
    layout = FlatLayout({"w": w})
    for args in ((w.astype(np.float64), np.zeros(4, np.float32)),
                 (w, np.zeros(4)),
                 (w, np.zeros(4, np.float16))):
        with pytest.raises(ContractError, match="float32"):
            fp16_update_path(*args, SGDState.init(w), 0.1, layout)
    state = SGDState.init(w)
    state.momentum = np.zeros(4)
    with pytest.raises(ContractError, match="float32"):
        fp16_update_path(w, np.zeros(4, np.float32), state, 0.1, layout)


def test_loss_scaler_overall_automaton():
    s = LossScaler(scale=2.0 ** 16, growth_interval=1000)
    s2, skip = loss_scale_update(s, True)
    assert skip and s2.scale == 2.0 ** 15
    # growth_interval consecutive clean updates double the scale
    s3 = LossScaler(scale=2.0 ** 16, growth_interval=3)
    for _ in range(3):
        s3, skip = loss_scale_update(s3, False)
        assert not skip
    assert s3.scale == 2.0 ** 17
    # [clean x999, overflow, clean x1000] from 2^16 ends at 2^16
    s4 = LossScaler(scale=2.0 ** 16, growth_interval=1000)
    for _ in range(999):
        s4, _ = loss_scale_update(s4, False)
    s4, _ = loss_scale_update(s4, True)
    for _ in range(1000):
        s4, _ = loss_scale_update(s4, False)
    assert s4.scale == 2.0 ** 16


def test_loss_scaler_power_of_two_invariant():
    rng = np.random.default_rng(1)
    s = LossScaler(scale=2.0 ** 10, growth_interval=4)
    for _ in range(500):
        s, _ = loss_scale_update(s, bool(rng.random() < 0.2))
        assert s.scale == 2.0 ** round(math.log2(s.scale))
        assert s.min_scale <= s.scale <= s.max_scale
        assert s.clean_streak < s.growth_interval


def _one_tensor(values) -> tuple[np.ndarray, FlatLayout]:
    """FP16 parameters of one tensor and their layout."""
    w = half_round(np.asarray(values, np.float32))
    return w, FlatLayout({"w": w})


def test_fp16_momentum_rescale_roundtrip():
    # a buffer whose largest entry is 3e-6 and whose small entries sit below
    # the 2^-24 subnormal floor: without rescaling the small entries flush
    # to zero; with it every entry round-trips within 2^-11 relative
    tiny = np.array([3e-6] * 4 + [1e-8, 2e-8, 2.5e-8, 2.9e-8] * 3)
    below_floor = tiny < 2.0 ** -25  # under half the smallest subnormal
    assert below_floor.sum() == 12
    assert np.all(half_round(tiny[below_floor]) == 0.0)
    w, layout = _one_tensor(np.ones(16))
    state = SGDState.init(w, mu=0.9, weight_decay=0.0)
    state.momentum[...] = tiny
    fp16_update_path(w, np.zeros_like(w), state, lr=0.0, layout=layout)
    [[scale]] = state.fp16_scales
    recovered = state.momentum * scale
    expected = np.asarray(0.9 * tiny.astype(np.float32), dtype=np.float64)
    rel = np.max(np.abs(recovered - expected) / expected)
    assert rel <= 2.0 ** -11
    # ... whereas rounded without rescaling the sub-floor values vanish
    assert np.all(half_round(0.9 * tiny.astype(np.float32))[below_floor] == 0.0)


def test_fp16_rescale_identity_window():
    w, layout = _one_tensor(np.ones(4))
    state = SGDState.init(w, mu=1.0, weight_decay=0.0)
    state.momentum[...] = [2.0 ** 10, 1.0, 0.0, -3.0]
    fp16_update_path(w, np.zeros_like(w), state, lr=0.0, layout=layout)
    [[scale]] = state.fp16_scales
    assert scale == 1.0  # max already sits at 2^10
    assert np.array_equal(state.momentum, [2.0 ** 10, 1.0, 0.0, -3.0])


def test_fp16_all_zero_momentum_scale_one():
    w, layout = _one_tensor(np.ones(4))
    state = SGDState.init(w, mu=0.9, weight_decay=0.0)
    fp16_update_path(w, np.zeros_like(w), state, lr=0.1, layout=layout)
    [[scale]] = state.fp16_scales
    assert scale == 1.0


def test_reset_momentum_clears_fp16_scales():
    # rewire zeroes the momenta; a stale storage scale must not survive it
    w, layout = _one_tensor(np.ones(4))
    state = SGDState.init(w, mu=0.9, weight_decay=0.0)
    state.momentum[...] = 3e-6
    fp16_update_path(w, np.zeros_like(w), state, lr=0.0, layout=layout)
    [[scale]] = state.fp16_scales
    assert scale != 1.0
    state.reset_momentum()
    assert state.fp16_scales == []
    assert not np.any(state.momentum)


def test_fp16_path_stays_finite():
    rng = np.random.default_rng(8)
    w, layout = _one_tensor(rng.normal(size=32))
    state = SGDState.init(w, weight_decay=0.0)
    for _ in range(50):
        g = half_round(rng.normal(size=32, scale=100.0).astype(np.float32))
        fp16_update_path(w, g, state, lr=0.01, layout=layout)
        assert np.all(np.isfinite(w))
        assert np.all(np.isfinite(state.momentum))


@pytest.mark.parametrize("adam", [False, True])
def test_fp16_update_path_packed_equals_per_tensor(adam):
    # One call over several tensors laid end to end must equal one call per
    # tensor, each with its own state: no scale, mask or update leaks across
    # the tensors' boundaries in the flat buffers.
    rng = np.random.default_rng(21)
    shapes = {"conv": (3, 2, 3, 3), "bias": (5,), "fc": (4, 6)}
    masks = {"conv": rng.random(shapes["conv"]) < 0.5}
    tensors = {k: half_round(rng.normal(size=s, scale=0.3).astype(np.float32))
               for k, s in shapes.items()}

    def make_state(w):
        if adam:
            return AdamState.init(w)
        return SGDState.init(w, mu=0.9, weight_decay=5e-4)

    layout = FlatLayout(tensors)
    w = layout.pack(tensors)
    keep = layout.pack({k: masks.get(k, np.ones(s, bool)) for k, s in shapes.items()})
    state = make_state(w)
    singles = {}  # name -> (flat parameters, state, layout, keep) of that tensor alone
    for k, t in tensors.items():
        single = t.ravel().copy()
        singles[k] = (single, make_state(single), FlatLayout({k: t}),
                      masks[k].ravel() if k in masks else None)
    for it in range(4):
        # magnitudes two binades apart, so the per-tensor scales differ
        grads = {k: half_round((rng.choice([-1, 1], size=s) * rng.uniform(0.5, 1, size=s)
                                * 4.0**-i).astype(np.float32))
                 for i, (k, s) in enumerate(shapes.items())}
        fp16_update_path(w, layout.pack(grads), state, 0.05, layout, keep)
        for k, (single, st, one, kp) in singles.items():
            fp16_update_path(single, grads[k].ravel(), st, 0.05, one, kp)
        params = layout.unpack(w)
        bufs = [layout.unpack(b) for b in state.buffers()]
        for i, (k, (single, st, _, _)) in enumerate(singles.items()):
            assert single.dtype == w.dtype
            assert single.tobytes() == params[k].tobytes(), (it, k)
            for b, b1 in zip(bufs, st.buffers()):
                assert b1.dtype == b[k].dtype and b1.tobytes() == b[k].tobytes(), (it, k)
            for scales, scales1 in zip(state.fp16_scales, st.fp16_scales):
                assert scales[i] == scales1[0], (it, k)
    assert len(set(np.concatenate(state.fp16_scales))) > 2  # the scales really differ
    assert np.all(layout.unpack(w)["conv"][~masks["conv"]] == 0.0)
    assert np.all(np.isfinite(w))
