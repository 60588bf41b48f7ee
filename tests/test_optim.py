"""Optimizer updates, loss scaling, and the FP16 path."""

import math

import numpy as np
import pytest

from trainmem.numerics import half_round
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
    params = {"w": np.array([1.0, -2.0])}
    state = SGDState.init(params, weight_decay=0.0)
    sgd_nesterov_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert np.array_equal(state.momentum["w"], [0.0, 0.0])


def test_sgd_hand_values():
    # w=1, g=1, mu=0.9, lr=0.1, wd=0: b -> 1, w -> 1 - 0.1*(1 + 0.9) = 0.81
    params = {"w": np.array([1.0])}
    state = SGDState.init(params, mu=0.9, weight_decay=0.0)
    sgd_nesterov_step(params, {"w": np.array([1.0])}, state, lr=0.1)
    assert np.allclose(state.momentum["w"], [1.0])
    assert np.allclose(params["w"], [0.81])


def test_sgd_one_value_array_per_param():
    params = {"a": np.zeros(3), "b": np.zeros((2, 2))}
    state = SGDState.init(params)
    assert set(state.momentum) == set(params)
    # the cost model charges the gradient plus this one momentum buffer
    assert OPTIMIZER_VALUE_ARRAYS["sgd_nesterov"] == 1 + 1


def test_adam_hand_values():
    # scalar w=0, g=1, beta=(0.9, 0.98), lr=1e-3, t=1:
    # m=0.1, v=0.02, corrected to 1 and 1; update ~ -1e-3/(1 + eps)
    params = {"w": np.array([0.0])}
    state = AdamState.init(params)
    adam_step(params, {"w": np.array([1.0])}, state, lr=1e-3, weight_decay=0.0)
    assert np.allclose(state.m["w"], [0.1])
    assert np.allclose(state.v["w"], [0.02])
    assert abs(params["w"][0] + 1e-3 / (1.0 + 1e-8)) < 1e-12
    assert set(state.m) == set(state.v) == set(params)
    # the cost model charges the gradient plus the two moment buffers
    assert OPTIMIZER_VALUE_ARRAYS["adam"] == 1 + 2


def test_adam_zero_grad_from_zero_state():
    params = {"w": np.array([0.7])}
    state = AdamState.init(params)
    adam_step(params, {"w": np.zeros(1)}, state, lr=1e-3, weight_decay=0.0)
    assert params["w"][0] == 0.7


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=8)}
    state = AdamState.init(params)
    for _ in range(200):
        adam_step(params, {"w": rng.normal(size=8) * 10}, state, lr=1e-3)
        assert np.all(state.v["w"] >= 0)


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


def test_fp16_momentum_rescale_roundtrip():
    # a buffer whose largest entry is 3e-6 and whose small entries sit below
    # the 2^-24 subnormal floor: without rescaling the small entries flush
    # to zero; with it every entry round-trips within 2^-11 relative
    tiny = np.array([3e-6] * 4 + [1e-8, 2e-8, 2.5e-8, 2.9e-8] * 3)
    below_floor = tiny < 2.0 ** -25  # under half the smallest subnormal
    assert below_floor.sum() == 12
    assert np.all(half_round(tiny[below_floor]) == 0.0)
    params = {"w": half_round(np.ones(16))}
    state = SGDState.init(params, mu=0.9, weight_decay=0.0)
    state.momentum["w"] = tiny.copy()
    fp16_update_path(params, {"w": np.zeros(16)}, state, lr=0.0)
    scale = state.fp16_scales[(0, "w")]
    recovered = state.momentum["w"] * scale
    expected = np.asarray(0.9 * tiny.astype(np.float32), dtype=np.float64)
    rel = np.max(np.abs(recovered - expected) / expected)
    assert rel <= 2.0 ** -11
    # ... whereas rounded without rescaling the sub-floor values vanish
    assert np.all(half_round(0.9 * tiny.astype(np.float32))[below_floor] == 0.0)


def test_fp16_rescale_identity_window():
    params = {"w": half_round(np.ones(4))}
    state = SGDState.init(params, mu=1.0, weight_decay=0.0)
    state.momentum["w"] = np.array([2.0 ** 10, 1.0, 0.0, -3.0])
    fp16_update_path(params, {"w": np.zeros(4)}, state, lr=0.0)
    assert state.fp16_scales[(0, "w")] == 1.0  # max already sits at 2^10
    assert np.array_equal(state.momentum["w"], [2.0 ** 10, 1.0, 0.0, -3.0])


def test_fp16_all_zero_momentum_scale_one():
    params = {"w": half_round(np.ones(4))}
    state = SGDState.init(params, mu=0.9, weight_decay=0.0)
    fp16_update_path(params, {"w": np.zeros(4)}, state, lr=0.1)
    assert state.fp16_scales[(0, "w")] == 1.0


def test_reset_momentum_clears_fp16_scales():
    # rewire zeroes the momenta; a stale storage scale must not survive it
    params = {"w": half_round(np.ones(4))}
    state = SGDState.init(params, mu=0.9, weight_decay=0.0)
    state.momentum["w"] = np.full(4, 3e-6)
    fp16_update_path(params, {"w": np.zeros(4)}, state, lr=0.0)
    assert state.fp16_scales[(0, "w")] != 1.0
    state.reset_momentum()
    assert state.fp16_scales == {}
    assert not np.any(state.momentum["w"])


def test_fp16_path_stays_finite():
    rng = np.random.default_rng(8)
    params = {"w": half_round(rng.normal(size=32))}
    state = SGDState.init(params, weight_decay=0.0)
    for _ in range(50):
        g = half_round(rng.normal(size=32, scale=100.0))
        fp16_update_path(params, {"w": g}, state, lr=0.01)
        assert np.all(np.isfinite(params["w"]))
        assert np.all(np.isfinite(state.momentum["w"]))


@pytest.mark.parametrize("adam", [False, True])
def test_fp16_update_path_packed_equals_per_tensor(adam):
    # One call over a dict of tensors must equal one call per tensor, each
    # with its own state: no scale, mask or update leaks across the tensors'
    # boundaries in the packed buffers.
    rng = np.random.default_rng(21)
    shapes = {"conv": (3, 2, 3, 3), "bias": (5,), "fc": (4, 6)}
    masks = {"conv": rng.random(shapes["conv"]) < 0.5}

    def init():
        return {k: half_round(rng.normal(size=s, scale=0.3).astype(np.float32))
                for k, s in shapes.items()}

    def make_state(params):
        if adam:
            return AdamState.init(params)
        return SGDState.init(params, mu=0.9, weight_decay=5e-4)

    params = init()
    state = make_state(params)
    singles = {k: ({k: v.copy()},) for k, v in params.items()}
    singles = {k: (p, make_state(p)) for k, (p,) in singles.items()}
    for it in range(4):
        # magnitudes two binades apart, so the per-tensor scales differ
        grads = {k: half_round((rng.choice([-1, 1], size=s) * rng.uniform(0.5, 1, size=s)
                                * 4.0**-i).astype(np.float32))
                 for i, (k, s) in enumerate(shapes.items())}
        fp16_update_path(params, grads, state, 0.05, masks=masks)
        for k, (p, st) in singles.items():
            fp16_update_path(p, {k: grads[k]}, st, 0.05,
                             masks={k: masks[k]} if k in masks else None)
        bufs = [state.m, state.v] if adam else [state.momentum]
        scales = {}
        for k, (p, st) in singles.items():
            one = [st.m, st.v] if adam else [st.momentum]
            assert p[k].dtype == params[k].dtype
            assert p[k].tobytes() == params[k].tobytes(), (it, k)
            for b, b1 in zip(bufs, one):
                assert b1[k].dtype == b[k].dtype and b1[k].tobytes() == b[k].tobytes(), (it, k)
            scales.update(st.fp16_scales)
        assert scales == state.fp16_scales
    assert len(set(state.fp16_scales.values())) > 2  # the scales really differ
    assert np.all(params["conv"][~masks["conv"]] == 0.0)
    assert all(np.all(np.isfinite(p)) for p in params.values())
