"""Dynamic sparse reparameterization: pruning, regrowth, schedules, budget."""

import numpy as np
import pytest

from trainmem.builders import build_desk_cnn, build_wrn
from trainmem.errors import ConfigurationError
from trainmem.optim import SGDState
from trainmem.plan import param_layout
from trainmem.rewire import (
    DEFAULT_ADJUST_FACTOR,
    adapt_threshold,
    init_sparse_pattern,
    prune_global,
    regrow,
    rewire,
    rewire_due,
)


def test_init_full_density():
    g = build_desk_cnn([4, 4], 3)
    state = init_sparse_pattern(g, 1.0, seed=0)
    assert all(m.all() for m in state.masks.values())
    assert state.budget == state.group_numel()


def test_init_budget_matches_density():
    g = build_wrn(28, 2, 10)
    state = init_sparse_pattern(g, 0.3, seed=1)
    group = g.group_param_count("conv")
    assert group > 0.996 * g.total_param_count()
    assert abs(state.budget - 0.3 * group) <= len(state.masks)  # rounding per tensor
    # per-tensor counts are round(density * numel)
    for spec in g.all_params():
        if spec.name in state.masks:
            assert int(state.masks[spec.name].sum()) == round(0.3 * spec.numel)


def test_init_deterministic():
    g = build_desk_cnn([4, 4], 3)
    a = init_sparse_pattern(g, 0.4, seed=7)
    b = init_sparse_pattern(g, 0.4, seed=7)
    for k in a.masks:
        assert np.array_equal(a.masks[k], b.masks[k])
    with pytest.raises(ConfigurationError):
        init_sparse_pattern(g, 0.0, seed=7)


def test_rewire_due_schedule():
    assert rewire_due(100)  # period 100 in updates 0-12500
    assert not rewire_due(150)
    assert not rewire_due(48500)  # period 400 there; 48500 % 400 != 0
    assert not rewire_due(99000)  # final range has period 0
    assert not rewire_due(0)


def test_prune_global():
    w = {"a": np.array([0.5, 0.0005, -0.002, 0.3])}
    m = {"a": np.ones(4, dtype=bool)}
    killed, count = prune_global(w, m, 0.001)
    assert count == 1
    assert list(killed["a"]) == [False, True, False, False]
    # all above threshold: nothing to prune
    _, c2 = prune_global({"a": np.full(3, 0.9)}, {"a": np.ones(3, bool)}, 0.001)
    assert c2 == 0
    # the threshold is global: equal magnitudes in different tensors agree
    w2 = {"a": np.array([0.0004]), "b": np.array([0.0004])}
    m2 = {"a": np.ones(1, bool), "b": np.ones(1, bool)}
    k2, c3 = prune_global(w2, m2, 0.001)
    assert c3 == 2 and k2["a"][0] and k2["b"][0]


def test_adapt_threshold_band():
    assert adapt_threshold(100, 100, 0.001, 2.0) == 0.001
    assert adapt_threshold(0, 100, 0.001, 2.0) == 0.002  # far below: double
    assert adapt_threshold(1000, 100, 0.001, 2.0) == 0.0005  # far above: halve
    assert adapt_threshold(60, 100, 0.001, 2.0) == 0.001  # inside the band


def test_regrow_proportional():
    masks = {
        "a": np.concatenate([np.ones(300, bool), np.zeros(300, bool)]),
        "b": np.concatenate([np.ones(100, bool), np.zeros(300, bool)]),
    }
    grown = regrow(8, masks, seed=0)
    assert grown == {"a": 6, "b": 2}
    assert int(masks["a"].sum()) == 306
    assert int(masks["b"].sum()) == 102


def test_regrow_zero_and_single():
    masks = {"a": np.zeros(10, bool)}
    before = masks["a"].copy()
    assert regrow(0, masks, seed=1) == {"a": 0}
    assert np.array_equal(masks["a"], before)
    regrow(5, masks, seed=1)
    assert int(masks["a"].sum()) == 5


def test_regrow_overflow_redistributes():
    masks = {
        "a": np.concatenate([np.ones(99, bool), np.zeros(1, bool)]),
        "b": np.zeros(100, bool),
    }
    grown = regrow(10, masks, seed=2)
    assert grown["a"] <= 1
    assert grown["a"] + grown["b"] == 10


def test_rewire_composition():
    # flat parameters and momentum, as training keeps them: rewiring edits
    # the masks (the arrays the engine reads) and the parameters' views of
    # the flat buffer in place
    g = build_desk_cnn([4, 4], 3)
    rng = np.random.default_rng(0)
    state = init_sparse_pattern(g, 0.5, seed=0)
    layout = param_layout(g)
    w = rng.normal(size=layout.size)
    params = layout.unpack(w)
    for name, m in state.masks.items():
        params[name] *= m
    masks = dict(state.masks)
    opt = SGDState.init(w)
    opt.momentum[...] = rng.normal(size=w.shape)
    state.threshold = 0.3  # prunes about a quarter of the kept weights
    event = rewire(params, opt, state, seed=3, update_index=50)
    assert state.nnz() == state.budget
    assert event.pruned == event.regrown > 0
    assert not np.any(opt.momentum)  # momentum reset to zero
    assert all(state.masks[name] is m for name, m in masks.items())
    outside = sum(int((~m).sum()) for m in state.masks.values())
    assert outside == state.group_numel() - state.budget
    for name, m in state.masks.items():
        assert np.shares_memory(params[name], w)
        assert not np.any(params[name][~m])


def test_rewire_all_above_threshold_doubles_threshold():
    g = build_desk_cnn([4, 4], 3)
    state = init_sparse_pattern(g, 0.5, seed=1)
    params = {k: (np.sign(np.random.default_rng(1).normal(size=m.shape)) * m)
              for k, m in state.masks.items()}  # all magnitudes are 1
    before = {k: m.copy() for k, m in state.masks.items()}
    event = rewire(params, None, state, seed=1)
    assert event.pruned == 0 and event.regrown == 0
    assert event.threshold_after == 2 * event.threshold_before
    for k in before:
        assert np.array_equal(before[k], state.masks[k])


def test_budget_conservation_randomized():
    g = build_desk_cnn([4, 4], 3)
    state = init_sparse_pattern(g, 0.4, seed=2)
    rng = np.random.default_rng(9)
    for trial in range(1000):
        params = {k: rng.normal(scale=rng.uniform(1e-4, 1.0), size=m.shape) * m
                  for k, m in state.masks.items()}
        rewire(params, None, state, seed=trial)
        assert state.nnz() == state.budget


def test_excluded_tensors_untouched():
    g = build_desk_cnn([4, 4], 3)
    state = init_sparse_pattern(g, 0.5, seed=3)
    assert "stem.weight" not in state.masks
    assert "fc.weight" not in state.masks
    assert all(".bias" not in k and "bn" not in k for k in state.masks)


def test_threshold_bounded_per_rewire():
    g = build_desk_cnn([4, 4], 3)
    state = init_sparse_pattern(g, 0.5, seed=4)
    rng = np.random.default_rng(4)
    for trial in range(50):
        params = {k: rng.normal(scale=10.0 ** rng.integers(-5, 2), size=m.shape) * m
                  for k, m in state.masks.items()}
        before = state.threshold
        rewire(params, None, state, seed=trial)
        ratio = max(state.threshold / before, before / state.threshold)
        assert ratio <= DEFAULT_ADJUST_FACTOR
        assert state.threshold > 0
