"""Optimizers, dynamic loss scaling, and the FP16 update path with
per-tensor momentum rescaling.

There is never a persistent FP32 master copy of FP16 weights; the optional
upcast path updates transient FP32 copies and rounds the results straight
back to the binary16 grid.  Microbatch gradients are accumulated by
`engine.run_microbatched`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError
from .numerics import half_round

WRN_MOMENTUM = 0.9
WRN_WEIGHT_DECAY = 5e-4
TRANSFORMER_WEIGHT_DECAY = 1e-4


def _check_shapes(params: dict, other: dict, what: str):
    for name, p in params.items():
        buf = other.get(name)
        if buf is not None and buf.shape != p.shape:
            raise ContractError(f"{what} shape mismatch for {name}")


@dataclass
class SGDState:
    momentum: dict[str, np.ndarray]
    mu: float = WRN_MOMENTUM
    weight_decay: float = WRN_WEIGHT_DECAY
    # (buffer index, name) -> power-of-two scale the FP16 path stored it under
    fp16_scales: dict[tuple[int, str], float] = field(default_factory=dict)

    @staticmethod
    def init(params: dict[str, np.ndarray], mu=WRN_MOMENTUM, weight_decay=WRN_WEIGHT_DECAY):
        return SGDState({k: np.zeros_like(v) for k, v in params.items()}, mu, weight_decay)

    def reset_momentum(self):
        for buf in self.momentum.values():
            buf[...] = 0.0
        self.fp16_scales = {}


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    t: int = 0
    fp16_scales: dict[tuple[int, str], float] = field(default_factory=dict)  # as in SGDState

    @staticmethod
    def init(params, beta1=0.9, beta2=0.98, eps=1e-8):
        return AdamState(
            {k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()},
            beta1, beta2, eps,
        )

    def reset_momentum(self):
        for d in (self.m, self.v):
            for buf in d.values():
                buf[...] = 0.0
        self.fp16_scales = {}


def sgd_nesterov_step(params, grads, state: SGDState, lr: float,
                      masks: dict[str, np.ndarray] | None = None):
    """In-place Nesterov update: b <- mu*b + g'; w <- w - lr*(g' + mu*b)."""
    _check_shapes(params, grads, "gradient")
    _check_shapes(params, state.momentum, "momentum")
    for name, w in params.items():
        g = grads.get(name)
        if g is None:
            continue
        gp = g + state.weight_decay * w if state.weight_decay else g
        b = state.momentum[name]
        b *= state.mu
        b += gp
        w -= lr * (gp + state.mu * b)
        if masks and name in masks:
            w *= masks[name]
            b *= masks[name]


def adam_step(params, grads, state: AdamState, lr: float,
              weight_decay: float = TRANSFORMER_WEIGHT_DECAY,
              masks: dict[str, np.ndarray] | None = None):
    """Standard Adam with bias correction; weight decay is added to g."""
    _check_shapes(params, grads, "gradient")
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, w in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if weight_decay:
            g = g + weight_decay * w
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        w -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if masks and name in masks:
            w *= masks[name]
            m *= masks[name]
            v *= masks[name]


# ---------------------------------------------------------------------------
# Dynamic loss scaling


@dataclass
class LossScaler:
    scale: float = 2.0 ** 16
    growth_interval: int = 1000
    min_scale: float = 1.0
    max_scale: float = 2.0 ** 24
    clean_streak: int = 0

    def __post_init__(self):
        for s in (self.scale, self.min_scale, self.max_scale):
            if s <= 0 or 2 ** round(math.log2(s)) != s:
                raise ConfigurationError("loss scales must be powers of two")


def loss_scale_update(scaler: LossScaler, grads_have_nonfinite: bool) -> tuple[LossScaler, bool]:
    """Halve and skip on overflow; double after growth_interval clean steps."""
    s = LossScaler(scaler.scale, scaler.growth_interval, scaler.min_scale,
                   scaler.max_scale, scaler.clean_streak)
    if grads_have_nonfinite:
        s.scale = max(s.scale / 2.0, s.min_scale)
        s.clean_streak = 0
        return s, True
    s.clean_streak += 1
    if s.clean_streak >= s.growth_interval:
        s.scale = min(s.scale * 2.0, s.max_scale)
        s.clean_streak = 0
    return s, False


def grads_nonfinite(grads: dict[str, np.ndarray]) -> bool:
    return any(not np.all(np.isfinite(g)) for g in grads.values())


# ---------------------------------------------------------------------------
# FP16 update path


def _rescale_factor(buf: np.ndarray) -> float:
    """Per-tensor power-of-two scale putting max|m|/s into [2^9, 2^11)."""
    peak = float(np.max(np.abs(buf))) if buf.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return 1.0
    return 2.0 ** (math.floor(math.log2(peak)) - 10)


def fp16_update_path(params, grads, state, lr: float, upcast: bool = True,
                     momentum_rescale: bool = True, weight_decay: float | None = None,
                     masks=None):
    """FP16 parameter update without a persistent FP32 master copy.

    With `upcast`, transient copies are updated in FP32 arithmetic and the
    results rounded back to the binary16 grid.  With `momentum_rescale`,
    each momentum buffer is stored divided by a per-tensor power-of-two
    scale chosen so its magnitude fits comfortably in the FP16 range; the
    scale is undone on the way in and reapplied on the way out.
    """
    scales = state.fp16_scales
    buffers = [state.momentum] if isinstance(state, SGDState) else [state.m, state.v]
    # undo storage scaling to recover true momentum values (exact: powers of two)
    for bi, d in enumerate(buffers):
        for name, buf in d.items():
            s = scales.get((bi, name), 1.0)
            if s != 1.0:
                d[name] = buf * s
    is_sgd = isinstance(state, SGDState)
    if is_sgd:
        wd = state.weight_decay if weight_decay is None else weight_decay
    else:
        wd = TRANSFORMER_WEIGHT_DECAY if weight_decay is None else weight_decay
    if upcast:
        # transient FP32 widening; no persistent wide copies survive the call
        f32 = lambda d: {k: v.astype(np.float32) for k, v in d.items()}
        wp, wg = f32(params), f32(grads)
        if is_sgd:
            wstate = SGDState(f32(state.momentum), state.mu, wd)
            sgd_nesterov_step(wp, wg, wstate, lr)
            buffers = [wstate.momentum]
            state.momentum = wstate.momentum
        else:
            wstate = AdamState(f32(state.m), f32(state.v), state.beta1, state.beta2,
                               state.eps, state.t)
            adam_step(wp, wg, wstate, lr, weight_decay=wd)
            state.m, state.v, state.t = wstate.m, wstate.v, wstate.t
            buffers = [state.m, state.v]
        for name in params:
            params[name] = half_round(wp[name])
    elif is_sgd:
        # plain FP16 arithmetic: round after every expression
        for name, w in params.items():
            g = grads.get(name)
            if g is None:
                continue
            gp = half_round(g + half_round(wd * w)) if wd else g
            b = half_round(half_round(state.mu * state.momentum[name]) + gp)
            state.momentum[name] = b
            params[name] = half_round(
                w - half_round(lr * half_round(gp + half_round(state.mu * b)))
            )
    else:
        state.t += 1
        c1 = 1.0 - state.beta1 ** state.t
        c2 = 1.0 - state.beta2 ** state.t
        for name, w in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if wd:
                g = half_round(g + half_round(wd * w))
            m = half_round(half_round(state.beta1 * state.m[name]) + half_round((1 - state.beta1) * g))
            v = half_round(half_round(state.beta2 * state.v[name]) + half_round((1 - state.beta2) * np.square(g)))
            state.m[name], state.v[name] = m, v
            upd = half_round(half_round(m / c1) / half_round(np.sqrt(half_round(v / c2)) + state.eps))
            params[name] = half_round(w - half_round(lr * upd))
    # store momenta back, rescaled and rounded to the FP16 grid
    new_scales = {}
    for bi, d in enumerate(buffers):
        for name, buf in d.items():
            if momentum_rescale:
                s = _rescale_factor(buf)
                new_scales[(bi, name)] = s
                d[name] = half_round(buf / s)
            else:
                d[name] = half_round(buf)
    state.fp16_scales = new_scales
    if masks:
        for name, mask in masks.items():
            if name in params:
                params[name] = params[name] * mask
            for d in buffers:
                if name in d:
                    d[name] = d[name] * mask
