"""Optimizers, dynamic loss scaling, and the FP16 update path with
per-tensor momentum rescaling.

Training state is flat: the parameters, the gradients and each optimizer
buffer are one array apiece, laid out by the graph's `plan.param_layout`,
and every update below is one call over all tensors, in place, with the
signature `(w, g, state, lr)` (the FP16 path also takes the layout).
There is never a persistent FP32 master copy of FP16 weights; the FP16
path is the FP32 step on the binary16-grid arrays, rounded back to the
grid.  Microbatch gradients are accumulated by `engine.run_step`, not here.

Sparsity is enforced elsewhere: the engine zeroes masked gradient entries,
and `rewire` zeroes pruned weights and resets the buffers.  Every update
here leaves an entry whose parameter, gradient and buffers are zero at
zero, so the model and its state stay on the one pattern with no mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ContractError
from .numerics import FlatLayout, half_round

WRN_MOMENTUM = 0.9
WRN_WEIGHT_DECAY = 5e-4
TRANSFORMER_WEIGHT_DECAY = 1e-4


def _check_shapes(w: np.ndarray, g: np.ndarray, state):
    for other in (g, *state.buffers()):
        if other.shape != w.shape:
            raise ContractError(f"buffer of shape {other.shape} does not match parameters {w.shape}")


@dataclass
class SGDState:
    momentum: np.ndarray  # laid out as the parameters
    mu: float = WRN_MOMENTUM
    weight_decay: float = WRN_WEIGHT_DECAY
    # one array per buffer: each tensor's power-of-two FP16 storage scale;
    # empty while every scale is 1
    fp16_scales: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def init(w: np.ndarray, mu=WRN_MOMENTUM, weight_decay=WRN_WEIGHT_DECAY):
        return SGDState(np.zeros_like(w), mu, weight_decay)

    def buffers(self) -> list[np.ndarray]:
        return [self.momentum]

    def reset_momentum(self):
        for buf in self.buffers():
            buf[...] = 0.0
        self.fp16_scales = []


@dataclass
class AdamState:
    m: np.ndarray  # laid out as the parameters
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = TRANSFORMER_WEIGHT_DECAY
    t: int = 0
    fp16_scales: list[np.ndarray] = field(default_factory=list)  # as in SGDState

    @staticmethod
    def init(w: np.ndarray, beta1=0.9, beta2=0.98, eps=1e-8,
             weight_decay=TRANSFORMER_WEIGHT_DECAY):
        return AdamState(np.zeros_like(w), np.zeros_like(w), beta1, beta2, eps, weight_decay)

    def buffers(self) -> list[np.ndarray]:
        return [self.m, self.v]

    reset_momentum = SGDState.reset_momentum


def sgd_nesterov_step(w, g, state: SGDState, lr: float):
    """In-place Nesterov update: b <- mu*b + g'; w <- w - lr*(g' + mu*b),
    where g' is g plus the state's weight decay times w."""
    _check_shapes(w, g, state)
    gp = g + state.weight_decay * w if state.weight_decay else g
    b = state.momentum
    b *= state.mu
    b += gp
    w -= lr * (gp + state.mu * b)


def adam_step(w, g, state: AdamState, lr: float):
    """Standard Adam with bias correction; the state's weight decay is added
    to g."""
    _check_shapes(w, g, state)
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    if state.weight_decay:
        g = g + state.weight_decay * w
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * np.square(g)
    w -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


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
    s = replace(scaler)
    if grads_have_nonfinite:
        s.scale = max(s.scale / 2.0, s.min_scale)
        s.clean_streak = 0
        return s, True
    s.clean_streak += 1
    if s.clean_streak >= s.growth_interval:
        s.scale = min(s.scale * 2.0, s.max_scale)
        s.clean_streak = 0
    return s, False


def grads_nonfinite(flat: np.ndarray) -> bool:
    """Whether a packed gradient buffer holds an infinity or NaN."""
    return not np.isfinite(flat).all()


# ---------------------------------------------------------------------------
# FP16 update path


def _rescale_factors(layout: FlatLayout, buf: np.ndarray) -> np.ndarray:
    """Per-tensor power-of-two scales putting max|m|/s into [2^9, 2^11);
    1 where the tensor is all zero or not finite."""
    peak = np.maximum.reduceat(np.abs(buf), layout.offsets[:-1]).astype(np.float64)
    _, e = np.frexp(peak)  # peak = f * 2^e with f in [0.5, 1)
    return np.where((peak > 0) & np.isfinite(peak), np.ldexp(1.0, e - 11), 1.0)


def fp16_update_path(w, g, state, lr: float, layout: FlatLayout):
    """FP16 parameter update without a persistent FP32 master copy, in place.

    `w`, `g` and the state's buffers are float32 arrays laid out by `layout`
    with every element on the binary16 grid.  Each buffer is stored divided
    by a per-tensor power-of-two scale chosen so its magnitude fits
    comfortably in the FP16 range: the scale is undone (exactly), the FP32
    step runs, the results are rounded back to the grid, and the buffers are
    rescaled by their new scales.
    """
    _check_shapes(w, g, state)
    bufs = state.buffers()
    if any(a.dtype != np.float32 for a in (w, g, *bufs)):
        raise ContractError("the FP16 update path runs on float32 carriers")
    for buf, scales in zip(bufs, state.fp16_scales):
        buf *= layout.spread(scales, buf.dtype)
    (sgd_nesterov_step if isinstance(state, SGDState) else adam_step)(w, g, state, lr)
    w[...] = half_round(w)
    state.fp16_scales = [_rescale_factors(layout, buf) for buf in bufs]
    for buf, scales in zip(bufs, state.fp16_scales):
        buf[...] = half_round(buf / layout.spread(scales, buf.dtype))
