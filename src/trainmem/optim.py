"""Optimizers, dynamic loss scaling, and the FP16 update path with
per-tensor momentum rescaling.

There is never a persistent FP32 master copy of FP16 weights; the FP16
path updates transient FP32 copies and rounds the results straight back to
the binary16 grid.  Microbatch gradients are accumulated by
`engine.run_step`, not here.
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


def _check_shapes(params: dict, other: dict, what: str):
    for name, p in params.items():
        buf = other.get(name)
        if buf is None or buf.shape != p.shape:
            raise ContractError(f"{what} missing or of another shape for {name}")


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
        g = grads[name]
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
        g = grads[name]
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


def fp16_update_path(params, grads, state, lr: float, masks=None):
    """FP16 parameter update without a persistent FP32 master copy.

    Transient copies are updated in FP32 arithmetic and the results rounded
    back to the binary16 grid.  Each momentum buffer is stored divided by a
    per-tensor power-of-two scale chosen so its magnitude fits comfortably
    in the FP16 range; the scale is undone on the way in and reapplied on
    the way out.  SGD decays by the state's weight decay, Adam by
    `TRANSFORMER_WEIGHT_DECAY`.

    Parameters, gradients and each momentum buffer are packed into one flat
    array apiece, in `params` order, so every step below is one call over
    all tensors; `grads` holds one gradient per parameter.  `params` and the
    state's buffers come back as views of those arrays.
    """
    is_sgd = isinstance(state, SGDState)
    layout = FlatLayout(params)
    w = layout.pack(params, np.float32)
    g = layout.pack(grads, np.float32)
    dicts = [state.momentum] if is_sgd else [state.m, state.v]
    bufs = []
    for bi, d in enumerate(dicts):
        # undo storage scaling to recover true momentum values (exact: powers of two)
        buf = layout.pack(d)
        buf *= layout.spread([state.fp16_scales.get((bi, k), 1.0) for k in layout.names],
                             buf.dtype)
        bufs.append(buf.astype(np.float32, copy=False))
    # transient FP32 widening; no persistent wide copies survive the call
    if is_sgd:
        sgd_nesterov_step({"": w}, {"": g}, replace(state, momentum={"": bufs[0]}), lr)
    else:
        wstate = replace(state, m={"": bufs[0]}, v={"": bufs[1]})
        adam_step({"": w}, {"": g}, wstate, lr)
        state.t = wstate.t
    w = half_round(w)
    # store momenta back, rescaled and rounded to the FP16 grid
    new_scales = {}
    for bi, buf in enumerate(bufs):
        scales = _rescale_factors(layout, buf)
        new_scales.update({(bi, k): float(s) for k, s in zip(layout.names, scales)})
        bufs[bi] = half_round(buf / layout.spread(scales, buf.dtype))
    state.fp16_scales = new_scales
    if masks:
        ones = {k: np.ones(shape, bool) for k, shape in zip(layout.names, layout.shapes)}
        keep = layout.pack({**ones, **masks}, w.dtype)
        for flat in [w, *bufs]:
            flat *= keep
    params.update(layout.unpack(w))
    for d, buf in zip(dicts, bufs):
        d.update(layout.unpack(buf))
