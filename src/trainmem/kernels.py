"""Forward and backward math for each executable node kind.

Arrays are batch-first.  FP32 runs natively in float32, FP64 in float64;
FP16 is emulated on a float32 carrier whose values sit on the binary16
grid: every elementwise result that can leave the grid is rounded back
to it (a ReLU gradient only masks an on-grid value); as 24 >= 2*11 + 2,
one float32 +, -, * or / of binary16 values, so rounded, is correctly
rounded.  Dot products honor the configured accumulator width (one
rounding after the full float32 reduction for a 32-bit accumulator;
rounding after every addition for a 16-bit one).  Every GEMM goes
through `QuantCtx.matmul` but conv's forward and dx taps under the 32-bit
accumulator, whose raw sums are rounded once.  Norm layers are treated as
single fused elementwise ops with statistics kept in the carrier.

Convolution is k1*k2 shifted GEMMs.  Each call pads its input once into a
zero buffer laid out channels-first with the batch folded in,
`(c, b*hp*wp + M)`, where `hp` is the padded height rounded up to a
multiple of the stride s, `wp` the padded width and M = (k1-1)*wp + k2-1.
Output column t of tap (a, d) reads flat position `a*wp + d + s*t`, so
each tap is one strided slice of n = b*(hp/s)*wp columns, a view with no
copy.  The output grid holds hp/s rows of wp columns per example; its
(h2, w2) corner is the valid output and the rest are junk columns, which
are dropped when the result is copied back to batch-first.  With X_ad the
tap slice, W_ad the (c_out, c) weights of tap (a, d) and G the upstream
gradient placed in the output grid with zeros in the junk columns:

- forward: the sum over taps of W_ad @ X_ad, one reduction over (channel,
  tap).  FP16 rounds it once, after the junk columns are dropped (32-bit
  accumulator), or after every addition, channel-major (16-bit).
- dw[:, :, a, d] = G @ X_ad.T, one reduction per tap, rounded once in FP16.
- dx is a gather, not a scatter: the backward pass of a strided conv is a
  direct conv over the gradient dilated by the stride and zero-padded
  (Dumoulin & Visin, "A guide to convolution arithmetic for deep
  learning", arXiv:1603.07285).  G goes behind a front margin of M zeros,
  dilated: `gm[:, M + s*t] = G[:, t]`.  Input-buffer column j then meets
  tap (a, d) at `gm[:, M - a*wp - d + j]`, a unit-stride view, and dx is
  the sum over taps of W_ad.T @ (that view) over every input-buffer
  column.  Where tap (a, d) does not reach column j the view reads zeros,
  so the sum has the same nonzero terms in the same (a, d) order as adding
  W_ad.T @ G into each tap's slice of a zero buffer.  It has the same bits
  as long as BLAS rounds each product column alike wherever it sits in the
  call; OpenBLAS's FP64 matrix-vector product does not, and numpy uses it
  for one-row products, as in dx of a conv with one input channel.  FP16
  rounds it once (32-bit accumulator); the 16-bit accumulator rounds after
  every addition inside each tap's product, and the sum of the taps once.

Forward and dx sum their per-tap products with `_stack_sum`: one stacked
`np.matmul` and one `np.add.reduce` in (a, d) order per column chunk.  The
workspace is the padded input, the gradient grid and its dilated copy
(at stride 1 one buffer: the grid is the tail of its copy), and one
capped chunk of stacked products; no value outlives the call.
A context with caches (the engine's) builds the geometry once per (node,
input shape) and the tap weights once per step.

`forward_op` and `backward_op` are the two entries to one kernel table,
`_KERNELS = {kind: (forward, backward)}`; add, reshape and transpose are
entries like the rest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, UnsupportedOperationError
from .graph import Node
from .numerics import NumericFormat, half_round

NORM_EPS = 1e-5
# Bytes of the stacked per-tap products held at once (see `_stack_sum`).
_STACK_BYTES = 1 << 20


class QuantCtx:
    """Precision context: the carrier dtype (float64 for FP64, float32 for
    FP32 and FP16) and the rounding and accumulation rules."""

    def __init__(self, precision: NumericFormat, accumulator_width: int = 32,
                 grids: dict | None = None):
        self.precision = precision
        self.accumulator_width = accumulator_width
        self.dtype = np.float64 if precision is NumericFormat.FP64 else np.float32
        self.fp16 = precision is NumericFormat.FP16
        # FP16 with a 16-bit accumulator: every addition of a reduction rounds
        self.narrow = self.fp16 and accumulator_width == 16
        self.q = half_round if self.fp16 else (lambda x: x)  # q(x): x on the format's grid
        # conv geometry by (node id, input shape), in a cache the caller keeps,
        # and tap weights by node id, for this context's life (one step, whose
        # parameters do not change); without `grids` each call computes both
        self.grids = grids
        self.taps = None if grids is None else {}

    def asarray(self, x) -> np.ndarray:
        if self.fp16:  # at x's own precision: through float32, float64 x would round twice
            x = half_round(x)
        return np.asarray(x, dtype=self.dtype)

    def matmul(self, a: np.ndarray, b: np.ndarray, sum_stacks: bool = False) -> np.ndarray:
        """a @ b under the accumulation rule: the reduction runs over a's last
        axis and b's second-to-last, stacks broadcast as in np.matmul.

        With `sum_stacks`, read by the 16-bit accumulator only, the stack
        axes (equal in a and b) are reduced too: the result is the sum of
        a[t] @ b[t] over every stack index t, as one running sum that adds
        k-major: for each k, the products of every t in order.  Under the
        32-bit accumulator callers sum stacks with `_stack_sum` and round
        the sum once themselves.
        """
        if self.narrow:
            terms = [(a[t], b[t]) for t in np.ndindex(a.shape[:-2])] if sum_stacks else [(a, b)]
            acc = 0.0
            for k in range(a.shape[-1]):
                for x, y in terms:
                    acc = half_round(acc + half_round(x[..., :, k, None] * y[..., None, k, :]))
            return acc
        return self.q(a @ b)

    def accumulate(self, buf: np.ndarray, update: np.ndarray) -> np.ndarray:
        """buf + update under the accumulation rule (used across microbatches).
        FP16 rounds the sum once at either width: the carrier's sum of two
        binary16 values, rounded, is their correctly rounded sum."""
        return self.q(buf + update)


# ---------------------------------------------------------------------------
# conv as shifted GEMMs


def _stack_sum(a, b, product):
    """The sum over stack index t of product(a[t], b[t]), for stacks of
    (m, k) and (k, n) operands, as one `np.add.reduce` of the stacked
    products in C order of t: (((0 + p0) + p1) + ...), per element.

    The products are computed a chunk of b's columns at a time.  A chunk
    is the largest multiple of 64 columns whose stack of products fits in
    `_STACK_BYTES` (64 if none does), so that BLAS meets each column at the
    same offset from a tile edge as in one unchunked product (under other
    widths OpenBLAS's FP64 GEMM rounded some columns differently).  The
    last chunk takes what is left, and the one column that would otherwise
    be alone: numpy computes a one-column product as a matrix-vector
    product, which BLAS rounds differently.
    """
    m, n = a.shape[-2], b.shape[-1]
    axes = tuple(range(a.ndim - 2))
    dtype = np.result_type(a, b)
    step = max(1, _STACK_BYTES // (math.prod(a.shape[:-2]) * m * dtype.itemsize) // 64) * 64
    stops = [*range(step, n - 1, step), n]
    if len(stops) == 1:
        return np.add.reduce(product(a, b), axis=axes)
    out = np.empty((m, n), dtype)
    for j, k in zip([0, *stops], stops):  # reducing into a view of out is slower
        out[:, j:k] = np.add.reduce(product(a, b[..., j:k]), axis=axes)
    return out


def _place(x, rows, cols, p, head, tail, dtype):
    """x (b, c, h, w) at (p, p) of each example's rows x cols block in a zero
    (c, head + b*rows*cols + tail) buffer; the blocks start at column head."""
    b, c, h, w = x.shape
    buf = np.zeros((c, head + b * rows * cols + tail), dtype)
    buf[:, head : buf.shape[1] - tail].reshape(c, b, rows, cols)[:, :, p : p + h, p : p + w] = (
        x.transpose(1, 0, 2, 3))
    return buf


def _window(buf, b, rows, cols, p, h, w):
    """The inverse of `_place`: a fresh C-contiguous (b, c, h, w) array, so
    that no result pins the workspace."""
    c = buf.shape[0]
    win = buf[:, : b * rows * cols].reshape(c, b, rows, cols)[:, :, p : p + h, p : p + w]
    return win.transpose(1, 0, 2, 3).copy()


class _ConvGrid:
    """The flat layout of one conv call (see the module docstring)."""

    def __init__(self, node: Node, x_shape):
        self.b, _, self.h, self.w = x_shape
        self.k1, self.k2 = node.p("k1"), node.p("k2")
        self.s, self.p = node.p("stride", 1), node.p("pad", 0)
        self.h2 = (self.h + 2 * self.p - self.k1) // self.s + 1
        self.w2 = (self.w + 2 * self.p - self.k2) // self.s + 1
        self.hp = -(-(self.h + 2 * self.p) // self.s) * self.s  # a multiple of s
        self.wp = self.w + 2 * self.p
        self.rows = self.hp // self.s  # output-grid rows per example
        self.n = self.b * self.rows * self.wp
        self.margin = (self.k1 - 1) * self.wp + self.k2 - 1  # M
        self.nx = self.b * self.hp * self.wp  # input-buffer columns, less the tail

    def pad(self, x, dtype):
        """The input buffer; its tail of M columns keeps the last taps' slices
        in bounds."""
        return _place(x, self.hp, self.wp, self.p, 0, self.margin, dtype)

    def taps(self, buf):
        """(k1, k2, c, n) view of an input-shaped buffer: [a, d] is tap (a, d)."""
        return self._shifted(buf, 0, 1, self.s, self.n)

    def gather(self, g_out, dtype):
        """The gradient g on the output grid (zero in the junk columns) and a
        (k1, k2, c_out, b*hp*wp) view of g dilated by s behind M zeros, whose
        [a, d, :, j] tap (a, d) sends to input column j; at stride 1, its tail is g."""
        if self.s == 1:
            gm = _place(g_out, self.rows, self.wp, 0, self.margin, 0, dtype)
            g = gm[:, self.margin :]
        else:
            g = _place(g_out, self.rows, self.wp, 0, 0, 0, dtype)
            gm = np.zeros((g.shape[0], self.margin + self.nx), dtype)
            gm[:, self.margin :: self.s] = g
        return g, self._shifted(gm, self.margin, -1, 1, self.nx)

    def _shifted(self, buf, start, sign, step, cols):
        """[a, d, :, j] = buf[:, start + sign*(a*wp + d) + step*j] of a
        C-contiguous buf; numpy checks that the view stays inside it."""
        e = buf.itemsize
        return np.ndarray((self.k1, self.k2, buf.shape[0], cols), buf.dtype, buf, start * e,
                          (sign * self.wp * e, sign * e, buf.strides[0], step * e))


def _tap_weights(weight, ctx: QuantCtx):
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1), ctx.dtype)  # (k1, k2, c_out, c)


def _conv_setup(node: Node, x_shape, weight, ctx: QuantCtx):
    """The call's `_ConvGrid` and tap weights, from the context's caches if
    it keeps them."""
    if ctx.grids is None:
        return _ConvGrid(node, x_shape), _tap_weights(weight, ctx)
    grid = ctx.grids.get((node.node_id, x_shape))
    if grid is None:
        grid = ctx.grids[node.node_id, x_shape] = _ConvGrid(node, x_shape)
    w = ctx.taps.get(node.node_id)
    if w is None:
        w = ctx.taps[node.node_id] = _tap_weights(weight, ctx)
    return grid, w


def _conv2d_forward(node: Node, inputs, params, ctx: QuantCtx, stats):
    x = inputs[0]
    grid, w = _conv_setup(node, x.shape, params[f"{node.node_id}.weight"], ctx)
    taps = grid.taps(grid.pad(x, ctx.dtype))
    if ctx.narrow:
        out = ctx.matmul(w, taps, sum_stacks=True)
    else:
        out = _stack_sum(w, taps, np.matmul)  # 32-bit: rounded once, after the junk columns go
    del taps  # free the padded input before the window copy
    out = _window(out, grid.b, grid.rows, grid.wp, 0, grid.h2, grid.w2)
    return (out if ctx.narrow else ctx.q(out)), None


def _conv2d_backward(node: Node, g_out, values, params, ctx: QuantCtx, loss_scale):
    x = _need(node, values, "x")
    grid, w = _conv_setup(node, x.shape, params[f"{node.node_id}.weight"], ctx)
    xbuf = grid.pad(x, ctx.dtype)
    g, gm = grid.gather(g_out, ctx.dtype)
    dw = ctx.matmul(g, grid.taps(xbuf).swapaxes(2, 3)).transpose(2, 3, 0, 1).copy()
    del xbuf, g  # dx holds only the gathered gradient, its own grid and one chunk
    product = ctx.matmul if ctx.narrow else np.matmul  # 32-bit: the raw sum is rounded once
    dx = _stack_sum(w.swapaxes(2, 3), gm, product)
    dx = ctx.q(_window(dx, grid.b, grid.hp, grid.wp, grid.p, grid.h, grid.w))
    return [dx], {f"{node.node_id}.weight": dw}


# ---------------------------------------------------------------------------
# the other kinds


def _need(node: Node, values: dict, key: str):
    if key not in values:
        raise ContractError(f"backward of '{node.node_id}' ({node.op}) is missing payload '{key}'")
    return values[key]


def _linear_forward(node, inputs, params, ctx, stats):
    out = ctx.matmul(inputs[0], params[f"{node.node_id}.weight"].T)
    if node.p("bias", 1):
        out = ctx.q(out + params[f"{node.node_id}.bias"])
    return out, None


def _linear_backward(node, g_out, values, params, ctx, loss_scale):
    nid = node.node_id
    x = _need(node, values, "x")
    grads = {f"{nid}.weight": ctx.matmul(g_out.T, x)}
    dx = ctx.matmul(g_out, params[f"{nid}.weight"])
    if node.p("bias", 1):
        grads[f"{nid}.bias"] = ctx.q(g_out.sum(axis=0))
    return [dx], grads


# statistics per channel (batchnorm) or per row (layernorm): the axes they
# reduce over, and the indices broadcasting them and gamma and beta back
_NORM_AXES = {"batchnorm": ((0, 2, 3), (slice(None), None, None), (slice(None), None, None)),
              "layernorm": ((-1,), (..., None), ...)}


def _norm_forward(node, inputs, params, ctx, stats):
    """`stats` supplies cached (mean, inv) for norm re-evaluation, so that a
    recomputed value has the bits of the original forward pass."""
    x = inputs[0]
    axes, put, per_channel = _NORM_AXES[node.op]
    if stats is None:  # as x.mean and x.var compute them, without their wrappers
        cnt = math.prod(x.shape[ax] for ax in axes)
        mean = np.add.reduce(x, axes, keepdims=True) / cnt
        xc = x - mean
        inv = np.add.reduce(xc * xc, axes, keepdims=True) / cnt
        inv += np.asarray(NORM_EPS, dtype=x.dtype)
        np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
        stats = mean.squeeze(axes), inv.squeeze(axes)
    else:
        inv = stats[1][put]
        xc = x - stats[0][put]
    out = xc * inv  # gamma * (xc * inv) + beta
    out *= params[f"{node.node_id}.gamma"][per_channel]
    out += params[f"{node.node_id}.beta"][per_channel]
    return ctx.q(out), stats


def _norm_backward(node, g_out, values, params, ctx, loss_scale):
    """dx = inv * (dxhat - sum(dxhat) / cnt - xhat * sum(dxhat * xhat) / cnt),
    dxhat = g_out * gamma, evaluated left to right in place; the sums run
    over the statistics' axes."""
    x = _need(node, values, "x")
    axes, put, per_channel = _NORM_AXES[node.op]
    mean, inv = _need(node, values, "stats")
    cnt = x.size // mean.size
    mean, inv = mean[put], inv[put]
    xhat = x - mean
    xhat *= inv
    dx = g_out * params[f"{node.node_id}.gamma"][per_channel]  # dxhat, then dx
    red = axes if node.op == "batchnorm" else tuple(range(x.ndim - 1))  # all but gamma's axis
    t = g_out * xhat
    dgamma = np.add.reduce(t, red)
    s2 = np.add.reduce(dx * xhat, axes, keepdims=True)
    dx -= np.add.reduce(dx, axes, keepdims=True) / cnt
    np.multiply(xhat, s2, out=t)
    t /= cnt
    dx -= t
    dx *= inv
    dbeta = np.add.reduce(g_out, red)
    nid = node.node_id
    return [ctx.q(dx)], {f"{nid}.gamma": ctx.q(dgamma), f"{nid}.beta": ctx.q(dbeta)}


def _glu_forward(node, inputs, params, ctx, stats):
    x = inputs[0]
    d = x.shape[-1] // 2
    sig = 1.0 / (1.0 + np.exp(-x[..., d:]))
    return ctx.q(x[..., :d] * sig), None


def _glu_backward(node, g_out, values, params, ctx, loss_scale):
    x = _need(node, values, "x")
    d = x.shape[-1] // 2
    a, b = x[..., :d], x[..., d:]
    sig = 1.0 / (1.0 + np.exp(-b))
    da = g_out * sig
    db = g_out * a * sig * (1.0 - sig)
    return [ctx.q(np.concatenate([da, db], axis=-1))], {}


def _batch_perm(node):
    """A transpose's permutation of the batch-first array."""
    return (0,) + tuple(p + 1 for p in node.p("perm"))


def _avgpool_forward(node, inputs, params, ctx, stats):
    x, wdw = inputs[0], node.p("window")
    b, c, h, w = x.shape
    r = x.reshape(b, c, h // wdw, wdw, w // wdw, wdw)
    return ctx.q(r.sum(axis=(3, 5)) * np.asarray(1.0 / (wdw * wdw), dtype=x.dtype)), None


def _avgpool_backward(node, g_out, values, params, ctx, loss_scale):
    wdw = node.p("window")
    b, c, h2, w2 = g_out.shape
    # rounded before it is spread: rounding commutes with the copy
    g = ctx.q(g_out * np.asarray(1.0 / (wdw * wdw), dtype=g_out.dtype))
    up = np.broadcast_to(g[:, :, :, None, :, None], (b, c, h2, wdw, w2, wdw))
    return [up.reshape(b, c, h2 * wdw, w2 * wdw)], {}


def _embedding_backward(node, g_out, values, params, ctx, loss_scale):
    idx = _need(node, values, "x").astype(np.int64)
    dw = np.zeros_like(params[f"{node.node_id}.weight"])
    np.add.at(dw, idx, g_out)
    return [None], {f"{node.node_id}.weight": ctx.q(dw)}


def _softmax_xent_forward(node, inputs, params, ctx, stats):
    if node.p("d_in"):
        raise UnsupportedOperationError("fused-projection softmax head is cost-model-only")
    z = inputs[0]
    t = inputs[1].astype(np.int64)
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    picked = z[np.arange(z.shape[0]), t]
    return np.asarray((lse - picked).mean(), dtype=z.dtype), None


def _softmax_xent_backward(node, g_out, values, params, ctx, loss_scale):
    z = _need(node, values, "x")
    t = _need(node, values, "targets").astype(np.int64)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(z.shape[0]), t] -= 1.0
    scale = np.asarray(loss_scale / z.shape[0], dtype=z.dtype)
    return [ctx.q(p * scale)], {}


# ---------------------------------------------------------------------------
# the kernel table and its two entries

# kind: (forward(node, inputs, params, ctx, stats) -> (output, statistics or None),
#        backward(node, g_out, values, params, ctx, loss_scale) -> (input gradients,
#                 parameter gradients))
_KERNELS = {
    "conv2d": (_conv2d_forward, _conv2d_backward),
    "linear": (_linear_forward, _linear_backward),
    "batchnorm": (_norm_forward, _norm_backward),
    "layernorm": (_norm_forward, _norm_backward),
    # masking keeps or zeroes each value, so a ReLU gradient is on the
    # binary16 grid whenever g_out is: it is not rounded again
    "relu": (lambda node, xs, *_: (np.maximum(xs[0], 0), None),
             lambda node, g, values, *_: ([g * _need(node, values, "mask")], {})),
    "glu": (_glu_forward, _glu_backward),
    # both inputs get the one upstream buffer; the engine copies it where
    # an alias would be written
    "add": (lambda node, xs, params, ctx, stats: (ctx.q(xs[0] + xs[1]), None),
            lambda node, g, *_: ([g, g], {})),
    # a reshape's backward reads its input's shape per example
    "reshape": (lambda node, xs, *_: (xs[0].reshape(xs[0].shape[:1] + tuple(node.p("shape"))),
                                      None),
                lambda node, g, values, *_: (
                    [g.reshape(g.shape[:1] + _need(node, values, "in_shape"))], {})),
    "transpose": (lambda node, xs, *_: (xs[0].transpose(_batch_perm(node)), None),
                  lambda node, g, *_: ([g.transpose(np.argsort(_batch_perm(node)))], {})),
    "avgpool": (_avgpool_forward, _avgpool_backward),
    "pad_channels": (
        lambda node, xs, *_: (np.pad(xs[0], ((0, 0), (0, node.p("extra")), (0, 0), (0, 0))), None),
        lambda node, g, *_: ([g[:, : g.shape[1] - node.p("extra")]], {})),
    "embedding": (lambda node, xs, params, *_: (
        params[f"{node.node_id}.weight"][xs[0].astype(np.int64)], None), _embedding_backward),
    "softmax_xent": (_softmax_xent_forward, _softmax_xent_backward),
}


def forward_op(node: Node, inputs: list[np.ndarray], params: dict, ctx: QuantCtx, stats=None):
    """Returns (output, norm_stats_or_None): node's kernel on its inputs.
    `stats` supplies a norm's cached (mean, inv)."""
    kernels = _KERNELS.get(node.op)
    if kernels is None:
        raise UnsupportedOperationError(f"kind '{node.op}' has no executable semantics")
    return kernels[0](node, inputs, params, ctx, stats)


def backward_op(node: Node, g_out, values: dict, params: dict, ctx: QuantCtx,
                loss_scale: float = 1.0):
    """Returns (input_gradients, param_gradients).

    `values` carries what the node's storage class promises: 'x' for full
    inputs, 'mask' for ReLU, plus cached 'stats' (mean, inv) for norms, and
    a reshape's 'in_shape'.  A missing entry is a contract violation, never
    silently recomputed here.
    """
    kernels = _KERNELS.get(node.op)
    if kernels is None:
        raise UnsupportedOperationError(f"kind '{node.op}' has no backward semantics")
    return kernels[1](node, g_out, values, params, ctx, loss_scale)
