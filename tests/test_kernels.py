"""Kernel math against independent oracles: the stacked and summed
`QuantCtx.matmul`, conv2d forward, dx and dw against a direct float64
loop over output positions and, bit for bit, against one GEMM per tap
summed in tap order, conv's memory bound, norm statistics against
`x.mean`/`x.var`, and the FP16 float32 carrier against the same
expressions in float64 rounded once."""

import tracemalloc

import numpy as np
import pytest

from trainmem import kernels
from trainmem.builders import build_desk_cnn
from trainmem.engine import init_params
from trainmem.graph import Node
from trainmem.kernels import NORM_EPS, QuantCtx, backward_op, forward_op
from trainmem.numerics import NumericFormat, half_round

FP16, FP32, FP64 = NumericFormat.FP16, NumericFormat.FP32, NumericFormat.FP64
U16, U32 = 2.0 ** -11, 2.0 ** -24  # unit roundoff of binary16 and binary32
HALF_SUBNORMAL = 2.0 ** -25  # absolute error of one rounding below binary16's normal range

CTXS = [(FP32, 32), (FP64, 32), (FP16, 32), (FP16, 16)]


@pytest.mark.parametrize("precision,width", CTXS)
def test_matmul_stacked_equals_per_slice(precision, width):
    ctx = QuantCtx(precision, width)
    rng = np.random.default_rng(0)
    a = ctx.asarray(rng.normal(size=(2, 3, 4)))
    b = ctx.asarray(rng.normal(size=(2, 4, 5)))
    out = ctx.matmul(a, b)
    assert out.shape == (2, 3, 5)
    for i in range(2):
        assert np.array_equal(out[i], ctx.matmul(a[i], b[i]))
        # a 2-D left operand broadcasts against the stack
        assert np.array_equal(ctx.matmul(a[0], b)[i], ctx.matmul(a[0], b[i]))


def test_matmul_16bit_rounds_after_every_addition():
    ctx = QuantCtx(FP16, 16)
    rng = np.random.default_rng(2)
    a = ctx.asarray(rng.normal(size=(2, 6)) * 40)
    b = ctx.asarray(rng.normal(size=(6, 3)))
    expect = np.zeros((2, 3))
    for i in range(2):
        for j in range(3):
            acc = 0.0
            for k in range(6):
                acc = float(np.float16(acc + float(np.float16(a[i, k] * b[k, j]))))
            expect[i, j] = acc
    assert np.array_equal(ctx.matmul(a, b), expect)


def test_matmul_sum_stacks_is_one_k_major_reduction():
    # 16-bit: the sum over stacks is one running sum that visits, for each
    # k, every stack in order; the same as one matmul over that interleaving.
    ctx = QuantCtx(FP16, 16)
    rng = np.random.default_rng(1)
    a = ctx.asarray(rng.normal(size=(3, 2, 4)))  # (t, m, k)
    b = ctx.asarray(rng.normal(size=(3, 4, 5)))  # (t, k, n)
    flat_a = a.transpose(1, 2, 0).reshape(2, 12)  # column k*3 + t
    flat_b = b.transpose(1, 0, 2).reshape(12, 5)
    assert np.array_equal(ctx.matmul(a, b, sum_stacks=True), ctx.matmul(flat_a, flat_b))
    # 32-bit: `_stack_sum` of the stacked products, rounded once.
    exact = np.einsum("tmk,tkn->mn", a, b)
    wide = half_round(kernels._stack_sum(a, b, np.matmul))
    assert np.all(np.abs(wide - exact) <= (U16 + 12 * U32) * np.einsum(
        "tmk,tkn->mn", np.abs(a), np.abs(b)) * 1.01)


# ---------------------------------------------------------------------------
# conv2d


def conv_oracle(x, w, s, p, g):
    """Forward, dx and dw of a conv by a direct loop over output positions."""
    b, c, h, wd = x.shape
    c_out, _, k1, k2 = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    h2, w2 = (h + 2 * p - k1) // s + 1, (wd + 2 * p - k2) // s + 1
    out = np.zeros((b, c_out, h2, w2))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(h2):
        for j in range(w2):
            rows, cols = slice(i * s, i * s + k1), slice(j * s, j * s + k2)
            patch = xp[:, :, rows, cols]
            out[:, :, i, j] = np.einsum("bcad,ocad->bo", patch, w)
            dw += np.einsum("bo,bcad->ocad", g[:, :, i, j], patch)
            dxp[:, :, rows, cols] += np.einsum("bo,ocad->bcad", g[:, :, i, j], w)
    return out, dxp[:, :, p : p + h, p : p + wd], dw


# (batch, c_in, c_out, h, w, k1, k2, stride, pad)
CONV_CASES = [
    *[(2, 3, 4, 7, 9, 3, 2, s, p) for s in (1, 2, 3) for p in (0, 1, 2)],
    (1, 1, 3, 5, 6, 1, 3, 3, 2),
    (3, 1, 2, 6, 5, 2, 1, 2, 0),
    (1, 2, 2, 8, 8, 3, 3, 1, 1),
    (2, 4, 3, 4, 4, 4, 4, 1, 0),
    (1, 2, 3, 4, 5, 1, 1, 1, 0),  # the output window is the whole grid
]


def run_conv(case, precision, width, seed=0):
    b, c, c_out, h, w, k1, k2, s, p = case
    node = Node("c", "conv2d", ("x",), dict(c_in=c, c_out=c_out, k1=k1, k2=k2,
                                            stride=s, pad=p, sparse=0))
    ctx = QuantCtx(precision, width)
    rng = np.random.default_rng(seed)
    x = ctx.asarray(rng.normal(size=(b, c, h, w)))
    weight = ctx.asarray(rng.normal(size=(c_out, c, k1, k2)))
    out, _ = forward_op(node, [x], {"c.weight": weight}, ctx)
    g = ctx.asarray(rng.normal(size=out.shape))
    (dx,), grads = backward_op(node, g, {"x": x}, {"c.weight": weight}, ctx)
    return (x, weight, g), (out, dx, grads["c.weight"])


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_fp64_matches_oracle(case):
    (x, w, g), got = run_conv(case, FP64, 32)
    for name, val, ref in zip(("out", "dx", "dw"), got, conv_oracle(x, w, case[7], case[8], g)):
        assert val.shape == ref.shape, name
        assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def reduction_lengths(case):
    """Terms per element of out, dx and dw."""
    b, c, c_out, h, w, k1, k2, s, p = case
    h2, w2 = (h + 2 * p - k1) // s + 1, (w + 2 * p - k2) // s + 1
    return c * k1 * k2, c_out * k1 * k2, b * h2 * w2


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_fp32_within_float32_bound(case):
    # A float32 sum of K products of float32 values errs by at most
    # K * 2^-24 times the sum of the products' magnitudes, in any order.
    (x, w, g), got = run_conv(case, FP32, 32)
    s, p = case[7], case[8]
    refs = conv_oracle(x.astype(np.float64), w.astype(np.float64), s, p, g.astype(np.float64))
    mags = conv_oracle(np.abs(x).astype(np.float64), np.abs(w).astype(np.float64), s, p,
                       np.abs(g).astype(np.float64))
    for name, val, ref, mag, k in zip(("out", "dx", "dw"), got, refs, mags,
                                      reduction_lengths(case)):
        assert val.dtype == np.float32, name
        assert np.all(np.abs(val - ref) <= k * U32 * mag * 1.01), name


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_fp16_on_grid_within_rounding_bound(case):
    # 32-bit accumulator: out, dx and dw each round once after a float32
    # reduction, and are carried as float32.  The rounding to binary16
    # errs by at most 2^-11 relative, or 2^-25 absolute below the normal
    # range.
    (x, w, g), got = run_conv(case, FP16, 32)
    s, p = case[7], case[8]
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    refs = conv_oracle(x, w, s, p, g)
    mags = conv_oracle(np.abs(x), np.abs(w), s, p, np.abs(g))
    for name, val, ref, mag, k in zip(("out", "dx", "dw"), got, refs, mags,
                                      reduction_lengths(case)):
        assert val.dtype == np.float32, name
        assert np.array_equal(val, half_round(val)), name
        bound = (U16 + k * U32) * mag * 1.01 + HALF_SUBNORMAL
        assert np.all(np.abs(val - ref) <= bound), name


@pytest.mark.parametrize("precision,width", CTXS)
@pytest.mark.parametrize("case", [CONV_CASES[4], CONV_CASES[9], CONV_CASES[13]])
def test_conv_results_are_contiguous_and_own_their_data(case, precision, width):
    # No result may be a view that pins the padded workspace.
    _, got = run_conv(case, precision, width)
    for name, val in zip(("out", "dx", "dw"), got):
        assert val.flags.c_contiguous and val.flags.owndata and val.base is None, name


def per_tap_conv(case, ctx, x, w, g):
    """Forward, dx and dw on the flat padded layout of the module docstring,
    one GEMM per tap added in (a, d) order into zero buffers, dx by
    scattering each tap's W_ad.T @ G into its slice of the input buffer,
    with the FP16 roundings the kernels promise."""
    b, c, c_out, h, wd, k1, k2, s, p = case
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k1, k2, c_out, c)
    h2, w2 = (h + 2 * p - k1) // s + 1, (wd + 2 * p - k2) // s + 1
    hp, wp = -(-(h + 2 * p) // s) * s, wd + 2 * p
    n = b * (hp // s) * wp
    xbuf = np.zeros((c, b * hp * wp + (k1 - 1) * wp + k2 - 1), ctx.dtype)
    xin = xbuf[:, : b * hp * wp].reshape(c, b, hp, wp)
    xin[:, :, p : p + h, p : p + wd] = x.transpose(1, 0, 2, 3)
    grid = np.zeros((c_out, n), ctx.dtype)
    grid.reshape(c_out, b, hp // s, wp)[:, :, :h2, :w2] = g.transpose(1, 0, 2, 3)
    tap = {(a, d): slice(a * wp + d, a * wp + d + s * n, s) for a in range(k1) for d in range(k2)}
    out = np.zeros((c_out, n), ctx.dtype)
    dbuf = np.zeros(xbuf.shape, ctx.dtype)
    dw = np.zeros(w.shape, ctx.dtype)
    for (a, d), cols in tap.items():
        out += np.matmul(wt[a, d], xbuf[:, cols])
        dbuf[:, cols] += (ctx.matmul if ctx.narrow else np.matmul)(wt[a, d].T, grid)
        dw[:, :, a, d] = ctx.matmul(grid, xbuf[:, cols].T)
    if ctx.narrow:  # the forward is one running sum instead, k-major: each channel, every tap
        out = 0.0
        for k in range(c):
            for (a, d), cols in tap.items():
                out = half_round(out + half_round(wt[a, d, :, k, None] * xbuf[k, cols]))
    out = out.reshape(c_out, b, hp // s, wp)[:, :, :h2, :w2].transpose(1, 0, 2, 3)
    dx = dbuf[:, : b * hp * wp].reshape(c, b, hp, wp)[:, :, p : p + h, p : p + wd]
    return ctx.q(out), ctx.q(dx.transpose(1, 0, 2, 3)), dw


def same_bytes(got, want):
    """Equal dtype, shape and bytes: signed zeros count."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def matrix_products(case):
    """The results whose per-tap products have at least two rows.  numpy
    computes a one-row product as a matrix-vector product, and BLAS may
    round those by the column's place in the call (OpenBLAS's FP64 one
    does), which a gather or a chunk moves; such results are held to the
    bounds above instead."""
    c, c_out = case[1], case[2]
    return {"out": c_out > 1, "dx": c > 1, "dw": True}


@pytest.mark.parametrize("precision,width", CTXS)
@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_is_bitwise_the_per_tap_sum(case, precision, width):
    # The stacked products, the gathered dx and the tap reduction keep the
    # terms, and the order, of one GEMM per tap summed in (a, d) order.
    (x, w, g), got = run_conv(case, precision, width)
    ctx = QuantCtx(precision, width)
    checked = matrix_products(case)
    for name, val, ref in zip(("out", "dx", "dw"), got, per_tap_conv(case, ctx, x, w, g)):
        if checked[name]:
            assert same_bytes(val, ref), name


# cases with more than 64 output-grid and input-buffer columns, so that
# small workspace caps split the products into several chunks
CHUNKED_CASES = [(4, 3, 5, 9, 7, 3, 3, 1, 1), (5, 2, 3, 10, 9, 3, 2, 2, 1),
                 (3, 2, 2, 7, 11, 2, 3, 3, 2), (2, 4, 2, 8, 8, 3, 3, 1, 1)]


@pytest.mark.parametrize("precision,width", CTXS)
@pytest.mark.parametrize("case", CONV_CASES + CHUNKED_CASES)
def test_conv_chunking_leaves_results_bitwise_unchanged(case, precision, width, monkeypatch):
    # A 1-byte cap gives the smallest chunks, 64 columns; the larger caps
    # give other multiples of 64.  Last chunks are odd-sized where the
    # column count is.
    _, unchunked = run_conv(case, precision, width)
    checked = matrix_products(case)
    for cap in (1, 3 * 64 * 9 * 4 * 4, 5 * 64 * 4 * 4):
        monkeypatch.setattr(kernels, "_STACK_BYTES", cap)
        _, got = run_conv(case, precision, width)
        for name, val, ref in zip(("out", "dx", "dw"), got, unchunked):
            if checked[name]:
                assert same_bytes(val, ref), (cap, name)


def general_gather(grid, g_out, dtype):
    """`_ConvGrid.gather` by its strided layout at any stride: the gradient
    on a fresh output grid, and a copy of it behind the margin."""
    g = kernels._place(g_out, grid.rows, grid.wp, 0, 0, 0, dtype)
    gm = np.zeros((g.shape[0], grid.margin + grid.nx), dtype)
    gm[:, grid.margin :: grid.s] = g
    return g, grid._shifted(gm, grid.margin, -1, 1, grid.nx)


# the stride-1 cases, and a batch of one with one input channel (dx and
# dw are one-row products) and with one output channel (dw is)
STRIDE1_CASES = [case for case in CONV_CASES + CHUNKED_CASES if case[7] == 1] + [
    (1, 1, 3, 6, 7, 3, 3, 1, 1), (1, 3, 1, 6, 6, 3, 2, 1, 1), (2, 1, 1, 5, 5, 2, 3, 1, 0)]


@pytest.mark.parametrize("precision,width", CTXS)
@pytest.mark.parametrize("case", STRIDE1_CASES)
def test_stride1_conv_backward_shares_one_gradient_buffer_bitwise(case, precision, width,
                                                                   monkeypatch):
    # At stride 1 the output-grid gradient is the tail of the buffer dx
    # gathers from; dx and dw keep every bit of the general layout's.
    shared = []
    gather = kernels._ConvGrid.gather

    def spying(grid, g_out, dtype):
        g, gm = gather(grid, g_out, dtype)
        shared.append(np.may_share_memory(g, gm))
        return g, gm

    monkeypatch.setattr(kernels._ConvGrid, "gather", spying)
    _, (_, dx, dw) = run_conv(case, precision, width)
    assert shared == [True]
    monkeypatch.setattr(kernels._ConvGrid, "gather", general_gather)
    _, (_, dx_ref, dw_ref) = run_conv(case, precision, width)
    assert same_bytes(dx, dx_ref) and same_bytes(dw, dw_ref)


@pytest.mark.parametrize("cap,n", [(1, 64), (1, 65), (1, 130), (1, 300), (3 * 64 * 108, 1000),
                                   (1 << 20, 5000)])
def test_stack_sum_chunks(cap, n, monkeypatch):
    # Chunks are multiples of 64 columns within the cap (or 64 columns if
    # the cap is smaller), the last keeps at least two columns, and the
    # result is the unchunked reduction bit for bit.
    monkeypatch.setattr(kernels, "_STACK_BYTES", cap)
    rng = np.random.default_rng(n)
    a = rng.normal(size=(3, 3, 3, 5)).astype(np.float32)
    b = rng.normal(size=(3, 3, 5, n)).astype(np.float32)
    widths = []

    def product(x, y):
        widths.append(y.shape[-1])
        return np.matmul(x, y)

    got = kernels._stack_sum(a, b, product)
    step = max(64, cap // 108 // 64 * 64)  # 108 bytes: a column of nine 3-row products
    assert sum(widths) == n and all(w == step for w in widths[:-1])
    assert widths[-1] >= min(n, 2) and widths[-1] <= step + 1
    want = np.zeros((3, n), np.float32)
    for t in np.ndindex(3, 3):
        want += a[t] @ b[t]
    assert same_bytes(got, want)


def test_conv_workspace_is_capped(monkeypatch):
    # One desk-cnn conv at batch 256: besides its inputs, a forward or a
    # backward call holds at most an input-sized buffer, an output-grid-
    # sized one, the result and one chunk of stacked products.  Stacking
    # all nine taps' products at once would hold nine output grids.
    b, c, hw = 256, 8, 8
    node = Node("c", "conv2d", ("x",), dict(c_in=c, c_out=c, k1=3, k2=3, stride=1, pad=1,
                                            sparse=0))
    ctx = QuantCtx(FP32)
    rng = np.random.default_rng(0)
    x = ctx.asarray(rng.normal(size=(b, c, hw, hw)))
    w = ctx.asarray(rng.normal(size=(c, c, 3, 3)))
    g = ctx.asarray(rng.normal(size=(b, c, hw, hw)))
    wp = hw + 2
    padded = c * (b * wp * wp + 2 * wp + 2) * 4
    grid = c * b * wp * wp * 4
    result = x.nbytes
    budget = padded + grid + result + kernels._STACK_BYTES + 64 * 1024

    def peak(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    calls = [lambda: forward_op(node, [x], {"c.weight": w}, ctx),
             lambda: backward_op(node, g, {"x": x}, {"c.weight": w}, ctx)]
    assert all(peak(call) < budget for call in calls)
    monkeypatch.setattr(kernels, "_STACK_BYTES", 9 * grid)  # the guard catches an uncapped stack
    assert all(peak(call) > budget for call in calls)


@pytest.mark.parametrize("precision", [FP32, FP64, FP16])
@pytest.mark.parametrize("op,shape", [("batchnorm", (4, 3, 5, 6)), ("batchnorm", (1, 2, 1, 9)),
                                      ("batchnorm", (32, 8, 8, 8)), ("layernorm", (4, 7)),
                                      ("layernorm", (2, 3, 10))])
def test_norm_statistics_are_those_of_mean_and_var(op, shape, precision):
    ctx = QuantCtx(precision)
    rng = np.random.default_rng(len(shape))
    x = ctx.asarray(rng.normal(2.0, 3.0, size=shape))
    ch = shape[1] if op == "batchnorm" else shape[-1]
    params = {f"n.{name}": ctx.asarray(rng.normal(size=ch)) for name in ("gamma", "beta")}
    node = Node("n", op, ("x",), dict(channels=ch))
    out, (mean, inv) = forward_op(node, [x], params, ctx)
    axes = (0, 2, 3) if op == "batchnorm" else -1
    assert same_bytes(mean, x.mean(axis=axes))
    assert same_bytes(inv, 1.0 / np.sqrt(x.var(axis=axes) + np.asarray(NORM_EPS, dtype=x.dtype)))
    m, i = (np.expand_dims(v, axes) for v in (mean, inv))
    gamma, beta = params["n.gamma"], params["n.beta"]
    if op == "batchnorm":
        gamma, beta = gamma[:, None, None], beta[:, None, None]
    assert same_bytes(out, ctx.q(gamma * ((x - m) * i) + beta))
    # re-evaluating from the cached statistics gives the same output
    assert same_bytes(forward_op(node, [x], params, ctx, stats=(mean, inv))[0], out)


# ---------------------------------------------------------------------------
# the FP16 float32 carrier


def binary16_operands(rng, shape, scale=1.0):
    """Random binary16 values as float32: normals of every exponent,
    subnormals, and values near the 65504 limit, with both signs; all
    times `scale`, rounded to binary16."""
    normal = np.ldexp(rng.uniform(1, 2, shape), rng.integers(-14, 16, shape))
    subnormal = rng.integers(1, 1024, shape) * 2.0 ** -24
    near_max = 65504 - rng.integers(0, 64, shape) * 32.0
    pick = rng.integers(0, 3, shape)
    x = np.choose(pick, [normal, subnormal, near_max]) * rng.choice([-1.0, 1.0], shape)
    return half_round(x * scale).astype(np.float32)


def same_bits(got, want):
    """got (float32) equals want (float64) in value and sign, NaN as NaN."""
    assert got.dtype == np.float32
    wide = got.astype(np.float64)
    return (np.array_equal(wide, want, equal_nan=True)
            and np.array_equal(np.signbit(wide), np.signbit(want)))


def test_fp16_carrier_matches_float64_rounded_once(monkeypatch):
    # One +, -, * or / of binary16 values in float32, rounded to binary16,
    # is the correctly rounded result: each kernel below must agree bit for
    # bit with the same expression in float64 rounded once.
    rng = np.random.default_rng(17)
    ctx = QuantCtx(FP16)
    a, b = binary16_operands(rng, (64, 48)), binary16_operands(rng, (64, 48))
    wa, wb = a.astype(np.float64), b.astype(np.float64)

    add = Node("s", "add", ("a", "b"), {})
    assert same_bits(forward_op(add, [a, b], {}, ctx)[0], half_round(wa + wb))
    relu = Node("r", "relu", ("a",), {})
    assert same_bits(forward_op(relu, [a], {}, ctx)[0], np.maximum(wa, 0))
    mask = b > 0
    assert same_bits(backward_op(relu, a, {"mask": mask}, {}, ctx)[0][0], wa * mask)
    for width in (16, 32):
        assert same_bits(QuantCtx(FP16, width).accumulate(a, b), half_round(wa + wb))

    # linear: the bias add on the GEMM's rounded output.  GEMM operands
    # are scaled by 2^-8 so that no product overflows (sums still may).
    lin = Node("l", "linear", ("a",), dict(d_in=48, d_out=48, bias=1))
    x = binary16_operands(rng, (16, 48), 2.0 ** -8)
    w = binary16_operands(rng, (48, 48), 2.0 ** -8)
    bias = binary16_operands(rng, (48,))
    params = {"l.weight": w, "l.bias": bias}
    out = forward_op(lin, [x], params, ctx)[0]
    gemm = ctx.matmul(x, w.T).astype(np.float64)
    assert same_bits(out, half_round(gemm + bias.astype(np.float64)))

    # the 16-bit accumulator rounds every product and every addition
    x, y = binary16_operands(rng, (5, 12), 2.0 ** -8), binary16_operands(rng, (12, 7), 2.0 ** -8)
    wx, wy = x.astype(np.float64), y.astype(np.float64)
    acc = np.zeros((5, 7))
    for k in range(12):
        acc = half_round(acc + half_round(wx[:, k, None] * wy[None, k, :]))
    assert same_bits(QuantCtx(FP16, 16).matmul(x, y), acc)

    # Conversion from float64 rounds once.  1 + 2^-11 + 2^-30 lies above
    # the binary16 midpoint 1 + 2^-11, so it rounds up to 1 + 2^-10;
    # through float32 it would first become the midpoint itself and then
    # round to even, down to 1.0.
    v = 1 + 2.0 ** -11 + 2.0 ** -30
    assert half_round(np.float32(v)) == 1.0
    got = QuantCtx(FP16).asarray(np.array([v, -v]))
    assert got.dtype == np.float32 and list(got) == [1 + 2.0 ** -10, -1 - 2.0 ** -10]

    class Draws:
        def normal(self, loc, scale, size):
            return np.full(size, v)

    g = build_desk_cnn([4], 3, with_batchnorm=False)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
    params = init_params(g, seed=0, precision=FP16)
    weights = [p for name, p in params.items() if name.endswith(".weight")]
    assert weights and all(p.dtype == np.float32 for p in weights)
    assert all(np.all(p == 1 + 2.0 ** -10) for p in weights)
