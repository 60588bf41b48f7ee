"""Acceptance suite: every release criterion as an executable check.

Each check raises AssertionError with a diagnostic on failure and returns a
one-line detail string on success.  `run_all` prints one pass/fail line per
criterion; the pytest suite parametrizes over the same registry.
"""

from __future__ import annotations

import math
import struct
import time

import numpy as np

from .builders import build_dc_transformer_cost, build_desk_cnn, build_wrn, random_desk_graph
from .engine import EngineConfig, init_params, run_step
from .graph import GraphBuilder
from .numerics import _VECTOR_MIN, NumericFormat, half_round
from .optim import LossScaler, SGDState, loss_scale_update, sgd_nesterov_step
from .plan import CheckpointStrategy, Sizing, param_layout, plan_for, replay
from .profiler import TrainingConfig, activation_memory, flops, model_memory, \
    optimizer_memory, stored_forward_bytes, total_report
from .rewire import DEFAULT_ADJUST_FACTOR, init_sparse_pattern, rewire
from .train import TrainSettings, train_desk

S = CheckpointStrategy.parse
FP16, FP32, FP64 = NumericFormat.FP16, NumericFormat.FP32, NumericFormat.FP64

WRN_GOLDEN_MB = [
    (dict(), 404.8),
    (dict(precision=FP16, strategy=S("residual_star:2")), 42.6),
    (dict(precision=FP16, microbatch=10, strategy=S("residual_star:2")), 12.2),
    (dict(density={"conv": 0.3}, precision=FP16, microbatch=10, strategy=S("residual_star:2")), 6.7),
    (dict(density={"conv": 0.2}, precision=FP16, microbatch=10, strategy=S("residual_star:2")), 5.6),
    (dict(density={"conv": 0.2}, precision=FP16, microbatch=4, strategy=S("residual_star:2")), 3.6),
    (dict(density={"conv": 0.1}, precision=FP16, microbatch=4, strategy=S("residual_star:2")), 2.5),
]

DCT_GOLDEN_MB = [
    (dict(microbatch=4000, strategy=S("none")), 2896),
    (dict(), 662),
    (dict(precision=FP16), 331),
    (dict(density={"fc_embed": 0.5}), 380),
    (dict(density={"fc_embed": 0.5}, precision=FP16), 201),
    (dict(density={"fc_embed": 0.4}), 315),
    (dict(density={"fc_embed": 0.4}, precision=FP16), 166),
    (dict(density={"fc_embed": 0.3}), 249),
    (dict(density={"fc_embed": 0.3}, precision=FP16), 131),
]

ALL_STRATEGIES = ["none", "no_bn", "every:2", "every:4", "residual:1", "residual:2",
                  "residual_star:1", "residual_star:2"]


def _rel(value, target):
    return abs(value / target - 1.0)


def check_01_wrn_golden_totals() -> str:
    g = build_wrn(28, 2, 10)
    start = time.perf_counter()
    worst = 0.0
    for kw, target in WRN_GOLDEN_MB:
        kw = dict(kw)
        cfg = TrainingConfig(minibatch=100, microbatch=kw.pop("microbatch", 100), **kw)
        mem, _ = total_report(g, cfg)
        err = _rel(mem.total_mb, target)
        worst = max(worst, err)
        assert err <= 0.10, f"WRN target {target} MB got {mem.total_mb:.2f} ({err:.1%})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden totals took {elapsed:.2f}s (limit 1s)"
    return f"7 totals within 10% (worst {worst:.1%}), {elapsed * 1e3:.0f} ms"


def check_02_dct_golden_totals() -> str:
    g = build_dc_transformer_cost()
    start = time.perf_counter()
    worst = 0.0
    for kw, target in DCT_GOLDEN_MB:
        kw = dict(kw)
        cfg = TrainingConfig(
            minibatch=4000,
            microbatch=kw.pop("microbatch", 250),
            batch_unit="tokens",
            optimizer_kind="adam",
            strategy=kw.pop("strategy", S("residual:1")),
            **kw,
        )
        mem, _ = total_report(g, cfg)
        err = _rel(mem.total_mb, target)
        worst = max(worst, err)
        assert err <= 0.12, f"DC-T target {target} MB got {mem.total_mb:.1f} ({err:.1%})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden totals took {elapsed:.2f}s (limit 1s)"
    return f"9 totals within 12% (worst {worst:.1%}), {elapsed * 1e3:.0f} ms"


def check_03_checkpoint_tradeoffs() -> str:
    g = build_wrn(28, 2, 10)
    base = TrainingConfig(minibatch=100, microbatch=100)
    act_none = sum(activation_memory(g, base))
    star2 = TrainingConfig(minibatch=100, microbatch=100, strategy=S("residual_star:2"))
    act_star2 = sum(activation_memory(g, star2))
    red = act_none / act_star2
    assert 5.3 <= red <= 6.3, f"residual_star:2 activation reduction {red:.2f} outside [5.3, 6.3]"
    ratio = flops(g, star2).ratio_to_baseline
    assert 1.25 <= ratio <= 1.35, f"residual_star:2 FLOPs ratio {ratio:.3f} outside [1.25, 1.35]"
    nobn = TrainingConfig(minibatch=100, microbatch=100, strategy=S("no_bn"))
    stored_red = 1 - stored_forward_bytes(g, nobn) / stored_forward_bytes(g, base)
    assert 0.45 <= stored_red <= 0.55, f"no_bn stored reduction {stored_red:.1%} outside [45%, 55%]"
    nobn_ratio = flops(g, nobn).ratio_to_baseline
    assert nobn_ratio < 1.01, f"no_bn FLOPs ratio {nobn_ratio:.4f} >= 1.01"
    t = build_dc_transformer_cost()
    kw = dict(minibatch=4000, microbatch=250, batch_unit="tokens", optimizer_kind="adam")
    t_none = sum(activation_memory(t, TrainingConfig(**kw)))
    t_res1 = sum(activation_memory(t, TrainingConfig(strategy=S("residual:1"), **kw)))
    t_red = t_none / t_res1
    assert 5.2 <= t_red <= 6.2, f"DC-T residual:1 reduction {t_red:.2f} outside [5.2, 6.2]"
    return (f"star2 {red:.2f}x @ {ratio:.3f}; no_bn {stored_red:.1%} @ {nobn_ratio:.4f}; "
            f"DC-T {t_red:.2f}x")


def check_04_optimizer_ratios() -> str:
    g = build_wrn(28, 2, 10)
    cfg = TrainingConfig(minibatch=100, microbatch=100)
    model = model_memory(g, cfg)
    assert optimizer_memory(g, cfg) == 2 * model, "SGD-Nesterov optimizer != 2x model"
    t = build_dc_transformer_cost()
    cfg_t = TrainingConfig(minibatch=4000, microbatch=4000, batch_unit="tokens",
                           optimizer_kind="adam")
    model_t = model_memory(t, cfg_t)
    assert optimizer_memory(t, cfg_t) == 3 * model_t, "Adam optimizer != 3x model"
    return "SGD 2x and Adam 3x hold exactly"


def _unit_chain(length: int):
    """mn unit-size storing nodes; the input is staged through a reshape so
    the first stored payload is a real unit rather than the pinned input."""
    g = GraphBuilder(name="chain")
    g.add("x0", "input", shape=(1,), dtype="float")
    g.add("y", "input", shape=(), dtype="int")
    prev = g.add("stage", "reshape", "x0", shape=(1,))
    for i in range(length - 1):
        prev = g.add(f"n{i + 1}", "linear", prev, d_in=1, d_out=1, bias=0)
    g.add("loss", "softmax_xent", (prev, "y"), classes=1)
    g.loss("loss")
    return g.build()


def check_05_chain_formula() -> str:
    # Setup: construct chains, sizings, and checkpoint plans with their
    # byte tables (all cached library artifacts); the timed portion is the
    # peak evaluation itself.
    graphs = {}
    cases = []
    for m in range(1, 33):
        for n in range(1, 33):
            mn = m * n
            if mn not in graphs:
                gg = _unit_chain(mn)
                graphs[mn] = (gg, Sizing(gg, 1, FP32))
            gg, sz = graphs[mn]
            strat = CheckpointStrategy("every", m)
            plan_for(gg, strat)
            cases.append((m, n, gg, sz, strat))
    start = time.perf_counter()
    label_pin = 4  # int label, one example
    for m, n, gg, sz, strat in cases:
        r = replay(gg, strat, sz)
        units = (r.peak_forward_bytes - label_pin) / 4
        assert units == n + m, f"m={m} n={n}: {units} units != n+m={n + m}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exhaustive chain check took {elapsed:.2f}s (limit 1s)"
    # the worked example: the direct chain stores mn quantities without
    # checkpointing and n+m with every-m (m=4, n=5)
    g45 = _unit_chain(20)
    sz = Sizing(g45, 1, FP32)
    none_units = (replay(g45, S("none"), sz).peak_forward_bytes - label_pin) / 4
    assert none_units == 21  # mn payload units plus the staged input pin
    return f"n+m exact for all 1024 (m, n) pairs in {elapsed * 1e3:.0f} ms"


def _batch(g, rng, n: int) -> dict:
    """n normal images and uniform labels for a graph's "img" input."""
    return {"img": rng.normal(size=(n,) + g.out_shape["img"]),
            "labels": rng.integers(0, g.node(g.loss_id).p("classes"), size=n)}


def check_06_checkpoint_equivalence() -> str:
    start = time.perf_counter()
    # (name, graph, parameter seed, batch seed, batch size)
    cases = [(f"seed {seed}", random_desk_graph(seed), seed, 1000 + seed, 4) for seed in range(20)]
    cases.append(("wrn-28-2", build_wrn(28, 2, 10), 0, 1020, 2))
    pairs = 0
    for name, g, seed, batch_seed, n in cases:
        params = init_params(g, seed=seed)
        batch = _batch(g, np.random.default_rng(batch_seed), n)
        base = run_step(g, params, batch, EngineConfig(strategy=S("none")))
        for st in ALL_STRATEGIES[1:]:
            r = run_step(g, params, batch, EngineConfig(strategy=S(st)))
            for k in base.grads:
                assert np.array_equal(base.grads[k], r.grads[k]), (
                    f"{name} strategy {st}: gradient {k} not bit-identical"
                )
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"equivalence check took {elapsed:.1f}s (limit 60s)"
    return f"{pairs} graph/strategy pairs (WRN-28-2 among them) bit-identical in {elapsed:.1f}s"


def check_07_microbatch_equivalence() -> str:
    start = time.perf_counter()
    cfg = EngineConfig(precision=FP64)

    def assert_close(got: dict, want: dict, what: str):
        for k in want:
            denom = np.max(np.abs(want[k]))
            if denom == 0:
                continue
            rel = np.max(np.abs(got[k] - want[k])) / denom
            assert rel <= 1e-10, f"{what}: rel err {rel:.2e} > 1e-10 on {k}"

    g = build_desk_cnn([4, 4], 3, with_batchnorm=False, input_shape=(2, 8, 8))
    params = {k: v.astype(np.float64) for k, v in init_params(g, seed=3).items()}
    rng = np.random.default_rng(7)
    batch = {"img": rng.normal(size=(12, 2, 8, 8)), "labels": rng.integers(0, 3, size=12)}
    full = run_step(g, params, batch, cfg)
    for mb in (1, 2, 3, 4, 6, 12):
        r = run_step(g, params, batch, cfg, microbatch=mb)
        assert_close(r.grads, full.grads, f"microbatch {mb}")
    # With batchnorm each group normalizes by its own statistics, so the
    # oracle is k one-group steps on the slices, weighted by their share.
    g2 = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    b2 = {"img": rng.normal(size=(8, 2, 8, 8)), "labels": rng.integers(0, 3, size=8)}
    wrn = build_wrn(28, 2, 10)
    for g, seed, b, mb in ((g2, 5, b2, 2), (wrn, 0, _batch(wrn, rng, 2), 1)):
        p = init_params(g, seed=seed, precision=FP64)
        n = len(b["labels"])
        grouped = run_step(g, p, b, cfg, microbatch=mb)
        parts = [run_step(g, p, {k: v[i:i + mb] for k, v in b.items()}, cfg)
                 for i in range(0, n, mb)]
        want = {k: sum(r.grads[k] * (mb / n) for r in parts) for k in grouped.grads}
        assert_close(grouped.grads, want, f"{g.name} in groups of {mb}")
        loss = float(np.mean([r.loss for r in parts]))
        assert abs(grouped.loss - loss) <= 1e-10 * abs(loss), (
            f"{g.name} in groups of {mb}: loss {grouped.loss!r} != mean {loss!r}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"microbatch check took {elapsed:.1f}s (limit 60s)"
    return f"divisor equivalence and per-group sums <= 1e-10 (WRN-28-2 too) in {elapsed:.1f}s"


def check_08_dsr_invariants() -> str:
    start = time.perf_counter()
    g = build_desk_cnn([8, 8], 4, with_batchnorm=True, input_shape=(3, 8, 8))
    from .train import make_synthetic_task

    images, labels = make_synthetic_task(128, 4, (3, 8, 8), seed=9)
    layout = param_layout(g)
    w = layout.pack(init_params(g, seed=9))
    params = layout.unpack(w)
    dsr = init_sparse_pattern(g, 0.5, seed=9)
    for name, mask in dsr.masks.items():
        params[name] *= mask
    state = SGDState.init(w)
    momentum = layout.unpack(state.momentum)  # views, like `params`, of arrays updated in place

    def outside(views) -> bool:  # whether a masked tensor is nonzero outside its mask
        return any(np.any(views[name][~mask]) for name, mask in dsr.masks.items())

    cfg = EngineConfig()
    rng = np.random.default_rng(9)
    rewires = 0
    for step in range(1, 2001):
        idx = rng.choice(128, size=16, replace=False)
        res = run_step(g, params, {"img": images[idx], "labels": labels[idx]}, cfg,
                       masks=dsr.masks)
        sgd_nesterov_step(w, res.flat, state, 0.05)
        assert not outside(momentum), f"step {step}: momentum support exceeds mask"
        assert not outside(params), f"step {step}: weights outside mask"
        if step % 50 == 0:
            before = dsr.threshold
            event = rewire(params, state, dsr, seed=step, update_index=step)
            rewires += 1
            assert dsr.nnz() == dsr.budget, f"step {step}: nnz {dsr.nnz()} != budget {dsr.budget}"
            factor = max(dsr.threshold / before, before / dsr.threshold)
            assert factor <= DEFAULT_ADJUST_FACTOR + 1e-12, (
                f"step {step}: threshold moved by {factor:.2f} > factor 2"
            )
            assert not outside(momentum)
            assert not outside(params), "weights outside mask after rewire"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"DSR run took {elapsed:.1f}s (limit 120s)"
    return f"2000 steps, {rewires} rewires, budget exact, in {elapsed:.1f}s"


# -- binary16 reference codec (independent of the production half_round) ----


def encode_binary16(x: float) -> int:
    """Round-to-nearest-even binary16 encoder built from integer bit math."""
    bits64 = struct.unpack(">Q", struct.pack(">d", x))[0]
    sign = (bits64 >> 48) & 0x8000
    if math.isnan(x):
        return 0x7E00
    ax = abs(x)
    if math.isinf(x) or ax >= 65520.0:
        return sign | 0x7C00
    if ax == 0.0:
        return sign
    mant, exp = math.frexp(ax)  # ax = mant * 2**exp, mant in [0.5, 1)
    exp -= 1
    mant *= 2.0  # ax = mant * 2**exp, mant in [1, 2)
    if exp < -14:
        # subnormal: quantize to multiples of 2**-24
        q = ax * (2.0 ** 24)
        qi = int(q)
        frac = q - qi
        if frac > 0.5 or (frac == 0.5 and qi % 2 == 1):
            qi += 1
        if qi >= 1024:
            return sign | 0x0400
        return sign | qi
    scaled = (mant - 1.0) * 1024.0
    fi = int(scaled)
    frac = scaled - fi
    if frac > 0.5 or (frac == 0.5 and fi % 2 == 1):
        fi += 1
    if fi == 1024:
        fi = 0
        exp += 1
    if exp > 15:
        return sign | 0x7C00
    return sign | ((exp + 15) << 10) | fi


def decode_binary16(bits: int) -> float:
    sign = -1.0 if bits & 0x8000 else 1.0
    exp = (bits >> 10) & 0x1F
    frac = bits & 0x3FF
    if exp == 0x1F:
        return float("nan") if frac else sign * float("inf")
    if exp == 0:
        return sign * frac * 2.0 ** -24
    return sign * (1.0 + frac / 1024.0) * 2.0 ** (exp - 15)


def reference_half_round(x: float) -> float:
    return decode_binary16(encode_binary16(float(x)))


def _fd_worst(graph, params, batch, names, rng, message: str) -> float:
    """Worst relative gap of FP64 engine gradients to central differences at
    min(5, size) random entries per named parameter; past 1e-6, `message`."""
    cfg = EngineConfig(precision=FP64)
    grads = run_step(graph, params, batch, cfg).grads
    h = 1e-5
    worst = 0.0
    for name in names:
        size = params[name].size
        for i in rng.choice(size, size=min(5, size), replace=False):
            pp = {k: v.copy() for k, v in params.items()}
            pp[name].reshape(-1)[i] += h
            lp = run_step(graph, pp, batch, cfg).loss
            pp[name].reshape(-1)[i] -= 2 * h
            lm = run_step(graph, pp, batch, cfg).loss
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-6, message.format(name=name, i=i, rel=rel)
    return worst


def check_09_numerics() -> str:
    # finite differences on a graph exercising every executable kind
    g = GraphBuilder()
    g.add("x", "input", shape=(2, 4, 4), dtype="float")
    g.add("y", "input", shape=(), dtype="int")
    c = g.add("c1", "conv2d", "x", c_in=2, c_out=3, k1=3, k2=3, stride=1, pad=1, sparse=0)
    b = g.add("bn", "batchnorm", c, channels=3)
    r = g.add("r", "relu", b)
    a = g.add("a", "add", (b, r))
    p = g.add("pool", "avgpool", a, window=2)
    pd = g.add("pad", "pad_channels", p, extra=1)
    tr = g.add("tr", "transpose", pd, perm=(1, 2, 0))
    f = g.add("flat", "reshape", tr, shape=(16,))
    l1 = g.add("l1", "linear", f, d_in=16, d_out=8)
    gl = g.add("gl", "glu", l1)
    ln = g.add("ln", "layernorm", gl, dim=4)
    l2 = g.add("l2", "linear", ln, d_in=4, d_out=3)
    g.add("loss", "softmax_xent", (l2, "y"), classes=3)
    g.loss("loss")
    G = g.build()
    params = {k: v.astype(np.float64) for k, v in init_params(G, seed=2).items()}
    rng = np.random.default_rng(11)
    batch = {"x": rng.normal(size=(3, 2, 4, 4)), "y": rng.integers(0, 3, size=3)}
    worst = _fd_worst(G, params, batch, list(params), rng,
                      "finite-difference mismatch on {name}[{i}]: {rel:.2e}")
    # embedding gradient checked separately (integer inputs)
    ge = GraphBuilder()
    ge.add("ix", "input", shape=(), dtype="int")
    ge.add("y", "input", shape=(), dtype="int")
    e = ge.add("emb", "embedding", "ix", vocab=5, d=4)
    l3 = ge.add("l3", "linear", e, d_in=4, d_out=3)
    ge.add("loss", "softmax_xent", (l3, "y"), classes=3)
    ge.loss("loss")
    GE = ge.build()
    pe = {k: v.astype(np.float64) for k, v in init_params(GE, seed=4).items()}
    be = {"ix": rng.integers(0, 5, size=6), "y": rng.integers(0, 3, size=6)}
    worst = max(worst, _fd_worst(GE, pe, be, ["emb.weight"], rng,
                                 "embedding finite-difference mismatch: {rel:.2e}"))

    # half_round vs the reference codec: float64 on the cast path, float32 on the vector path
    rng = np.random.default_rng(99)
    samples = np.concatenate([
        rng.normal(0, 1, 40000),
        rng.normal(0, 1e4, 20000),
        rng.normal(0, 1e-5, 20000),
        rng.uniform(-7e4, 7e4, 20000),
    ])
    boundary = np.array([
        0.0, -0.0, 65504.0, -65504.0, 65519.9, 65520.0, 65520.1, -65520.0,
        2.0 ** -24, 2.0 ** -25, 2.0 ** -25 * (1 + 1e-9), 2.0 ** -14, 2.0 ** -15,
        2048.0, 2049.0, 2050.0, 2051.0, 1.0 + 2.0 ** -11, 1.0 + 2.0 ** -12,
        float("inf"), -float("inf"),
    ])
    values = np.concatenate([samples, boundary])
    ties = np.array([(decode_binary16(b) + decode_binary16(b + 1)) / 2
                     for b in range(0, 0x77FF, 5)], np.float32)
    f32 = np.concatenate([ties, np.nextafter(ties, np.float32(np.inf)), np.nextafter(ties, -ties),
                          np.arange(0, 1 << 23, 4099, dtype=np.uint32).view(np.float32)])
    f32 = np.concatenate([f32, -f32])
    assert f32.size >= _VECTOR_MIN and np.abs(f32).max() < 2.0 ** 15
    for vals in (values, f32):
        for v, gv in zip(vals, half_round(vals)):  # equal reprs: equal values, zero signs, NaN
            ref = reference_half_round(v)
            assert repr(float(gv)) == repr(ref), f"half_round({v!r}) = {gv!r}, reference {ref!r}"
    assert math.isnan(half_round(float("nan")))
    return f"FD worst {worst:.1e}; half_round matches codec on {values.size + f32.size} values"


def check_10_loss_scaler() -> str:
    # automaton replay
    s = LossScaler(scale=2.0 ** 16, growth_interval=1000)
    for _ in range(999):
        s, skip = loss_scale_update(s, False)
        assert not skip
    assert s.scale == 2.0 ** 16 and s.clean_streak == 999
    s, skip = loss_scale_update(s, True)
    assert skip and s.scale == 2.0 ** 15 and s.clean_streak == 0
    for _ in range(1000):
        s, skip = loss_scale_update(s, False)
    assert s.scale == 2.0 ** 16, f"expected recovery to 2^16, got {s.scale}"
    s2 = LossScaler(scale=1.0, min_scale=1.0)
    s2, skip = loss_scale_update(s2, True)
    assert s2.scale == 1.0 and skip, "scale must clamp at min_scale"
    s3 = LossScaler(scale=2.0 ** 24, max_scale=2.0 ** 24, growth_interval=1)
    s3, _ = loss_scale_update(s3, False)
    assert s3.scale == 2.0 ** 24, "scale must clamp at max_scale"

    # injected overflow during an FP16 desk run: halve, skip, continue
    g = build_desk_cnn([4, 4], 4, with_batchnorm=True, input_shape=(3, 8, 8))
    events = []

    def inject(step, grads):
        if step == 5:
            name = next(iter(grads))
            grads[name][...] = np.inf
            events.append(step)

    settings = TrainSettings(steps=12, minibatch=8, precision=FP16, seed=3, log_every=4)
    result = train_desk(g, settings, on_after_backward=inject)
    assert events == [5], "injection hook did not fire"
    assert result.steps_skipped >= 1, "overflow step was not skipped"
    trace = result.scale_trace
    assert trace[4] == trace[3] / 2, f"scale did not halve on overflow: {trace[3:6]}"
    assert all(math.isfinite(m["loss"]) for m in result.metrics), "training did not continue"
    return "automaton replay exact; injected overflow halves scale, skips, recovers"


def check_11_profiler_engine_agreement() -> str:
    cases = 0
    for seed in (0, 1, 2, 3, 4, 5):
        g = random_desk_graph(seed)
        params = init_params(g, seed=seed)
        batch = _batch(g, np.random.default_rng(50 + seed), 4)
        for st in ALL_STRATEGIES:
            strat = S(st)
            r = run_step(g, params, batch, EngineConfig(strategy=strat))
            cfg = TrainingConfig(minibatch=4, microbatch=4, strategy=strat)
            pf, pb = activation_memory(g, cfg)
            fl = flops(g, cfg)
            assert (pf, pb) == (r.peak_forward_bytes, r.peak_backward_bytes), (
                f"seed {seed} {st}: profiler peak ({pf}, {pb}) != engine "
                f"({r.peak_forward_bytes}, {r.peak_backward_bytes})"
            )
            assert fl.recompute_flops == r.recompute_flops, (
                f"seed {seed} {st}: recompute FLOPs {fl.recompute_flops} != {r.recompute_flops}"
            )
            assert fl.recompute_events == r.recompute_events, (
                f"seed {seed} {st}: recompute ops {fl.recompute_events} != {r.recompute_events}"
            )
            cases += 1
    return f"{cases} graph/strategy cases agree exactly (bytes and recompute ops)"


def check_12_training_smoke() -> str:
    g = build_desk_cnn([8, 8], 4, with_batchnorm=True, input_shape=(3, 8, 8))
    dense = train_desk(g, TrainSettings(steps=400, minibatch=32, lr=0.05, seed=7))
    first_loss = dense.metrics[0]["loss"]
    last_loss = dense.metrics[-1]["loss"]
    assert last_loss < first_loss, "dense training failed to reduce the loss"
    sparse = train_desk(g, TrainSettings(steps=400, minibatch=32, lr=0.05, seed=7,
                                         density=0.5, rewire_every=50))
    gap = abs(dense.final_accuracy - sparse.final_accuracy)
    assert gap <= 0.05, (
        f"sparse accuracy {sparse.final_accuracy:.3f} vs dense "
        f"{dense.final_accuracy:.3f}: gap {gap:.3f} > 0.05"
    )
    return (f"dense {dense.final_accuracy:.3f}, 50%-sparse {sparse.final_accuracy:.3f} "
            f"(gap {gap:.3f})")


CHECKS = [
    ("1", "wrn_golden_totals", check_01_wrn_golden_totals),
    ("2", "dct_golden_totals", check_02_dct_golden_totals),
    ("3", "checkpoint_tradeoffs", check_03_checkpoint_tradeoffs),
    ("4", "optimizer_ratios", check_04_optimizer_ratios),
    ("5", "chain_formula", check_05_chain_formula),
    ("6", "checkpoint_equivalence", check_06_checkpoint_equivalence),
    ("7", "microbatch_equivalence", check_07_microbatch_equivalence),
    ("8", "dsr_invariants", check_08_dsr_invariants),
    ("9", "numerics", check_09_numerics),
    ("10", "loss_scaler", check_10_loss_scaler),
    ("11", "profiler_engine_agreement", check_11_profiler_engine_agreement),
    ("12", "training_smoke", check_12_training_smoke),
]


def run_all(stream=None) -> bool:
    import sys

    out = stream or sys.stdout
    ok = True
    for cid, name, fn in CHECKS:
        try:
            detail = fn()
            out.write(f"PASS  criterion {cid:>2} {name}: {detail}\n")
        except AssertionError as e:
            ok = False
            out.write(f"FAIL  criterion {cid:>2} {name}: {e}\n")
        except Exception as e:  # infrastructure failure is a failure too
            ok = False
            out.write(f"FAIL  criterion {cid:>2} {name}: unexpected {type(e).__name__}: {e}\n")
    return ok
