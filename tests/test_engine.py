"""Engine semantics: node kernels, gradients, checkpointed execution,
microbatching, and FP16 emulation."""

import numpy as np
import pytest

from trainmem.archfile import load_arch
from trainmem.builders import build_desk_cnn, random_desk_graph
from trainmem.engine import EngineConfig, init_params, run_microbatched, run_step
from trainmem.errors import ConfigurationError, ContractError, UnsupportedOperationError
from trainmem.graph import GraphBuilder
from trainmem.kernels import QuantCtx, backward_op, forward_op
from trainmem.numerics import NumericFormat, half_round
from trainmem.plan import (HOLD, STORE_PAYLOAD, STORE_STATS, CheckpointStrategy, graph_tables,
                           param_layout, plan_for)
from trainmem.train import forward_eval

S = CheckpointStrategy.parse
FP16, FP32, FP64 = NumericFormat.FP16, NumericFormat.FP32, NumericFormat.FP64


def tiny_graph():
    b = GraphBuilder()
    b.add("x", "input", shape=(3, 4, 4), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("c", "conv2d", "x", c_in=3, c_out=4, k1=3, k2=3, stride=1, pad=1, sparse=0)
    b.add("bn", "batchnorm", "c", channels=4)
    b.add("r", "relu", "bn")
    b.add("p", "avgpool", "r", window=4)
    b.add("f", "reshape", "p", shape=(4,))
    b.add("l", "linear", "f", d_in=4, d_out=3)
    b.add("loss", "softmax_xent", ("l", "y"), classes=3)
    b.loss("loss")
    return b.build()


def test_eval_relu():
    g = tiny_graph()
    ctx = QuantCtx(FP32)
    out, _ = forward_op(g.node("r"), [ctx.asarray([[-1.0, 0.0, 2.0]])], {}, ctx)
    assert np.array_equal(out, [[0.0, 0.0, 2.0]])


def test_eval_batchnorm_constant_batch_returns_beta():
    g = tiny_graph()
    ctx = QuantCtx(FP32)
    x = ctx.asarray(np.full((5, 4, 4, 4), 3.25))
    params = {"bn.gamma": np.ones(4), "bn.beta": np.full(4, 0.5)}
    out, _ = forward_op(g.node("bn"), [x], params, ctx)
    assert np.allclose(out, 0.5, atol=1e-8)


def test_eval_linear_matches_triple_loop():
    # oracle: naive triple loop
    g = tiny_graph()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    bias = rng.normal(size=3)
    out, _ = forward_op(g.node("l"), [x], {"l.weight": w, "l.bias": bias}, QuantCtx(FP64))
    expect = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            s = 0.0
            for k in range(4):
                s += x[i, k] * w[j, k]
            expect[i, j] = s + bias[j]
    assert np.max(np.abs(out - expect)) <= 1e-12


def test_grad_relu_bitmask_equals_full_input():
    g = tiny_graph()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 4, 4, 4))
    up = rng.normal(size=(2, 4, 4, 4))
    via_mask, _ = backward_op(g.node("r"), up, {"mask": x > 0}, {}, QuantCtx(FP32))
    expect = up * (x > 0)
    assert np.array_equal(via_mask[0], expect)


def test_grad_missing_payload_is_contract_error():
    g = tiny_graph()
    with pytest.raises(ContractError, match="missing payload"):
        backward_op(g.node("l"), np.zeros((1, 3)), {}, {"l.weight": np.zeros((3, 4))},
                    QuantCtx(FP32))


def test_cost_only_graph_rejected():
    from trainmem.builders import build_dc_transformer_cost

    g = build_dc_transformer_cost()
    with pytest.raises(UnsupportedOperationError):
        run_step(g, {}, {"src_tokens": np.zeros(4, dtype=np.int64)}, EngineConfig())


def test_checkpoint_none_has_zero_recompute():
    g = build_desk_cnn([4, 4], 3)
    params = init_params(g, seed=0)
    rng = np.random.default_rng(0)
    batch = {"img": rng.normal(size=(4, 3, 8, 8)), "labels": rng.integers(0, 3, 4)}
    res = run_step(g, params, batch, EngineConfig(strategy=S("none")))
    assert res.recompute_events == 0


def test_checkpoint_equivalence_bitwise():
    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    params = init_params(g, seed=1)
    rng = np.random.default_rng(2)
    batch = {"img": rng.normal(size=(4, 2, 8, 8)), "labels": rng.integers(0, 3, 4)}
    base = run_step(g, params, batch, EngineConfig(strategy=S("none")))
    star = run_step(g, params, batch, EngineConfig(strategy=S("residual_star:1")))
    assert star.recompute_events > 0
    for k in base.grads:
        assert np.array_equal(base.grads[k], star.grads[k]), k


def test_masked_gradients_are_zero_off_support():
    g = build_desk_cnn([4, 4], 3)
    params = init_params(g, seed=3)
    rng = np.random.default_rng(3)
    masks = {}
    for name in ("b1_conv1.weight", "b1_conv2.weight", "b2_conv1.weight", "b2_conv2.weight"):
        masks[name] = rng.random(params[name].shape) < 0.5
        params[name] = params[name] * masks[name]
    batch = {"img": rng.normal(size=(4, 3, 8, 8)), "labels": rng.integers(0, 3, 4)}
    res = run_step(g, params, batch, EngineConfig(), masks=masks)
    for name, m in masks.items():
        assert not np.any(res.grads[name][~m])


def _desk_step_inputs(with_batchnorm: bool):
    g = build_desk_cnn([4, 4], 3, with_batchnorm=with_batchnorm)
    params = init_params(g, seed=4)
    rng = np.random.default_rng(4)
    batch = {"img": rng.normal(size=(2, 3, 8, 8)), "labels": rng.integers(0, 3, 2)}
    return g, params, batch


@pytest.mark.parametrize("opcode,strategy,with_batchnorm,expect", [
    (STORE_PAYLOAD, "none", False, "required but not stored"),
    (STORE_STATS, "none", True, "missing cached statistics"),
    (HOLD, "residual_star:1", True, "required but not stored"),
], ids=["store_payload", "store_stats", "hold"])
def test_schedule_tampering_detected(monkeypatch, opcode, strategy, with_batchnorm, expect):
    # The engine counts its own references, independent of the compiler, so
    # a schedule missing any one store or hold fails instead of computing.
    # A payload that keeps nothing (its only input is a network input) is
    # the exception: removing it changes nothing.
    g, params, batch = _desk_step_inputs(with_batchnorm)
    cfg = EngineConfig(strategy=S(strategy))
    run_step(g, params, batch, cfg)  # the schedule as compiled runs
    plan = plan_for(g, cfg.strategy)
    t = graph_tables(g)
    events = plan.events
    rows = [k for k, (op, i) in enumerate(events.tolist())
            if op == opcode and (op != STORE_PAYLOAD or t.needs_without_payload[i])]
    assert rows
    for k in rows:
        monkeypatch.setattr(plan, "events", np.delete(events, k, axis=0))
        with pytest.raises(ContractError, match=expect):
            run_step(g, params, batch, cfg)


def test_unknown_opcode_rejected(monkeypatch):
    g, params, batch = _desk_step_inputs(True)
    plan = plan_for(g, S("none"))
    events = np.insert(plan.events, len(plan.events) // 2, [11, 0], axis=0)
    monkeypatch.setattr(plan, "events", events)
    with pytest.raises(ContractError, match="unknown schedule opcode 11"):
        run_step(g, params, batch, EngineConfig())


def test_microbatch_trivial_split_is_identical():
    g = build_desk_cnn([4, 4], 3)
    params = init_params(g, seed=5)
    rng = np.random.default_rng(5)
    batch = {"img": rng.normal(size=(6, 3, 8, 8)), "labels": rng.integers(0, 3, 6)}
    cfg = EngineConfig()
    a = run_step(g, params, batch, cfg)
    b = run_microbatched(g, params, batch, 6, cfg)
    for k in a.grads:
        assert np.array_equal(a.grads[k], b.grads[k])


def test_fp16_accumulator_width_effect_bounded(monkeypatch):
    # The accumulator width changes the rounding inside every conv and
    # linear reduction as well as the cross-microbatch buffer additions, so
    # the two modes' gradients differ by more than the additions explain.
    # The additions have a simple bound, checked here on every one the
    # engine makes: each rounds the exact sum of two binary16 values (exact
    # in float64) once, so it loses at most 2^-11 of that sum (2^-25
    # absolute among subnormals), although the carrier sums in float32.
    additions = []
    accumulate = QuantCtx.accumulate

    def recording(self, buf, update):
        out = accumulate(self, buf, update)
        additions.append((buf, update, out))
        return out

    monkeypatch.setattr(QuantCtx, "accumulate", recording)
    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    for seed in (6, 7, 8, 9):
        params = init_params(g, seed=seed, precision=FP16)
        rng = np.random.default_rng(seed)
        batch = {"img": rng.normal(size=(8, 2, 8, 8)), "labels": rng.integers(0, 3, 8)}
        seq = run_microbatched(g, params, batch, 2,
                               EngineConfig(precision=FP16, accumulator_width=16))
        joint = run_microbatched(g, params, batch, 2,
                                 EngineConfig(precision=FP16, exec_mode="joint"))
        # the width genuinely matters
        assert any(not np.array_equal(seq.grads[k], joint.grads[k]) for k in seq.grads)
    # one packed addition per group boundary: seeds x modes x (groups - 1),
    # covering every gradient element
    assert len(additions) == 4 * 2 * 3
    assert sum(out.size for _, _, out in additions) == (
        4 * 2 * 3 * sum(v.size for v in seq.grads.values()))
    for buf, update, out in additions:
        exact = buf.astype(np.float64) + update
        assert np.array_equal(out, half_round(out))
        assert np.all(np.abs(out - exact) <= 2.0**-11 * np.abs(exact) + 2.0**-25)


@pytest.mark.parametrize("precision,width", [(FP16, 16), (FP16, 32), (FP32, 32)])
def test_microbatched_packed_accumulation_matches_per_parameter(precision, width):
    # microbatched steps sum the gradients as one flat buffer; its sums must
    # equal a per-parameter weighting and accumulation over one-group steps
    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    params = init_params(g, seed=4, precision=precision)
    rng = np.random.default_rng(4)
    batch = {"img": rng.normal(size=(6, 2, 8, 8)), "labels": rng.integers(0, 3, 6)}
    masks = {"b1_conv1.weight": rng.random(params["b1_conv1.weight"].shape) < 0.5}
    cfg = EngineConfig(precision=precision, accumulator_width=width)
    got = run_microbatched(g, params, batch, 2, cfg, masks=masks).grads
    ctx, weight, want = cfg.ctx(), 2 / 6, {}  # a weight off the binary16 grid
    for gi in range(3):
        sub = {k: v[2 * gi:2 * gi + 2] for k, v in batch.items()}
        for name, gr in run_step(g, params, sub, cfg, masks=masks).grads.items():
            update = ctx.q(gr * weight)
            want[name] = ctx.accumulate(want[name], update) if name in want else update
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def test_fp16_outputs_on_grid():
    g = build_desk_cnn([4, 4], 3, with_batchnorm=True)
    params = init_params(g, seed=7, precision=FP16)
    rng = np.random.default_rng(7)
    batch = {"img": rng.normal(size=(4, 3, 8, 8)), "labels": rng.integers(0, 3, 4)}
    res = run_step(g, params, batch, EngineConfig(precision=FP16))
    for k, v in res.grads.items():
        assert np.array_equal(v, half_round(v)), k


def test_microbatch_requires_divisibility(monkeypatch):
    from trainmem import engine

    g = build_desk_cnn([4, 4], 3)
    params = init_params(g, seed=9)
    rng = np.random.default_rng(9)
    batch = {"img": rng.normal(size=(10, 3, 8, 8)), "labels": rng.integers(0, 3, 10)}
    entries = (lambda mb: run_microbatched(g, params, batch, mb, EngineConfig()),
               lambda mb: run_step(g, params, batch, EngineConfig(), microbatch=mb))
    for mb, message in ((0, "microbatch must be >= 1, got 0"),
                        (-2, "microbatch must be >= 1, got -2"),
                        (3, "must divide the minibatch")):
        for call in entries:
            with pytest.raises(ConfigurationError, match=message):
                call(mb)
    # a size below 1 is rejected before any work
    monkeypatch.setattr(engine, "require_executable", None)
    for call in entries:
        with pytest.raises(ConfigurationError, match="microbatch must be >= 1"):
            call(0)


@pytest.mark.parametrize("precision", [FP32, FP16])
@pytest.mark.parametrize("microbatch", [None, 2])
def test_step_gradients_are_views_of_one_flat_buffer(precision, microbatch):
    # one group and four: every gradient is a view of `flat`, laid out as
    # the graph's parameters, in the carrier dtype
    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    params = init_params(g, seed=3, precision=precision)
    rng = np.random.default_rng(3)
    batch = {"img": rng.normal(size=(8, 2, 8, 8)), "labels": rng.integers(0, 3, 8)}
    cfg = EngineConfig(precision=precision)
    res = run_step(g, params, batch, cfg, microbatch=microbatch)
    assert param_layout(g).names == list(params) == [s.name for s in g.all_params()]
    assert list(res.grads) == list(params)
    assert res.flat.dtype == cfg.ctx().dtype
    assert res.flat.size == sum(p.size for p in params.values())
    for name, grad in res.grads.items():
        assert np.shares_memory(grad, res.flat), name
    # one dict of batchnorm statistics per group
    norms = {node.node_id for node in g.nodes if node.op == "batchnorm"}
    assert len(res.batch_stats) == (1 if microbatch is None else 8 // microbatch)
    assert all(set(stats) == norms for stats in res.batch_stats)


def test_init_params_holds_exactly_the_graph_parameters():
    # the batchnorm running statistics are training state, not parameters
    g = load_arch("desk-cnn")
    for precision in (FP32, FP16):
        params = init_params(g, seed=0, precision=precision)
        assert list(params) == [s.name for s in g.all_params()]
        assert [p.shape for p in params.values()] == [s.shape for s in g.all_params()]


def test_gradient_layout_is_built_once_per_graph_and_never_by_the_cost_model():
    from trainmem.profiler import TrainingConfig, total_report

    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    total_report(g, TrainingConfig(minibatch=8, microbatch=2, strategy=S("every:2")))
    assert graph_tables(g).param_layout is None
    params = init_params(g, seed=1)
    rng = np.random.default_rng(1)
    batch = {"img": rng.normal(size=(8, 2, 8, 8)), "labels": rng.integers(0, 3, 8)}
    run_step(g, params, batch, EngineConfig())
    layout = graph_tables(g).param_layout
    assert layout is not None
    run_step(g, params, batch, EngineConfig(strategy=S("every:2")), microbatch=2)
    assert graph_tables(g).param_layout is layout is param_layout(g)


def test_observed_peak_matches_profiler_for_random_graphs():
    from trainmem.profiler import TrainingConfig, activation_memory

    for seed in (10, 11):
        g = random_desk_graph(seed)
        params = init_params(g, seed=seed)
        rng = np.random.default_rng(seed)
        shape = g.out_shape["img"]
        batch = {"img": rng.normal(size=(3,) + shape),
                 "labels": rng.integers(0, g.node("loss").p("classes"), 3)}
        for st in ("none", "every:3", "residual_star:1"):
            r = run_step(g, params, batch, EngineConfig(strategy=S(st)))
            cfg = TrainingConfig(minibatch=3, microbatch=3, strategy=S(st))
            assert activation_memory(g, cfg) == (r.peak_forward_bytes, r.peak_backward_bytes)


def test_unread_input_may_be_left_out_of_the_batch():
    b = GraphBuilder()
    b.add("x", "input", shape=(5,), dtype="float")
    b.add("unused", "input", shape=(2,), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("l", "linear", "x", d_in=5, d_out=3)
    b.add("loss", "softmax_xent", ("l", "y"), classes=3)
    b.loss("loss")
    g = b.build()
    params = init_params(g, seed=4)
    rng = np.random.default_rng(4)
    full = {"x": rng.normal(size=(6, 5)), "unused": rng.normal(size=(6, 2)),
            "y": rng.integers(0, 3, 6)}
    bare = {"x": full["x"], "y": full["y"]}
    for precision in (FP32, FP16):
        cfg = EngineConfig(precision=precision)
        for step in (lambda batch: run_step(g, params, batch, cfg),
                     lambda batch: run_microbatched(g, params, batch, 2, cfg)):
            with_unused, without = step(full), step(bare)
            assert with_unused.loss == without.loss
            assert with_unused.grads.keys() == without.grads.keys()
            for k, v in with_unused.grads.items():
                assert np.array_equal(v, without.grads[k]), k
        (logits_a, loss_a), (logits_b, loss_b) = (forward_eval(g, params, {}, batch, cfg)
                                                  for batch in (full, bare))
        assert loss_a == loss_b and np.array_equal(logits_a, logits_b)
    missing = {"y": full["y"]}
    # more labels than images, fewer, and an unread input of its own length
    uneven = [({**bare, "y": rng.integers(0, 3, 8)}, "'x' 6, 'y' 8"),
              ({**bare, "y": full["y"][:4]}, "'x' 6, 'y' 4"),
              ({**full, "unused": full["unused"][:5]}, "'x' 6, 'unused' 5, 'y' 6")]
    for batch, match in [(missing, "batch is missing input 'x'"),
                         *[(b, f"graph inputs differ in length: {m}") for b, m in uneven]]:
        for call in (lambda: run_step(g, params, batch, EngineConfig()),
                     lambda: run_microbatched(g, params, batch, 2, EngineConfig()),
                     lambda: forward_eval(g, params, {}, batch, EngineConfig())):
            with pytest.raises(ConfigurationError, match=match):
                call()


def test_microbatched_call_does_its_per_call_work_once(monkeypatch):
    # the inputs are converted, and the plan sized and priced, once per call
    # however many groups walk it, and the graph's gradient layout (built by
    # the calls before) not at all; the totals are those of the groups' steps
    from trainmem import engine, plan

    counts = {"Sizing": 0, "evaluate": 0, "prepare_inputs": 0, "FlatLayout": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    g = build_desk_cnn([4, 6], 3, with_batchnorm=True, input_shape=(2, 8, 8))
    params = init_params(g, seed=2)
    rng = np.random.default_rng(2)
    batch = {"img": rng.normal(size=(8, 2, 8, 8)), "labels": rng.integers(0, 3, 8)}
    masks = {"b1_conv1.weight": rng.random(params["b1_conv1.weight"].shape) < 0.5}
    for mode in ("sequential", "joint"):
        cfg = EngineConfig(strategy=S("residual_star:1"), exec_mode=mode)
        steps = [run_step(g, params, {k: v[2 * i:2 * i + 2] for k, v in batch.items()},
                          cfg, masks=masks) for i in range(4)]
        with monkeypatch.context() as m:
            m.setattr(engine, "Sizing", counting("Sizing", engine.Sizing))
            m.setattr(plan.Plan, "evaluate", counting("evaluate", plan.Plan.evaluate))
            m.setattr(engine, "prepare_inputs", counting("prepare_inputs", engine.prepare_inputs))
            m.setattr(plan, "FlatLayout", counting("FlatLayout", plan.FlatLayout))
            counts.update(dict.fromkeys(counts, 0))
            res = run_microbatched(g, params, batch, 2, cfg, masks=masks)
        assert counts == {"Sizing": 1, "evaluate": 1, "prepare_inputs": 1, "FlatLayout": 0}
        combine = sum if mode == "joint" else max
        for field in ("peak_bytes", "peak_forward_bytes", "peak_backward_bytes"):
            assert getattr(res, field) == combine(getattr(s, field) for s in steps), field
        assert res.recompute_events == sum(s.recompute_events for s in steps) > 0
        assert res.recompute_flops == sum(s.recompute_flops for s in steps) > 0


def test_microbatched_call_builds_conv_work_once(monkeypatch):
    # A 4-group FP16 call under residual_star:1 runs each conv's forward,
    # some twice (recomputed), and its backward in every group; it builds
    # each conv's tap weights once, and its geometry at most once per
    # (node, input shape) for the graph: not at all on a repeat call.
    from trainmem import engine, kernels

    counts = {"grid": 0, "taps": 0, "forward": 0, "backward": 0}
    built: set = set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if name == "grid":
                built.add((args[0].node_id, args[1]))
            if name in ("grid", "taps") or args[0].op == "conv2d":
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "_ConvGrid", counting("grid", kernels._ConvGrid))
    monkeypatch.setattr(kernels, "_tap_weights", counting("taps", kernels._tap_weights))
    monkeypatch.setattr(engine, "forward_op", counting("forward", engine.forward_op))
    monkeypatch.setattr(engine, "backward_op", counting("backward", engine.backward_op))
    g = load_arch("desk-cnn")
    convs = {nd.node_id for nd in g.nodes if nd.op == "conv2d"}
    params = init_params(g, seed=3, precision=FP16)
    rng = np.random.default_rng(3)
    batch = {"img": rng.normal(size=(32, 3, 8, 8)), "labels": rng.integers(0, 4, 32)}
    cfg = EngineConfig(precision=FP16, strategy=S("residual_star:1"), loss_scale=1024.0)
    first = run_microbatched(g, params, batch, 8, cfg)
    assert counts["backward"] == 4 * len(convs) < counts["forward"]  # recomputes included
    assert counts["taps"] == len(convs)
    assert counts["grid"] == len(built) <= len(convs)
    assert {nid for nid, _ in built} == convs and all(shape[0] == 8 for _, shape in built)
    counts.update(dict.fromkeys(counts, 0))
    again = run_microbatched(g, params, batch, 8, cfg)
    assert counts["grid"] == 0 and counts["taps"] == len(convs)
    assert np.array_equal(again.flat, first.flat)


@pytest.mark.xfail(strict=True, reason=(
    "_Step._backprop adds FP16 fan-out contributions without rounding the sum; "
    "rounding it moves bench/refs/train.json (6 of 72 train-fp16 final-accuracy "
    "checks failed with the sum rounded, seeds 19, 22 and 23 among them)"))
def test_fp16_upstream_gradients_are_on_grid(monkeypatch):
    # every upstream gradient a node's backward reads is a binary16 value
    from trainmem import engine

    off_grid = {}

    def checking(node, g_out, *args, **kwargs):
        if g_out is not None:
            off = int(np.count_nonzero(half_round(g_out) != g_out))
            if off:
                off_grid[node.node_id] = off
        return backward_op(node, g_out, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_op", checking)
    g = load_arch("desk-cnn")  # off the grid: 2,670 of 4,096 into b1_conv2, 3,181 into stem
    params = init_params(g, seed=0, precision=FP16)
    rng = np.random.default_rng(0)
    batch = {"img": rng.normal(size=(8, 3, 8, 8)), "labels": rng.integers(0, 4, 8)}
    run_step(g, params, batch, EngineConfig(precision=FP16, loss_scale=1024.0))
    assert off_grid == {}


def test_wrn_28_2_runs_every_strategy_at_batch_2():
    # the paper's first model through the engine: each schedule behind the
    # WRN golden totals walks without a ContractError, leaves the loss and
    # every gradient bit as `none` has them, and peaks and recomputes as
    # `total_report` prices it
    from trainmem.builders import build_wrn
    from trainmem.profiler import TrainingConfig, total_report
    from trainmem.verification import ALL_STRATEGIES

    g = build_wrn(28, 2, 10)
    rng = np.random.default_rng(28)
    batch = {"img": rng.normal(size=(2,) + g.out_shape["img"]), "labels": rng.integers(0, 10, 2)}
    for precision, strategies in ((FP32, ALL_STRATEGIES), (FP16, ["none", "residual_star:2"])):
        params = init_params(g, seed=28, precision=precision)
        base = None
        for st in strategies:
            r = run_step(g, params, batch, EngineConfig(precision=precision, strategy=S(st)))
            mem, fl = total_report(g, TrainingConfig(precision=precision, minibatch=2,
                                                     strategy=S(st)))
            assert (r.peak_forward_bytes, r.peak_backward_bytes) == (
                mem.activation_forward_bytes, mem.activation_backward_bytes), st
            assert (r.recompute_events, r.recompute_flops) == (
                fl.recompute_events, fl.recompute_flops), st
            base = base or r
            assert r.loss == base.loss, (precision, st)
            for name, grad in base.grads.items():
                assert np.array_equal(r.grads[name], grad), (precision, st, name)
