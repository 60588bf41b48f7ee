"""Sweeps and frontier flags, cross-checked against a quadratic-scan oracle
and against one `total_report` per config."""

import logging
import random

import pytest

from trainmem import cli, pareto, plan, profiler
from trainmem.archfile import serialize_arch
from trainmem.builders import build_wrn, random_desk_graph
from trainmem.graph import GraphBuilder
from trainmem.errors import ConfigurationError
from trainmem.numerics import NumericFormat
from trainmem.pareto import ParetoPoint, SweepSpec, mark_frontier, sweep
from trainmem.plan import CheckpointStrategy, graph_tables
from trainmem.profiler import FlopReport, MemoryReport, total_report

S = CheckpointStrategy.parse


def oracle_frontier(points):
    flags = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            le = q.total_bytes <= p.total_bytes and q.flops_ratio <= p.flops_ratio
            lt = q.total_bytes < p.total_bytes or q.flops_ratio < p.flops_ratio
            if le and lt:
                dominated = True
                break
        flags.append(not dominated)
    return flags


def test_single_config_is_on_frontier():
    g = build_wrn(16, 1, 10)
    spec = SweepSpec(minibatch=20, microbatches=[20])
    pts = sweep(g, spec)
    assert len(pts) == 1 and pts[0].on_frontier


def test_dominated_wider_precision_flagged_off():
    g = build_wrn(16, 1, 10)
    spec = SweepSpec(
        precisions=[NumericFormat.FP16, NumericFormat.FP32],
        microbatches=[10],
        strategies=[S("residual_star:2")],
        minibatch=20,
    )
    pts = sweep(g, spec)
    by_prec = {p.config.precision: p for p in pts}
    assert by_prec[NumericFormat.FP16].on_frontier
    assert not by_prec[NumericFormat.FP32].on_frontier  # same settings, more bytes


def test_frontier_matches_quadratic_oracle():
    g = build_wrn(16, 2, 10)
    spec = SweepSpec(
        densities=[1.0, 0.3],
        precisions=[NumericFormat.FP16, NumericFormat.FP32],
        microbatches=[20, 4],
        strategies=[S("none"), S("residual_star:2"), S("no_bn")],
        minibatch=20,
    )
    pts = sweep(g, spec)
    assert [p.on_frontier for p in pts] == oracle_frontier(pts)
    assert len(pts) == 24


def test_ordering_is_deterministic():
    g = build_wrn(16, 1, 10)
    spec = SweepSpec(
        densities=[1.0, 0.5],
        precisions=[NumericFormat.FP32, NumericFormat.FP16],
        microbatches=[20, 10],
        minibatch=20,
    )
    a = sweep(g, spec)
    b = sweep(g, spec)
    key = lambda p: (p.total_bytes, p.flops_ratio)
    assert [key(p) for p in a] == [key(p) for p in b]
    assert [key(p) for p in a] == sorted(key(p) for p in a)


def _point(total_bytes: int, recompute: int) -> ParetoPoint:
    """A point with the given bytes and FLOPs ratio 1 + recompute."""
    return ParetoPoint(None, MemoryReport(total_bytes, 0, 0, 0), FlopReport(1, 0, recompute))


@pytest.mark.parametrize("seed", range(40))
def test_frontier_matches_oracle_on_random_points_with_ties(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    span = rng.choice([2, 5, 20])  # small spans make equal bytes and ratios common
    pts = [_point(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
    pts += [_point(p.total_bytes, p.flops.recompute_flops) for p in rng.sample(pts, n // 4)]
    rng.shuffle(pts)
    assert [p.on_frontier for p in mark_frontier(pts)] == oracle_frontier(pts)


def test_identical_points_are_all_on_frontier():
    pts = mark_frontier([_point(5, 1), _point(5, 1), _point(6, 0), _point(6, 2)])
    assert [p.on_frontier for p in pts] == [True, True, True, False]


@pytest.mark.parametrize("densities", [[2.0, 1.0], [0.0], [-0.5], [1.5]])
def test_densities_outside_unit_interval_rejected(densities):
    with pytest.raises(ConfigurationError, match="densities"):
        SweepSpec(densities=densities)


def test_density_one_is_dense():
    g = build_wrn(16, 1, 10)
    (pt,) = sweep(g, SweepSpec(densities=[1.0], minibatch=20, microbatches=[20]))
    assert pt.config.density == {}


def _chain():
    """A graph without residual-block annotations."""
    g = GraphBuilder(name="chain")
    g.add("x", "input", shape=(4,), dtype="float")
    g.add("y", "input", shape=(), dtype="int")
    g.add("fc", "linear", "x", d_in=4, d_out=3)
    g.add("loss", "softmax_xent", ("fc", "y"), classes=3)
    g.loss("loss")
    return g.build()


def test_combination_the_graph_rejects_is_skipped_with_a_warning():
    spec = SweepSpec(strategies=[S("none"), S("residual:1")], minibatch=20, microbatches=[20])
    warnings = []
    (pt,) = sweep(_chain(), spec, warnings)
    assert str(pt.config.strategy) == "none"
    assert len(warnings) == 1 and "residual:1" in warnings[0]
    assert "residual-block annotations" in warnings[0]


@pytest.mark.parametrize("field,value", [("microbatches", [20, 6]), ("optimizers", ["sgd"])])
def test_value_the_config_rejects_aborts_the_sweep(field, value):
    spec = SweepSpec(minibatch=20, **{field: value})
    warnings = []
    with pytest.raises(ConfigurationError):
        sweep(_chain(), spec, warnings)
    assert warnings == []


def test_microbatches_default_to_the_minibatch():
    assert SweepSpec(minibatch=20).microbatches == [20]
    assert SweepSpec().microbatches == [100]


def test_spec_wide_mismatch_is_a_typed_error():
    g = build_wrn(16, 1, 10)
    warnings = []
    with pytest.raises(ConfigurationError, match="batch unit 'tokens'"):
        sweep(g, SweepSpec(minibatch=4000, batch_unit="tokens"), warnings)
    with pytest.raises(ConfigurationError, match="sparsifiable group"):
        sweep(_chain(), SweepSpec(densities=[1.0, 0.5], minibatch=20), warnings)
    assert warnings == []


def test_density_below_one_without_a_sparsifiable_group_says_so(tmp_path, capsys):
    with pytest.raises(ConfigurationError) as err:
        sweep(_chain(), SweepSpec(densities=[1.0, 0.5], minibatch=20))
    assert str(err.value) == "graph has no sparsifiable group"
    arch = tmp_path / "chain.arch"
    arch.write_text(serialize_arch(_chain()))
    spec = tmp_path / "sweep.cfg"
    spec.write_text("densities = 1.0, 0.5\nminibatch = 20\n")
    assert cli.main(["pareto", "--sweep", str(spec), "--arch", str(arch)]) == 2
    assert capsys.readouterr().err == "error: graph has no sparsifiable group\n"



def test_configs_reject_a_density_below_one_without_a_sparsifiable_group():
    with pytest.raises(ConfigurationError, match="^graph has no sparsifiable group$"):
        list(SweepSpec(densities=[1.0, 0.5], minibatch=20).configs(_chain()))
    assert [c.density for c in SweepSpec(minibatch=20).configs(_chain())] == [{}]


STRATEGIES = ("none", "no_bn", "every:2", "every:4", "residual:1", "residual:2",
              "residual_star:1", "residual_star:2")


def reference_sweep(graph, spec):
    """The sweep as one `total_report` per config: (points, warnings)."""
    points, warnings = [], []
    for cfg in spec.configs(graph):
        try:
            mem, fl = total_report(graph, cfg)
        except ConfigurationError as e:
            warnings.append(f"skipped {cfg.strategy}/{cfg.precision.name}: {e}")
            continue
        points.append(ParetoPoint(cfg, mem, fl))
    points.sort(key=lambda p: (p.total_bytes, p.flops_ratio, str(p.config.strategy)))
    return mark_frontier(points), warnings


def _cases():
    for seed in range(8):
        yield random_desk_graph(seed), SweepSpec(
            densities=[1.0, 0.3], precisions=list(NumericFormat), microbatches=[8, 2],
            strategies=[S(s) for s in STRATEGIES], optimizers=["sgd_nesterov", "adam"],
            minibatch=8)
    # a strategy the graph cannot run, and a microbatch past the 64-bit guard
    g = _chain()
    past = (2**63 - 1) // graph_tables(g).byte_bound + 1
    yield g, SweepSpec(precisions=[NumericFormat.FP16, NumericFormat.FP32],
                       microbatches=[past, 1], strategies=[S("residual:1"), S("none")],
                       minibatch=past)


def test_sweep_equals_per_config_reports():
    skipped = 0
    for graph, spec in _cases():
        warnings = []
        points = sweep(graph, spec, warnings)
        want, want_warnings = reference_sweep(graph, spec)
        for p in points:
            assert (p.memory, p.flops) == total_report(graph, p.config), p.config
        assert [(p.config, p.on_frontier) for p in points] == [
            (p.config, p.on_frontier) for p in want]
        assert warnings == want_warnings
        skipped += len(warnings)
    assert skipped == 6  # residual:1 at either batch, none past the guard


def test_sweep_prices_each_strategy_group_once(monkeypatch):
    calls = {"total_report": 0, "replay": 0, "Plan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (profiler, pareto):
        monkeypatch.setattr(mod, "total_report", counted("total_report", total_report),
                            raising=False)
    for mod in (plan, profiler, pareto):
        monkeypatch.setattr(mod, "replay", counted("replay", plan.replay), raising=False)
    monkeypatch.setattr(plan.Plan, "__init__", counted("Plan", plan.Plan.__init__))
    g, spec = next(_cases())
    points = sweep(g, spec)
    assert len(points) == 8 * 2 * 3 * 2 * 2
    assert calls == {"total_report": 0, "replay": 0, "Plan": len(STRATEGIES)}
    sweep(g, spec)
    assert calls["Plan"] == len(STRATEGIES)  # the graph keeps its plans


def test_sweep_logs_one_line(caplog):
    caplog.set_level(logging.INFO, logger="trainmem")
    spec = SweepSpec(strategies=[S("none"), S("residual:1"), S("every:2")],
                     microbatches=[20, 10], minibatch=20)
    sweep(_chain(), spec)
    (record,) = [r for r in caplog.records if r.name == "trainmem.pareto"]
    assert record.levelno == logging.INFO
    assert record.getMessage() == (
        "sweep of chain: 4 points priced in 2 strategy groups, 2 configs skipped")
