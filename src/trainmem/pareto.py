"""Configuration sweeps and Pareto frontiers over (total memory, FLOPs ratio);
`sweep` prices a grid with one `Plan.evaluate_many` per checkpoint strategy."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import product

from .errors import ConfigurationError
from .graph import ComputationGraph
from .numerics import NumericFormat
from .plan import NONE, CheckpointStrategy, Sizing, plan_for
from .profiler import FlopReport, MemoryReport, TrainingConfig, _param_bytes, param_nnz

log = logging.getLogger(__name__)

AXES = ("densities", "precisions", "microbatches", "strategies", "optimizers")  # outermost first


@dataclass
class SweepSpec:
    densities: list[float] = field(default_factory=lambda: [1.0])
    precisions: list[NumericFormat] = field(default_factory=lambda: [NumericFormat.FP32])
    microbatches: list[int] | None = None  # None: [minibatch]
    strategies: list[CheckpointStrategy] = field(default_factory=lambda: [NONE])
    optimizers: list[str] = field(default_factory=lambda: ["sgd_nesterov"])
    minibatch: int = 100
    batch_unit: str = "examples"

    def __post_init__(self):
        if self.microbatches is None:
            self.microbatches = [self.minibatch]
        for name in AXES:
            if not getattr(self, name):
                raise ConfigurationError(f"sweep list '{name}' is empty")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ConfigurationError(f"densities must be in (0, 1], got {d:g}")

    def configs(self, graph: ComputationGraph):
        group = (graph.sparsifiable_groups() or [None])[0]
        for d, p, mb, st, opt in product(*[getattr(self, name) for name in AXES]):
            yield TrainingConfig(density={} if d == 1.0 else {group: d}, precision=p,
                                 minibatch=self.minibatch, microbatch=mb, strategy=st,
                                 optimizer_kind=opt, batch_unit=self.batch_unit)


@dataclass
class ParetoPoint:
    config: TrainingConfig
    memory: MemoryReport
    flops: FlopReport
    on_frontier: bool = False

    @property
    def total_bytes(self) -> int:
        return self.memory.total_bytes

    @property
    def flops_ratio(self) -> float:
        return self.flops.ratio_to_baseline


def mark_frontier(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Flag the points no other point dominates (no more bytes, no higher
    FLOPs ratio, and less of one); identical points are all on the frontier.

    One scan in (bytes, ratio) order, as `sweep` returns them: a point is
    dominated by an earlier byte group with a ratio no higher, or by the
    first point of its own group with a lower ratio.
    """
    keys = [(p.memory.total_bytes, p.flops.ratio_to_baseline) for p in points]
    best = low = math.inf  # lowest ratio with fewer bytes; lowest in this byte group
    group = None
    for i in sorted(range(len(points)), key=keys.__getitem__):
        nbytes, ratio = keys[i]
        if nbytes != group:
            best, low, group = min(best, low), ratio, nbytes
        points[i].on_frontier = best > ratio and ratio == low
    return points


def sweep(graph: ComputationGraph, spec: SweepSpec, warnings: list[str] | None = None) -> list[ParetoPoint]:
    """Evaluate every combination of the spec on the graph, equal to
    `total_report` on each config, one strategy group at a time: nonzero
    counts per density, parameter bytes per (density, precision,
    optimizer), a `Sizing` per (density, precision, microbatch), and one
    `Plan.evaluate_many` per strategy.

    A spec the graph rejects as a whole (its batch unit, or a density below
    1 without a sparsifiable group) or a value `TrainingConfig` rejects
    raises `ConfigurationError`.  A config only its strategy or microbatch
    rules out (`residual:1` without residual blocks, a batch past the
    64-bit guard) is skipped, with one message per config in config order
    appended to `warnings` if given.  Points sort by (bytes, ratio, strategy)."""
    configs = list(spec.configs(graph))
    for cfg in {bool(c.density): c for c in configs}.values():
        cfg.validate_for(graph)  # covers the spec: one batch unit, one sparsified group
    # each config's positions in the spec's lists, in the order of `configs`
    index = list(product(*[range(len(getattr(spec, name))) for name in AXES]))
    nnz, params, rows, sizings = {}, {}, {}, []
    for cfg, (d, p, mb, _, opt) in zip(configs, index):
        if d not in nnz:
            nnz[d] = param_nnz(graph, cfg.density)
        if (d, p, opt) not in params:
            params[d, p, opt] = _param_bytes(graph, cfg, nnz[d])
        if (d, p, mb) not in rows:
            try:
                sizings.append(Sizing(graph, cfg.microbatch, cfg.precision, nnz[d]))
                rows[d, p, mb] = len(sizings) - 1
            except ConfigurationError as e:
                rows[d, p, mb] = e
    groups = []  # per strategy: (recompute events, peaks, forward parts, FLOPs), or its error
    for st in spec.strategies if sizings else ():
        try:
            plan = plan_for(graph, st)
        except ConfigurationError as e:
            groups.append(e)
            continue
        peak, forward, _, flops = plan.evaluate_many(sizings)
        groups.append((plan.recompute_events, peak.tolist(), forward.tolist(), flops.tolist()))
    points = []
    for cfg, (d, p, mb, st, opt) in zip(configs, index):
        row = rows[d, p, mb]
        # the sizing's error comes first, as in `total_report`
        group = groups[st] if isinstance(row, int) else row
        if isinstance(group, ConfigurationError):
            if warnings is not None:
                warnings.append(f"skipped {cfg.strategy}/{cfg.precision.name}: {group}")
            continue
        events, peak, forward, flops = group
        memory = MemoryReport(*params[d, p, opt], forward[row], peak[row] - forward[row])
        scaled = FlopReport(*[x * cfg.minibatch for x in flops[row]], events)
        points.append(ParetoPoint(cfg, memory, scaled))
    log.info("sweep of %s: %d points priced in %d strategy groups, %d configs skipped",
             graph.name, len(points), sum(isinstance(g, tuple) for g in groups),
             len(configs) - len(points))
    points.sort(key=lambda p: (p.total_bytes, p.flops_ratio, str(p.config.strategy)))
    return mark_frontier(points)
