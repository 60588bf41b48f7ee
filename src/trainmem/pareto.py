"""Configuration sweeps and Pareto frontiers over (total memory, FLOPs ratio)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

from .errors import ConfigurationError
from .graph import ComputationGraph
from .numerics import NumericFormat
from .plan import NONE, CheckpointStrategy
from .profiler import FlopReport, MemoryReport, TrainingConfig, total_report


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
        for name in ("densities", "precisions", "microbatches", "strategies", "optimizers"):
            if not getattr(self, name):
                raise ConfigurationError(f"sweep list '{name}' is empty")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ConfigurationError(f"densities must be in (0, 1], got {d:g}")

    def configs(self, graph: ComputationGraph):
        group = (graph.sparsifiable_groups() or [None])[0]
        for d in self.densities:
            for p in self.precisions:
                for mb in self.microbatches:
                    for st in self.strategies:
                        for opt in self.optimizers:
                            density = {} if d == 1.0 else {group: d}
                            yield TrainingConfig(
                                density=density,
                                precision=p,
                                minibatch=self.minibatch,
                                microbatch=mb,
                                strategy=st,
                                optimizer_kind=opt,
                                batch_unit=self.batch_unit,
                            )


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

    One scan in byte order: a point is dominated by an earlier group (fewer
    bytes) with a ratio no higher, or by its own group with a lower ratio.
    """
    best = math.inf  # the lowest ratio among points with fewer bytes
    for _, group in groupby(sorted(points, key=lambda p: p.total_bytes),
                            key=lambda p: p.total_bytes):
        group = [(p, p.flops_ratio) for p in group]
        low = min(r for _, r in group)
        for p, r in group:
            p.on_frontier = best > r and low == r
        best = min(best, low)
    return points


def sweep(graph: ComputationGraph, spec: SweepSpec, warnings: list[str] | None = None) -> list[ParetoPoint]:
    """Evaluate every combination of the spec on the graph.

    A combination that `total_report` rejects for this graph, such as
    `residual:1` on a graph without residual blocks, is skipped, with a
    message appended to `warnings` if it is given.  A value that
    `TrainingConfig` itself rejects, such as a microbatch that does not
    divide the minibatch or an unknown optimizer, is bad input: it raises
    `ConfigurationError` and aborts the whole sweep.  Points come back
    deterministically ordered by (bytes, ratio)."""
    points = []
    for cfg in spec.configs(graph):
        try:
            mem, fl = total_report(graph, cfg)
        except ConfigurationError as e:
            if warnings is not None:
                warnings.append(f"skipped {cfg.strategy}/{cfg.precision.name}: {e}")
            continue
        points.append(ParetoPoint(cfg, mem, fl))
    points.sort(key=lambda p: (p.total_bytes, p.flops_ratio, str(p.config.strategy)))
    return mark_frontier(points)
