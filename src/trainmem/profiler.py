"""Static training-cost model: model/optimizer/activation memory and
forward/backward/recompute FLOPs for a (graph, TrainingConfig) pair.

A config's nonzero counts are one int64 vector over the weight list of
`plan.graph_tables` (`param_nnz`); parameter bytes and FLOPs both read it.
Parameter bytes depend on neither the checkpoint strategy nor the batch:
the graph's batchnorm elements (FP32 under FP16) and all others at the
config's width, corrected for each weight the config sparsifies (CSR
bytes in the model, nonzero values in each optimizer array).  Activation
bytes and FLOPs come from the compiled schedule (`plan.replay`), priced
at one batch and element width: the microbatch for memory and batch 1
for the FLOPs per example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .graph import ComputationGraph
from .numerics import NumericFormat
from .plan import NONE, CheckpointStrategy, Sizing, graph_tables, replay
from .plan import plan_for  # noqa: F401  (re-exported; the plan cache lives in plan)

TOKEN_MICROBATCH_FLOOR = 250

OPTIMIZER_VALUE_ARRAYS = {"sgd_nesterov": 2, "adam": 3}


@dataclass
class TrainingConfig:
    """One point in the technique space: sparsity, precision, batching,
    checkpoint strategy, and optimizer kind."""

    density: dict[str, float] = field(default_factory=dict)
    precision: NumericFormat = NumericFormat.FP32
    minibatch: int = 100
    microbatch: int | None = None
    strategy: CheckpointStrategy = NONE
    optimizer_kind: str = "sgd_nesterov"
    batch_unit: str = "examples"

    def __post_init__(self):
        if self.microbatch is None:
            self.microbatch = self.minibatch
        if self.minibatch < 1:
            raise ConfigurationError("minibatch must be >= 1")
        if self.optimizer_kind not in OPTIMIZER_VALUE_ARRAYS:
            raise ConfigurationError(f"unknown optimizer kind '{self.optimizer_kind}'")
        for group, frac in self.density.items():
            if not 0.0 < frac <= 1.0:
                raise ConfigurationError(f"density for group '{group}' must be in (0, 1]")
        if self.microbatch > self.minibatch or self.microbatch < 1:
            raise ConfigurationError("microbatch must be in [1, minibatch]")
        if self.minibatch % self.microbatch != 0:
            raise ConfigurationError("microbatch must divide minibatch")
        if self.batch_unit == "tokens" and self.microbatch < TOKEN_MICROBATCH_FLOOR:
            raise ConfigurationError(
                f"token microbatch must be >= {TOKEN_MICROBATCH_FLOOR} "
                "(the longest-sentence floor)"
            )

    def validate_for(self, graph: ComputationGraph):
        if self.batch_unit != graph.batch_unit:
            raise ConfigurationError(
                f"config batch unit '{self.batch_unit}' does not match "
                f"graph batch unit '{graph.batch_unit}'"
            )
        for group in self.density:
            if group not in graph.sparsifiable_groups():
                named = f" '{group}'" if graph.sparsifiable_groups() else ""
                raise ConfigurationError(f"graph has no sparsifiable group{named}")


@dataclass
class MemoryReport:
    model_bytes: int
    optimizer_bytes: int
    activation_forward_bytes: int
    activation_backward_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.model_bytes
            + self.optimizer_bytes
            + self.activation_forward_bytes
            + self.activation_backward_bytes
        )

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6  # decimal megabytes

    def to_dict(self) -> dict:
        return {
            "model_bytes": self.model_bytes,
            "optimizer_bytes": self.optimizer_bytes,
            "activation_forward_bytes": self.activation_forward_bytes,
            "activation_backward_bytes": self.activation_backward_bytes,
            "total_bytes": self.total_bytes,
            "total_mb": self.total_mb,
        }


@dataclass
class FlopReport:
    forward_flops: int
    backward_flops: int
    recompute_flops: int
    recompute_events: int = 0

    @property
    def ratio_to_baseline(self) -> float:
        base = self.forward_flops + self.backward_flops
        return (base + self.recompute_flops) / base if base else 1.0

    def to_dict(self) -> dict:
        return {
            "forward_flops": self.forward_flops,
            "backward_flops": self.backward_flops,
            "recompute_flops": self.recompute_flops,
            "flops_ratio": self.ratio_to_baseline,
        }


# ---------------------------------------------------------------------------


def param_nnz(graph: ComputationGraph, density: dict[str, float]) -> np.ndarray:
    """The nonzero-count vector over the graph tables' weight list: each
    weight of a group the density sparsifies keeps round(density * numel)
    nonzeros, half-to-even, and every other weight all its elements."""
    t = graph_tables(graph)
    nnz = t.weight_numel.copy()
    for group, frac in density.items():
        if frac < 1.0 and group in t.weight_group:
            k = t.weight_group[group]
            nnz[k] = np.rint(frac * t.weight_numel[k])
    return nnz


def _param_bytes(graph: ComputationGraph, config: TrainingConfig,
                 nnz: np.ndarray) -> tuple[int, int]:
    """(model bytes, optimizer bytes) from the graph's parameter totals.

    Every element is stored at the config's precision, except batchnorm
    parameters under FP16 (FP32).  Each weight of a group with density
    below 1, even one that keeps every element, is then corrected at its
    count in `nnz` to its CSR bytes in the model (packed column indices,
    32-bit row pointers, values) and its nonzero values in each optimizer
    array.
    """
    t = graph_tables(graph)
    width = norm_width = config.precision.element_bytes
    if config.precision is NumericFormat.FP16:
        norm_width = NumericFormat.FP32.element_bytes
    model = values = t.other_param_numel * width + t.norm_param_numel * norm_width
    for group, frac in config.density.items():
        if frac < 1.0 and group in t.weight_group:
            k = t.weight_group[group]
            counts = nnz[k]
            index_and_ptr = (counts * t.csr_index_bits[k] + t.csr_fixed_bits[k]) // 8
            dropped = int((t.weight_numel[k] - counts).sum()) * width
            model += int(index_and_ptr.sum()) - dropped
            values -= dropped
    return model, OPTIMIZER_VALUE_ARRAYS[config.optimizer_kind] * values


def model_memory(graph: ComputationGraph, config: TrainingConfig) -> int:
    """Bytes to store the parameters; sparsified tensors in CSR form (the
    model owns the index arrays)."""
    config.validate_for(graph)
    return _param_bytes(graph, config, param_nnz(graph, config.density))[0]


def optimizer_memory(graph: ComputationGraph, config: TrainingConfig) -> int:
    """Gradient plus momentum buffers: two value arrays for SGD with
    Nesterov momentum, three for Adam.  Sparse buffers store values only;
    the index arrays are shared with the model."""
    config.validate_for(graph)
    return _param_bytes(graph, config, param_nnz(graph, config.density))[1]


def _replay(graph, config: TrainingConfig, batch: int, nnz: np.ndarray):
    return replay(graph, config.strategy, Sizing(graph, batch, config.precision, nnz))


def activation_memory(graph: ComputationGraph, config: TrainingConfig) -> tuple[int, int]:
    """Peak activation bytes for one microbatch step, split at the peak into
    the stored-forward part and the live-gradient part."""
    config.validate_for(graph)
    result = _replay(graph, config, config.microbatch, param_nnz(graph, config.density))
    return result.peak_forward_bytes, result.peak_backward_bytes


def stored_forward_bytes(graph: ComputationGraph, config: TrainingConfig) -> int:
    """Bytes of stored activations at the end of the forward pass."""
    config.validate_for(graph)
    return _replay(graph, config, config.microbatch,
                   param_nnz(graph, config.density)).end_forward_bytes


def _flop_report(per_example, minibatch: int) -> FlopReport:
    """The FLOPs of a batch-1 replay, scaled to the minibatch.

    Microbatching does not change the total; all components scale linearly
    in the batch, so the per-example replay is scaled exactly.
    """
    return FlopReport(
        forward_flops=per_example.forward_flops * minibatch,
        backward_flops=per_example.backward_flops * minibatch,
        recompute_flops=per_example.recompute_flops * minibatch,
        recompute_events=per_example.recompute_events,
    )


def flops(graph: ComputationGraph, config: TrainingConfig) -> FlopReport:
    """FLOPs for one full minibatch step (forward, backward, recompute)."""
    config.validate_for(graph)
    result = _replay(graph, config, 1, param_nnz(graph, config.density))
    return _flop_report(result, config.minibatch)


def total_report(graph: ComputationGraph, config: TrainingConfig) -> tuple[MemoryReport, FlopReport]:
    """Peak training memory for one microbatch step plus the FLOP report.

    The config is validated and its nonzero counts derived once; the memory
    replay (at the microbatch) and the FLOP replay (at batch 1) share them.
    The gradient-accumulation buffer for microbatching is the optimizer's
    gradient buffer, already included in optimizer bytes.
    """
    config.validate_for(graph)
    nnz = param_nnz(graph, config.density)
    model, optimizer = _param_bytes(graph, config, nnz)
    peak = _replay(graph, config, config.microbatch, nnz)
    mem = MemoryReport(
        model_bytes=model,
        optimizer_bytes=optimizer,
        activation_forward_bytes=peak.peak_forward_bytes,
        activation_backward_bytes=peak.peak_backward_bytes,
    )
    per_example = _replay(graph, config, 1, nnz)
    return mem, _flop_report(per_example, config.minibatch)


def report_to_csv_row(name: str, config: TrainingConfig, mem: MemoryReport, fl: FlopReport) -> str:
    density = ";".join(f"{g}={v:g}" for g, v in sorted(config.density.items())) or "dense"
    cols = [
        name,
        density,
        config.precision.name.lower(),
        str(config.minibatch),
        str(config.microbatch),
        str(config.strategy),
        config.optimizer_kind,
        str(mem.model_bytes),
        str(mem.optimizer_bytes),
        str(mem.activation_forward_bytes),
        str(mem.activation_backward_bytes),
        str(mem.total_bytes),
        f"{mem.total_mb:.3f}",
        str(fl.forward_flops),
        str(fl.backward_flops),
        str(fl.recompute_flops),
        f"{fl.ratio_to_baseline:.4f}",
    ]
    return ",".join(cols)


CSV_HEADER = (
    "arch,density,precision,minibatch,microbatch,strategy,optimizer,"
    "model_bytes,optimizer_bytes,activation_forward_bytes,activation_backward_bytes,"
    "total_bytes,total_mb,forward_flops,backward_flops,recompute_flops,flops_ratio"
)
