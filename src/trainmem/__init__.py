"""Low-memory neural-network training toolkit.

A byte-exact static cost model for training memory (model, optimizer, and
activation components under sparsity, low precision, microbatching, and
gradient checkpointing) paired with a desk-scale reverse-mode engine that
executes the same techniques on the same schedule, so the cost model's
claims are machine-checkable.
"""

from .builders import build_dc_transformer_cost, build_desk_cnn, build_wrn
from .engine import EngineConfig, run_microbatched, run_step
from .numerics import NumericFormat, half_round
from .plan import CheckpointStrategy
from .profiler import (FlopReport, MemoryReport, TrainingConfig, activation_memory, flops,
                       model_memory, optimizer_memory, total_report)

__all__ = [
    "CheckpointStrategy",
    "EngineConfig",
    "FlopReport",
    "MemoryReport",
    "NumericFormat",
    "TrainingConfig",
    "activation_memory",
    "build_dc_transformer_cost",
    "build_desk_cnn",
    "build_wrn",
    "flops",
    "half_round",
    "model_memory",
    "optimizer_memory",
    "run_microbatched",
    "run_step",
    "total_report",
]

__version__ = "0.1.0"
