"""Dynamic sparse reparameterization: global-threshold magnitude pruning
with an adaptive threshold, regrowth at a constant nonzero budget, the
rewiring schedule, and momentum reset.

The model, gradients, and momentum buffers always share one sparsity
pattern; after every rewiring the momentum buffers are reset to zero so
the shared pattern holds exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError
from .graph import ComputationGraph

DEFAULT_PRUNE_FRACTION = 0.01377866
DEFAULT_INITIAL_THRESHOLD = 0.001
DEFAULT_ADJUST_FACTOR = 2.0

# Rewiring schedule in raw update indices (update range -> period; period 0
# means no rewiring), spanning the image model's 100k updates.
WRN_REWIRE_SCHEDULE = ((0, 12500, 100), (12500, 40000, 200), (40000, 70000, 400),
                       (70000, 95000, 800), (95000, 100000, 0))


@dataclass
class DSRState:
    threshold: float
    masks: dict[str, np.ndarray]  # boolean, weight-shaped
    budget: int

    def nnz(self) -> int:
        return sum(int(m.sum()) for m in self.masks.values())

    def group_numel(self) -> int:
        return sum(m.size for m in self.masks.values())


def init_sparse_pattern(graph: ComputationGraph, density: float, seed: int) -> DSRState:
    """Uniformly random fixed-budget pattern over the graph's first
    sparsifiable group; each tensor receives round(density * numel) nonzeros."""
    if not 0 < density <= 1:
        raise ConfigurationError("density must be in (0, 1]")
    groups = graph.sparsifiable_groups()
    if not groups:
        raise ConfigurationError("graph has no sparsifiable group")
    group = groups[0]
    rng = np.random.default_rng(seed)
    masks = {}
    budget = 0
    for spec in graph.all_params():
        if not (spec.sparse and spec.group == group):
            continue
        k = int(round(density * spec.numel))
        bits = np.zeros(spec.numel, dtype=bool)
        bits[rng.choice(spec.numel, size=k, replace=False)] = True
        masks[spec.name] = bits.reshape(spec.shape)
        budget += k
    return DSRState(threshold=DEFAULT_INITIAL_THRESHOLD, masks=masks, budget=budget)


def rewire_due(update_index: int) -> bool:
    """True when the schedule's period divides the update index; period 0
    ranges never rewire."""
    if update_index < 0:
        raise ContractError("update index must be nonnegative")
    if update_index == 0:
        return False
    for lo, hi, period in WRN_REWIRE_SCHEDULE:
        if lo <= update_index < hi:
            return period != 0 and update_index % period == 0
    return False


def prune_global(weights: dict[str, np.ndarray], masks: dict[str, np.ndarray],
                 threshold: float) -> tuple[dict[str, np.ndarray], int]:
    """Prune every currently-nonzero position with |w| < threshold, across
    all sparsified tensors under one global threshold."""
    pruned = {}
    count = 0
    for name, mask in masks.items():
        w = weights[name]
        kill = mask & (np.abs(w) < threshold)
        pruned[name] = kill
        count += int(kill.sum())
    return pruned, count


def adapt_threshold(count: int, target: int, threshold: float, adjust_factor: float) -> float:
    """Multiplicative band rule: adjust only when the prune count falls
    outside [target/factor, target*factor]."""
    if count < target / adjust_factor:
        return threshold * adjust_factor
    if count > target * adjust_factor:
        return threshold / adjust_factor
    return threshold


def regrow(count: int, masks: dict[str, np.ndarray], seed: int) -> dict[str, int]:
    """Introduce `count` new nonzeros, allocated across tensors proportional
    to surviving nonzeros (largest remainder), uniformly at random among
    each tensor's zero positions; overflow is redistributed."""
    rng = np.random.default_rng(seed)
    names = list(masks)
    surviving = np.array([int(masks[n].sum()) for n in names], dtype=np.float64)
    capacity = np.array([masks[n].size - int(masks[n].sum()) for n in names])
    if count > capacity.sum():
        raise ContractError("regrow count exceeds available zero positions")
    total = surviving.sum()
    if total == 0:
        shares = np.full(len(names), 1.0 / len(names))
    else:
        shares = surviving / total
    alloc = np.floor(shares * count).astype(np.int64)
    remainder = count - alloc.sum()
    if remainder > 0:
        order = np.argsort(-(shares * count - alloc), kind="stable")
        for idx in order[:remainder]:
            alloc[idx] += 1
    # redistribute allocations exceeding a tensor's zero positions
    overflow = np.maximum(alloc - capacity, 0)
    alloc = np.minimum(alloc, capacity)
    spill = int(overflow.sum())
    while spill > 0:
        room = capacity - alloc
        order = np.argsort(-room, kind="stable")
        for idx in order:
            if spill == 0:
                break
            take = min(spill, int(room[idx]))
            alloc[idx] += take
            spill -= take
    grown = {}
    for name, k in zip(names, alloc):
        k = int(k)
        grown[name] = k
        if k == 0:
            continue
        flat = masks[name].reshape(-1)
        zeros = np.flatnonzero(~flat)
        picks = rng.choice(zeros.size, size=k, replace=False)
        flat[zeros[picks]] = True
    return grown


@dataclass
class RewireEvent:
    update: int
    pruned: int
    regrown: int
    threshold_before: float
    threshold_after: float
    per_tensor_nnz: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def rewire(weights: dict[str, np.ndarray], optimizer_state, dsr_state: DSRState,
           seed: int, update_index: int = 0) -> RewireEvent:
    """One prune-and-replace event: global prune, threshold adaptation,
    proportional regrowth back to the budget, and a momentum reset."""
    before = dsr_state.threshold
    pruned_sets, count = prune_global(weights, dsr_state.masks, dsr_state.threshold)
    for name, kill in pruned_sets.items():
        dsr_state.masks[name] &= ~kill
        weights[name][kill] = 0.0
    target = int(round(DEFAULT_PRUNE_FRACTION * dsr_state.group_numel()))
    dsr_state.threshold = adapt_threshold(count, target, dsr_state.threshold,
                                          DEFAULT_ADJUST_FACTOR)
    grown = regrow(count, dsr_state.masks, seed)
    # new weights start at exactly zero; pattern bookkeeping already updated
    if optimizer_state is not None:
        optimizer_state.reset_momentum()
    if dsr_state.nnz() != dsr_state.budget:
        raise ContractError(
            f"nonzero budget violated after rewire: {dsr_state.nnz()} != {dsr_state.budget}"
        )
    return RewireEvent(
        update=update_index,
        pruned=count,
        regrown=sum(grown.values()),
        threshold_before=before,
        threshold_after=dsr_state.threshold,
        per_tensor_nnz={n: int(m.sum()) for n, m in dsr_state.masks.items()},
    )
