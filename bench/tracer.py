"""Span tracer that wraps trainmem's layer functions from outside the package.

`Tracer` replaces each target function with a wrapper on every module of
the `trainmem` package that binds it by name (``half_round`` is imported
into kernels, engine, optim and train, for example), and on the owning
class for methods.  Each call is a span; the tracer keeps, per span name,
the number of calls and the summed self time.  `restore` puts every
original object back.

Self time is a span's duration minus the time its child spans cover.  The
wrappers' own bookkeeping (opening a span, counting elements, aggregating)
is charged to no span; the tracer sums it in `bookkeeping_s`, so the self
times of all spans plus that bookkeeping cover the traced wall time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

# Smallest positive normal binary16 value; nonzero magnitudes below it are
# subnormal in binary16.
FP16_MIN_NORMAL = 2.0 ** -14

# Op kinds the desk-scale engine runs, in the order the metrics list them.
FORWARD_KINDS = ("conv2d", "batchnorm", "relu", "add", "avgpool", "pad_channels",
                 "reshape", "linear", "softmax_xent")
# The engine handles add/reshape/transpose gradients itself, so only these
# kinds ever reach kernels.backward_op.
BACKWARD_KINDS = ("conv2d", "batchnorm", "relu", "avgpool", "pad_channels",
                  "linear", "softmax_xent")


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr`, where owner is a module or class."""

    span: str  # span name, or prefix when `kind_arg` names the op per call
    module: str  # trainmem submodule holding the owner
    attr: str  # "func" or "Class.method"
    kind_arg: bool = False  # span name gets "." + args[0].op appended
    post: Callable | None = None  # post(tracer, result, args) -> None; adds counts


def _count_recompute(key):
    def post(tracer, result, args):
        tracer.add(key, result.recompute_events)
    return post


def _count_skip(tracer, result, args):
    tracer.add("optim.loss_scale_update.skips", int(result[1]))


def _count_half_round(tracer, result, args):
    out = np.asarray(result)
    mag = np.abs(out)
    tracer.add("numerics.half_round.elements", out.size)
    tracer.add("numerics.half_round.subnormals",
               int(np.count_nonzero((mag < FP16_MIN_NORMAL) & (mag > 0))))


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("archfile.parse_arch", "archfile", "parse_arch"),
    Target("graph.ComputationGraph.init", "graph", "ComputationGraph.__init__"),
    Target("graph.params_of", "graph", "ComputationGraph.params_of"),
    Target("graph.forward_flops", "graph", "ComputationGraph.forward_flops"),
    Target("plan.graph_tables", "plan", "_GraphTables.__init__"),
    Target("plan.Plan", "plan", "Plan.__init__"),
    Target("plan.Sizing", "plan", "Sizing.__init__"),
    Target("plan.replay", "plan", "replay", post=_count_recompute("plan.replay.recompute_events")),
    Target("profiler.total_report", "profiler", "total_report"),
    Target("profiler.model_memory", "profiler", "model_memory"),
    Target("profiler.optimizer_memory", "profiler", "optimizer_memory"),
    Target("profiler.activation_memory", "profiler", "activation_memory"),
    Target("profiler.flops", "profiler", "flops"),
    Target("profiler.plan_for", "profiler", "plan_for"),
    Target("pareto.sweep", "pareto", "sweep"),
    Target("pareto.mark_frontier", "pareto", "mark_frontier"),
    Target("train.train_desk", "train", "train_desk"),
    Target("train.forward_eval", "train", "forward_eval"),
    Target("train.make_synthetic_task", "train", "make_synthetic_task"),
    Target("engine.run_step", "engine", "run_step", post=_count_recompute("engine.recompute_events")),
    Target("engine.run_microbatched", "engine", "run_microbatched"),
    Target("kernels.forward_op", "kernels", "forward_op", kind_arg=True),
    Target("kernels.backward_op", "kernels", "backward_op", kind_arg=True),
    Target("kernels.matmul", "kernels", "QuantCtx.matmul"),
    Target("numerics.half_round", "numerics", "half_round", post=_count_half_round),
    Target("optim.sgd_nesterov_step", "optim", "sgd_nesterov_step"),
    Target("optim.adam_step", "optim", "adam_step"),
    Target("optim.fp16_update_path", "optim", "fp16_update_path"),
    Target("optim.grads_nonfinite", "optim", "grads_nonfinite"),
    Target("optim.loss_scale_update", "optim", "loss_scale_update", post=_count_skip),
    Target("rewire.rewire", "rewire", "rewire"),
)

COUNTERS = ("plan.replay.recompute_events", "engine.recompute_events",
            "optim.loss_scale_update.skips", "numerics.half_round.elements",
            "numerics.half_round.subnormals")


def _calls_and_self(span: str) -> list[tuple[str, str]]:
    return [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms")]


# Per-layer metrics of the traced run, in output order: (name, unit).
LAYER_METRICS: list[tuple[str, str]] = [
    *_calls_and_self("cli.main"),
    *_calls_and_self("archfile.parse_arch"),
    *_calls_and_self("graph.ComputationGraph.init"),
    *_calls_and_self("graph.params_of"),
    *_calls_and_self("graph.forward_flops"),
    ("plan.graph_tables.builds", "count"),
    ("plan.Plan.builds", "count"),
    ("plan.Plan.self_ms", "ms"),
    *_calls_and_self("plan.Sizing"),
    *_calls_and_self("plan.replay"),
    ("plan.replay.recompute_events", "count"),
    *_calls_and_self("profiler.total_report"),
    *[(f"profiler.{f}.self_ms", "ms")
      for f in ("model_memory", "optimizer_memory", "activation_memory", "flops")],
    ("profiler.replays_per_report", "ratio"),
    ("profiler.plan_cache.hit_ratio", "ratio"),
    *_calls_and_self("pareto.sweep"),
    ("pareto.mark_frontier.self_ms", "ms"),
    ("train.train_desk.self_ms", "ms"),
    *_calls_and_self("train.forward_eval"),
    ("train.make_synthetic_task.self_ms", "ms"),
    *_calls_and_self("engine.run_step"),
    *_calls_and_self("engine.run_microbatched"),
    ("engine.recompute_events", "count"),
    *[m for k in FORWARD_KINDS for m in _calls_and_self(f"kernels.forward_op.{k}")],
    *[m for k in BACKWARD_KINDS for m in _calls_and_self(f"kernels.backward_op.{k}")],
    *_calls_and_self("kernels.matmul"),
    *_calls_and_self("numerics.half_round"),
    ("numerics.half_round.elements", "count"),
    ("numerics.half_round.subnormal_frac", "fraction"),
    *[(f"optim.{f}.self_ms", "ms")
      for f in ("sgd_nesterov_step", "adam_step", "fp16_update_path", "grads_nonfinite")],
    ("optim.loss_scale_update.skips", "count"),
    *_calls_and_self("rewire.rewire"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.bookkeeping_ms", "ms"),
]


class Tracer:
    """Installs span-recording wrappers on `TARGETS`; use as a context manager.

    Self times and call counts are aggregated as spans close, so a long run
    holds no per-call state.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.bookkeeping_s = 0.0  # wrapper time outside every span
        self._stack: list[list[float]] = []  # open spans: [child seconds]
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._installed = False

    # -- counts ------------------------------------------------------------
    def add(self, key: str, n: int):
        self.counts[key] += n

    # -- install / restore ---------------------------------------------------
    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = [b for t in TARGETS for b in self._find_bindings(t)]
        self._installed = True
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def _find_bindings(self, target: Target):
        """(owner, attr, original, wrapper) for every binding of the target."""
        owner = sys.modules[f"trainmem.{target.module}"]
        cls_name, _, meth = target.attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            return [(cls, meth, original, self._wrap(target, original))]
        original = getattr(owner, target.attr)
        wrapper = self._wrap(target, original)
        return [(mod, attr, original, wrapper)
                for name, mod in sys.modules.items()
                if name == "trainmem" or name.startswith("trainmem.")
                for attr, value in vars(mod).items() if value is original]

    def restore(self):
        for owner, attr, original, _ in self._bindings or ():
            setattr(owner, attr, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- the wrapper ---------------------------------------------------------
    def _wrap(self, target: Target, fn):
        stack = self._stack
        totals = self.totals
        post = target.post
        prefix = target.span + "."
        fixed = None if target.kind_arg else target.span
        tracer = self

        def traced(*args, **kwargs):
            outer_start = perf_counter()
            name = fixed or prefix + args[0].op
            frame = [0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if ok and post is not None:
                    post(tracer, result, args)
                agg = totals.get(name)
                if agg is None:
                    agg = totals[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += end - start - frame[0]
                now = perf_counter()
                tracer.bookkeeping_s += (now - outer_start) - (end - start)
                if stack:
                    # the parent's self time excludes this call and its bookkeeping
                    stack[-1][0] += now - outer_start
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} over every closed span."""
        return {k: (v[0], v[1]) for k, v in self.totals.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the `trace.*` wall-time rows."""
        agg = self.self_times()
        calls = {k: v[0] for k, v in agg.items()}
        self_ms = {k: v[1] * 1e3 for k, v in agg.items()}
        m: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field in ("calls", "builds"):
                m[name] = calls.get(base, 0)
            elif field == "self_ms":
                m[name] = self_ms.get(base, 0.0)
            elif name in self.counts:
                m[name] = self.counts[name]
        reports = calls.get("profiler.total_report", 0)
        m["profiler.replays_per_report"] = (calls.get("plan.replay", 0) / reports
                                            if reports else 0.0)
        lookups = calls.get("profiler.plan_for", 0)
        m["profiler.plan_cache.hit_ratio"] = (1.0 - calls.get("plan.Plan", 0) / lookups
                                              if lookups else 0.0)
        elems = self.counts["numerics.half_round.elements"]
        m["numerics.half_round.subnormal_frac"] = (
            self.counts["numerics.half_round.subnormals"] / elems if elems else 0.0)
        return m
