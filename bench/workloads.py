"""The four benchmark workloads and the output checks each one runs.

Every workload draws its inputs from the benchmark seed and builds what
it needs in `setup`, which may run several times.  `operations()` yields
the seeded operation stream afresh on each call, and `run_op(op, tally)`
runs one operation, times it, and checks its outputs against the
references in `refs/` outside the timed interval.  Each timed interval
is stored with a speed probe taken just before it (see probe.py), unless
the tally is not probed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from probe import probe
from trainmem import archfile, builders, cli, pareto, profiler, train
from trainmem.numerics import NumericFormat
from trainmem.optim import LossScaler
from trainmem.plan import CheckpointStrategy
from trainmem.verification import DCT_GOLDEN_MB, WRN_GOLDEN_MB

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

STRATEGIES = ("none", "no_bn", "every:2", "every:4", "residual:1", "residual:2",
              "residual_star:1", "residual_star:2")

# Acceptance tolerances of the golden totals, as in verification criteria 1 and 2.
WRN_GOLDEN_TOL = 0.10
DCT_GOLDEN_TOL = 0.12

MAX_PROBLEMS = 20  # failure messages kept per run


@dataclass
class Tally:
    """What a run measured: per-operation latencies, work and failures.
    Times are (seconds, probe seconds just before them) pairs."""

    latencies: list[tuple[float, float]] = field(default_factory=list)  # one per timed op
    busy: list[tuple[float, float]] = field(default_factory=list)  # time inside the program
    attempted: int = 0
    failed: int = 0
    units: int = 0  # work items (points, calls, steps) for ops_per_s
    problems: list[str] = field(default_factory=list)
    rss_mb: float | None = None  # peak RSS after run.RSS_AFTER_OPS operations
    # False in traced runs, whose times are not normalized: a probe taken
    # inside a training call would count as the program's self time there.
    probed: bool = True

    def fail(self, ops: int, message: str):
        self.failed += ops
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def speed(self) -> float:
        """A speed probe (see probe.py), or 1.0 if the tally is not probed."""
        return probe() if self.probed else 1.0

    def busy_s(self) -> float:
        return sum(t for t, _ in self.busy)

    def timed(self, seconds: float, speed: float, units: int = 1):
        """Record one timed operation."""
        self.latencies.append((seconds, speed))
        self.busy.append((seconds, speed))
        self.units += units


def load_ref(name: str) -> dict:
    with open(REFS_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def dump_ref(name: str, data: dict):
    """One top-level key per line group, one entry per line, for readable diffs."""
    parts = []
    for key, value in data.items():
        if isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                              for k, v in value.items())
            parts.append(f"{json.dumps(key)}: {{\n{body}\n}}")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    REFS_DIR.mkdir(exist_ok=True)
    (REFS_DIR / name).write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# cost-sweep


def wrn_spec() -> pareto.SweepSpec:
    return pareto.SweepSpec(
        densities=[1.0, 0.5, 0.3, 0.2, 0.1],
        precisions=[NumericFormat.FP32, NumericFormat.FP16],
        microbatches=[100, 50, 20, 10, 4, 1],
        strategies=[CheckpointStrategy.parse(s) for s in STRATEGIES],
        optimizers=["sgd_nesterov", "adam"],
        minibatch=100,
    )


def dct_spec() -> pareto.SweepSpec:
    return pareto.SweepSpec(
        densities=[1.0, 0.5, 0.4, 0.3],
        precisions=[NumericFormat.FP32, NumericFormat.FP16],
        microbatches=[4000, 2000, 1000, 500, 250],
        strategies=[CheckpointStrategy.parse(s) for s in STRATEGIES],
        optimizers=["adam"],
        minibatch=4000,
        batch_unit="tokens",
    )


def config_key(arch: str, cfg: profiler.TrainingConfig) -> str:
    density = ";".join(f"{g}={v:g}" for g, v in sorted(cfg.density.items())) or "dense"
    return (f"{arch}|{density}|{cfg.precision.name.lower()}|{cfg.minibatch}/"
            f"{cfg.microbatch}|{cfg.strategy}|{cfg.optimizer_kind}")


def report_numbers(mem, fl) -> list[int]:
    return [mem.model_bytes, mem.optimizer_bytes, mem.activation_forward_bytes,
            mem.activation_backward_bytes, fl.forward_flops, fl.backward_flops,
            fl.recompute_flops]


def golden_targets() -> dict[str, tuple[float, float]]:
    """Grid key -> (golden total MB, tolerance) for the acceptance goldens."""
    out = {}
    for kw, target in WRN_GOLDEN_MB:
        kw = dict(kw)
        cfg = profiler.TrainingConfig(minibatch=100, microbatch=kw.pop("microbatch", 100), **kw)
        out[config_key("wrn", cfg)] = (target, WRN_GOLDEN_TOL)
    for kw, target in DCT_GOLDEN_MB:
        kw = dict(kw)
        cfg = profiler.TrainingConfig(
            minibatch=4000, microbatch=kw.pop("microbatch", 250), batch_unit="tokens",
            optimizer_kind="adam",
            strategy=kw.pop("strategy", CheckpointStrategy.parse("residual:1")), **kw)
        out[config_key("dct", cfg)] = (target, DCT_GOLDEN_TOL)
    return out


class CostSweep:
    """Library user with warm caches: `total_report` over a seeded shuffle
    of the WRN and DC-T grids, plus one `pareto.sweep` of the WRN grid per
    pass."""

    name = "cost-sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.ref = load_ref("cost_sweep.json")
        self.golden = golden_targets()

    def setup(self):
        self.wrn = builders.build_wrn(28, 2, 10)
        self.dct = builders.build_dc_transformer_cost()
        self.spec = wrn_spec()
        self.grid = [(config_key("wrn", c), self.wrn, c) for c in self.spec.configs(self.wrn)]
        self.grid += [(config_key("dct", c), self.dct, c) for c in dct_spec().configs(self.dct)]
        missing = set(self.golden) - {key for key, _, _ in self.grid}
        if missing:
            raise RuntimeError(f"golden configs missing from the grid: {sorted(missing)}")
        # warm the per-graph caches: one report per (graph, strategy)
        seen = set()
        for key, graph, cfg in self.grid:
            if (id(graph), cfg.strategy) not in seen:
                seen.add((id(graph), cfg.strategy))
                profiler.total_report(graph, cfg)

    def operations(self):
        """Endless passes: the WRN sweep, then every grid point in seeded order."""
        rng = random.Random(self.seed)
        while True:
            yield None
            order = list(range(len(self.grid)))
            rng.shuffle(order)
            yield from order

    def run_op(self, op, tally: Tally, deadline: float | None = None):
        tally.attempted += 1
        if op is None:
            self._sweep(tally)
        else:
            self._report(tally, *self.grid[op])

    def _report(self, tally: Tally, key, graph, cfg):
        speed = tally.speed()
        try:
            t0 = perf_counter()
            mem, fl = profiler.total_report(graph, cfg)
            dt = perf_counter() - t0
        except Exception as e:  # a failing operation is counted, the run goes on
            tally.fail(1, f"{key}: {type(e).__name__}: {e}")
            return
        tally.timed(dt, speed)
        if report_numbers(mem, fl) != self.ref["reports"].get(key):
            tally.fail(1, f"{key}: bytes/FLOPs differ from the reference")
        elif key in self.golden:
            target, tol = self.golden[key]
            if abs(mem.total_mb / target - 1.0) > tol:
                tally.fail(1, f"{key}: {mem.total_mb:.2f} MB outside {tol:.0%} of {target}")

    def _sweep(self, tally: Tally):
        speed = tally.speed()
        try:
            t0 = perf_counter()
            points = pareto.sweep(self.wrn, self.spec)
            dt = perf_counter() - t0
        except Exception as e:
            tally.fail(1, f"sweep: {type(e).__name__}: {e}")
            return
        # seconds long, so the speed is probed on both sides
        tally.busy.append((dt, (speed + tally.speed()) / 2))
        tally.units += len(points)
        reports = self.ref["reports"]
        keys = [config_key("wrn", p.config) for p in points]
        frontier = sorted(k for k, p in zip(keys, points) if p.on_frontier)
        if len(points) != self.ref["sweep_points"]:
            tally.fail(1, f"sweep returned {len(points)} points")
        elif any(report_numbers(p.memory, p.flops) != reports.get(k)
                 for k, p in zip(keys, points)):
            tally.fail(1, "sweep: bytes/FLOPs differ from the reference")
        elif frontier != self.ref["on_frontier"]:
            tally.fail(1, "sweep: frontier flags differ from the reference")

    def close(self):
        pass


# ---------------------------------------------------------------------------
# profile-cold

RANDOM_GRAPH_POOL = range(32)  # seeds of builders.random_desk_graph
RANDOM_GRAPHS_PER_RUN = 16
PRESETS_PER_ROUND = 2  # copies of each preset per round of calls

IMAGE_CONFIGS = {
    "img-default": "",
    "img-fp16-rstar2-mb10": "precision = fp16\nstrategy = residual_star:2\nmicrobatch = 10\n",
    "img-d0.3-fp16-rstar2-mb10": ("density = 0.3\nprecision = fp16\n"
                                  "strategy = residual_star:2\nmicrobatch = 10\n"),
    "img-d0.5-every2-adam-mb50": ("density = 0.5\nstrategy = every:2\noptimizer = adam\n"
                                  "microbatch = 50\n"),
    "img-fp16-res1-mb20": "precision = fp16\nstrategy = residual:1\nmicrobatch = 20\n",
    "img-d0.1-nobn-mb4": "density = 0.1\nstrategy = no_bn\nmicrobatch = 4\n",
}
TOKEN_CONFIGS = {
    "tok-res1-mb250": ("minibatch = 4000\nmicrobatch = 250\nstrategy = residual:1\n"
                       "optimizer = adam\n"),
    "tok-none-mb4000": "minibatch = 4000\nmicrobatch = 4000\noptimizer = adam\n",
    "tok-d0.5-fp16-rstar1-mb500": ("density = 0.5\nprecision = fp16\nminibatch = 4000\n"
                                   "microbatch = 500\nstrategy = residual_star:1\n"
                                   "optimizer = adam\n"),
    "tok-d0.3-every4-mb1000": ("density = 0.3\nminibatch = 4000\nmicrobatch = 1000\n"
                               "strategy = every:4\n"),
}
PRESET_ARCHS = {"wrn-28-2": IMAGE_CONFIGS, "dc-transformer-iwslt": TOKEN_CONFIGS}


def random_arch_name(s: int) -> str:
    return f"random-{s}"


def profile_requests() -> list[tuple[str, str]]:
    """Every (arch, config) pair a profile-cold run can issue."""
    pairs = [(a, c) for a, cfgs in PRESET_ARCHS.items() for c in cfgs]
    pairs += [(random_arch_name(s), c) for s in RANDOM_GRAPH_POOL for c in IMAGE_CONFIGS]
    return pairs


def write_profile_inputs(workdir: Path, graph_seeds) -> dict[str, str]:
    """Serialize the random graphs and every config file; arch name -> --arch value."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in {**IMAGE_CONFIGS, **TOKEN_CONFIGS}.items():
        (workdir / f"{name}.cfg").write_text(text, encoding="utf-8")
    archs = {a: a for a in PRESET_ARCHS}
    for s in graph_seeds:
        path = workdir / f"{random_arch_name(s)}.arch"
        path.write_text(archfile.serialize_arch(builders.random_desk_graph(s)), encoding="utf-8")
        archs[random_arch_name(s)] = str(path)
    return archs


def profile_once(arch_arg: str, cfg_path: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["profile", "--arch", arch_arg, "--config", cfg_path])
    return rc, buf.getvalue()


class ProfileCold:
    """`trainmem profile` user: every call parses a fresh graph, so no
    graph-keyed cache survives between calls."""

    name = "profile-cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.graph_seeds = sorted(random.Random(f"graphs-{seed}").sample(
            list(RANDOM_GRAPH_POOL), RANDOM_GRAPHS_PER_RUN))
        self.workdir = workdir
        self.ref = load_ref("profile_cold.json")["outputs"]
        self._setups = 0

    def setup(self):
        self._setups += 1
        inputs = self.workdir / f"setup-{self._setups}"
        self.archs = write_profile_inputs(inputs, self.graph_seeds)
        self.cfg_path = {c: str(inputs / f"{c}.cfg") for c in {**IMAGE_CONFIGS, **TOKEN_CONFIGS}}
        rc, _ = profile_once("wrn-28-2", self.cfg_path["img-default"])  # first-call set-up
        if rc != 0:
            raise RuntimeError("warm-up profile call failed")

    def operations(self):
        """Rounds of calls: each preset twice and each random graph once,
        in seeded order, each with a seeded config of the matching kind."""
        arches = [a for a in PRESET_ARCHS for _ in range(PRESETS_PER_ROUND)]
        arches += [random_arch_name(s) for s in self.graph_seeds]
        rng = random.Random(self.seed)
        while True:
            order = list(arches)
            rng.shuffle(order)
            for arch in order:
                pool = PRESET_ARCHS.get(arch, IMAGE_CONFIGS)
                yield arch, rng.choice(sorted(pool))

    def run_op(self, op, tally: Tally, deadline: float | None = None):
        arch, cfg = op
        tally.attempted += 1
        speed = tally.speed()
        try:
            t0 = perf_counter()
            rc, text = profile_once(self.archs[arch], self.cfg_path[cfg])
            dt = perf_counter() - t0
        except Exception as e:  # a failing operation is counted, the run goes on
            tally.fail(1, f"{arch} {cfg}: {type(e).__name__}: {e}")
            return
        tally.timed(dt, speed)
        if rc != 0:
            tally.fail(1, f"{arch} {cfg}: exit code {rc}")
        elif text != self.ref.get(f"{arch}|{cfg}"):
            tally.fail(1, f"{arch} {cfg}: printed JSON differs from the reference")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# train-fp32 / train-fp16

STEPS_PER_CALL = 60
LOG_EVERY = 50
MINIBATCH = 32
TRAIN_SEED_POOL = range(24)  # training seeds; refs/train.json holds their results
# A call's final loss and accuracy must match its seed's recorded values
# within these tolerances, so that a kernel change may reorder reductions.
# Splitting every matmul reduction in two moved final losses by at most
# 0.01% (FP32) and 0.15% (FP16) of the loss spread across the seed pool,
# and flipped at most one of the 256 evaluation examples.
LOSS_TOL_OF_SPREAD = 0.01
ACCURACY_TOL = 4 / 256

TRAIN_SETTINGS = {
    "train-fp32": {
        "dense-none": dict(),
        "d0.5-rewire50-every2": dict(density=0.5, rewire_every=50, strategy="every:2"),
        "mb8-rstar1": dict(microbatch=8, strategy="residual_star:1"),
    },
    "train-fp16": {
        "mb8-none": dict(microbatch=8),
        "mb8-rstar1": dict(microbatch=8, strategy="residual_star:1"),
        "mb8-d0.5-rewire50": dict(microbatch=8, density=0.5, rewire_every=50),
    },
}


def train_settings(workload: str, setting: str, seed: int, steps: int = STEPS_PER_CALL):
    kw = dict(TRAIN_SETTINGS[workload][setting])
    kw["strategy"] = CheckpointStrategy.parse(kw.pop("strategy", "none"))
    precision = NumericFormat.FP16 if workload == "train-fp16" else NumericFormat.FP32
    return train.TrainSettings(steps=steps, minibatch=MINIBATCH, log_every=LOG_EVERY,
                               precision=precision, seed=seed, **kw)


def expected_peak(graph, s: train.TrainSettings) -> int:
    cfg = profiler.TrainingConfig(
        density={"conv": s.density} if s.density < 1.0 else {},
        precision=s.precision, minibatch=s.minibatch, microbatch=s.microbatch,
        strategy=s.strategy)
    return sum(profiler.activation_memory(graph, cfg))


def skipped_steps(result) -> set[int]:
    """Steps whose update the loss scaler skipped (the scale halved)."""
    out, prev = set(), LossScaler().scale
    for step, scale in enumerate(result.scale_trace, start=1):
        if scale < prev:
            out.add(step)
        prev = scale
    return out


class _Deadline(Exception):
    """Raised from the step hook to end a training call at the deadline."""


class Train:
    """`trainmem train` user: `train_desk` on the desk-cnn preset, rotating
    through three settings; one operation is one training step."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.settings = TRAIN_SETTINGS[name]
        self.ref = load_ref("train.json")[name]

    def setup(self):
        self.graph = archfile.load_arch("desk-cnn")
        self.peak = {}
        for setting in self.settings:
            s = train_settings(self.name, setting, seed=0, steps=2)
            train.train_desk(self.graph, s)
            self.peak[setting] = expected_peak(self.graph, s)

    def operations(self):
        """Endless rounds over the settings in seeded order, each call with a
        training seed drawn from the recorded pool."""
        names = sorted(self.settings)
        rng = random.Random(self.seed)
        while True:
            rng.shuffle(names)
            for setting in names:
                yield setting, rng.choice(TRAIN_SEED_POOL)

    def run_op(self, op, tally: Tally, deadline: float | None = None):
        """One `train_desk` call; each of its steps is one attempted operation.
        The hook probes the speed after each step, outside the next step's
        interval but inside `train_desk`, which is why traced runs do not
        probe.  A deadline ends the call early, from the hook."""
        setting, seed = op
        s = train_settings(self.name, setting, seed)
        speed = tally.speed()
        last = perf_counter()
        seen = 0

        def hook(step, grads):
            nonlocal last, speed, seen
            now = perf_counter()
            if seen:
                tally.latencies.append((now - last, speed))
            tally.busy.append((now - last, speed))
            seen += 1
            if deadline is not None and now >= deadline:
                last = now
                raise _Deadline
            speed = tally.speed()
            last = perf_counter()

        try:
            result = train.train_desk(self.graph, s, on_after_backward=hook)
        except _Deadline:
            result = None
        except Exception as e:  # a failing call is counted, the run goes on
            result = e
            seen = max(seen, 1)
        tally.busy.append((perf_counter() - last, speed))
        tally.attempted += seen
        tally.units += seen
        if isinstance(result, Exception):
            tally.fail(seen, f"{setting} seed {seed}: {type(result).__name__}: {result}")
        elif result is not None:
            problem = self.check(setting, s, result)
            if problem:
                tally.fail(seen, f"{setting} seed {seed}: {problem}")

    def check(self, setting: str, s: train.TrainSettings, result) -> str | None:
        fp16 = s.precision is NumericFormat.FP16
        skipped = skipped_steps(result) if fp16 else set()
        if not fp16 and result.steps_skipped:
            return f"{result.steps_skipped} FP32 steps skipped"
        for m in result.metrics:
            if not math.isfinite(m["loss"]) and m["step"] not in skipped:
                return f"non-finite loss at step {m['step']} without a loss-scale skip"
        if result.peak_activation_bytes != self.peak[setting]:
            return (f"engine peak {result.peak_activation_bytes} != profiler "
                    f"{self.peak[setting]}")
        if fp16:
            for name, arr in result.params.items():
                if name.endswith(("running_mean", "running_var")):
                    continue
                if not np.array_equal(arr.astype(np.float16).astype(np.float64), arr):
                    return f"parameter {name} left the binary16 grid"
        ref = self.ref[setting]
        i = ref["seeds"].index(s.seed)
        losses = ref["final_loss"]
        loss, want = result.metrics[-1]["loss"], losses[i]
        if not abs(loss - want) <= LOSS_TOL_OF_SPREAD * (max(losses) - min(losses)):
            return f"final loss {loss} too far from the recorded {want}"
        acc, want = result.final_accuracy, ref["final_accuracy"][i]
        if not abs(acc - want) <= ACCURACY_TOL:
            return f"final accuracy {acc} too far from the recorded {want}"
        return None

    def close(self):
        pass


WORKLOADS = ("cost-sweep", "profile-cold", "train-fp32", "train-fp16")


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cost-sweep":
        return CostSweep(seed)
    if name == "profile-cold":
        return ProfileCold(seed, workdir)
    if name in TRAIN_SETTINGS:
        return Train(name, seed)
    raise ValueError(f"unknown workload {name!r}")
