"""Regenerate the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_refs.py [cost-sweep] [profile-cold] [train]

With no arguments every reference is rewritten.  A change that moves a
reported number regenerates the affected file and shows the diff:

- refs/cost_sweep.json: bytes and FLOPs of every WRN and DC-T grid point,
  and which WRN sweep points are on the Pareto frontier;
- refs/profile_cold.json: the JSON `trainmem profile` prints for every
  (arch, config) request a profile-cold run can make;
- refs/train.json: final loss and accuracy of every training setting for
  every seed in the training-seed pool (minutes to run).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import threads  # noqa: E402

threads.pin()

from trainmem import archfile, builders, pareto, profiler, train  # noqa: E402
from workloads import (  # noqa: E402
    IMAGE_CONFIGS,
    PRESET_ARCHS,
    RANDOM_GRAPH_POOL,
    TRAIN_SEED_POOL,
    TRAIN_SETTINGS,
    config_key,
    dct_spec,
    dump_ref,
    profile_once,
    random_arch_name,
    report_numbers,
    train_settings,
    wrn_spec,
    write_profile_inputs,
)

ROOT = Path(__file__).resolve().parent.parent


def cost_sweep_refs() -> dict:
    wrn = builders.build_wrn(28, 2, 10)
    dct = builders.build_dc_transformer_cost()
    reports = {}
    for arch, graph, spec in (("wrn", wrn, wrn_spec()), ("dct", dct, dct_spec())):
        for cfg in spec.configs(graph):
            reports[config_key(arch, cfg)] = report_numbers(*profiler.total_report(graph, cfg))
    points = pareto.sweep(wrn, wrn_spec())
    frontier = sorted(config_key("wrn", p.config) for p in points if p.on_frontier)
    return {"reports": reports, "sweep_points": len(points), "on_frontier": frontier}


def profile_cold_refs() -> dict:
    workdir = ROOT / ".bench_work" / "make-refs"
    try:
        archs = write_profile_inputs(workdir, RANDOM_GRAPH_POOL)
        outputs = {}
        for arch, cfgs in [*PRESET_ARCHS.items(),
                           *((random_arch_name(s), IMAGE_CONFIGS) for s in RANDOM_GRAPH_POOL)]:
            for cfg in cfgs:
                rc, text = profile_once(archs[arch], str(workdir / f"{cfg}.cfg"))
                if rc != 0:
                    raise SystemExit(f"profile {arch} {cfg} exited with {rc}")
                outputs[f"{arch}|{cfg}"] = text
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"outputs": outputs}


def train_refs() -> dict:
    graph = archfile.load_arch("desk-cnn")
    out = {}
    for workload, settings in TRAIN_SETTINGS.items():
        out[workload] = {}
        for setting in settings:
            losses, accs = [], []
            for seed in TRAIN_SEED_POOL:
                result = train.train_desk(graph, train_settings(workload, setting, seed))
                losses.append(result.metrics[-1]["loss"])
                accs.append(result.final_accuracy)
            out[workload][setting] = {"seeds": list(TRAIN_SEED_POOL),
                                      "final_loss": losses, "final_accuracy": accs}
            print(f"{workload} {setting}: loss {min(losses):.4f}..{max(losses):.4f} "
                  f"accuracy {min(accs):.4f}..{max(accs):.4f}", file=sys.stderr)
    return out


PARTS = {
    "cost-sweep": ("cost_sweep.json", cost_sweep_refs),
    "profile-cold": ("profile_cold.json", profile_cold_refs),
    "train": ("train.json", train_refs),
}


def main(argv: list[str]) -> int:
    parts = argv or list(PARTS)
    unknown = set(parts) - set(PARTS)
    if unknown:
        print(f"unknown parts {sorted(unknown)}; choose from {list(PARTS)}", file=sys.stderr)
        return 2
    for part in parts:
        fname, build = PARTS[part]
        dump_ref(fname, build())
        print(f"wrote refs/{fname}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
