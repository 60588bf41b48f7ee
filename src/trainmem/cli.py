"""Command-line front end: profile one configuration, sweep Pareto grids,
run desk-scale training demonstrations, and execute the acceptance suite.

    trainmem profile --arch wrn-28-2 --config baseline.cfg --out report
    trainmem pareto  --sweep sweep.cfg --out frontier.csv
    trainmem train   --arch desk-cnn --config train.cfg --seed 0
    trainmem verify

`--arch` takes a preset name (`archfile.PRESETS`) or an `.arch` file path.
Config files are flat `key = value` text; an unknown or repeated key is
an error, and a key a file leaves out takes its dataclass's default.  Bad
input, an unreadable file included, ends with `error: ...` and exit 2.
Set TRAINMEM_LOG=debug|info for verbosity.  Outputs are deterministic
given a seed and inputs.

A call builds the parser of only the subcommand it runs and keeps nothing
between calls; `--help` prints this text up to this paragraph.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from functools import partial

from .archfile import load_arch, read_text
from .errors import ConfigurationError, TrainmemError
from .numerics import NumericFormat
from .pareto import SweepSpec, sweep
from .plan import CheckpointStrategy
from .profiler import CSV_HEADER, TrainingConfig, report_to_csv_row, total_report
from .train import TrainSettings, TrainingDiverged, check_trainable, metrics_to_jsonl, train_desk

log = logging.getLogger("trainmem")


def read_kv_file(path: str, keys) -> dict[str, str]:
    """The `key = value` lines of a config file; a key outside `keys`, or
    one given twice, is an error."""
    out = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = val.strip()
    return out


def _convert(key: str, text: str, kind):
    """`kind(text)`, or a comma list of `kind[0]` if `kind` is a list; a
    value `kind` rejects is a ConfigurationError naming the config key."""
    if isinstance(kind, list):
        return [_convert(key, x.strip(), kind[0]) for x in text.split(",") if x.strip()]
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {noun}, got {text!r}") from None


def _density(text: str) -> dict[str, float]:
    """`frac` or `group=frac; ...`; a bare fraction is keyed `*` until the
    graph names its first sparsifiable group."""
    density = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        group, frac = part.split("=", 1) if "=" in part else ("*", part)
        density[group.strip()] = _convert("density", frac, float)
    return {k: v for k, v in density.items() if v != 1.0}  # exactly 1.0 means dense


# Each command's config keys and how each value converts.  A key the file
# leaves out is not passed, so the dataclass it feeds supplies the default.
_precision, _strategy = NumericFormat.parse, CheckpointStrategy.parse
PROFILE_KEYS = {"density": _density, "precision": _precision, "minibatch": int,
                "microbatch": int, "strategy": _strategy, "optimizer": str, "batch_unit": str}
SWEEP_KEYS = {"arch": str, "densities": [float],
              "precisions": [partial(_precision, key="precisions")], "minibatch": int,
              "microbatches": [int], "strategies": [_strategy], "optimizers": [str],
              "batch_unit": str}
TRAIN_KEYS = {"steps": int, "minibatch": int, "microbatch": int, "lr": float, "density": float,
              "precision": _precision, "strategy": _strategy, "optimizer": str,
              "accumulator_width": int, "rewire_every": int, "log_every": int}


def read_settings(path: str | None, kinds: dict) -> dict:
    """The keys a config file sets, each converted to its kind; no file
    sets none."""
    if not path:
        return {}
    return {k: _convert(k, v, kinds[k]) for k, v in read_kv_file(path, kinds).items()}


def cmd_profile(args) -> int:
    graph = load_arch(args.arch)
    settings = read_settings(args.config, PROFILE_KEYS)
    density = settings.get("density", {})
    if "*" in density:
        groups = graph.sparsifiable_groups()
        if not groups:
            raise TrainmemError("density given but the graph has no sparsifiable group")
        density[groups[0]] = density.pop("*")
    if "optimizer" in settings:
        settings["optimizer_kind"] = settings.pop("optimizer")
    config = TrainingConfig(**{"batch_unit": graph.batch_unit, **settings})
    mem, fl = total_report(graph, config)
    payload = {"arch": graph.name, **mem.to_dict(), **fl.to_dict()}
    csv_text = CSV_HEADER + "\n" + report_to_csv_row(graph.name, config, mem, fl) + "\n"
    if args.out:
        with open(args.out + ".json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
        log.info("wrote %s.json and %s.csv", args.out, args.out)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(csv_text, end="")
    return 0


def cmd_pareto(args) -> int:
    settings = read_settings(args.sweep, SWEEP_KEYS)
    graph = load_arch(settings.pop("arch", args.arch or "wrn-28-2"))
    spec = SweepSpec(**{"batch_unit": graph.batch_unit, **settings})
    warnings: list[str] = []
    points = sweep(graph, spec, warnings)
    for w in warnings:
        log.warning("%s", w)
    lines = [CSV_HEADER + ",on_frontier"]
    for p in points:
        lines.append(report_to_csv_row(graph.name, p.config, p.memory, p.flops)
                     + f",{int(p.on_frontier)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        log.info("wrote %s (%d points)", args.out, len(points))
    else:
        print(text, end="")
    return 0


def cmd_train(args) -> int:
    graph = load_arch(args.arch)
    settings = TrainSettings(**read_settings(args.config, TRAIN_KEYS), seed=args.seed)
    check_trainable(graph)
    out = args.out or "train"
    paths = (out + ".metrics.jsonl", out + ".rewire.jsonl")
    try:  # opened before training, so a bad path fails first
        with open(paths[0], "w") as metrics, open(paths[1], "w") as rewire:
            result = train_desk(graph, settings)
            metrics.write(metrics_to_jsonl(result))
            rewire.write("\n".join(result.rewire_log) + ("\n" if result.rewire_log else ""))
    except TrainingDiverged as e:  # no output file is left behind, empty
        for path in paths:
            os.remove(path)
        sys.stderr.write(f"error: training diverged: {e}\n")
        return 2
    summary = {
        "final_accuracy": round(result.final_accuracy, 6),
        "steps_skipped": result.steps_skipped,
        "peak_activation_bytes": result.peak_activation_bytes,
        "rewires": len(result.rewire_log),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from .verification import run_all

    return 0 if run_all() else 1


# Each subcommand's help, handler and arguments (flag, keyword arguments).
COMMANDS = {
    "profile": ("memory/FLOP report for one configuration", cmd_profile, [
        ("--arch", dict(required=True, help="arch file path or preset name")),
        ("--config", dict(help="flat key=value training configuration")),
        ("--out", dict(help="output path prefix (.json/.csv)")),
        ("--format", dict(choices=("json", "csv"), default="json"))]),
    "pareto": ("sweep a configuration grid, flag the frontier", cmd_pareto, [
        ("--sweep", dict(required=True, help="sweep spec (key=value with comma lists)")),
        ("--arch", dict(help="arch override if the sweep file names none")),
        ("--out", dict(help="frontier CSV path"))]),
    "train": ("desk-scale training demonstration", cmd_train, [
        ("--arch", dict(required=True)),
        ("--config", dict(help="flat key=value training settings")),
        ("--out", dict(help="output prefix for metrics/rewire logs")),
        ("--seed", dict(type=int, default=0))]),
    "verify": ("run the acceptance suite", cmd_verify, []),
}


def main(argv=None) -> int:
    level = os.environ.get("TRAINMEM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    about = __doc__ and __doc__.rsplit("\n\n", 1)[0]  # None under -OO, as before
    parser = argparse.ArgumentParser(prog="trainmem", description=about,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # A named subcommand gets the only subparser, and a metavar naming all
    # four; a given `prog` spares argparse formatting a usage line for it.
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog, metavar=(
        "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        help_text, fn, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TrainmemError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
