"""CLI subcommands: profile, pareto, train, verify, plus failure modes."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import weakref
from pathlib import Path

import pytest

from trainmem import cli, graph, train
from trainmem.archfile import serialize_arch
from trainmem.builders import build_desk_cnn, random_desk_graph
from trainmem.cli import main, read_kv_file
from trainmem.errors import ConfigurationError
from trainmem.numerics import NumericFormat


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_wrn_baseline(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("precision = fp32\nminibatch = 100\nmicrobatch = 100\n")
    code, out, _ = run_cli(["profile", "--arch", "wrn-28-2", "--config", str(cfg),
                            "--out", str(tmp_path / "rep")], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert abs(payload["total_mb"] / 404.8 - 1) < 0.10
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.startswith("arch,")


def test_python_m_trainmem_runs_the_cli(capsys):
    # `python -m trainmem` is the `trainmem` command: same exit code, same JSON
    import subprocess
    import sys

    import trainmem

    src = str(Path(trainmem.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "trainmem", "profile", "--arch", "wrn-28-2"],
                          capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = run_cli(["profile", "--arch", "wrn-28-2"], capsys)
    assert proc.returncode == code == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(out)
    assert proc.stdout == out


def test_profile_dct_baseline(tmp_path, capsys):
    cfg = tmp_path / "dct.cfg"
    cfg.write_text(
        "precision = fp32\nminibatch = 4000\nmicrobatch = 4000\n"
        "optimizer = adam\nbatch_unit = tokens\n"
    )
    code, out, _ = run_cli(["profile", "--arch", "dc-transformer-iwslt",
                            "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["total_mb"] / 2896 - 1) < 0.12


def test_profile_param_free_arch_reports_zero_model(tmp_path, capsys):
    arch = tmp_path / "tiny.arch"
    arch.write_text(
        "x = input(shape=4d)\ny = input(shape=scalar, dtype=int)\n"
        "loss_n = softmax_xent(classes=4) <- x, y\nloss loss_n\n"
    )
    cfg = tmp_path / "c.cfg"
    cfg.write_text("minibatch = 1\nmicrobatch = 1\n")
    code, out, _ = run_cli(["profile", "--arch", str(arch), "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model_bytes"] == 0
    assert payload["optimizer_bytes"] == 0
    assert payload["recompute_flops"] == 0


def test_profile_bad_arch_nonzero_exit(tmp_path, capsys):
    arch = tmp_path / "bad.arch"
    arch.write_text("x = input(shape=4d\nloss x\n")
    code, _, err = run_cli(["profile", "--arch", str(arch)], capsys)
    assert code == 2
    assert "error" in err


def test_profile_tied_linear_is_a_typed_error(tmp_path, capsys):
    # a tied linear owns no weight to price: exit 2 naming the node
    arch = tmp_path / "tied.arch"
    arch.write_text("x = input(shape=4d)\ny = input(shape=scalar, dtype=int)\n"
                    "a = linear(d_in=4, d_out=3) <- x\nb = linear(d_in=4, d_out=3, tied=a) <- x\n"
                    "l = softmax_xent(classes=3) <- b, y\nloss l\n")
    code, out, err = run_cli(["profile", "--arch", str(arch)], capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and "node 'b'" in err and "tied" in err, err


def test_missing_preset_descriptive(capsys):
    code, _, err = run_cli(["profile", "--arch", "wrn-9999"], capsys)
    assert code == 2
    assert "wrn-9999" in err or "No such file" in err


def test_pareto_reproduces_table_rows(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text(
        "arch = wrn-28-2\nminibatch = 100\n"
        "densities = 1.0, 0.3, 0.2, 0.1\nprecisions = fp16\n"
        "microbatches = 100, 10, 4\nstrategies = residual_star:2\n"
    )
    out_file = tmp_path / "frontier.csv"
    code, _, _ = run_cli(["pareto", "--sweep", str(sweep_file), "--out", str(out_file)], capsys)
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    header = rows[0].split(",")
    mb_col = header.index("total_mb")
    totals = sorted(float(r.split(",")[mb_col]) for r in rows[1:])
    for target in (42.6, 12.2, 6.7, 5.6, 3.6, 2.5):
        assert any(abs(t / target - 1) < 0.10 for t in totals), target
    # deterministic byte-identical rerun
    out2 = tmp_path / "frontier2.csv"
    run_cli(["pareto", "--sweep", str(sweep_file), "--out", str(out2)], capsys)
    assert out_file.read_bytes() == out2.read_bytes()


def test_train_and_determinism_across_strategies(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 45\nminibatch = 16\nlr = 0.05\nlog_every = 15\n")
    outputs = []
    for st, name in (("none", "a"), ("residual_star:1", "b")):
        cfg.write_text(
            f"steps = 45\nminibatch = 16\nlr = 0.05\nlog_every = 15\nstrategy = {st}\n"
        )
        code, out, _ = run_cli(["train", "--arch", "desk-cnn", "--config", str(cfg),
                                "--out", str(tmp_path / name), "--seed", "5"], capsys)
        assert code == 0
        outputs.append((tmp_path / f"{name}.metrics.jsonl").read_bytes())
    assert outputs[0] == outputs[1]  # checkpointing leaves training untouched


def test_train_dsr_logs_constant_nnz(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 60\nminibatch = 16\ndensity = 0.5\nrewire_every = 20\n")
    code, out, _ = run_cli(["train", "--arch", "desk-cnn", "--config", str(cfg),
                            "--out", str(tmp_path / "dsr"), "--seed", "3"], capsys)
    assert code == 0
    lines = (tmp_path / "dsr.rewire.jsonl").read_text().strip().splitlines()
    budgets = {sum(json.loads(l)["per_tensor_nnz"].values()) for l in lines}
    assert len(budgets) == 1


def test_verify_fails_under_csr_formula_mutation(monkeypatch, capsys):
    # deliberate fault injection: corrupting the CSR byte formula (64 more
    # bytes per nonzero, as 512 more bits per column index in the graph
    # tables the check builds) must trip the golden-total checks
    from trainmem import sparse, verification

    original = sparse.col_index_bits

    def corrupted(cols):
        return original(cols) + 512

    monkeypatch.setattr(sparse, "col_index_bits", corrupted)
    with pytest.raises(AssertionError):
        verification.check_01_wrn_golden_totals()


@pytest.mark.parametrize("command,arch,config,expect", [
    ("profile", "wrn-28-2", "strategy = every:x\n", "strategy"),
    ("profile", "wrn-28-2", "density = abc\n", "density"),
    ("profile", "wrn-28-2", "density = 2\n", "density"),
    ("profile", "wrn-28-2", "density = conv=1.5\n", "density"),
    ("profile", "wrn-28-2", "minibatch = 1.5\n", "minibatch"),
    ("profile", "wrn-28-2", "minibatch = 0\n", "minibatch must be >= 1"),
    ("profile", "wrn-28-2", "microbatch = ten\n", "microbatch"),
    ("train", "desk-cnn", "steps = ten\n", "steps"),
    ("train", "desk-cnn", "log_every = 2.5\n", "log_every"),
    ("train", "desk-cnn", "minibatch = 300\n", "task_size"),
    ("train", "desk-cnn", "minibatch = 0\n", "minibatch"),
    ("train", "desk-cnn", "steps = 0\n", "steps must be >= 1"),
    ("train", "desk-cnn", "log_every = 0\n", "log_every"),
    ("train", "desk-cnn", "density = 1.5\n", "density"),
    ("train", "desk-cnn", "optimizer = rmsprop\n", "optimizer"),
    ("train", "desk-cnn", "lr = nan\n", "lr must be finite and > 0, got nan"),
    ("train", "desk-cnn", "lr = inf\n", "lr must be finite and > 0, got inf"),
    ("train", "desk-cnn", "lr = -1\n", "lr must be finite and > 0, got -1"),
    ("train", "desk-cnn", "lr = 0\n", "lr must be finite and > 0, got 0"),
    ("train", "desk-cnn", "rewire_every = -3\n", "rewire_every must be >= 0"),
    ("train", "desk-cnn", "exec_mode = sequential\n", "c.cfg:1: unknown key 'exec_mode'"),
    ("train", "desk-cnn", "accumulator_width = 8\n", "accumulator_width must be 16 or 32"),
    ("train --seed=-1", "desk-cnn", "steps = 1\n", "seed must be >= 0"),
    ("train", "dc-transformer-iwslt", "steps = 1\n", "cost-model-only"),
    ("profile", "wrn-28-2", "precision = fp8\n", "precision"),
    ("profile", "wrn-28-2", "minibatch 100\n", "expected key = value"),
    ("train", "desk-cnn", "precision = fp8\n", "precision"),
    ("pareto", "wrn-28-2", "densities = 2, 1.0\n", "densities"),
    ("pareto", "wrn-28-2", "densities = 0.5, 0\n", "densities"),
    ("pareto", "wrn-28-2", "precisions = fp32, fp8\n", "precisions"),
    ("pareto", "wrn-28-2", "strategies\n", "expected key = value"),
    ("profile", "wrn-28-2", "minibatch = 8\nprecison = fp16\n", "c.cfg:2: unknown key 'precison'"),
    ("train", "desk-cnn", "stpes = 5\n", "c.cfg:1: unknown key 'stpes'"),
    ("train", "desk-cnn", "classes = 3\n", "c.cfg:1: unknown key 'classes'"),
    ("pareto", "wrn-28-2", "densites = 0.5\n", "c.cfg:1: unknown key 'densites'"),
    ("pareto", "wrn-28-2", "batch_unit = tokens\nminibatch = 4000\n",
     "config batch unit 'tokens' does not match graph batch unit 'examples'"),
    ("profile", "wrn-28-2", "precision = fp16\nprecision = fp32\n",
     "c.cfg:2: repeated key 'precision'"),
])
def test_bad_input_is_typed_error(tmp_path, capsys, command, arch, config, expect):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    flag = "--sweep" if command == "pareto" else "--config"
    code, out, err = run_cli([*command.split(), "--arch", arch, flag, str(cfg),
                              "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("error: ") and expect in err, err
    assert not list(tmp_path.glob("o*"))  # rejected before any output is written


def test_bad_precision_and_config_line_are_configuration_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="precision"):
        NumericFormat.parse("fp8")
    with pytest.raises(ConfigurationError, match="precisions"):
        NumericFormat.parse("fp8", "precisions")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("minibatch = 4\nmicrobatch\n")
    with pytest.raises(ConfigurationError, match=":2: expected key = value"):
        read_kv_file(str(cfg), ("minibatch", "microbatch"))
    with pytest.raises(ConfigurationError, match="cannot read .*Is a directory"):
        read_kv_file(str(tmp_path), ("minibatch", "microbatch"))


@pytest.mark.parametrize("command,arch,config", [
    ("profile", "wrn-28-2", "density = conv=0.3\nprecision = fp16\nminibatch = 100\n"
                            "microbatch = 10\nstrategy = residual_star:2\noptimizer = adam\n"
                            "batch_unit = examples\n"),
    ("pareto", "wrn-28-2", "arch = wrn-28-2\nminibatch = 100\ndensities = 1.0, 0.3\n"
                           "precisions = fp16\nmicrobatches = 100, 10\nstrategies = none\n"
                           "optimizers = sgd_nesterov, adam\nbatch_unit = examples\n"),
    ("train", "desk-cnn", "steps = 2\nminibatch = 8\nmicrobatch = 4\nlr = 0.05\n"
                          "density = 0.5\nprecision = fp16\nstrategy = every:2\n"
                          "optimizer = adam\naccumulator_width = 16\n"
                          "rewire_every = 1\nlog_every = 1\n"),
])
def test_every_documented_key_is_accepted(tmp_path, capsys, command, arch, config):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    flag = "--sweep" if command == "pareto" else "--config"
    code, _, err = run_cli([command, "--arch", arch, flag, str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 0, err


def test_readme_documents_exactly_the_config_keys():
    # README's key table, one row per config file; a key added to or
    # deleted from a command without a README edit fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for row, keys in (("profile --config", cli.PROFILE_KEYS), ("train --config", cli.TRAIN_KEYS),
                      ("pareto --sweep", cli.SWEEP_KEYS)):
        line = next(x for x in readme.splitlines() if x.startswith(f"| `{row}` |"))
        documented = re.findall(r"`([^`]+)`", line.split("|")[2])
        assert sorted(documented) == sorted(keys), row


@pytest.mark.parametrize("classes", [3, 6])
def test_train_takes_class_count_from_arch(tmp_path, capsys, monkeypatch, classes):
    arch = tmp_path / "net.arch"
    arch.write_text(serialize_arch(build_desk_cnn([4, 4], classes)))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("steps = 2\nminibatch = 8\nlog_every = 1\n")
    tasks = []
    make_task = train.make_synthetic_task

    def recorded(*args, **kw):
        tasks.append(make_task(*args, **kw))
        return tasks[-1]

    monkeypatch.setattr(train, "make_synthetic_task", recorded)
    code, _, err = run_cli(["train", "--arch", str(arch), "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 0, err
    (_, labels), = tasks
    assert set(labels.tolist()) == set(range(classes))


def test_train_rejects_a_loss_other_than_softmax_xent(tmp_path, capsys):
    arch = tmp_path / "net.arch"
    text = serialize_arch(build_desk_cnn([4, 4], 4))
    arch.write_text(text.replace("\nloss loss\n", "\nloss labels\n"))
    code, _, err = run_cli(["train", "--arch", str(arch), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("error: ") and "softmax_xent" in err, err


def test_unreadable_files_are_typed_errors(tmp_path, capsys):
    latin = tmp_path / "latin.arch"
    latin.write_bytes("name caf\xe9\n".encode("latin-1"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("minibatch = 10\n")
    bad_cfg = tmp_path / "latin.cfg"
    bad_cfg.write_bytes("optimizer = caf\xe9\n".encode("latin-1"))
    folder = tmp_path / "folder"
    folder.mkdir()
    for args, named in (
        (["profile", "--arch", str(folder)], "folder"),
        (["profile", "--arch", str(latin)], "latin.arch"),
        (["profile", "--arch", "wrn-28-2", "--config", str(folder)], "folder"),
        (["profile", "--arch", "wrn-28-2", "--config", str(bad_cfg)], "latin.cfg"),
        (["train", "--arch", "desk-cnn", "--config", str(folder)], "folder"),
        (["pareto", "--sweep", str(folder)], "folder"),
        (["profile", "--arch", "wrn-28-2", "--config", str(cfg),
          "--out", str(tmp_path / "absent" / "o")], "absent"),
        (["pareto", "--sweep", str(cfg), "--out", str(folder)], "folder"),
    ):
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert err.startswith("error: ") and named in err, err
    _, _, err = run_cli(["profile", "--arch", str(folder)], capsys)
    assert "presets: wrn-28-2, dc-transformer-iwslt, desk-cnn" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_that_diverges_in_fp32_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("steps = 20\nminibatch = 8\nlr = 1e6\n")
    code, out, err = run_cli(["train", "--arch", "desk-cnn", "--config", str(cfg),
                              "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and out == ""
    assert err == "error: training diverged: non-finite loss at step 6 in FP32\n"
    assert list(tmp_path.iterdir()) == [cfg]  # no empty metrics or rewire log is left


def test_train_checks_its_outputs_before_training(tmp_path, capsys, monkeypatch):
    def untrainable(*args, **kwargs):
        raise AssertionError("train_desk ran before --out was checked")

    monkeypatch.setattr(cli, "train_desk", untrainable)
    code, _, err = run_cli(["train", "--arch", "desk-cnn",
                            "--out", str(tmp_path / "absent" / "o")], capsys)
    assert code == 2
    assert err.startswith("error: ") and "absent" in err, err


def test_keys_a_file_leaves_out_take_the_library_defaults(tmp_path, capsys):
    def only_row(out):
        header, row = (line.split(",") for line in out.splitlines())
        return dict(zip(header, row))

    code, out, _ = run_cli(["profile", "--arch", "wrn-28-2", "--format", "csv"], capsys)
    assert code == 0
    row = only_row(out)
    assert (row["minibatch"], row["microbatch"], row["precision"], row["strategy"],
            row["optimizer"], row["density"]) == ("100", "100", "fp32", "none",
                                                  "sgd_nesterov", "dense")
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text("minibatch = 20\n")
    code, out, _ = run_cli(["pareto", "--sweep", str(sweep_file)], capsys)
    assert code == 0
    row = only_row(out)
    assert (row["arch"], row["minibatch"], row["microbatch"]) == ("wrn-28-2", "20", "20")


def test_no_graph_outlives_a_profile_call(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("density = 0.5\nstrategy = residual_star:2\nmicrobatch = 10\n")
    archs = [tmp_path / f"g{seed}.arch" for seed in range(50)]
    for seed, arch in enumerate(archs):
        arch.write_text(serialize_arch(random_desk_graph(seed)))
    built = []
    init = graph.ComputationGraph.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(graph.ComputationGraph, "__init__", tracked)
    for arch in archs:
        assert main(["profile", "--arch", str(arch), "--config", str(cfg)]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(built) == 50
    assert [ref for ref in built if ref() is not None] == []


# Inputs argparse answers itself (help, usage and argument errors), and the
# exit code, stdout and stderr of each, pinned in CLI_TEXT at 80 columns.
CLI_TEXT = Path(__file__).parent / "data" / "cli_text.json"
CLI_TEXT_CASES = (
    [], ["--help"], ["profile", "-h"], ["pareto", "-h"], ["train", "-h"], ["verify", "-h"],
    ["bogus"], ["profile"], ["profile", "--arch", "wrn-28-2", "--format", "xml"],
    ["train", "--arch", "desk-cnn", "--seed", "z"], ["profile", "--arch", "wrn-28-2", "extra"],
)


def cli_text(argv) -> list:
    """[exit code, stdout, stderr] of one `main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("argv", CLI_TEXT_CASES, ids=" ".join)
def test_help_usage_and_argument_errors_are_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(CLI_TEXT.read_text(encoding="utf-8"))
    assert cli_text(argv) == expected[" ".join(argv)]


def test_a_profile_call_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["profile", "--arch", "desk-cnn"]) == 0
    assert built == ["trainmem", "trainmem profile"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    texts = {" ".join(argv): cli_text(argv) for argv in CLI_TEXT_CASES}
    CLI_TEXT.write_text(json.dumps(texts, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} cases to {CLI_TEXT}")
