"""Property tests over generated inputs: malformed config and `.arch` text
ends in a typed error with exit code 2, never a traceback, and `.arch` text
round-trips exactly.

Inputs come from small grammars (valid key/value pairs, serialized random
desk graphs) plus mutations.  Examples are derandomized so the suite runs
the same inputs every time.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from trainmem.archfile import load_preset, parse_arch, serialize_arch
from trainmem.builders import random_desk_graph
from trainmem.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None)

JUNK = ["", "0", "-1", "1.5", "2", "abc", "every:x", "conv=1.5", "nan", "1e3", "x=y", ":"]

PROFILE_VALUES = {
    "density": ["0.3", "conv=0.5", "1.0", "1"],
    "precision": ["fp16", "fp32", "fp64"],
    "minibatch": ["100", "8", "4000"],
    "microbatch": ["4", "10", "100", "500", "4000"],
    "strategy": ["none", "no_bn", "every:3", "residual:2", "residual_star:1"],
    "optimizer": ["sgd_nesterov", "adam"],
    "batch_unit": ["examples", "tokens"],
}

# Small settings only: every example that passes validation really trains.
TRAIN_VALUES = {
    "steps": ["1", "2"],
    "minibatch": ["4", "8"],
    "microbatch": ["2", "4"],
    "log_every": ["1"],
    "lr": ["0.05"],
    "density": ["0.5", "1.0"],
    "precision": ["fp16", "fp32"],
    "strategy": ["none", "every:2", "residual_star:1"],
    "optimizer": ["sgd_nesterov", "adam"],
    "rewire_every": ["1"],
}


def config_text(values: dict):
    """Key/value lines, about one value in five junk, plus the odd junk line."""
    def line(key):
        value = st.one_of(*[st.sampled_from(values[key])] * 4, st.sampled_from(JUNK))
        return value.map(lambda v: f"{key} = {v}")
    junk_line = st.text(alphabet="ab=:#. 1", max_size=8)
    good_line = st.sampled_from(sorted(values)).flatmap(line)
    return st.lists(st.one_of(*[good_line] * 8, junk_line), max_size=6).map(
        lambda lines: "".join(x + "\n" for x in lines))


def run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def assert_ok_or_typed_error(code: int, err: str):
    # main returns 2 only for a TrainmemError (or a missing file); any other
    # exception propagates and fails the test with its traceback
    assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)


@settings(FUZZ, max_examples=60)
@given(arch=st.sampled_from(["wrn-28-2", "dc-transformer-iwslt", "desk-cnn"]),
       text=config_text(PROFILE_VALUES))
def test_profile_config_fuzz(tmp_path_factory, arch, text):
    cfg = tmp_path_factory.mktemp("cfg") / "c.cfg"
    cfg.write_text(text)
    assert_ok_or_typed_error(*run_cli(["profile", "--arch", arch, "--config", str(cfg)]))


@settings(FUZZ, max_examples=20)
@given(text=config_text(TRAIN_VALUES))
def test_train_config_fuzz(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("train")
    cfg = d / "c.cfg"
    cfg.write_text("steps = 1\nminibatch = 4\n" + text)
    assert_ok_or_typed_error(*run_cli(["train", "--arch", "desk-cnn", "--config", str(cfg),
                                       "--out", str(d / "run")]))


KINDS = ["conv2d", "batchnorm", "relu", "add", "avgpool", "pad_channels", "reshape",
         "linear", "softmax_xent", "layernorm", "glu", "transpose", "embedding", "input"]


PRESET_TEXT = [serialize_arch(load_preset(name)) for name in ("wrn-28-2", "dc-transformer-iwslt")]


@st.composite
def mutated_arch(draw):
    base = st.integers(0, 30).map(lambda seed: serialize_arch(random_desk_graph(seed)))
    lines = draw(st.one_of(base, base, st.sampled_from(PRESET_TEXT))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "dup", "swap", "value", "kind", "input", "cut"]))
        if how == "drop":
            del lines[i]
        elif how == "dup":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "value":
            spans = [m.span(2) for m in re.finditer(r"(\w+)=([^,)\s]+)", lines[i])]
            if spans:
                a, b = draw(st.sampled_from(spans))
                lines[i] = lines[i][:a] + draw(st.sampled_from(JUNK + ["1x1", "4d"])) + lines[i][b:]
        elif how == "kind":
            lines[i] = re.sub(r"= \w+\(", f"= {draw(st.sampled_from(KINDS))}(", lines[i], count=1)
        elif how == "input":
            ids = [ln.split(" ")[0] for ln in lines if " = " in ln]
            if "<-" in lines[i] and ids:
                lines[i] = lines[i].split("<-")[0] + "<- " + draw(st.sampled_from(ids))
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(FUZZ, max_examples=150)
@given(text=mutated_arch())
def test_arch_fuzz(tmp_path_factory, text):
    arch = tmp_path_factory.mktemp("arch") / "g.arch"
    arch.write_text(text)
    assert_ok_or_typed_error(*run_cli(["profile", "--arch", str(arch)]))


@settings(FUZZ, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_arch_round_trip(seed):
    text = serialize_arch(random_desk_graph(seed))
    assert serialize_arch(parse_arch(text)) == text
