"""Architecture file parsing, serialization round-trips, and diagnostics."""

import pytest

from trainmem.archfile import PRESETS, load_arch, load_preset, parse_arch, serialize_arch
from trainmem.errors import ArchSemanticError, ArchSyntaxError, ConfigurationError


@pytest.mark.parametrize("name", list(PRESETS))
def test_presets_round_trip_through_arch_text(name):
    preset = load_preset(name)
    text = serialize_arch(preset)
    back = parse_arch(text)
    assert serialize_arch(back) == text
    assert back.out_shape == preset.out_shape
    assert ([back.params_of(n) for n in back.nodes]
            == [preset.params_of(n) for n in preset.nodes])
    assert back.residual_blocks == preset.residual_blocks
    assert back.batch_unit == preset.batch_unit


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_keeps_its_name(name):
    assert load_preset(name).name == name
    assert load_arch(name).name == name
    assert serialize_arch(load_preset(name)).startswith(f"name {name}\n")


def test_missing_preset():
    with pytest.raises(ArchSemanticError, match="not found .*wrn-28-2, dc-transformer-iwslt"):
        load_preset("wrn-999")


def test_unreadable_arch_file_is_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="wrn-999.*No such file.*presets: wrn-28-2"):
        load_arch(str(tmp_path / "wrn-999"))
    with pytest.raises(ConfigurationError, match="Is a directory"):
        load_arch(str(tmp_path))
    latin = tmp_path / "latin.arch"
    latin.write_bytes("name caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigurationError, match="latin.arch.*utf-8"):
        load_arch(str(latin))


def test_cycle_names_back_edge():
    text = "a = relu() <- b\nb = relu() <- a\nloss a\n"
    with pytest.raises(ArchSemanticError, match="back edge b -> a"):
        parse_arch(text)


def test_syntax_error_carries_line_and_column():
    text = "x = input(shape=4d)\ny = input(shape=scalar, dtype=int)\nthis is ! not a node\nloss x\n"
    with pytest.raises(ArchSyntaxError) as err:
        parse_arch(text)
    assert err.value.line == 3
    assert err.value.column >= 1


def test_bad_parameter_value():
    with pytest.raises(ArchSyntaxError):
        parse_arch("x = input(shape=@!)\nloss x\n")


def test_semantic_error_names_node():
    text = (
        "x = input(shape=3x8x8)\n"
        "y = input(shape=scalar, dtype=int)\n"
        "c = conv2d(c_in=4, c_out=8, k1=3, k2=3, stride=1, pad=1) <- x\n"
        "loss c\n"
    )
    with pytest.raises(ArchSemanticError, match="'c'"):
        parse_arch(text)


def _tie_arch(node: str) -> str:
    """A small valid graph with `node` added, unread, after its
    embedding `e` and linear `a`."""
    return (
        "img = input(shape=3x4x4)\n"
        "t = input(shape=2d, dtype=int)\n"
        "y = input(shape=scalar, dtype=int)\n"
        "e = embedding(vocab=5, d=4) <- t\n"
        "c = conv2d(c_in=3, c_out=2, k1=1, k2=1) <- img\n"
        "p = avgpool(window=4) <- c\n"
        "f = reshape(shape=2d) <- p\n"
        "a = linear(d_in=2, d_out=3) <- f\n"
        f"{node}\n"
        "l = softmax_xent(classes=3) <- a, y\n"
        "loss l\n"
    )


@pytest.mark.parametrize("node", [
    "b = linear(d_in=2, d_out=3, tied=a) <- f",  # a tied linear
    "b = conv2d(c_in=3, c_out=2, k1=1, k2=1, tied=c) <- img",  # a tied conv
    "b = embedding(vocab=5, d=4, tied=nope) <- t",  # a tie to an unknown node
    "b = embedding(vocab=5, d=4, tied=c) <- t",  # a tie to a conv
    "b = embedding(vocab=5, d=8, tied=e) <- t",  # another d
    "b = embedding(vocab=6, d=4, tied=e) <- t",  # another vocab
])
def test_tie_outside_an_earlier_matching_embedding_is_rejected(node):
    # a tied node owns no parameters, so only an embedding sharing an
    # earlier embedding's table can be priced
    with pytest.raises(ArchSemanticError, match="node 'b': tied="):
        parse_arch(_tie_arch(node))


def test_tie_to_a_later_embedding_is_rejected():
    text = _tie_arch("b = embedding(vocab=5, d=4, tied=e2) <- t\ne2 = embedding(vocab=5, d=4) <- t")
    with pytest.raises(ArchSemanticError, match="node 'b': tied="):
        parse_arch(text)


def test_tie_to_an_earlier_embedding_shares_its_table():
    g = parse_arch(_tie_arch("b = embedding(vocab=5, d=4, tied=e) <- t"))
    assert g.params_of(g.node("b")) == []
    assert g.total_param_count() == 5 * 4 + 2 * 3 + 3 * 2 + 3
    tgt = load_preset("dc-transformer-iwslt").node("tgt_embed")  # the one tie in a preset
    assert tgt.p("tied") == "src_embed"


def test_unknown_kind():
    with pytest.raises(ArchSemanticError, match="unknown kind"):
        parse_arch("x = frobnicate()\nloss x\n")


def test_comments_and_blank_lines():
    text = (
        "# a comment\n"
        "name tiny\n\n"
        "x = input(shape=2d)   # trailing comment\n"
        "y = input(shape=scalar, dtype=int)\n"
        "l = linear(d_in=2, d_out=2) <- x\n"
        "loss_node = softmax_xent(classes=2) <- l, y\n"
        "loss loss_node\n"
    )
    g = parse_arch(text)
    assert g.name == "tiny"
    assert g.total_param_count() == 6
