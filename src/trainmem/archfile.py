"""Architecture description files.

One node per line:

    id = kind(param=value, ...) [<- input_id, ...]

plus `residual_block <entry> <exit>` annotation lines, a final `loss <id>`
line, optional `batch_unit examples|tokens` and `name <text>` headers,
blank lines, and `#` comments.  Integer tuples are written `3x32x32`.
Parsing a serialized graph reproduces it exactly.  The named presets
come from their builders; `serialize_arch(load_preset(name))` prints one.
"""

from __future__ import annotations

import re

from .builders import build_dc_transformer_cost, build_desk_cnn, build_wrn
from .errors import ArchSemanticError, ArchSyntaxError, ConfigurationError
from .graph import ComputationGraph, Node

_NODE_RE = re.compile(
    r"^(?P<id>[A-Za-z_][\w.]*)\s*=\s*(?P<kind>[A-Za-z_]\w*)\s*\((?P<params>[^)]*)\)"
    r"\s*(?:<-\s*(?P<inputs>[\w.,\s]+))?$"
)
_NAME_RE = re.compile(r"[A-Za-z_][\w.]*")


def _format_value(v) -> str:
    if isinstance(v, tuple):
        if not v:
            return "scalar"
        if len(v) == 1:
            return f"{v[0]}d"
        return "x".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _is_int(text: str) -> bool:
    """`text` matches `-?\\d+` (`isdecimal` is the regex's `\\d`)."""
    return text.removeprefix("-").isdecimal()


def _parse_value(text: str):
    """The value `text` spells (an int, an int tuple, a float or a name),
    or None if it spells none."""
    if _is_int(text):
        return int(text)
    if text == "scalar":
        return ()
    if text.endswith("d") and _is_int(text[:-1]):
        return (int(text[:-1]),)
    parts = text.split("x")
    if len(parts) > 1 and all(map(_is_int, parts)):
        return tuple(map(int, parts))
    try:
        return float(text)
    except ValueError:
        return text if _NAME_RE.fullmatch(text) else None


def parse_arch(text: str, name: str = "arch") -> ComputationGraph:
    nodes: list[Node] = []
    blocks: list[tuple[str, str]] = []
    loss_id = None
    batch_unit = "examples"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        m = _NODE_RE.match(stripped)
        if m is None:
            if stripped.startswith("name "):
                name = stripped[5:].strip()
                continue
            if stripped.startswith("batch_unit "):
                batch_unit = stripped.split(None, 1)[1].strip()
                if batch_unit not in ("examples", "tokens"):
                    raise ArchSyntaxError(f"unknown batch unit {batch_unit!r}", lineno, 12)
                continue
            if stripped.startswith("residual_block"):
                parts = stripped.split()
                if len(parts) != 3:
                    raise ArchSyntaxError("residual_block needs entry and exit ids",
                                          lineno, len("residual_block") + 1)
                blocks.append((parts[1], parts[2]))
                continue
            if stripped.startswith("loss"):
                parts = stripped.split()
                if len(parts) != 2:
                    raise ArchSyntaxError("loss line needs exactly one node id", lineno, 5)
                loss_id = parts[1]
                continue
            col = len(line) - len(line.lstrip()) + 1
            raise ArchSyntaxError(f"unparseable node line {stripped!r}", lineno, col)
        node_id, kind, body, inputs = m.groups()
        params = {}
        body = body.strip()
        if body:
            for item in body.split(","):
                key, eq, val = item.partition("=")
                if not eq:
                    raise ArchSyntaxError(f"parameter {item.strip()!r} lacks '='",
                                          lineno, line.find(item) + 1)
                value = _parse_value(val.strip())
                if value is None:  # columns are found only for an error
                    raise ArchSyntaxError(f"cannot parse value {val.strip()!r}",
                                          lineno, line.find(val) + 1)
                params[key.strip()] = value
        inputs = tuple([x for x in map(str.strip, inputs.split(",")) if x]) if inputs else ()
        nodes.append(Node(node_id, kind, inputs, params))
    if loss_id is None:
        raise ArchSemanticError("file defines no loss node")
    return ComputationGraph(nodes, loss_id, blocks, batch_unit, name)


def serialize_arch(graph: ComputationGraph) -> str:
    lines = [f"name {graph.name}"]
    if graph.batch_unit != "examples":
        lines.append(f"batch_unit {graph.batch_unit}")
    for node in graph.nodes:
        params = ", ".join(f"{k}={_format_value(v)}" for k, v in node.params.items())
        line = f"{node.node_id} = {node.op}({params})"
        if node.inputs:
            line += " <- " + ", ".join(node.inputs)
        lines.append(line)
    for entry, exit_ in graph.residual_blocks:
        lines.append(f"residual_block {entry} {exit_}")
    lines.append(f"loss {graph.loss_id}")
    return "\n".join(lines) + "\n"


PRESETS = {
    "wrn-28-2": lambda: build_wrn(28, 2, 10),
    "dc-transformer-iwslt": build_dc_transformer_cost,
    "desk-cnn": lambda: build_desk_cnn([8, 8], 4),
}


def load_preset(name: str) -> ComputationGraph:
    """The preset's graph from its builder, named after the preset."""
    if name not in PRESETS:
        raise ArchSemanticError(f"preset '{name}' not found (presets: {', '.join(PRESETS)})")
    graph = PRESETS[name]()
    graph.name = name
    return graph


def read_text(path: str, hint: str = "") -> str:
    """A UTF-8 file's text; a file that cannot be read or decoded is a
    ConfigurationError naming it, with `hint` appended."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise ConfigurationError(f"cannot read '{path}': {reason}{hint}") from None


def load_arch(path_or_preset: str) -> ComputationGraph:
    """Load an architecture by preset name, or from a file path."""
    if path_or_preset in PRESETS:
        return load_preset(path_or_preset)
    text = read_text(path_or_preset, f" (presets: {', '.join(PRESETS)})")
    return parse_arch(text, name=path_or_preset)
