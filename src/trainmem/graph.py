"""Computation-graph IR shared by the cost model and the execution engine.

Nodes carry per-example tensor shapes; the batch dimension is symbolic and
bound only when a configuration supplies a microbatch size (examples for
image models, tokens per stream for sequence models).  Each node kind has a
fixed storage class describing what must be kept for its backward pass, and
a closed-form FLOP model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

from .errors import ArchSemanticError, ConfigurationError

_INTEGRAL = (int, Integral)  # a plain int matches without the ABC's slower check

# Storage classes
FULL_INPUT = "full_input"
BITMASK_INPUT = "bitmask_input"
NOTHING = "nothing"
CACHED_STATS = "cached_stats"

STORAGE_CLASS = {
    "input": NOTHING,
    "conv2d": FULL_INPUT,
    "linear": FULL_INPUT,
    "embedding": FULL_INPUT,
    "softmax_xent": FULL_INPUT,
    "dynamic_conv_cost": FULL_INPUT,
    "relu": BITMASK_INPUT,
    "glu": FULL_INPUT,
    "add": NOTHING,
    "reshape": NOTHING,
    "transpose": NOTHING,
    "avgpool": NOTHING,
    "pad_channels": NOTHING,
    "batchnorm": CACHED_STATS,
    "layernorm": CACHED_STATS,
}


@dataclass
class ParamSpec:
    """One parameter tensor owned by a node."""

    name: str  # "<node_id>.<suffix>"
    shape: tuple[int, ...]
    kind: str  # weight | bias | norm
    sparse: bool = False
    group: str | None = None

    @property
    def numel(self) -> int:
        return math.prod(self.shape)


@dataclass(slots=True)
class Node:
    node_id: str
    op: str
    inputs: tuple[str, ...]
    params: dict = field(default_factory=dict)

    def p(self, key, default=None):
        return self.params.get(key, default)


class ComputationGraph:
    """Validated DAG in topological order with shape and parameter metadata."""

    def __init__(
        self,
        nodes: list[Node],
        loss_id: str,
        residual_blocks: list[tuple[str, str]] | None = None,
        batch_unit: str = "examples",
        name: str = "graph",
    ):
        self.nodes = list(nodes)
        self.loss_id = loss_id
        self.residual_blocks = list(residual_blocks or [])
        self.batch_unit = batch_unit
        self.name = name
        self.index: dict[str, int] = {}
        self._validate_structure()
        self.out_shape: dict[str, tuple[int, ...]] = {}
        self.out_dtype: dict[str, str] = {}
        self._infer_shapes()
        self.consumers: dict[str, list[str]] = {n.node_id: [] for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                self.consumers[src].append(n.node_id)
        self._validate_blocks()
        # A graph is not mutated after construction, so its parameter specs
        # are built once here.
        self._params = [_build_params(n) for n in self.nodes]
        self._all_params = [spec for specs in self._params for spec in specs]
        self._groups = tuple(dict.fromkeys(
            p.group for p in self._all_params if p.sparse and p.group is not None))
        self._tables = None  # derived tables and plans; filled by plan.graph_tables

    # -- structure ---------------------------------------------------------

    def _validate_structure(self):
        for i, n in enumerate(self.nodes):
            if n.node_id in self.index:
                raise ArchSemanticError("duplicate node id", n.node_id)
            if n.op not in STORAGE_CLASS:
                raise ArchSemanticError(f"unknown kind '{n.op}'", n.node_id)
            self.index[n.node_id] = i
        for i, n in enumerate(self.nodes):
            for src in n.inputs:
                if src not in self.index:
                    raise ArchSemanticError(f"unknown input '{src}'", n.node_id)
                if self.index[src] >= i:
                    raise ArchSemanticError(
                        f"back edge {src} -> {n.node_id} violates topological order",
                        n.node_id,
                    )
            # a tied node owns no parameters: only a tie between embeddings is priced
            tied = n.p("tied")
            j = self.index.get(tied, i) if isinstance(tied, str) else i
            if tied and not (j < i and n.op == self.nodes[j].op == "embedding" and all(
                    n.p(k) == self.nodes[j].p(k) for k in ("vocab", "d"))):
                raise ArchSemanticError(f"tied={tied!r}: only an embedding may tie, to an "
                                        "earlier embedding of the same vocab and d", n.node_id)
        if self.loss_id not in self.index:
            raise ArchSemanticError(f"loss node '{self.loss_id}' not defined")

    def _validate_blocks(self):
        spans = []
        for entry, exit_ in self.residual_blocks:
            if entry not in self.index or exit_ not in self.index:
                raise ArchSemanticError(f"residual block ({entry}, {exit_}) names unknown nodes")
            lo, hi = self.index[entry], self.index[exit_]
            if lo > hi:
                raise ArchSemanticError(f"residual block ({entry}, {exit_}) is reversed")
            spans.append((lo, hi))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 <= a1:
                raise ArchSemanticError("residual blocks overlap")
        loss_shape = self.out_shape[self.loss_id]
        if loss_shape != ():
            raise ArchSemanticError("loss node output must be scalar", self.loss_id)

    def node(self, node_id: str) -> Node:
        return self.nodes[self.index[node_id]]

    # -- shapes ------------------------------------------------------------

    def _infer_shapes(self):
        for n in self.nodes:
            shapes = [self.out_shape[i] for i in n.inputs]
            dtypes = [self.out_dtype[i] for i in n.inputs]
            shape, dtype = _infer_node_shape(n, shapes, dtypes)
            self.out_shape[n.node_id] = shape
            self.out_dtype[n.node_id] = dtype

    def out_elements(self, node_id: str) -> int:
        return math.prod(self.out_shape[node_id])

    # -- parameters --------------------------------------------------------

    def params_of(self, node: Node) -> list[ParamSpec]:
        return self._params[self.index[node.node_id]]

    def all_params(self) -> list[ParamSpec]:
        return self._all_params

    def total_param_count(self) -> int:
        return sum(p.numel for p in self.all_params())

    def group_param_count(self, group: str) -> int:
        return sum(p.numel for p in self.all_params() if p.sparse and p.group == group)

    def sparsifiable_groups(self) -> tuple[str, ...]:
        """The groups of the sparse-eligible parameters, in first-use order."""
        return self._groups

    # -- flops -------------------------------------------------------------

    def forward_flops(self, node: Node, nnz: dict[str, int] | None = None) -> int:
        """Forward FLOPs per example for one node (2 x multiply-accumulate).

        `nnz` overrides the weight nonzero count for sparsified nodes; dense
        counts are used otherwise.  Sparse scaling is exact: the per-weight
        cost times the nonzero count.
        """
        op = node.op
        if op in ("conv2d", "linear"):
            spec = self.params_of(node)[0]
            n = spec.numel if nnz is None else nnz.get(spec.name, spec.numel)
            return 2 * n * (math.prod(self.out_shape[node.node_id][1:]) if op == "conv2d" else 1)
        if op in ("batchnorm", "layernorm"):
            return 5 * math.prod(self.out_shape[node.inputs[0]])
        if op in ("relu", "add", "avgpool"):
            return math.prod(self.out_shape[node.inputs[0]])
        if op == "glu":
            return 3 * math.prod(self.out_shape[node.node_id])
        if op == "softmax_xent":
            classes = node.p("classes")
            d_in = node.p("d_in")
            proj = 2 * d_in * classes if d_in else 0
            return proj + 5 * classes
        if op == "dynamic_conv_cost":
            d = math.prod(self.out_shape[node.node_id])
            heads = node.p("heads")
            if node.p("mix", "conv") == "conv":
                k = node.p("kernel")
                return 2 * d * k + 5 * heads * k
            span = node.p("span")
            return 4 * d * span + 5 * heads * span
        return 0

    def cached_recompute_flops(self, node: Node) -> int:
        """Cheap re-evaluation cost per example, used for norms with cached stats."""
        if node.op in ("batchnorm", "layernorm"):
            return 2 * math.prod(self.out_shape[node.inputs[0]])
        return self.forward_flops(node)

    def backward_factor(self, node: Node) -> int:
        """2 for parameterized nodes (input- plus weight-gradient), 1 otherwise."""
        return 2 if node.op in ("conv2d", "linear", "embedding") else 1


def _build_params(node: Node) -> list[ParamSpec]:
    """The parameter tensors a node owns."""
    nid, p = node.node_id, node.params.get
    if p("tied"):
        return []  # parameters shared with (owned by) another node
    sparse = bool(p("sparse", 0))
    group = p("group")
    if node.op == "conv2d":
        shape = (p("c_out"), p("c_in"), p("k1"), p("k2"))
        return [ParamSpec(f"{nid}.weight", shape, "weight", sparse, group)]
    if node.op == "linear":
        specs = [
            ParamSpec(f"{nid}.weight", (p("d_out"), p("d_in")), "weight", sparse, group)
        ]
        if p("bias", 1):
            specs.append(ParamSpec(f"{nid}.bias", (p("d_out"),), "bias"))
        return specs
    if node.op == "embedding":
        return [
            ParamSpec(f"{nid}.weight", (p("vocab"), p("d")), "weight", sparse, group)
        ]
    if node.op in ("batchnorm", "layernorm"):
        c = p("channels" if node.op == "batchnorm" else "dim")
        return [ParamSpec(f"{nid}.gamma", (c,), "norm"),
                ParamSpec(f"{nid}.beta", (c,), "norm")]
    return []


def _need(nid: str, shapes, k: int, rank: int | None = None):
    if len(shapes) != k:
        raise ArchSemanticError(f"expects {k} inputs, got {len(shapes)}", nid)
    if rank is not None and len(shapes[0]) != rank:
        raise ArchSemanticError(f"expects a rank-{rank} input, got shape {shapes[0]}", nid)


def _int_param(node: Node, key: str, lo: int = 1, default=None) -> int:
    """An integer parameter, at least `lo`."""
    v = node.params.get(key, default)
    if not isinstance(v, _INTEGRAL) or v < lo:
        raise ArchSemanticError(f"parameter '{key}' must be an integer >= {lo}, got {v!r}",
                                node.node_id)
    return v


def _ints_param(node: Node, key: str, lo: int, default=None) -> tuple:
    """A tuple parameter of integers, each at least `lo` (an int is a 1-tuple)."""
    v = node.params.get(key, default)
    t = (v,) if isinstance(v, _INTEGRAL) else v
    if not isinstance(t, tuple) or not all(isinstance(x, _INTEGRAL) and x >= lo for x in t):
        raise ArchSemanticError(f"parameter '{key}' must be integers >= {lo}, got {v!r}",
                                node.node_id)
    return t


def _infer_node_shape(node: Node, shapes, dtypes):
    op = node.op
    nid = node.node_id
    if op == "input":
        return _ints_param(node, "shape", 1, ()), node.p("dtype", "float")
    if op == "conv2d":
        _need(nid, shapes, 1, 3)
        c, h, w = shapes[0]
        if c != _int_param(node, "c_in"):
            raise ArchSemanticError(f"c_in {node.p('c_in')} != input channels {c}", nid)
        s, p = _int_param(node, "stride", 1, 1), _int_param(node, "pad", 0, 0)
        h2 = (h + 2 * p - _int_param(node, "k1")) // s + 1
        w2 = (w + 2 * p - _int_param(node, "k2")) // s + 1
        if h2 <= 0 or w2 <= 0:
            raise ArchSemanticError("non-positive spatial output", nid)
        return (_int_param(node, "c_out"), h2, w2), "float"
    if op == "linear":
        _need(nid, shapes, 1)
        if not shapes[0] or shapes[0][-1] != _int_param(node, "d_in"):
            raise ArchSemanticError(f"d_in {node.p('d_in')} != input dim {shapes[0]}", nid)
        return shapes[0][:-1] + (_int_param(node, "d_out"),), "float"
    if op == "batchnorm":
        _need(nid, shapes, 1, 3)
        if shapes[0][0] != _int_param(node, "channels"):
            raise ArchSemanticError("channel mismatch", nid)
        return shapes[0], "float"
    if op == "layernorm":
        _need(nid, shapes, 1)
        if not shapes[0] or shapes[0][-1] != _int_param(node, "dim"):
            raise ArchSemanticError("dim mismatch", nid)
        return shapes[0], "float"
    if op == "relu":
        _need(nid, shapes, 1)
        return shapes[0], "float"
    if op == "glu":
        _need(nid, shapes, 1)
        if not shapes[0] or shapes[0][-1] % 2:
            raise ArchSemanticError("glu input dim must be even", nid)
        return shapes[0][:-1] + (shapes[0][-1] // 2,), "float"
    if op == "add":
        _need(nid, shapes, 2)
        if shapes[0] != shapes[1]:
            raise ArchSemanticError(f"add of mismatched shapes {shapes[0]} vs {shapes[1]}", nid)
        return shapes[0], "float"
    if op == "reshape":
        _need(nid, shapes, 1)
        target = _ints_param(node, "shape", 1)
        if math.prod(target) != math.prod(shapes[0]):
            raise ArchSemanticError("reshape changes element count", nid)
        return target, "float"
    if op == "transpose":
        _need(nid, shapes, 1)
        perm = _ints_param(node, "perm", 0)
        if sorted(perm) != list(range(len(shapes[0]))):
            raise ArchSemanticError("invalid permutation", nid)
        return tuple(shapes[0][i] for i in perm), "float"
    if op == "avgpool":
        _need(nid, shapes, 1, 3)
        c, h, w = shapes[0]
        win = _int_param(node, "window")
        if h % win or w % win:
            raise ArchSemanticError("window must divide spatial extents", nid)
        return (c, h // win, w // win), "float"
    if op == "pad_channels":
        _need(nid, shapes, 1, 3)
        c, h, w = shapes[0]
        return (c + _int_param(node, "extra", 0), h, w), "float"
    if op == "embedding":
        _need(nid, shapes, 1)
        _int_param(node, "vocab")
        if dtypes[0] != "int":
            raise ArchSemanticError("embedding input must be integer indices", nid)
        return shapes[0] + (_int_param(node, "d"),), "float"
    if op == "softmax_xent":
        _need(nid, shapes, 2)
        if dtypes[1] != "int":
            raise ArchSemanticError("second input (targets) must be integer", nid)
        d_in, classes = _int_param(node, "d_in", 0, 0), _int_param(node, "classes")
        expected = (d_in,) if d_in else (classes,)
        if shapes[0] != expected:
            raise ArchSemanticError(f"logit shape {shapes[0]} != expected {expected}", nid)
        return (), "float"
    if op == "dynamic_conv_cost":
        conv = node.p("mix", "conv") == "conv"
        _need(nid, shapes, 2 if conv else 3)
        for key in ("heads", "span", "kernel") if conv else ("heads", "span"):
            _int_param(node, key)
        return shapes[0], "float"
    raise ArchSemanticError(f"unknown kind '{op}'", nid)


class GraphBuilder:
    """Incremental construction helper used by the preset builders."""

    def __init__(self, name: str = "graph", batch_unit: str = "examples"):
        self.name = name
        self.batch_unit = batch_unit
        self.nodes: list[Node] = []
        self.blocks: list[tuple[str, str]] = []
        self.loss_id: str | None = None

    def add(self, node_id: str, op: str, inputs=(), **params) -> str:
        if isinstance(inputs, str):
            inputs = (inputs,)
        self.nodes.append(Node(node_id, op, tuple(inputs), params))
        return node_id

    def block(self, entry: str, exit_: str):
        self.blocks.append((entry, exit_))

    def loss(self, node_id: str):
        self.loss_id = node_id

    def build(self) -> ComputationGraph:
        if self.loss_id is None:
            raise ConfigurationError("graph has no loss node")
        return ComputationGraph(
            self.nodes, self.loss_id, self.blocks, self.batch_unit, self.name
        )
