"""Built-in network builders: WRN-28-2 class models, a desk-scale residual
CNN the engine can train, and the DC-Transformer cost-model preset."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .graph import ComputationGraph, GraphBuilder

CONV_GROUP = "conv"
FC_EMBED_GROUP = "fc_embed"


def _preact_resnet(g: GraphBuilder, x: str, c_in: int, h: int,
                   blocks: list[tuple[str, int, int]], classes: int,
                   with_batchnorm: bool) -> ComputationGraph:
    """Pre-activation residual blocks after the stem `x`, then the pooled
    linear classifier and its softmax loss.

    `blocks` lists (name prefix, width, stride).  Shortcuts are parameter-
    free: stride-2 pooling plus zero channel padding.  Both block convs are
    in the sparsifiable conv group.
    """
    for p, width, stride in blocks:
        if with_batchnorm:
            entry = g.add(f"{p}_bn1", "batchnorm", x, channels=c_in)
            r1 = g.add(f"{p}_relu1", "relu", entry)
        else:
            entry = r1 = g.add(f"{p}_relu1", "relu", x)
        c1 = g.add(f"{p}_conv1", "conv2d", r1, c_in=c_in, c_out=width, k1=3, k2=3,
                   stride=stride, pad=1, sparse=1, group=CONV_GROUP)
        if with_batchnorm:
            mid = g.add(f"{p}_bn2", "batchnorm", c1, channels=width)
        else:
            mid = c1
        r2 = g.add(f"{p}_relu2", "relu", mid)
        c2 = g.add(f"{p}_conv2", "conv2d", r2, c_in=width, c_out=width, k1=3, k2=3,
                   stride=1, pad=1, sparse=1, group=CONV_GROUP)
        skip = x
        if stride != 1:
            skip = g.add(f"{p}_pool", "avgpool", skip, window=stride)
        if c_in != width:
            skip = g.add(f"{p}_pad", "pad_channels", skip, extra=width - c_in)
        x = g.add(f"{p}_add", "add", (c2, skip))
        g.block(entry, x)
        c_in = width
        h //= stride
    if with_batchnorm:
        x = g.add("final_bn", "batchnorm", x, channels=c_in)
    x = g.add("final_relu", "relu", x)
    pool = g.add("final_pool", "avgpool", x, window=h)
    flat = g.add("flatten", "reshape", pool, shape=(c_in,))
    fc = g.add("fc", "linear", flat, d_in=c_in, d_out=classes, bias=1, sparse=0)
    g.add("loss", "softmax_xent", (fc, "labels"), classes=classes)
    g.loss("loss")
    return g.build()


def build_wrn(
    depth: int = 28,
    width_multiplier: float = 2.0,
    num_classes: int = 10,
    input_shape: tuple[int, int, int] = (3, 32, 32),
) -> ComputationGraph:
    """Wide residual network with identity (parameter-free) shortcuts.

    Pre-activation blocks; the sparsifiable group holds every convolution
    except the stem, and excludes the classifier, norm parameters, and
    biases.  Downsampling shortcuts use stride-2 pooling plus zero channel
    padding so they contribute no parameters.
    """
    if (depth - 4) % 6 != 0:
        raise ConfigurationError(f"depth must satisfy (depth - 4) % 6 == 0, got {depth}")
    n = (depth - 4) // 6
    widths = [int(16 * width_multiplier), int(32 * width_multiplier), int(64 * width_multiplier)]

    g = GraphBuilder(name=f"wrn-{depth}-{width_multiplier:g}")
    g.add("img", "input", shape=input_shape, dtype="float")
    g.add("labels", "input", shape=(), dtype="int")
    x = g.add("conv0", "conv2d", "img", c_in=input_shape[0], c_out=16, k1=3, k2=3,
              stride=1, pad=1, sparse=0)
    blocks = [(f"g{gi + 1}b{b + 1}", width, 2 if (gi > 0 and b == 0) else 1)
              for gi, width in enumerate(widths) for b in range(n)]
    return _preact_resnet(g, x, 16, input_shape[1], blocks, num_classes, True)


def build_desk_cnn(
    channels: list[int],
    classes: int = 4,
    with_batchnorm: bool = True,
    input_shape: tuple[int, int, int] = (3, 8, 8),
) -> ComputationGraph:
    """Small residual CNN the engine can execute; one block per channel entry.

    The spatial extent halves whenever the channel count changes between
    consecutive blocks (stride-2 first conv, pooled shortcut).
    """
    if not channels:
        raise ConfigurationError("channel list must be nonempty")
    g = GraphBuilder(name="desk-cnn")
    g.add("img", "input", shape=input_shape, dtype="float")
    g.add("labels", "input", shape=(), dtype="int")
    x = g.add("stem", "conv2d", "img", c_in=input_shape[0], c_out=channels[0], k1=3, k2=3,
              stride=1, pad=1, sparse=0)
    blocks = [(f"b{b + 1}", width, 2 if width != prev else 1)
              for b, (prev, width) in enumerate(zip([channels[0], *channels], channels))]
    return _preact_resnet(g, x, channels[0], input_shape[1], blocks, classes, with_batchnorm)


@dataclass(frozen=True)
class DCTransformerPreset:
    """Dimensions of the cost-model-only translation network.

    The inventory is sized so the dense parameter count lands at ~38.7M
    parameters: a shared 10K x 512 embedding table tied across
    encoder input, decoder input, and the output projection inside the
    fused softmax head; 7 encoder and 6 decoder layers with GLU-gated
    convolution mixers and per-token generated kernels.  `span` is the
    assumed padded sentence length used to size band-weight and attention
    score buffers.
    """

    encoder_layers: int = 7
    decoder_layers: int = 6
    embed_dim: int = 512
    ffn_dim: int = 1216
    vocab: int = 10000
    conv_heads: int = 8
    attn_heads: int = 16
    encoder_kernels: tuple[int, ...] = (3, 7, 15, 31, 31, 31, 31)
    decoder_kernels: tuple[int, ...] = (3, 7, 15, 31, 31, 31)
    span: int = 32

    def scaled(self, **kw) -> "DCTransformerPreset":
        return replace(self, **kw)


DEFAULT_DC_TRANSFORMER = DCTransformerPreset()


def build_dc_transformer_cost(preset: DCTransformerPreset = DEFAULT_DC_TRANSFORMER) -> ComputationGraph:
    """Cost-model graph for the dynamic-convolution translation network.

    Not executable: sequence mixing uses dynamic_conv_cost nodes and the
    output head is a fused tied-projection softmax over the shared
    embedding table (so no vocabulary-sized activation is ever stored).
    Batch accounting is in tokens per stream.
    """
    d = preset.embed_dim
    if len(preset.encoder_kernels) != preset.encoder_layers:
        raise ConfigurationError("encoder kernel list length != encoder layers")
    if len(preset.decoder_kernels) != preset.decoder_layers:
        raise ConfigurationError("decoder kernel list length != decoder layers")

    g = GraphBuilder(name="dc-transformer", batch_unit="tokens")
    g.add("src_tokens", "input", shape=(), dtype="int")
    g.add("tgt_tokens", "input", shape=(), dtype="int")
    g.add("tgt_labels", "input", shape=(), dtype="int")

    def conv_block(p: str, x: str, kernel: int) -> str:
        ln = g.add(f"{p}_ln", "layernorm", x, dim=d)
        l1 = g.add(f"{p}_in_proj", "linear", ln, d_in=d, d_out=2 * d, sparse=1,
                   group=FC_EMBED_GROUP)
        gl = g.add(f"{p}_glu", "glu", l1)
        kg = g.add(f"{p}_kgen", "linear", gl, d_in=d, d_out=preset.conv_heads * kernel,
                   sparse=1, group=FC_EMBED_GROUP)
        mix = g.add(f"{p}_conv", "dynamic_conv_cost", (gl, kg), mix="conv",
                    heads=preset.conv_heads, kernel=kernel, span=preset.span)
        l2 = g.add(f"{p}_out_proj", "linear", mix, d_in=d, d_out=d, sparse=1,
                   group=FC_EMBED_GROUP)
        out = g.add(f"{p}_add", "add", (l2, x))
        g.block(ln, out)
        return out

    def attn_block(p: str, x: str, memory: str) -> str:
        ln = g.add(f"{p}_ln", "layernorm", x, dim=d)
        q = g.add(f"{p}_q", "linear", ln, d_in=d, d_out=d, sparse=1, group=FC_EMBED_GROUP)
        k = g.add(f"{p}_k", "linear", memory, d_in=d, d_out=d, sparse=1, group=FC_EMBED_GROUP)
        v = g.add(f"{p}_v", "linear", memory, d_in=d, d_out=d, sparse=1, group=FC_EMBED_GROUP)
        mix = g.add(f"{p}_attn", "dynamic_conv_cost", (q, k, v), mix="attn",
                    heads=preset.attn_heads, span=preset.span)
        out_p = g.add(f"{p}_out", "linear", mix, d_in=d, d_out=d, sparse=1,
                      group=FC_EMBED_GROUP)
        out = g.add(f"{p}_add", "add", (out_p, x))
        g.block(ln, out)
        return out

    def ffn_block(p: str, x: str) -> str:
        ln = g.add(f"{p}_ln", "layernorm", x, dim=d)
        f1 = g.add(f"{p}_fc1", "linear", ln, d_in=d, d_out=preset.ffn_dim, sparse=1,
                   group=FC_EMBED_GROUP)
        r = g.add(f"{p}_relu", "relu", f1)
        f2 = g.add(f"{p}_fc2", "linear", r, d_in=preset.ffn_dim, d_out=d, sparse=1,
                   group=FC_EMBED_GROUP)
        out = g.add(f"{p}_add", "add", (f2, x))
        g.block(ln, out)
        return out

    x = g.add("src_embed", "embedding", "src_tokens", vocab=preset.vocab, d=d,
              sparse=1, group=FC_EMBED_GROUP)
    for i, kernel in enumerate(preset.encoder_kernels):
        x = conv_block(f"enc{i + 1}_conv", x, kernel)
        x = ffn_block(f"enc{i + 1}_ffn", x)
    enc_out = g.add("enc_ln", "layernorm", x, dim=d)

    y = g.add("tgt_embed", "embedding", "tgt_tokens", vocab=preset.vocab, d=d,
              tied="src_embed")
    for i, kernel in enumerate(preset.decoder_kernels):
        y = conv_block(f"dec{i + 1}_conv", y, kernel)
        y = attn_block(f"dec{i + 1}_attn", y, enc_out)
        y = ffn_block(f"dec{i + 1}_ffn", y)
    dec_out = g.add("dec_ln", "layernorm", y, dim=d)
    g.add("loss", "softmax_xent", (dec_out, "tgt_labels"), classes=preset.vocab, d_in=d)
    g.loss("loss")
    return g.build()


def random_desk_graph(seed: int) -> ComputationGraph:
    """Small random residual CNN for quantified equivalence checks."""
    rng = np.random.default_rng(seed)
    n_blocks = int(rng.integers(2, 5))
    base = int(rng.integers(4, 7))
    channels = [base]
    for _ in range(n_blocks - 1):
        channels.append(channels[-1] * 2 if rng.random() < 0.3 and channels[-1] <= 8 else channels[-1])
    with_bn = bool(rng.random() < 0.7)
    classes = int(rng.integers(2, 5))
    return build_desk_cnn(channels, classes=classes, with_batchnorm=with_bn,
                          input_shape=(2, 8, 8))
