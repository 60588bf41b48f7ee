"""The CSR byte format, checked against a real encoding of the mask."""

import math

import numpy as np
import pytest

from trainmem.errors import ContractError
from trainmem.graph import GraphBuilder
from trainmem.numerics import NumericFormat
from trainmem.profiler import TrainingConfig, _param_bytes, model_memory, param_nnz
from trainmem.sparse import col_index_bits, csr_bits

F32 = NumericFormat.FP32
F16 = NumericFormat.FP16


def _csr_bytes(mask: np.ndarray, fmt: NumericFormat) -> int:
    """Bytes of a real CSR encoding of the true entries of `mask`, flattened
    to (first axis) x (the rest): values at `fmt`'s width, column indices
    packed at ceil(log2(cols)) bits each, rows + 1 int32 row pointers."""
    m = mask.reshape(mask.shape[0], -1)
    rows, cols = m.shape
    r_idx, c_idx = np.nonzero(m)
    row_ptr = np.searchsorted(r_idx, np.arange(rows + 1)).astype(np.int32)
    decoded = np.zeros_like(m)
    for r in range(rows):
        decoded[r, c_idx[row_ptr[r]:row_ptr[r + 1]]] = True
    assert np.array_equal(decoded, m)
    width = math.ceil(math.log2(cols))
    index = np.packbits((c_idx[:, None] >> np.arange(width)) & 1)
    values = m[r_idx, c_idx].astype({F16: np.float16, F32: np.float32}[fmt])
    return values.nbytes + index.nbytes + row_ptr.nbytes


def test_singleton():
    assert _model_bytes(1, 1, 1, F32) == 0 + 8 + 4  # no index bits, 2 ptrs, 1 value
    assert _csr_bytes(np.ones((1, 1, 1, 1), bool), F32) == 12


def _param_bytes_at(rows: int, cols: int, nnz: int, fmt: NumericFormat) -> tuple[int, int]:
    """The cost model's (model, optimizer) bytes for one rows x cols weight
    that a density below 1 sparsifies, at an explicit nonzero count: the
    one-entry count vector over the graph's weight list."""
    cfg = TrainingConfig(density={"g": 0.5}, minibatch=1, precision=fmt)
    return _param_bytes(_one_weight_graph(rows, cols), cfg, np.array([nnz], dtype=np.int64))


def _model_bytes(rows: int, cols: int, nnz: int, fmt: NumericFormat) -> int:
    """The cost model's bytes for one sparsified rows x cols weight."""
    return _param_bytes_at(rows, cols, nnz, fmt)[0]


def test_storage_bytes_wrn_example():
    # c_o=32, c_i=16, 3x3: cols = 144 so 8 bits per index; with 1383
    # nonzeros at FP16 the formula gives 1383 + 33*4 + 1383*2 bytes
    expected = (1383 * 8 + 7) // 8 + 33 * 4 + 1383 * 2
    assert expected == 1383 + 132 + 2766
    assert _model_bytes(32, 16 * 9, 1383, F16) == expected


def test_storage_bytes_matches_array_path():
    mask = np.random.default_rng(5).random((8, 4, 3, 3)) < 0.3
    assert _csr_bytes(mask, F16) == _model_bytes(8, 36, int(mask.sum()), F16)


def _one_weight_graph(rows: int, cols: int):
    b = GraphBuilder()
    b.add("x", "input", shape=(cols,), dtype="float")
    b.add("y", "input", shape=(), dtype="int")
    b.add("fc", "linear", "x", d_in=cols, d_out=rows, bias=0, sparse=1, group="g")
    b.add("loss", "softmax_xent", ("fc", "y"), classes=rows)
    b.loss("loss")
    return b.build()


def test_sharing_always_strictly_smaller():
    # gradient and momentum share the model's index arrays, so each optimizer
    # array of a sparsified tensor costs its values only: strictly less than
    # the model's CSR bytes (row pointers alone make it strict)
    rng = np.random.default_rng(9)
    for _ in range(200):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 40))
        nnz = int(rng.integers(0, rows * cols + 1))
        fmt = (F16, F32)[int(rng.integers(2))]
        w = fmt.element_bytes
        model, optimizer = _param_bytes_at(rows, cols, nnz, fmt)
        mask = np.zeros(rows * cols, dtype=bool)
        mask[rng.choice(rows * cols, nnz, replace=False)] = True
        assert model == _csr_bytes(mask.reshape(rows, cols), fmt)
        assert optimizer == 2 * nnz * w
        assert nnz * w < model


def test_density_below_one_is_csr_even_when_every_element_survives():
    # round(0.99 * 12) keeps all 12 elements, yet the group is sparsified,
    # so the weight is still stored in CSR form
    g = _one_weight_graph(3, 4)
    cfg = TrainingConfig(density={"g": 0.99}, minibatch=1)
    assert param_nnz(g, cfg.density).tolist() == [12]
    assert model_memory(g, cfg) == _csr_bytes(np.ones((3, 4), bool), F32)
    assert model_memory(g, TrainingConfig(minibatch=1)) == 12 * 4


def test_col_index_bits():
    assert col_index_bits(1) == 0
    assert col_index_bits(2) == 1
    assert col_index_bits(144) == 8
    assert col_index_bits(1152) == 11


def test_csr_bits():
    # WRN's 32 x 16 x 3 x 3 conv: 8-bit indices, 33 row pointers plus 7
    assert csr_bits((32, 16, 3, 3)) == (8, 33 * 32 + 7)
    assert csr_bits((6, 9)) == (4, 7 * 32 + 7)
    with pytest.raises(ContractError):
        csr_bits((2, 3, 4))
