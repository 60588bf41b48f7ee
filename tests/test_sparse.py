"""CSR flattening, round-trips, and the storage-byte formula."""

import numpy as np
import pytest

from trainmem.errors import ContractError
from trainmem.graph import GraphBuilder
from trainmem.numerics import NumericFormat
from trainmem.profiler import TrainingConfig, _param_bytes
from trainmem.sparse import (
    col_index_bits,
    csr_from_dense,
    csr_storage_bytes,
    csr_to_dense,
)

F32 = NumericFormat.FP32
F16 = NumericFormat.FP16


def test_singleton():
    csr = csr_from_dense(np.full((1, 1, 1, 1), 5.0), np.ones((1, 1, 1, 1), bool), F32)
    assert csr.rows == 1 and csr.cols == 1
    assert list(csr.values) == [5.0]
    assert csr.col_index_bits == 0
    assert csr_storage_bytes(csr) == 0 + 8 + 4  # no index bits, 2 ptrs, 1 value


def test_hand_enumerable():
    w = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 1, 1, 2)
    mask = np.array([False, True, True, False]).reshape(2, 1, 1, 2)
    csr = csr_from_dense(w, mask, F32)
    assert list(csr.row_ptr) == [0, 1, 2]
    assert list(csr.col_indices) == [1, 0]
    assert list(csr.values) == [2.0, 3.0]


def test_round_trip_property():
    # oracle: elementwise masked copy
    rng = np.random.default_rng(42)
    for trial in range(1000):
        c_o = int(rng.integers(1, 6))
        c_i = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        shape = (c_o, c_i, k, k)
        data = rng.normal(size=shape)
        bits = rng.random(shape) < rng.uniform(0.05, 0.95)
        back = csr_to_dense(csr_from_dense(data, bits, F32), shape)
        assert np.array_equal(back, data * bits)


def test_round_trip_matrix_case():
    # fully-connected weights reuse the conv CSR with k1 = k2 = 1
    rng = np.random.default_rng(1)
    data = rng.normal(size=(6, 9))
    bits = rng.random((6, 9)) < 0.4
    csr = csr_from_dense(data, bits, F32)
    assert csr.cols == 9 and csr.col_index_bits == 4
    assert np.array_equal(csr_to_dense(csr, (6, 9)), data * bits)


def test_shape_mismatch():
    with pytest.raises(ContractError):
        csr_from_dense(np.zeros((2, 1, 1, 2)), np.ones((2, 1, 2, 2), bool), F32)


def _model_bytes(rows: int, cols: int, nnz: int, fmt: NumericFormat) -> int:
    """The cost model's bytes for one sparsified rows x cols weight."""
    cfg = TrainingConfig(minibatch=1, precision=fmt)
    return _param_bytes(_one_weight_graph(rows, cols), cfg, {"fc.weight": nnz})[0]


def test_storage_bytes_wrn_example():
    # c_o=32, c_i=16, 3x3: cols = 144 so 8 bits per index; with 1383
    # nonzeros at FP16 the formula gives 1383 + 33*4 + 1383*2 bytes
    expected = (1383 * 8 + 7) // 8 + 33 * 4 + 1383 * 2
    assert expected == 1383 + 132 + 2766
    assert _model_bytes(32, 16 * 9, 1383, F16) == expected


def test_storage_bytes_matches_array_path():
    rng = np.random.default_rng(5)
    shape = (8, 4, 3, 3)
    data = rng.normal(size=shape)
    bits = rng.random(shape) < 0.3
    w = np.float16(data).astype(np.float32)  # the FP16 carrier
    csr = csr_from_dense(w, bits, F16)
    assert csr_storage_bytes(csr) == _model_bytes(8, 36, csr.nnz, F16)


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
        cfg = TrainingConfig(minibatch=1, precision=fmt)
        model, optimizer = _param_bytes(_one_weight_graph(rows, cols), cfg, {"fc.weight": nnz})
        mask = np.zeros(rows * cols, dtype=bool)
        mask[rng.choice(rows * cols, nnz, replace=False)] = True
        csr = csr_from_dense(np.ones((rows, cols)), mask.reshape(rows, cols), fmt)
        assert model == csr_storage_bytes(csr)
        assert optimizer == 2 * nnz * w
        assert nnz * w < model


def test_col_index_bits():
    assert col_index_bits(1) == 0
    assert col_index_bits(2) == 1
    assert col_index_bits(144) == 8
    assert col_index_bits(1152) == 11
