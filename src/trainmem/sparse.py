"""Flattened CSR storage for masked convolution and matrix weights.

A 4-D conv weight of shape (c_o, c_i, k1, k2) is flattened to a matrix of
shape c_o x (c_i*k1*k2); row i is the row-major flattening of output
channel i.  Matrices (fully-connected and embedding weights) are the
degenerate case k1 = k2 = 1.  Column indices are charged ceil(log2(cols))
bits each, packed to whole bytes per array; row pointers are 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .numerics import NumericFormat


def col_index_bits(cols: int) -> int:
    """Bits per column index: ceil(log2(cols)); the cols = 1 case yields 0."""
    if cols < 1:
        raise ContractError("cols must be positive")
    return (cols - 1).bit_length()


@dataclass
class SparseConvCSR:
    rows: int
    cols: int
    values: np.ndarray = field(repr=False)
    col_indices: np.ndarray = field(repr=False)
    row_ptr: np.ndarray = field(repr=False)
    element_bytes: int = 4

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        if self.row_ptr.shape != (self.rows + 1,):
            raise ContractError("row_ptr must have rows+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.nnz:
            raise ContractError("row_ptr endpoints inconsistent with nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ContractError("row_ptr must be nondecreasing")
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.cols
        ):
            raise ContractError("column index out of range")
        for r in range(self.rows):
            seg = self.col_indices[self.row_ptr[r] : self.row_ptr[r + 1]]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise ContractError(f"row {r}: column indices not strictly increasing")

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def col_index_bits(self) -> int:
        return col_index_bits(self.cols)


def csr_dims(shape: tuple[int, ...]) -> tuple[int, int]:
    """(rows, cols) of the flattened CSR matrix of a 2-D or 4-D weight."""
    if len(shape) == 4:
        c_o, c_i, k1, k2 = shape
        return c_o, c_i * k1 * k2
    if len(shape) == 2:
        return shape[0], shape[1]
    raise ContractError(f"CSR encoding expects a 2-D or 4-D shape, got {shape}")


def csr_from_dense(weight: np.ndarray, mask: np.ndarray, fmt: NumericFormat) -> SparseConvCSR:
    """Encode the entries of `weight` where the bool `mask` is true in
    flattened CSR form, with values charged at `fmt`'s element width."""
    weight, mask = np.asarray(weight), np.asarray(mask, dtype=bool)
    if mask.shape != weight.shape:
        raise ContractError(f"mask shape {mask.shape} != weight shape {weight.shape}")
    rows, cols = csr_dims(weight.shape)
    w = weight.reshape(rows, cols)
    m = mask.reshape(rows, cols)
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(m.sum(axis=1), out=row_ptr[1:])
    r_idx, c_idx = np.nonzero(m)
    return SparseConvCSR(
        rows=rows,
        cols=cols,
        values=w[r_idx, c_idx],
        col_indices=c_idx,
        row_ptr=row_ptr,
        element_bytes=fmt.element_bytes,
    )


def csr_to_dense(csr: SparseConvCSR, shape) -> np.ndarray:
    """Decode back to a dense array; zeros everywhere the CSR has no entry."""
    rows, cols = csr_dims(tuple(shape))
    if (rows, cols) != (csr.rows, csr.cols):
        raise ContractError("target shape inconsistent with CSR dimensions")
    out = np.zeros((rows, cols), dtype=csr.values.dtype)
    for r in range(rows):
        lo, hi = csr.row_ptr[r], csr.row_ptr[r + 1]
        out[r, csr.col_indices[lo:hi]] = csr.values[lo:hi]
    return out.reshape(shape)


def csr_storage_bytes(csr: SparseConvCSR) -> int:
    """Storage bytes of one CSR tensor: packed column indices, 32-bit row
    pointers and values.  Gradient and momentum buffers reuse the model's
    index arrays, so `profiler._param_bytes`, which prices the same formula
    from nonzero counts, charges them values only."""
    value_bytes = csr.nnz * csr.element_bytes
    index_bytes = (csr.nnz * csr.col_index_bits + 7) // 8
    ptr_bytes = (csr.rows + 1) * 4
    return index_bytes + ptr_bytes + value_bytes
