"""The flattened CSR byte format of a sparsified weight, stated once.

A 4-D conv weight (c_o, c_i, k1, k2) is flattened to a c_o x (c_i*k1*k2)
matrix, row i being output channel i in row-major order; a matrix weight
is the case k1 = k2 = 1.  Its CSR form stores the nonzero values, one
ceil(log2(cols))-bit column index per nonzero packed to whole bytes, and
rows + 1 32-bit row pointers.  The cost model prices it from nonzero
counts (`profiler._param_bytes`); no CSR array is ever built.
"""

from __future__ import annotations

from .errors import ContractError


def col_index_bits(cols: int) -> int:
    """Bits per column index: ceil(log2(cols)); the cols = 1 case yields 0."""
    if cols < 1:
        raise ContractError("cols must be positive")
    return (cols - 1).bit_length()


def csr_dims(shape: tuple[int, ...]) -> tuple[int, int]:
    """(rows, cols) of the flattened CSR matrix of a 2-D or 4-D weight."""
    if len(shape) == 4:
        c_o, c_i, k1, k2 = shape
        return c_o, c_i * k1 * k2
    if len(shape) == 2:
        return shape[0], shape[1]
    raise ContractError(f"CSR encoding expects a 2-D or 4-D shape, got {shape}")


def csr_bits(shape: tuple[int, ...]) -> tuple[int, int]:
    """(index bits, fixed bits) of a weight's CSR form: with nnz nonzeros
    its indices and row pointers take (nnz * index + fixed) // 8 bytes;
    fixed is the 32-bit row pointers plus 7 to round up to whole bytes."""
    rows, cols = csr_dims(shape)
    return col_index_bits(cols), (rows + 1) * 32 + 7
