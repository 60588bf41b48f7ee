"""Numeric formats and emulated binary16 rounding.

Tensors are carried as float64 arrays regardless of their nominal format;
an FP16 tensor is a float64 array whose every element sits exactly on the
IEEE binary16 grid.  Byte accounting is always done by formula from the
nominal format, never by measuring the carrier array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractError


class NumericFormat(Enum):
    FP64 = 8
    FP32 = 4
    FP16 = 2

    @property
    def element_bytes(self) -> int:
        return self.value

    @staticmethod
    def parse(text: str, key: str = "precision") -> "NumericFormat":
        """A format from its name; `key` is the config key named on error."""
        try:
            return NumericFormat[text.strip().upper()]
        except KeyError:
            names = ", ".join(f.name.lower() for f in NumericFormat)
            raise ConfigurationError(f"{key} must be one of {names}, got {text!r}") from None


def half_round(x):
    """Round to the nearest IEEE binary16 value (ties to even), widened back.

    Values beyond the binary16 finite range map to signed infinity; NaN maps
    to NaN.  Accepts scalars or arrays and preserves the input's shape.
    A float32 input is cast to binary16 directly: every float32 value is a
    float64 value, and both casts round once, so the result is the same.
    """
    a = np.asarray(x)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        out = a.astype(np.float16).astype(np.float64)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def tensor_bytes(shape, fmt: NumericFormat) -> int:
    """Dense storage bytes: product of extents times the element width."""
    n = 1
    for extent in shape:
        if extent <= 0:
            raise ContractError(f"non-positive extent in shape {tuple(shape)}")
        n *= int(extent)
    return n * fmt.element_bytes


@dataclass
class DenseTensor:
    """A dense tensor with a nominal storage format.

    `data` is flat, float64, and (for FP16) constrained to the binary16 grid.
    """

    shape: tuple[int, ...]
    format: NumericFormat
    data: np.ndarray = field(repr=False)

    def __init__(self, shape, format: NumericFormat, data):
        self.shape = tuple(int(s) for s in shape)
        self.format = format
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        n = math.prod(self.shape)
        if flat.size != n:
            raise ContractError(
                f"data length {flat.size} != prod(shape) {n} for shape {self.shape}"
            )
        if format is NumericFormat.FP16:
            rounded = half_round(flat)
            if not np.array_equal(rounded, flat, equal_nan=True):
                raise ContractError("FP16 tensor contains values off the binary16 grid")
        self.data = flat

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return tensor_bytes(self.shape, self.format)

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)
