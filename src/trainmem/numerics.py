"""Numeric formats and emulated binary16 rounding.

The engine carries FP64 tensors as float64 arrays and FP32 and FP16
tensors as float32 arrays; an FP16 tensor is a float32 array whose every
element sits exactly on the IEEE binary16 grid.  `DenseTensor` keeps its
data as float64 whatever the format.  Byte accounting is always done by
formula from the nominal format, never by measuring the carrier array.
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
    """Round to the nearest IEEE binary16 value (ties to even), widened back
    to float32 for a float32 input and to float64 for any other.

    Values beyond the binary16 finite range map to signed infinity; NaN maps
    to NaN.  Accepts scalars or arrays and preserves the input's shape.
    Either input is cast to binary16 directly, so it is rounded once, and
    every binary16 value is exact in both carriers.
    """
    a = np.asarray(x)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        out = a.astype(np.float16).astype(a.dtype)
    if out.ndim == 0:
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
