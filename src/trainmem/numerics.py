"""Numeric formats, emulated binary16 rounding and flat packing.

The engine carries FP64 tensors as float64 arrays and FP32 and FP16
tensors as float32 arrays; an FP16 tensor is a float32 array whose every
element sits exactly on the IEEE binary16 grid.  Byte accounting is always
done by formula from the nominal format, never by measuring the carrier
array.

`half_round` has two paths with bit-identical results.  The cast path
(through numpy's float16) handles every input and owns overflow to
infinity, NaN and float64 results.  Large float32 arrays whose values all
lie below 2^15 in magnitude take a vector path instead: adding and
subtracting a per-element power-of-two constant makes float32's own
round-to-nearest-even round at the binary16 spacing, which costs a few
cheap vector passes instead of two slow casts.  Its fixed cost per call
exceeds the cast's below about a thousand elements, so small arrays keep
the cast; `FlatLayout` packs a dict of small per-parameter arrays into one
flat buffer so that the optimizer and gradient paths round them in one
large call.
"""

from __future__ import annotations

import math
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


# half_round's vector path runs on float32 arrays of at least _VECTOR_MIN
# elements (below it, its fixed cost per call exceeds the cast's) whose
# exponent fields are all below that of 2^15 (from 2^15 on a value may round
# past 65504, the largest binary16 value, to infinity; infinities and NaN
# lie above it).
_VECTOR_MIN = 1024
_EXPONENT_MASK = 0x7F800000
_EXPONENT_2_15 = (127 + 15) << 23


def half_round(x):
    """Round to the nearest IEEE binary16 value (ties to even), widened back
    to float32 for a float32 input and to float64 for any other.

    Values beyond the binary16 finite range map to signed infinity; NaN maps
    to NaN.  Accepts scalars or arrays and preserves the input's shape.
    Either input is rounded once, and every binary16 value is exact in both
    carriers.

    A float32 array of at least `_VECTOR_MIN` elements, all below 2^15 in
    magnitude (so no infinity or NaN either), is rounded by a magic add:
    with m = 2^floor(log2|a|), float32 spacing at M = max(1.5 * 2^13 * m,
    0.75) is the binary16 spacing at a (2^-24 throughout the binary16
    subnormals), so (a + M) - M rounds a to binary16 ties-to-even and the
    subtraction is exact; copysign keeps -0.0 for negatives that round to
    zero.  Every other input is cast to float16 and back.
    """
    a = np.asarray(x)
    if a.dtype == np.float32 and a.size >= _VECTOR_MIN:
        m = np.bitwise_and(a.view(np.int32), _EXPONENT_MASK)
        if m.max() < _EXPONENT_2_15:
            m = m.view(np.float32)  # 2^floor(log2|a|), 0 for float32 subnormals
            np.multiply(m, 1.5 * 2.0**13, out=m)
            np.maximum(m, 0.75, out=m)
            out = a + m
            np.subtract(out, m, out=out)
            return np.copysign(out, a, out=out)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        out = a.astype(np.float16).astype(a.dtype)
    if out.ndim == 0:
        return float(out)
    return out


class FlatLayout:
    """Names, shapes and offsets of a dict of arrays laid end to end in one
    flat buffer, so that elementwise math over all of them is one call.

    `pack` copies arrays with those names and shapes into a new buffer (in
    their common dtype, or `dtype`); `unpack` returns per-name views of a
    buffer.  Elementwise results do not depend on the packing.
    """

    def __init__(self, arrays: dict):
        self.names = list(arrays)
        self.shapes = [np.shape(a) for a in arrays.values()]
        self.offsets = np.cumsum([0] + [math.prod(s) for s in self.shapes])
        self.size = int(self.offsets[-1])

    def pack(self, arrays: dict, dtype=None) -> np.ndarray:
        parts = []
        for name, shape in zip(self.names, self.shapes):
            a = np.asarray(arrays[name])
            if a.shape != shape:
                raise ContractError(f"shape {a.shape} of '{name}' is not {shape}")
            parts.append(a.reshape(-1))
        return np.concatenate(parts or [np.zeros(0)], dtype=dtype)

    def unpack(self, flat: np.ndarray) -> dict:
        o = self.offsets
        return {name: flat[o[i]:o[i + 1]].reshape(shape)
                for i, (name, shape) in enumerate(zip(self.names, self.shapes))}

    def spread(self, values, dtype) -> np.ndarray:
        """One value per array, repeated over that array's elements."""
        return np.repeat(np.asarray(values, dtype=dtype), np.diff(self.offsets))

