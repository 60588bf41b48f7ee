"""Numeric formats, emulated binary16 rounding and flat packing.

The engine carries FP64 tensors as float64 arrays and FP32 and FP16
tensors as float32 arrays; an FP16 tensor is a float32 array whose every
element sits exactly on the IEEE binary16 grid.  Byte accounting is always
done by formula from the nominal format, never by measuring the carrier
array.

`half_round` has two paths with bit-identical results.  The cast path
(through numpy's float16) handles every input and owns overflow to
infinity, NaN and float64 results.  Large float32 arrays whose values all
lie below 2^15 in magnitude take a vector path instead: each value's
binary16 spacing q, a power of two, comes from its exponent bits, and
rint(a / q) * q costs a few cheap vector passes instead of two slow
casts.  Its fixed cost per call exceeds the cast's below about 700
elements, so small arrays keep the cast; `FlatLayout` packs a dict of
small per-parameter arrays into one flat buffer so that the optimizer
and gradient paths round them in one large call.
"""

from __future__ import annotations

import itertools
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
# elements (the cast is faster below about 700; 1,024 keeps a margin) whose
# exponent fields are all below that of 2^15 (from 2^15 on a value may round
# past 65504, the largest binary16 value, to infinity; infinities and NaN
# lie above it).  Its operands are 0-d arrays and its outs positional: on each
# ufunc call, converting a Python scalar or parsing keywords costs about a pass.
_VECTOR_MIN = 1024
_EXPONENT_MASK = np.array(0x7F800000, np.int32)
_EXPONENT_2_15 = (127 + 15) << 23
_EXPONENT_10 = np.array(10 << 23, np.int32)  # binary16 keeps 10 fraction bits
_SPACING_MIN = np.array(2.0**-24, np.float32)  # the binary16 subnormal spacing
_INT32, _FLOAT32 = np.dtype(np.int32), np.dtype(np.float32)  # native dtypes, which arrays share


def half_round(x):
    """Round to the nearest IEEE binary16 value (ties to even), widened back
    to float32 for a float32 input and to float64 for any other.

    Values beyond the binary16 finite range map to signed infinity; NaN maps
    to NaN.  Accepts scalars or arrays and preserves the input's shape.
    Either input is rounded once, and every binary16 value is exact in both
    carriers.

    A float32 array of at least `_VECTOR_MIN` elements, all below 2^15 in
    magnitude (so no infinity or NaN either), is rounded in float32: with
    2^e = 2^floor(log2|a|) from a's exponent bits, the binary16 spacing at
    a is q = max(2^(e-10), 2^-24); a / q is exact and below 2^11, rint
    rounds it ties to even (keeping -0.0) and times q is exact again.
    Every other input is cast to float16 and back.
    """
    a = x if type(x) is np.ndarray else np.asarray(x)
    f32 = a.dtype is _FLOAT32
    if f32 and a.size >= _VECTOR_MIN:
        m = np.bitwise_and(a.view(_INT32), _EXPONENT_MASK)
        if np.maximum.reduce(m, None) < _EXPONENT_2_15:  # axis None: any layout
            m -= _EXPONENT_10  # 2^(e-10); for |a| < 2^-116, +0.0 or a negative float, never NaN
            q = m.view(_FLOAT32)
            np.maximum(q, _SPACING_MIN, out=q)
            out = np.divide(a, q)
            np.rint(out, out)
            return np.multiply(out, q, out)
    if not f32 and a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    out = _cast_round(a)
    return float(out) if out.ndim == 0 else out


@np.errstate(over="ignore")  # as a decorator it costs less per call than a `with`
def _cast_round(a: np.ndarray) -> np.ndarray:
    """half_round's cast path: overflow to infinity is its result, not an error."""
    return a.astype(np.float16).astype(a.dtype)


class FlatLayout:
    """Names, shapes and offsets of a dict of arrays laid end to end in one
    flat buffer, so that elementwise math over all of them is one call.

    It is built from the dict's values' shapes (arrays, or the graph's
    parameter specs).  `pack` copies arrays with those names and shapes
    into a new buffer (in their common dtype, or `dtype`); `unpack` returns
    per-name views of a buffer.  Elementwise results do not depend on the
    packing.
    """

    def __init__(self, arrays: dict):
        self.names = list(arrays)
        self.shapes = [tuple(a.shape) for a in arrays.values()]
        bounds = list(itertools.accumulate(map(math.prod, self.shapes), initial=0))
        self.offsets = np.array(bounds, dtype=np.int64)
        self.size = bounds[-1]
        # (name, shape, start, stop) of each array, in Python ints
        self._spans = list(zip(self.names, self.shapes, bounds, bounds[1:]))

    def pack(self, arrays: dict, dtype=None) -> np.ndarray:
        parts = []
        for name, shape, _, _ in self._spans:
            a = np.asarray(arrays[name])
            if a.shape != shape:
                raise ContractError(f"shape {a.shape} of '{name}' is not {shape}")
            parts.append(a.ravel())
        return np.concatenate(parts or [np.zeros(0)], dtype=dtype)

    def unpack(self, flat: np.ndarray) -> dict:
        return {name: flat[i:j].reshape(shape) for name, shape, i, j in self._spans}

    def spread(self, values, dtype) -> np.ndarray:
        """One value per array, repeated over that array's elements."""
        return np.repeat(np.asarray(values, dtype=dtype), np.diff(self.offsets))

