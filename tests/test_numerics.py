"""binary16 rounding semantics and dense byte accounting.

The oracle for half_round is the integer bit-level codec in
trainmem.verification (struct + integer math), written independently of
the numpy cast used in production.
"""

import math

import numpy as np
import pytest

from trainmem import numerics
from trainmem.errors import ContractError
from trainmem.numerics import FlatLayout, NumericFormat, half_round
from trainmem.verification import decode_binary16, encode_binary16, reference_half_round


def test_half_round_exact_value():
    assert half_round(1.0) == 1.0


def test_half_round_spec_values():
    # 2049 sits between representable 2048 and 2050; ties go to even
    assert half_round(2049.0) == 2048.0
    # 65504 is the max finite binary16 value; 65520 rounds to infinity
    assert half_round(65520.0) == math.inf
    assert half_round(-65520.0) == -math.inf
    assert half_round(65519.0) == 65504.0
    assert math.isnan(half_round(float("nan")))
    assert half_round(math.inf) == math.inf


def test_half_round_matches_reference_codec():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.normal(0, 1, 2000),
        rng.normal(0, 1e4, 1000),
        rng.normal(0, 1e-6, 1000),
    ])
    for x in xs:
        assert half_round(float(x)) == reference_half_round(float(x))


def test_half_round_float32_input_matches_reference_codec():
    # float32 inputs are cast straight to binary16 and stay float32; ties,
    # the float32 neighbours of every tie, subnormals and overflow must
    # still round as the value does
    rng = np.random.default_rng(11)
    ties = np.array([(decode_binary16(b) + decode_binary16(b + 1)) / 2
                     for b in range(0, 0x7BFF, 13)], dtype=np.float32)
    xs = np.concatenate([
        ties,
        np.nextafter(ties, np.float32(np.inf)),
        np.nextafter(ties, np.float32(0)),
        rng.normal(0, 1, 1000).astype(np.float32),
        rng.normal(0, 1e-7, 1000).astype(np.float32),
        np.array([65504, 65519, 65520, 1e30, np.inf, 2.0**-25, 2.0**-26], np.float32),
    ])
    xs = np.concatenate([xs, -xs])
    out = half_round(xs)
    assert out.dtype == np.float32 and out.shape == xs.shape
    assert [float(v) for v in out] == [reference_half_round(float(x)) for x in xs]
    # the same values as float64 stay float64
    out64 = half_round(xs.astype(np.float64))
    assert out64.dtype == np.float64 and out64.shape == xs.shape
    assert [float(v) for v in out64] == [reference_half_round(float(x)) for x in xs]


def _cast(a):
    with np.errstate(over="ignore"):
        return a.astype(np.float16).astype(np.float32)


def _bits_equal(got, want):
    g, w = got.view(np.uint32), want.view(np.uint32)
    return np.array_equal(g, w) or bool(np.all((g == w) | (np.isnan(got) & np.isnan(want))))


def _binade(lo_bits, sign=False):
    """Every float32 pattern from lo_bits to the next binade, as float32."""
    bits = np.arange(lo_bits, lo_bits + (1 << 23), dtype=np.uint32)
    if sign:
        bits |= np.uint32(0x80000000)
    return bits.view(np.float32)


@pytest.mark.parametrize("lo,sign", [
    # binary16 subnormals, where the spacing is clamped to 2^-24 (a slow
    # cast: ~0.8 s)
    (2.0**-20, False), (2.0**-20, True),
    (2.0**-15, False),  # the top binary16 subnormals (also a slow cast)
    (2.0**-14, False), (2.0**-14, True),  # the smallest binary16 normals
    (2.0**14, False), (2.0**14, True),  # up to the vector path's 2^15 limit
])
def test_half_round_vector_path_matches_cast_on_whole_binades(lo, sign):
    # Every pattern of the binade stays below 2^15, so the vector path
    # rounds it; its bits must equal the cast's.
    lo_bits = int(np.float32(lo).view(np.uint32))
    xs = _binade(lo_bits, sign)
    assert xs.size >= numerics._VECTOR_MIN and np.abs(xs).max() < 2.0**15
    out = half_round(xs)
    assert out.dtype == np.float32 and out.shape == xs.shape
    assert _bits_equal(out, _cast(xs))


@pytest.mark.parametrize("lo,sign", [(0.0, False), (0.0, True),
                                     (2.0**-25, False), (2.0**-25, True)])
def test_half_round_vector_path_below_the_smallest_subnormal(lo, sign):
    # The float32 subnormals (exponent field 0) and the binade [2^-25, 2^-24),
    # whose spacing is clamped furthest: every value rounds to zero (2^-25, a
    # tie, goes to the even zero) but those above 2^-25, which round to
    # 2^-24.  The cast would take ~0.8 s a binade; the codec checks the edges.
    xs = _binade(int(np.float32(lo).view(np.uint32)), sign)
    assert xs.size >= numerics._VECTOR_MIN
    up = np.abs(xs) > 2.0**-25
    want = np.copysign(np.where(up, np.float32(2.0**-24), np.float32(0.0)), xs)
    for i in (0, 1, np.argmax(up), xs.size - 1):  # each side of each edge
        assert float(want[i]) == reference_half_round(float(xs[i]))
    assert _bits_equal(half_round(xs), want)


def test_half_round_vector_path_oracle_and_fallbacks():
    rng = np.random.default_rng(12)
    ties = np.array([(decode_binary16(b) + decode_binary16(b + 1)) / 2
                     for b in range(0, 0x77FF, 7)], dtype=np.float32)  # below 2^15
    xs = np.concatenate([
        ties,
        np.nextafter(ties, np.float32(np.inf)),
        np.nextafter(ties, np.float32(0)),
        rng.normal(0, 1, 1000).astype(np.float32),
        np.array([0.0, 2.0**-25, 2.0**-25 * 0.75, 2.0**-26, 1e-30, 1e-45], np.float32),
        # every 101st float32 subnormal pattern, and values up to twice the
        # smallest binary16 subnormal
        np.arange(0, 1 << 23, 101, dtype=np.uint32).view(np.float32),
        np.linspace(0, 2.0**-23, 4097, dtype=np.float32),
    ])
    xs = np.concatenate([xs, -xs])
    assert xs.size >= numerics._VECTOR_MIN and np.abs(xs).max() < 2.0**15
    out = half_round(xs)
    assert out.dtype == np.float32 and _bits_equal(out, _cast(xs))
    # negative values that round to zero come out -0.0, as the cast has it
    neg_zero = (xs < 0) & (_cast(xs) == 0)
    assert neg_zero.sum() > 80_000 and np.all(np.signbit(out[neg_zero]))
    # a sample against the independent codec
    for x, v in zip(xs[::17], out[::17]):
        assert float(v) == reference_half_round(float(x))
    # both sides of the size gate
    for n in (numerics._VECTOR_MIN - 1, numerics._VECTOR_MIN):
        assert _bits_equal(half_round(xs[:n]), _cast(xs[:n]))
    # a non-contiguous 3-D view keeps its shape
    cube = rng.normal(0, 100, size=(16, 20, 24)).astype(np.float32)[::2, 1:, ::3]
    assert not cube.flags.c_contiguous and cube.size >= numerics._VECTOR_MIN
    got = half_round(cube)
    assert got.shape == cube.shape and got.dtype == np.float32
    assert _bits_equal(np.ascontiguousarray(got), _cast(np.ascontiguousarray(cube)))
    # 2^15, infinities and NaN take the cast path, which owns overflow and NaN
    for special in (2.0**15, 65520.0, np.inf, -np.inf, np.nan):
        ys = xs.copy()
        ys[5] = special
        got = half_round(ys)
        assert got.dtype == np.float32 and _bits_equal(got, _cast(ys))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_layout_round_trips_views(dtype):
    arrays = {"a": np.arange(6, dtype=dtype).reshape(2, 3), "b": np.array([7.0], dtype),
              "c": np.full((2, 1, 2), 9.0, dtype)}
    layout = FlatLayout(arrays)
    flat = layout.pack(arrays)
    assert flat.dtype == dtype and flat.shape == (11,)
    assert list(layout.offsets) == [0, 6, 7, 11]
    back = layout.unpack(flat)
    assert list(back) == ["a", "b", "c"]
    for k, v in arrays.items():
        assert back[k].shape == v.shape and np.array_equal(back[k], v)
        assert back[k].base is flat  # views, not copies
    assert np.array_equal(layout.spread([1.0, 2.0, 3.0], dtype), [1] * 6 + [2] + [3] * 4)
    assert layout.pack(arrays, np.float32).dtype == np.float32
    with pytest.raises(ContractError, match="'b'"):
        layout.pack({**arrays, "b": np.zeros(2, dtype)})


def test_codec_is_self_consistent():
    # decode(encode(representable)) is the identity on its own grid
    for bits in range(0, 0x7C00, 37):
        v = decode_binary16(bits)
        assert encode_binary16(v) == bits


def test_half_round_idempotent_monotone_odd():
    rng = np.random.default_rng(3)
    xs = np.sort(np.concatenate([
        rng.uniform(-65000, 65000, size=3000),
        rng.normal(0, 1e-5, size=1000),
    ]))
    hr = half_round(xs)
    assert np.array_equal(half_round(hr), hr)  # idempotent
    assert np.all(np.diff(hr) >= 0)  # monotone nondecreasing
    assert np.array_equal(half_round(-xs), -hr)  # odd symmetry
    # overflow boundary keeps order too
    assert half_round(65504.0) <= half_round(65520.0) == math.inf


def test_half_round_array_shape():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = half_round(a)
    assert out.shape == (3, 4)
    assert isinstance(half_round(2.5), float)

