"""binary16 rounding semantics and dense byte accounting.

The oracle for half_round is the integer bit-level codec in
trainmem.verification (struct + integer math), written independently of
the numpy cast used in production.
"""

import math

import numpy as np
import pytest

from trainmem.errors import ContractError
from trainmem.numerics import DenseTensor, NumericFormat, half_round, tensor_bytes
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


def test_tensor_bytes():
    assert tensor_bytes([1], NumericFormat.FP32) == 4
    assert tensor_bytes([1460000], NumericFormat.FP32) == 5_840_000
    assert tensor_bytes([64, 128], NumericFormat.FP16) == 16_384
    with pytest.raises(ContractError):
        tensor_bytes([0, 3], NumericFormat.FP32)


def test_dense_tensor_constraints():
    t = DenseTensor((2, 2), NumericFormat.FP16, half_round(np.array([0.1, 1.0, 3.5, -2.0])))
    assert t.nbytes == 8
    with pytest.raises(ContractError):
        DenseTensor((2, 2), NumericFormat.FP16, np.array([0.1, 1.0, 3.5, -2.0]))
    with pytest.raises(ContractError):
        DenseTensor((2, 2), NumericFormat.FP32, np.zeros(3))
