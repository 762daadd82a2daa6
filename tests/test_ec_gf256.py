"""Field-axiom and kernel tests for GF(2^8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    gf_add,
    gf_div,
    gf_inv,
    gf_matmul,
    gf_mul,
    gf_mul_add_array,
    gf_mul_array,
    gf_pow,
)
from repro.ec.gf256 import _mul_table
from repro.errors import ErasureCodingError

ELEM = st.integers(min_value=0, max_value=255)
NONZERO = st.integers(min_value=1, max_value=255)


@given(ELEM, ELEM)
def test_add_commutative(a, b):
    assert gf_add(a, b) == gf_add(b, a)


@given(ELEM)
def test_add_self_inverse(a):
    assert gf_add(a, a) == 0


@given(ELEM, ELEM)
def test_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(ELEM, ELEM, ELEM)
def test_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(ELEM, ELEM, ELEM)
def test_distributive(a, b, c):
    assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))


@given(ELEM)
def test_mul_identity(a):
    assert gf_mul(a, 1) == a


@given(ELEM)
def test_mul_zero(a):
    assert gf_mul(a, 0) == 0


@given(NONZERO)
def test_inverse_roundtrip(a):
    assert gf_mul(a, gf_inv(a)) == 1


@given(ELEM, NONZERO)
def test_div_is_mul_by_inverse(a, b):
    assert gf_div(a, b) == gf_mul(a, gf_inv(b))


@given(ELEM, NONZERO)
def test_div_roundtrip(a, b):
    assert gf_mul(gf_div(a, b), b) == a


def test_div_by_zero_raises():
    with pytest.raises(ErasureCodingError):
        gf_div(5, 0)
    with pytest.raises(ErasureCodingError):
        gf_inv(0)


@given(NONZERO, st.integers(min_value=0, max_value=20))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = gf_mul(expected, a)
    assert gf_pow(a, n) == expected


def test_pow_zero_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    with pytest.raises(ErasureCodingError):
        gf_pow(0, -1)


@given(NONZERO)
def test_pow_negative_is_inverse_power(a):
    assert gf_pow(a, -1) == gf_inv(a)


def test_generator_has_full_order():
    # 2 generates the multiplicative group: 255 distinct powers.
    seen = {gf_pow(2, i) for i in range(255)}
    assert len(seen) == 255
    assert 0 not in seen


# --- vectorized kernels ------------------------------------------------------


@given(ELEM, st.binary(min_size=1, max_size=64))
@settings(max_examples=60)
def test_mul_array_matches_scalar(scalar, data):
    arr = np.frombuffer(data, dtype=np.uint8)
    vec = gf_mul_array(scalar, arr)
    for i, byte in enumerate(arr):
        assert vec[i] == gf_mul(scalar, int(byte))


def test_mul_array_zero_scalar():
    arr = np.arange(16, dtype=np.uint8)
    assert not gf_mul_array(0, arr).any()


def test_mul_array_one_is_copy():
    arr = np.arange(16, dtype=np.uint8)
    out = gf_mul_array(1, arr)
    assert np.array_equal(out, arr)
    out[0] = 99
    assert arr[0] == 0  # copy, not view


def test_mul_add_array_accumulates():
    acc = np.zeros(8, dtype=np.uint8)
    data = np.arange(8, dtype=np.uint8)
    gf_mul_add_array(acc, 3, data)
    gf_mul_add_array(acc, 3, data)
    assert not acc.any()  # adding twice cancels in GF(2^8)


def test_matmul_identity():
    data = np.arange(32, dtype=np.uint8).reshape(4, 8)
    out = gf_matmul(np.eye(4, dtype=np.uint8), data)
    assert np.array_equal(out, data)


def test_matmul_shape_validation():
    with pytest.raises(ErasureCodingError):
        gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 8), dtype=np.uint8))
    with pytest.raises(ErasureCodingError):
        gf_matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 8), dtype=np.uint8))


def test_matmul_linearity():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 256, (3, 5)).astype(np.uint8)
    d1 = rng.integers(0, 256, (5, 16)).astype(np.uint8)
    d2 = rng.integers(0, 256, (5, 16)).astype(np.uint8)
    lhs = gf_matmul(mat, np.bitwise_xor(d1, d2))
    rhs = np.bitwise_xor(gf_matmul(mat, d1), gf_matmul(mat, d2))
    assert np.array_equal(lhs, rhs)


# --- product-table kernel ----------------------------------------------------

#: Bytes with zero drawn often: both zero coefficients and zero data
#: bytes hit the table's masked row/column 0.
BYTE = st.one_of(st.just(0), ELEM)


def _reference_matmul(mat, data):
    """Scalar GF(2^8) matrix product, one gf_mul per term."""
    m, k = mat.shape
    out = np.zeros((m, data.shape[1]), dtype=np.uint8)
    for i in range(m):
        for b in range(data.shape[1]):
            acc = 0
            for j in range(k):
                acc ^= gf_mul(int(mat[i, j]), int(data[j, b]))
            out[i, b] = acc
    return out


def test_product_table_matches_scalar_mul():
    table = np.array([[gf_mul(a, b) for b in range(256)] for a in range(256)], dtype=np.uint8)
    mul = _mul_table()
    assert mul.dtype == np.uint8 and not mul.flags.writeable
    assert np.array_equal(mul, table)


@given(
    st.data(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=48),
)
@settings(max_examples=60, deadline=None)
def test_matmul_matches_scalar_reference(draw, m, k, blocksize):
    mat = np.array(draw.draw(st.lists(BYTE, min_size=m * k, max_size=m * k)), dtype=np.uint8)
    cells = k * blocksize
    data = np.array(draw.draw(st.lists(BYTE, min_size=cells, max_size=cells)), dtype=np.uint8)
    mat, data = mat.reshape(m, k), data.reshape(k, blocksize)
    assert np.array_equal(gf_matmul(mat, data), _reference_matmul(mat, data))


def test_matmul_large_block_matches_reference():
    """m*k*blocksize above 64 MiB (the old broadcast budget): same kernel."""
    m, k, blocksize = 4, 4, (1 << 22) + 1
    assert m * k * blocksize > 1 << 26
    rng = np.random.default_rng(7)
    mat = rng.integers(0, 256, (m, k), dtype=np.uint8)
    mat[0, 1] = 0
    data = rng.integers(0, 256, (k, blocksize), dtype=np.uint8)
    data[:, ::97] = 0
    out = gf_matmul(mat, data)
    for i in range(m):
        expected = np.zeros(blocksize, dtype=np.uint8)
        for j in range(k):
            # Byte map "multiply by mat[i, j]" built from scalar gf_mul.
            row = np.array([gf_mul(int(mat[i, j]), b) for b in range(256)], dtype=np.uint8)
            expected ^= row[data[j]]
        assert np.array_equal(out[i], expected)
