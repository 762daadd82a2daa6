"""GF(2^8) arithmetic with NumPy-vectorized table lookups.

The field is built over the AES/Rijndael-compatible primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D, the polynomial used by ISA-L,
jerasure, and Ceph's Reed-Solomon plugins).  Scalar multiplication uses
log/antilog tables; bulk operations on byte arrays gather from a full
256x256 product table (one ``take`` per coefficient row), so the hot
loop is a table lookup plus an XOR per byte — encoding throughput
depends on it.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ErasureCodingError

#: The primitive polynomial (degree-8 bits dropped): x^8+x^4+x^3+x^2+1.
PRIMITIVE_POLY = 0x11D
#: Generator element used to build the log tables.
GENERATOR = 2
#: Field order.
ORDER = 256

# --- table construction (runs once at import) --------------------------------

_EXP = np.zeros(512, dtype=np.uint8)  # doubled to skip a modulo in mul
_LOG = np.zeros(256, dtype=np.int32)

_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


@functools.cache
def _mul_table() -> np.ndarray:
    """Full product table: ``_mul_table()[a, b] == gf_mul(a, b)``.

    Row ``a`` is the byte map "multiply by a", so scaling a block is one
    ``take``.  Row and column 0 stay zero (``_LOG[0]`` is a placeholder).
    Built on first use, a row at a time: runs that never touch an
    erasure-coded pool do not hold its 64 KiB.  Read-only, since every
    caller shares the one array.
    """
    table = np.zeros((ORDER, ORDER), dtype=np.uint8)
    for a in range(1, ORDER):
        table[a, 1:] = _EXP[_LOG[a] + _LOG[1:]]
    table.flags.writeable = False
    return table


def gf_add(a, b):
    """Addition in GF(2^8) is XOR (works on scalars and arrays)."""
    return np.bitwise_xor(a, b)


# Subtraction equals addition in characteristic 2.
gf_sub = gf_add


def gf_mul(a: int, b: int) -> int:
    """Scalar multiply."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_div(a: int, b: int) -> int:
    """Scalar divide; raises on division by zero."""
    if b == 0:
        raise ErasureCodingError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse."""
    if a == 0:
        raise ErasureCodingError("zero has no inverse in GF(2^8)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_pow(a: int, n: int) -> int:
    """a**n in the field (n may be any integer)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ErasureCodingError("zero has no negative powers")
        return 0
    return int(_EXP[(int(_LOG[a]) * n) % 255])


def gf_mul_array(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by ``scalar`` (vectorized).

    One gather from the product table's ``scalar`` row; always returns
    a new array.
    """
    return _mul_table()[scalar].take(np.asarray(data, dtype=np.uint8))


def gf_mul_add_array(acc: np.ndarray, scalar: int, data: np.ndarray) -> None:
    """``acc ^= scalar * data`` in place (the GF(2^8) axpy kernel)."""
    if scalar == 0:
        return
    np.bitwise_xor(acc, gf_mul_array(scalar, data), out=acc)


def gf_matmul(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Matrix-vector product over GF(2^8) on byte blocks.

    ``mat`` is (m, k) of uint8 coefficients; ``data`` is (k, blocksize)
    bytes.  Returns (m, blocksize).  Each output row is the axpy-sum of
    the input rows — the exact dataflow of the paper's Reed-Solomon
    encoder pipeline: ``out[i] = XOR_j mul[mat[i, j]].take(data[j])``
    with ``mul`` the product table.

    Input rows are visited in the outer loop so each is widened to an
    index array once and shared by all m outputs; the temporaries are
    one block-sized index row and one product row, whatever m and k.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    data = np.asarray(data, dtype=np.uint8)
    if mat.ndim != 2 or data.ndim != 2:
        raise ErasureCodingError(f"gf_matmul needs 2-D inputs, got {mat.shape} x {data.shape}")
    m, k = mat.shape
    if data.shape[0] != k:
        raise ErasureCodingError(f"shape mismatch: mat {mat.shape} vs data {data.shape}")
    blocksize = data.shape[1]
    if k == 0 or blocksize == 0:
        return np.zeros((m, blocksize), dtype=np.uint8)
    mul = _mul_table()
    out = np.empty((m, blocksize), dtype=np.uint8)
    rows = list(out)
    cols = mat.T.tolist()
    term = np.empty(blocksize, dtype=np.uint8)
    # Byte indices never leave [0, 256), so mode="clip" only skips the
    # bounds-checked (buffered) path of take(out=...).
    index = data[0].astype(np.intp)
    for acc, c in zip(rows, cols[0]):
        mul[c].take(index, out=acc, mode="clip")
    for j in range(1, k):
        index = data[j].astype(np.intp)
        for acc, c in zip(rows, cols[j]):
            mul[c].take(index, out=term, mode="clip")
            acc ^= term
    return out
