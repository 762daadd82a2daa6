"""Fixed-point natural-log lookup used by the straw2 bucket.

Port of ``crush_ln()`` from Ceph's ``crush/mapper.c``: a 64-bit
fixed-point approximation of ``2**44 * log2(x + 1)`` built from small
lookup tables (a reciprocal/log-high table over the top 8 bits and a
log-low correction table).  The tables are regenerated at import time
from the same defining formulas as Ceph's precomputed constants, so
behaviour matches the published algorithm while keeping this module
self-contained.

``straw2`` uses ``crush_ln(u16) - 2**48`` as a fixed-point sample of
``2**44 * log2(u/2**16)`` — i.e. the log of a uniform variate — turning
bucket selection into a weighted exponential race.

:func:`crush_ln_many` is the same computation over a numpy array, for
the straw2 batch kernel.
"""

from __future__ import annotations

import math

import numpy as np

# Keyed directly by index1 = 2*(x>>8) for normalized x in [0x8000, 0x10000]:
#   _RH[index1] = 2^56 / index1           (reciprocal)
#   _LH[index1] = 2^48 * log2(index1/256) (high log part)
# Ceiling division (matching Ceph's precomputed constants): if RH
# undershoots 2^56/index1 even slightly, the first input of a band
# computes residual 0x7fff instead of 0x8000 and picks up a whole-band
# log error from the LL table.
_RH = {i: -((-0x0100000000000000) // i) for i in range(256, 513)}
_LH = {i: int(round((1 << 48) * math.log2(i / 256.0))) for i in range(256, 513)}

# Low-order correction: _LL[j] = 2^48 * log2(1 + j/2^15), j in [0, 255].
_LL = [int(round((1 << 48) * math.log2(1.0 + j / 32768.0))) for j in range(256)]

# The same tables as int64 arrays indexed by index1 / index2.
_RH_ARRAY = np.array([_RH.get(i, 0) for i in range(513)], dtype=np.int64)
_LH_ARRAY = np.array([_LH.get(i, 0) for i in range(513)], dtype=np.int64)
_LL_ARRAY = np.array(_LL, dtype=np.int64)

#: 2**48 in the crush_ln fixed-point scale — the value of crush_ln(0xffff).
LN_ONE = 0x1000000000000


def crush_ln(xin: int) -> int:
    """Fixed-point ``2**44 * log2(xin + 1)`` for 16-bit inputs.

    Mirrors the bit manipulations of the kernel implementation: normalize
    the input into [2**15, 2**16], look up the high log and reciprocal for
    the top 8 bits, multiply out the residual and correct with the low
    table.
    """
    x = (xin & 0xFFFF) + 1

    # Normalize x into [0x8000, 0x10000] and track the exponent.
    iexpon = 15
    if not (x & 0x18000):
        bits = 16 - x.bit_length()
        x <<= bits
        iexpon = 15 - bits

    index1 = (x >> 8) << 1
    rh = _RH[index1]  # ~ 2^56 / index1
    lh = _LH[index1]  # ~ 2^48 * log2(index1/256)

    # rh*x ~ 2^48 * (2^15 + residual); the low byte indexes the correction.
    xl64 = (x * rh) >> 48
    index2 = xl64 & 0xFF
    ll = _LL[index2]

    result = iexpon << 44
    result += (lh + ll) >> 4
    return result


def crush_ln_many(xin) -> np.ndarray:
    """:func:`crush_ln` elementwise over an integer array (``int64`` result).

    Everything runs in ``int64`` except ``x * RH[index1]``, which reaches
    just above 2**63 for ``x = 0xffff`` and is taken in ``uint64`` through
    views (both factors are non-negative).
    """
    x = (np.asarray(xin, dtype=np.int64) & 0xFFFF) + 1
    # frexp's exponent is the bit length, so this shifts the top bit of x
    # to bit 15; clamping to 0xffff leaves 0x10000 unshifted, as in crush_ln.
    bits = 16 - np.frexp(np.minimum(x, 0xFFFF))[1].astype(np.int64)
    x <<= bits
    index1 = (x >> 8) << 1
    xl64 = (x.view(np.uint64) * _RH_ARRAY[index1].view(np.uint64)) >> np.uint64(48)
    ll = _LL_ARRAY[xl64.view(np.int64) & 0xFF]
    return ((15 - bits) << 44) + ((_LH_ARRAY[index1] + ll) >> 4)


def ln_of_uniform_u16(u: int) -> int:
    """``crush_ln(u) - 2**48``: a non-positive fixed-point log sample.

    This is exactly the quantity straw2 divides by the item weight.
    """
    return crush_ln(u) - LN_ONE
