"""CRUSH's rjenkins1 32-bit integer hash family.

Faithful port of ``crush/hash.c`` from Ceph (Robert Jenkins' 1996 mix
function).  All arithmetic is modulo 2**32; Python ints are masked after
every step.  These hashes drive every pseudo-random decision CRUSH makes,
so determinism and exact 32-bit wraparound semantics matter.

:func:`hash32_3_many` is :func:`hash32_3` over numpy ``uint32`` arrays,
where the wraparound is native; the straw2 batch kernel uses it.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFF

#: Seed used by all rjenkins1 hash variants (from Ceph).
CRUSH_HASH_SEED = 1315423911


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """One round of Jenkins' 96-bit mix, in uint32 arithmetic."""
    a = (a - b) & _MASK
    a = (a - c) & _MASK
    a ^= c >> 13
    b = (b - c) & _MASK
    b = (b - a) & _MASK
    b = (b ^ (a << 8)) & _MASK
    c = (c - a) & _MASK
    c = (c - b) & _MASK
    c ^= b >> 13
    a = (a - b) & _MASK
    a = (a - c) & _MASK
    a ^= c >> 12
    b = (b - c) & _MASK
    b = (b - a) & _MASK
    b = (b ^ (a << 16)) & _MASK
    c = (c - a) & _MASK
    c = (c - b) & _MASK
    c ^= b >> 5
    a = (a - b) & _MASK
    a = (a - c) & _MASK
    a ^= c >> 3
    b = (b - c) & _MASK
    b = (b - a) & _MASK
    b = (b ^ (a << 10)) & _MASK
    c = (c - a) & _MASK
    c = (c - b) & _MASK
    c ^= b >> 15
    return a, b, c


def _mix_u32(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_mix` in place over three distinct ``uint32`` arrays."""
    a -= b
    a -= c
    a ^= c >> 13
    b -= c
    b -= a
    b ^= a << 8
    c -= a
    c -= b
    c ^= b >> 13
    a -= b
    a -= c
    a ^= c >> 12
    b -= c
    b -= a
    b ^= a << 16
    c -= a
    c -= b
    c ^= b >> 5
    a -= b
    a -= c
    a ^= c >> 3
    b -= c
    b -= a
    b ^= a << 10
    c -= a
    c -= b
    c ^= b >> 15
    return a, b, c


def hash32(a: int) -> int:
    """rjenkins1 hash of one 32-bit value."""
    a &= _MASK
    h = (CRUSH_HASH_SEED ^ a) & _MASK
    b = a
    x, y = 231232, 1232
    b, x, h = _mix(b, x, h)
    y, a, h = _mix(y, a, h)
    return h


def hash32_2(a: int, b: int) -> int:
    """rjenkins1 hash of two 32-bit values."""
    a &= _MASK
    b &= _MASK
    h = (CRUSH_HASH_SEED ^ a ^ b) & _MASK
    x, y = 231232, 1232
    a, b, h = _mix(a, b, h)
    x, a, h = _mix(x, a, h)
    b, y, h = _mix(b, y, h)
    return h


def hash32_3(a: int, b: int, c: int) -> int:
    """rjenkins1 hash of three 32-bit values."""
    a &= _MASK
    b &= _MASK
    c &= _MASK
    h = (CRUSH_HASH_SEED ^ a ^ b ^ c) & _MASK
    x, y = 231232, 1232
    a, b, h = _mix(a, b, h)
    c, x, h = _mix(c, x, h)
    y, a, h = _mix(y, a, h)
    b, x, h = _mix(b, x, h)
    y, c, h = _mix(y, c, h)
    return h


def hash32_3_many(a, b, c) -> np.ndarray:
    """:func:`hash32_3` elementwise over broadcast ``uint32`` arrays.

    Callers pass values already reduced to 32 bits (``uint32`` arrays or
    sequences of ints in ``[0, 2**32)``); the result has the broadcast
    shape.
    """
    a, b, c = (np.array(v, dtype=np.uint32) for v in np.broadcast_arrays(a, b, c))
    h = a ^ b ^ c ^ np.uint32(CRUSH_HASH_SEED)
    x = np.full_like(h, 231232)
    y = np.full_like(h, 1232)
    a, b, h = _mix_u32(a, b, h)
    c, x, h = _mix_u32(c, x, h)
    y, a, h = _mix_u32(y, a, h)
    b, x, h = _mix_u32(b, x, h)
    y, c, h = _mix_u32(y, c, h)
    return h


def hash32_4(a: int, b: int, c: int, d: int) -> int:
    """rjenkins1 hash of four 32-bit values."""
    a &= _MASK
    b &= _MASK
    c &= _MASK
    d &= _MASK
    h = (CRUSH_HASH_SEED ^ a ^ b ^ c ^ d) & _MASK
    x, y = 231232, 1232
    a, b, h = _mix(a, b, h)
    c, d, h = _mix(c, d, h)
    x, a, h = _mix(x, a, h)
    y, b, h = _mix(y, b, h)
    c, x, h = _mix(c, x, h)
    return h


def str_hash(name: str) -> int:
    """Hash an object name to 32 bits (rjenkins over bytes, like Ceph).

    Processes the UTF-8 bytes in 12-byte blocks through the same mix
    function — a compact port of ``ceph_str_hash_rjenkins``.
    """
    data = name.encode("utf-8")
    length = len(data)
    a = 0x9E3779B9
    b = a
    c = CRUSH_HASH_SEED
    pos = 0
    remaining = length
    while remaining >= 12:
        a = (a + int.from_bytes(data[pos : pos + 4], "little")) & _MASK
        b = (b + int.from_bytes(data[pos + 4 : pos + 8], "little")) & _MASK
        c = (c + int.from_bytes(data[pos + 8 : pos + 12], "little")) & _MASK
        a, b, c = _mix(a, b, c)
        pos += 12
        remaining -= 12
    c = (c + length) & _MASK
    tail = data[pos:] + b"\x00" * (11 - remaining)
    if remaining > 0:
        a = (a + int.from_bytes(tail[0:4], "little")) & _MASK
        b = (b + int.from_bytes(tail[4:8], "little")) & _MASK
        # The last block skips the low byte of c (length lives there).
        c = (c + (int.from_bytes(tail[8:11], "little") << 8)) & _MASK
    a, b, c = _mix(a, b, c)
    return c
