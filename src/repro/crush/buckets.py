"""The five CRUSH bucket types.

Each bucket holds a set of items (device ids >= 0 or child bucket ids < 0)
with 16.16 fixed-point weights and implements ``choose(x, r)``: a
deterministic pseudo-random selection of one item for input ``x`` and
replica rank ``r``.  The algorithms are ports of Ceph's ``crush/mapper.c``
/ ``crush/builder.c``:

* **uniform** — O(1), equal weights only (hash-permuted index);
* **list** — O(n) head-biased walk, optimal for incremental expansion;
* **tree** — O(log n) weighted binary tree descent;
* **straw** — O(n) weighted straw race with builder-computed straw lengths;
* **straw2** — O(n) exponential race via the fixed-point log table,
  with mathematically optimal data movement on weight change.

These are exactly the kernels DeLiBA-K offloads to RTL accelerators
(paper Table I), so each ``choose`` also reports an abstract *work*
metric (`ops`) used by the software-profiling cost model.

``choose_many(xs, rs)`` is ``choose`` over many inputs at once, for the
batched rule walk; straw2 runs it as one numpy race over every
(input, item) pair, the other algorithms loop over ``choose``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CrushError
from .hashing import hash32_3, hash32_3_many, hash32_4
from .ln_table import LN_ONE, crush_ln_many, ln_of_uniform_u16
from .types import BucketAlg, WEIGHT_ONE


class Bucket:
    """Base class: an internal node of the CRUSH hierarchy."""

    alg: BucketAlg

    def __init__(self, bucket_id: int, items: Sequence[int], weights: Sequence[int], name: str = ""):
        if bucket_id >= 0:
            raise CrushError(f"bucket ids must be negative, got {bucket_id}")
        if len(items) != len(weights):
            raise CrushError(f"{len(items)} items but {len(weights)} weights")
        if len(set(items)) != len(items):
            raise CrushError(f"duplicate items in bucket {bucket_id}: {items}")
        if any(w < 0 for w in weights):
            raise CrushError(f"negative weight in bucket {bucket_id}")
        self.id = bucket_id
        self.name = name or f"bucket{bucket_id}"
        self.items = list(items)
        self.weights = list(weights)
        #: abstract operation count of the last choose() call (for profiling)
        self.last_ops = 0

    @property
    def size(self) -> int:
        """Number of items in the bucket."""
        return len(self.items)

    @property
    def weight(self) -> int:
        """Total fixed-point weight of the bucket."""
        return sum(self.weights)

    def choose(self, x: int, r: int) -> int:
        """Select the item for input ``x`` and replica rank ``r``."""
        raise NotImplementedError

    def choose_many(self, xs: Sequence[int], rs: Sequence[int]) -> list[int]:
        """``[choose(x, r) for x, r in zip(xs, rs)]``."""
        return [self.choose(x, r) for x, r in zip(xs, rs)]

    def item_weight(self, item: int) -> int:
        """Fixed-point weight of ``item`` within this bucket."""
        return self.weights[self.items.index(item)]

    def adjust_item_weight(self, item: int, weight: int) -> int:
        """Set ``item``'s weight; returns the delta for parent propagation."""
        idx = self.items.index(item)
        delta = weight - self.weights[idx]
        self.weights[idx] = weight
        self._rebuild()
        return delta

    def add_item(self, item: int, weight: int) -> None:
        """Append a new item."""
        if item in self.items:
            raise CrushError(f"item {item} already in bucket {self.id}")
        self.items.append(item)
        self.weights.append(weight)
        self._rebuild()

    def remove_item(self, item: int) -> int:
        """Remove ``item``; returns the weight that disappeared."""
        idx = self.items.index(item)
        weight = self.weights[idx]
        del self.items[idx]
        del self.weights[idx]
        self._rebuild()
        return weight

    def _rebuild(self) -> None:
        """Recompute derived structures after a membership/weight change."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} id={self.id} size={self.size}>"


class UniformBucket(Bucket):
    """Equal-weight bucket with O(1) selection.

    All items must share one weight (uniform hardware).  Selection hashes
    (x, r, bucket id) to an index — the constant-time path the paper's
    Uniform RTL accelerator implements.
    """

    alg = BucketAlg.UNIFORM

    def __init__(self, bucket_id: int, items: Sequence[int], item_weight: int, name: str = ""):
        super().__init__(bucket_id, items, [item_weight] * len(items), name)
        self.per_item_weight = item_weight

    def choose(self, x: int, r: int) -> int:
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        self.last_ops = 1
        idx = hash32_3(x, r, self.id) % len(self.items)
        return self.items[idx]

    def add_item(self, item: int, weight: int) -> None:
        if weight != self.per_item_weight:
            raise CrushError(
                f"uniform bucket {self.id} requires weight {self.per_item_weight}, got {weight}"
            )
        super().add_item(item, weight)


class ListBucket(Bucket):
    """Head-biased linked-list bucket (optimal for cluster expansion).

    Walks items newest-first; at each item draws a 16-bit hash scaled by
    the cumulative weight and stops if the draw falls within the item's
    weight — newly added devices capture exactly their fair share while
    older placements stay put.
    """

    alg = BucketAlg.LIST

    def __init__(self, bucket_id: int, items: Sequence[int], weights: Sequence[int], name: str = ""):
        super().__init__(bucket_id, items, weights, name)
        self._rebuild()

    def _rebuild(self) -> None:
        # sum_weights[i] = total weight of items[0..i] (head of list = last added).
        self._sums = []
        total = 0
        for w in self.weights:
            total += w
            self._sums.append(total)

    def choose(self, x: int, r: int) -> int:
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        ops = 0
        for i in range(len(self.items) - 1, -1, -1):
            ops += 1
            if self.weights[i] == 0:
                continue
            w = hash32_4(x, self.items[i], r, self.id) & 0xFFFF
            w = (w * self._sums[i]) >> 16
            if w < self.weights[i]:
                self.last_ops = ops
                return self.items[i]
        self.last_ops = ops
        return self.items[0]


class TreeBucket(Bucket):
    """Weighted binary-tree bucket with O(log n) selection.

    Uses Ceph's implicit node numbering: leaves live at odd indices
    1,3,5,...; an internal node's height is the number of trailing zero
    bits, and children sit at ``n +/- 2**(h-1)``.
    """

    alg = BucketAlg.TREE

    def __init__(self, bucket_id: int, items: Sequence[int], weights: Sequence[int], name: str = ""):
        super().__init__(bucket_id, items, weights, name)
        self._rebuild()

    @staticmethod
    def _height(n: int) -> int:
        h = 0
        while n and not (n & 1):
            h += 1
            n >>= 1
        return h

    @staticmethod
    def _left(n: int, h: int) -> int:
        return n - (1 << (h - 1))

    @staticmethod
    def _right(n: int, h: int) -> int:
        return n + (1 << (h - 1))

    def _rebuild(self) -> None:
        n = len(self.items)
        if n == 0:
            self._node_weights = [0]
            self._depth = 0
            return
        # depth: smallest tree whose 2**(depth-1) leaves fit n items.
        depth = 1 if n == 1 else (n - 1).bit_length() + 1
        num_nodes = 1 << depth
        self._depth = depth
        self._node_weights = [0] * num_nodes
        # Leaves at odd indices 1, 3, 5, ...; padding leaves stay zero.
        for i, w in enumerate(self.weights):
            self._node_weights[2 * i + 1] = w
        # Internal node at height h sums its two children at height h-1.
        for h in range(1, depth):
            step = 1 << h
            half = step >> 1
            for node in range(step, num_nodes, 2 * step):
                self._node_weights[node] = (
                    self._node_weights[node - half] + self._node_weights[node + half]
                )

    def choose(self, x: int, r: int) -> int:
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        if len(self.items) == 1:
            self.last_ops = 1
            return self.items[0]
        num_nodes = len(self._node_weights)
        n = num_nodes >> 1  # root
        ops = 0
        while self._height(n) != 0:
            ops += 1
            h = self._height(n)
            w = self._node_weights[n]
            if w == 0:
                raise CrushError(f"tree bucket {self.id}: zero-weight subtree at node {n}")
            t = (hash32_4(x, n, r, self.id) * w) >> 32
            left = self._left(n, h)
            if t < self._node_weights[left]:
                n = left
            else:
                n = self._right(n, h)
        self.last_ops = max(1, ops)
        leaf_index = n >> 1
        if leaf_index >= len(self.items):
            # Padding leaf with zero weight can't be reached when weights
            # propagate correctly, but guard anyway.
            raise CrushError(f"tree bucket {self.id}: descended to padding leaf {n}")
        return self.items[leaf_index]


class StrawBucket(Bucket):
    """Original straw bucket: every item draws a scaled straw; longest wins.

    Straw lengths are computed with Ceph's builder algorithm
    (``crush_calc_straw``), which sorts items by weight and solves for the
    scaling factors that make selection probability proportional to weight
    *in expectation for the original weight distribution* (straw's known
    flaw — changing one weight can reshuffle unrelated items — is what
    straw2 fixed, and is visible in our property tests).
    """

    alg = BucketAlg.STRAW

    def __init__(self, bucket_id: int, items: Sequence[int], weights: Sequence[int], name: str = ""):
        super().__init__(bucket_id, items, weights, name)
        self._rebuild()

    def _rebuild(self) -> None:
        self._straws = self._calc_straws(self.weights)

    @staticmethod
    def _calc_straws(weights: Sequence[int]) -> list[int]:
        """Straw lengths for the given weights (corrected-builder algorithm).

        Processes distinct weight classes in ascending order.  When moving
        from class ``w_cur`` to the next class, the accumulated "consumed"
        weight below (`wbelow`) and the weight span to the next class
        (`wnext`) give the probability that the winner lies below; the
        straw scale for the remaining items grows by
        ``(1/pbelow) ** (1/numleft)`` — the closed form from the original
        CRUSH builder (with Ceph's straw_calc_version=1 tie/zero fixes).
        """
        size = len(weights)
        straws = [0] * size
        if size == 0:
            return straws
        nonzero = sum(1 for w in weights if w > 0)
        if nonzero == 0:
            return straws
        order = sorted(range(size), key=lambda i: weights[i])
        straw = 1.0
        wbelow = 0.0
        lastw = 0.0
        i = 0
        while i < size:
            w_cur = weights[order[i]]
            if w_cur == 0:
                straws[order[i]] = 0
                i += 1
                continue
            straws[order[i]] = int(straw * 0x10000)
            i += 1
            if i == size:
                break
            w_next = weights[order[i]]
            if w_next == w_cur:
                continue
            # Items with weight >= current class (all remaining plus the
            # class just finished, counted among nonzero items only).
            n_ge_cur = sum(1 for w in weights if w >= w_cur)
            wbelow += (w_cur - lastw) * n_ge_cur
            n_ge_next = size - i
            wnext = n_ge_next * (w_next - w_cur)
            pbelow = wbelow / (wbelow + wnext)
            straw *= (1.0 / pbelow) ** (1.0 / n_ge_next)
            lastw = w_cur
        return straws

    def choose(self, x: int, r: int) -> int:
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        high = 0
        high_draw = -1
        for i, item in enumerate(self.items):
            draw = (hash32_3(x, item, r) & 0xFFFF) * self._straws[i]
            if draw > high_draw:
                high = i
                high_draw = draw
        self.last_ops = len(self.items)
        return self.items[high]


class Straw2Bucket(Bucket):
    """straw2: weighted exponential race using the fixed-point log table.

    Draw ``u ~ U[0, 2^16)`` per item, compute ``ln(u) / weight`` in fixed
    point, pick the maximum.  Selection probability is exactly
    proportional to weight for *any* weight vector, and adjusting one
    item's weight only moves data to/from that item.
    """

    alg = BucketAlg.STRAW2

    _S64_MIN = -(1 << 63)

    def choose(self, x: int, r: int) -> int:
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        high = 0
        high_draw = None
        for i, item in enumerate(self.items):
            w = self.weights[i]
            if w:
                u = hash32_3(x, item, r) & 0xFFFF
                ln = ln_of_uniform_u16(u)
                # C's div64_s64 truncates toward zero; ln <= 0 so match that.
                draw = -((-ln) // w) if ln < 0 else ln // w
            else:
                draw = self._S64_MIN
            if high_draw is None or draw > high_draw:
                high = i
                high_draw = draw
        self.last_ops = len(self.items)
        return self.items[high]

    def choose_many(self, xs: Sequence[int], rs: Sequence[int]) -> list[int]:
        """:meth:`choose` for every (x, r) pair in one race over a 2-D array."""
        if not self.items:
            raise CrushError(f"choose() on empty bucket {self.id}")
        # A zero-weight item draws S64_MIN, which beats nothing else.
        live = [i for i, w in enumerate(self.weights) if w]
        if not live:
            return [self.items[0]] * len(xs)
        xs = np.array([x & 0xFFFFFFFF for x in xs], dtype=np.uint32)[:, None]
        rs = np.array([r & 0xFFFFFFFF for r in rs], dtype=np.uint32)[:, None]
        items = np.array([self.items[i] & 0xFFFFFFFF for i in live], dtype=np.uint32)
        weights = np.array([self.weights[i] for i in live], dtype=np.int64)
        ln = crush_ln_many(hash32_3_many(xs, items, rs)) - LN_ONE
        # ln <= 0 < w, so negating around floor division truncates toward
        # zero like C's div64_s64.
        draws = -((-ln) // weights)
        # argmax keeps the first maximum, as choose() keeps the first high draw.
        return [self.items[live[i]] for i in np.argmax(draws, axis=1).tolist()]


def make_bucket(
    alg: BucketAlg,
    bucket_id: int,
    items: Sequence[int],
    weights: Sequence[int],
    name: str = "",
    uniform_item_weight: Optional[int] = None,
) -> Bucket:
    """Factory: build a bucket of the requested algorithm."""
    if alg == BucketAlg.UNIFORM:
        if uniform_item_weight is None:
            uniq = set(weights)
            if len(uniq) > 1:
                raise CrushError(f"uniform bucket needs equal weights, got {sorted(uniq)}")
            uniform_item_weight = weights[0] if weights else WEIGHT_ONE
        return UniformBucket(bucket_id, items, uniform_item_weight, name)
    if alg == BucketAlg.LIST:
        return ListBucket(bucket_id, items, weights, name)
    if alg == BucketAlg.TREE:
        return TreeBucket(bucket_id, items, weights, name)
    if alg == BucketAlg.STRAW:
        return StrawBucket(bucket_id, items, weights, name)
    if alg == BucketAlg.STRAW2:
        return Straw2Bucket(bucket_id, items, weights, name)
    raise CrushError(f"unknown bucket algorithm {alg!r}")
