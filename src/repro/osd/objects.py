"""In-memory object store backing one OSD (a miniature BlueStore).

Objects are sparse: each is a page map, a ``list`` of :data:`PAGE`-byte
page slots in which ``None`` is a hole that was never written.  Only the
last page may be short and it is never a hole, so an object's logical
size is ``(len(pages) - 1) * PAGE + len(pages[-1])`` with no separate
size field.  Reads of holes and beyond EOF return zeros (like a
filesystem hole).  A 4 KiB write into a 4 MiB RBD object therefore
allocates one page plus the last one, not 4 MiB, and a 1 KiB EC shard
object stays a single 1 KiB buffer.  Data is stored for real so
integrity round-trips (including EC reconstruction) are verifiable in
tests.

A page is a ``bytearray``, except that a whole-page write of an
immutable ``bytes`` stores that object itself: replicas written from one
payload, and prefill writes of one fill pattern, share its memory and
the store neither copies nor first-touches a fresh page.  A later
partial write or :meth:`corrupt` copies such a page into a
``bytearray`` before changing it, so sharing is never visible.

Like BlueStore, every write refreshes a stored whole-object checksum, so
scrub can tell *which* copy rotted even in 2-replica pools where a
majority vote ties.  The checksum is maintained lazily: a write marks
the object dirty and the digest is computed on first read of the
checksum (scrub/verify) — the write hot path never hashes.  The digest
is fed page by page, holes as a shared zero page, so it equals the
SHA-256 of the object's dense bytes.  A legitimate-write digest is
flushed before :meth:`corrupt` mutates bytes, so silent corruption is
still detectable: the stored checksum always reflects the last
legitimate write.
"""

from __future__ import annotations

import hashlib

from ..errors import StorageError

#: Page size of the object page map, in bytes.
PAGE = 4096
_SHIFT = PAGE.bit_length() - 1
_MASK = PAGE - 1
_ZERO_PAGE = bytes(PAGE)

#: One object: page slots, ``None`` for a hole (see the module docstring).
Pages = list[bytearray | bytes | None]


def _size(pages: Pages) -> int:
    return ((len(pages) - 1) << _SHIFT) + len(pages[-1])


def _digest(pages: Pages) -> str:
    h = hashlib.sha256()
    for page in pages:
        h.update(_ZERO_PAGE if page is None else page)
    return h.hexdigest()


def _grow(pages: Pages, size: int, end: int) -> None:
    """Extend ``pages`` with zeros from logical ``size`` to ``end``."""
    last = len(pages) - 1
    new_last = (end - 1) >> _SHIFT
    if new_last == last:
        pages[last].extend(bytes(end - size))
        return
    tail = pages[last]
    if not tail:
        pages[last] = None  # an empty object has nothing to pad
    elif len(tail) < PAGE:
        tail.extend(bytes(PAGE - len(tail)))
    pages.extend([None] * (new_last - last - 1))
    pages.append(bytearray(end - (new_last << _SHIFT)))


def _writable(pages: Pages, i: int) -> bytearray:
    """Page ``i`` as a ``bytearray`` of its own: a hole is allocated and
    a shared ``bytes`` page is copied (copy on write)."""
    page = pages[i]
    if type(page) is not bytearray:
        page = pages[i] = bytearray(PAGE) if page is None else bytearray(page)
    return page


def _put_pages(pages: Pages, offset: int, data: bytes) -> None:
    """Copy ``data`` (spanning more than one page) into the pages covering
    ``[offset, offset+len)``, which lie within the object's logical size."""
    n = len(data)
    view = memoryview(data)
    pos = 0
    lo = offset & _MASK
    for i in range(offset >> _SHIFT, ((offset + n - 1) >> _SHIFT) + 1):
        take = min(PAGE - lo, n - pos)
        if take == PAGE:
            pages[i] = bytearray(view[pos : pos + PAGE])
        else:
            _writable(pages, i)[lo : lo + take] = view[pos : pos + take]
        pos += take
        lo = 0


class ObjectStore:
    """name -> sparse page map, with usage accounting and checksums."""

    def __init__(self, capacity_bytes: int | None = None):
        self._objects: dict[str, Pages] = {}
        self._checksums: dict[str, str] = {}
        #: Objects whose checksum is stale (recomputed on demand).
        self._dirty: set[str] = set()
        self._used = 0
        self.capacity_bytes = capacity_bytes

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def used_bytes(self) -> int:
        """Sum of logical object sizes, holes included.

        This is what the capacity check and WAL recovery accounting
        charge; the bytes held in pages are :attr:`allocated_bytes`.
        """
        return self._used

    @property
    def allocated_bytes(self) -> int:
        """Bytes held in page buffers: the logical size minus holes.

        A page shared by reference counts in every slot that holds it,
        so this bounds the store's resident memory from above.
        """
        return sum(
            len(page) for pages in self._objects.values() for page in pages if page is not None
        )

    def object_names(self) -> list[str]:
        """Sorted object names (for scrub/recovery iteration)."""
        return sorted(self._objects)

    def object_size(self, name: str) -> int:
        """Current logical size of an object (0 if absent)."""
        pages = self._objects.get(name)
        return _size(pages) if pages is not None else 0

    def _put(self, name: str, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset``, creating and growing the object as
        needed (growth is charged to :attr:`used_bytes`)."""
        n = len(data)
        end = offset + n
        pages = self._objects.get(name)
        if pages is None:
            pages = self._objects[name] = [bytearray()]
            size = 0
        else:
            size = ((len(pages) - 1) << _SHIFT) + len(pages[-1])
        if size < end:
            _grow(pages, size, end)
            self._used += end - size
        if not n:
            return
        lo = offset & _MASK
        if lo + n <= PAGE:  # one page: no loop
            i = offset >> _SHIFT
            if n == PAGE and type(data) is bytes:
                pages[i] = data  # immutable: share it instead of copying
                return
            _writable(pages, i)[lo : lo + n] = data
        else:
            _put_pages(pages, offset, data)

    def write(self, name: str, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, growing the object as needed."""
        if offset < 0:
            raise StorageError(f"negative write offset {offset}")
        if self.capacity_bytes is not None:
            projected = self._used + max(0, offset + len(data) - self.object_size(name))
            if projected > self.capacity_bytes:
                raise StorageError(
                    f"device full: {projected} > capacity {self.capacity_bytes}"
                )
        self._put(name, offset, data)
        self._dirty.add(name)

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; holes and EOF read as zeros."""
        if offset < 0 or length < 0:
            raise StorageError(f"invalid read extent ({offset}, {length})")
        pages = self._objects.get(name)
        if pages is None:
            raise StorageError(f"no such object {name!r}")
        lo = offset & _MASK
        if lo + length <= PAGE:  # one page: no loop
            i = offset >> _SHIFT
            page = pages[i] if i < len(pages) else None
            if page is None:
                return bytes(length)
            chunk = bytes(page[lo : lo + length])
        else:
            parts = []
            end = offset + length
            for i in range(offset >> _SHIFT, min((end - 1) >> _SHIFT, len(pages) - 1) + 1):
                hi = min(PAGE, end - (i << _SHIFT))
                page = pages[i]
                parts.append(_ZERO_PAGE[lo:hi] if page is None else page[lo:hi])
                lo = 0
            chunk = b"".join(parts)
        if len(chunk) < length:
            chunk += bytes(length - len(chunk))
        return chunk

    def clear(self) -> None:
        """Drop every object and checksum (a revived OSD starts empty:
        its pre-failure content is stale and must be backfilled)."""
        self._objects.clear()
        self._checksums.clear()
        self._dirty.clear()
        self._used = 0

    def delete(self, name: str) -> None:
        """Remove an object."""
        pages = self._objects.get(name)
        if pages is None:
            raise StorageError(f"no such object {name!r}")
        self._used -= _size(pages)
        del self._objects[name]
        self._checksums.pop(name, None)
        self._dirty.discard(name)

    # -- integrity -------------------------------------------------------------

    def _flush_checksum(self, name: str) -> None:
        """Materialize the pending legitimate-write checksum, if any."""
        if name in self._dirty:
            self._checksums[name] = _digest(self._objects[name])
            self._dirty.discard(name)

    def corrupt(self, name: str, offset: int, junk: bytes) -> None:
        """Fault injection: alter stored bytes WITHOUT updating the
        checksum — silent media corruption."""
        if name not in self._objects:
            raise StorageError(f"no such object {name!r}")
        if offset < 0:
            raise StorageError(f"negative corrupt offset {offset}")
        # The stored checksum must keep describing the last legitimate
        # write, so settle any lazily deferred digest first.
        self._flush_checksum(name)
        self._put(name, offset, junk)

    def stored_checksum(self, name: str) -> str:
        """The checksum recorded at last legitimate write."""
        self._flush_checksum(name)
        if name not in self._checksums:
            raise StorageError(f"no checksum for object {name!r}")
        return self._checksums[name]

    def verify(self, name: str) -> bool:
        """True when current content matches the stored checksum."""
        pages = self._objects.get(name)
        if pages is None:
            raise StorageError(f"no such object {name!r}")
        self._flush_checksum(name)
        return _digest(pages) == self._checksums.get(name)
