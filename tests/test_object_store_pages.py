"""The sparse page-map ObjectStore against a dense bytearray reference."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.osd import ObjectStore
from repro.osd.objects import PAGE
from repro.units import kib, mib


class DenseStore:
    """Reference model: one zero-extended bytearray per object."""

    def __init__(self):
        self.objects: dict[str, bytearray] = {}
        self.checksums: dict[str, str] = {}

    def _put(self, name, offset, data):
        buf = self.objects.setdefault(name, bytearray())
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(bytes(end - len(buf)))
        buf[offset:end] = data

    def write(self, name, offset, data):
        self._put(name, offset, data)
        self.checksums[name] = hashlib.sha256(self.objects[name]).hexdigest()

    def corrupt(self, name, offset, data):
        self._put(name, offset, data)

    def read(self, name, offset, length):
        return bytes(self.objects[name][offset : offset + length]).ljust(length, b"\x00")

    def delete(self, name):
        del self.objects[name]
        del self.checksums[name]

    def verify(self, name):
        return hashlib.sha256(self.objects[name]).hexdigest() == self.checksums[name]

    @property
    def used_bytes(self):
        return sum(len(buf) for buf in self.objects.values())


#: Offsets cluster around page boundaries so extents straddle them.
offsets = st.one_of(
    st.integers(0, 3 * PAGE),
    st.builds(lambda page: page * PAGE, st.integers(0, 12)),
    st.builds(
        lambda page, delta: max(0, page * PAGE + delta), st.integers(0, 12), st.integers(-8, 8)
    ),
)
#: Lengths: empty, small, EC-shard sized (1 KiB), a page, multi-page.
lengths = st.one_of(
    st.integers(0, 16),
    st.sampled_from([kib(1), PAGE - 1, PAGE, PAGE + 1]),
    st.integers(0, 3 * PAGE),
)
#: Whole-page payload objects reused across writes, names and corrupts,
#: so a page shared by reference is later changed through one slot.
SHARED = [bytes([7]) * PAGE, bytes(range(256)) * (PAGE // 256), bytearray(b"\x09" * PAGE)]
payloads = st.one_of(
    st.builds(
        lambda seed, n: bytes((seed + i) % 251 + 1 for i in range(n)), st.integers(0, 250), lengths
    ),
    st.sampled_from(SHARED),
)
names = st.sampled_from(["a", "b"])
ops = st.one_of(
    st.tuples(st.just("write"), names, offsets, payloads),
    st.tuples(st.just("corrupt"), names, offsets, payloads),
    st.tuples(st.just("read"), names, offsets, lengths),
    st.tuples(st.just("delete"), names),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=25))
def test_page_map_matches_dense_reference(script):
    store, ref = ObjectStore(), DenseStore()
    for op, name, *args in script:
        if name not in ref.objects and op != "write":
            with pytest.raises(StorageError):
                getattr(store, op)(name, *args)
            continue
        expected = getattr(ref, op)(name, *args)
        assert getattr(store, op)(name, *args) == expected, (op, name, args)
        for key in ("a", "b"):
            assert (key in store) == (key in ref.objects)
            assert store.object_size(key) == len(ref.objects.get(key, b""))
            if key in ref.objects:
                assert store.verify(key) == ref.verify(key)
                assert store.stored_checksum(key) == ref.checksums[key]
                assert store.read(key, 0, len(ref.objects[key])) == ref.objects[key]
        assert store.used_bytes == ref.used_bytes
        assert len(store) == len(ref.objects)
        assert store.allocated_bytes <= store.used_bytes


def test_zero_length_write_past_eof_grows_object():
    store = ObjectStore()
    store.write("a", 0, b"x")
    store.write("a", 3 * PAGE + 10, b"")
    assert store.object_size("a") == store.used_bytes == 3 * PAGE + 10
    assert store.read("a", 0, 3 * PAGE + 10) == b"x" + bytes(3 * PAGE + 9)
    # A fresh object written empty at an offset is all hole but the tail.
    store.write("b", 2 * PAGE, b"")
    assert store.object_size("b") == 2 * PAGE
    # a: page 0 padded to a full page plus a 10-byte tail; b: its tail page.
    assert store.allocated_bytes == (PAGE + 10) + PAGE


def test_shared_page_is_copied_before_it_changes():
    store = ObjectStore()
    payload = bytes([3]) * PAGE
    store.write("a", 0, payload)
    store.write("b", PAGE, payload)
    store.corrupt("a", 10, b"rot")
    store.write("b", PAGE + 1, b"new")
    assert store.read("a", 0, PAGE) == payload[:10] + b"rot" + payload[13:]
    assert store.read("b", PAGE, PAGE) == payload[:1] + b"new" + payload[4:]
    assert payload == bytes([3]) * PAGE
    assert not store.verify("a") and store.verify("b")


def test_mutable_payload_is_copied():
    store = ObjectStore()
    payload = bytearray(b"x" * PAGE)
    store.write("a", 0, payload)
    payload[0:1] = b"y"
    assert store.read("a", 0, 1) == b"x" and store.verify("a")


def test_shard_object_is_one_buffer():
    store = ObjectStore()
    store.write("shard", 0, b"s" * kib(1))
    store.write("shard", 0, b"t" * kib(1))
    assert store.allocated_bytes == store.used_bytes == kib(1)


def test_random_4k_writes_allocate_at_most_twice_the_bytes_written():
    rng = random.Random(7)
    store = ObjectStore()
    written = 0
    for _ in range(100):
        block = rng.randrange(mib(4) // kib(4))
        store.write("rbd_data.0", block * kib(4), bytes([rng.randrange(1, 256)]) * kib(4))
        written += kib(4)
    assert store.allocated_bytes <= 2 * written
    # The dense layout would have held the whole span up to the last write.
    assert store.used_bytes == store.object_size("rbd_data.0") > mib(3)
