"""Tests for the media model and the object store."""

import pytest

from repro.errors import StorageError
from repro.osd import HDD, NVME_SSD, ObjectStore, StorageDevice
from repro.sim import Environment, RngRegistry
from repro.units import kib, us


def run_io(device, ios):
    """ios: list of (kind, obj, offset, length[, seq]); returns per-op times."""
    env = device.env
    times = []

    def proc(env):
        for io in ios:
            start = env.now
            if io[0] == "r":
                yield from device.read(io[1], io[2], io[3])
            else:
                yield from device.write(io[1], io[2], io[3], io[4])
            times.append(env.now - start)

    env.process(proc(env))
    env.run()
    return times


def make_device(profile=NVME_SSD):
    env = Environment()
    return StorageDevice(env, profile, name="d0")


# --- device model ------------------------------------------------------------


def test_random_read_latency_matches_profile():
    dev = make_device()
    (t,) = run_io(dev, [("r", "o", 0, 4096)])
    # rand read 22us + ~1.4us transfer
    assert us(20) < t < us(28)


def test_sequential_reads_hit_readahead():
    dev = make_device()
    ios = [("r", "o", i * 4096, 4096) for i in range(8)]
    times = run_io(dev, ios)
    assert times[0] > us(20)  # first miss
    assert all(t < us(8) for t in times[1:]), times


def test_readahead_window_refill():
    dev = make_device()
    dev.readahead_window = 16 * 4096
    ios = [("r", "o", i * 4096, 4096) for i in range(40)]
    times = run_io(dev, ios)
    refills = sum(1 for t in times[1:] if t > us(10))
    assert 1 <= refills <= 3  # one media fetch per window


def test_non_contiguous_read_breaks_stream():
    dev = make_device()
    times = run_io(dev, [("r", "o", 0, 4096), ("r", "o", kib(512), 4096)])
    assert times[1] > us(20)


def test_write_latency_seq_vs_rand():
    dev = make_device()
    t_seq, t_rand = run_io(
        dev, [("w", "o", 0, 4096, True), ("w", "o", kib(64), 4096, False)]
    )
    assert t_seq < t_rand


def test_hdd_random_read_is_milliseconds():
    dev = make_device(HDD)
    (t,) = run_io(dev, [("r", "o", 0, 4096)])
    assert t > 3_000_000  # > 3 ms


def test_device_jitter_deterministic_by_seed():
    def total(seed):
        env = Environment()
        dev = StorageDevice(env, NVME_SSD, rng=RngRegistry(seed).stream("d"), name="d")
        return sum(run_io(dev, [("r", "o", kib(64) * i, 4096) for i in range(5)]))

    assert total(1) == total(1)
    assert total(1) != total(2)


def test_device_counters():
    dev = make_device()
    run_io(dev, [("r", "o", 0, 4096), ("w", "o", 0, 8192, True)])
    assert dev.reads == 1 and dev.writes == 1
    assert dev.bytes_read == 4096 and dev.bytes_written == 8192


def test_device_invalid_lengths():
    dev = make_device()
    with pytest.raises(StorageError):
        next(dev.read("o", 0, 0))
    with pytest.raises(StorageError):
        next(dev.write("o", 0, -1, True))


def test_device_channel_contention():
    env = Environment()
    dev = StorageDevice(env, NVME_SSD, name="d")
    done = []

    def reader(env, i):
        yield from dev.read(f"obj{i}", 0, 4096)
        done.append(env.now)

    for i in range(16):  # 2x the 8 channels
        env.process(reader(env, i))
    env.run()
    assert max(done) > min(done)  # second wave queued behind the first


# --- object store ---------------------------------------------------------------


def test_object_store_roundtrip():
    store = ObjectStore()
    store.write("a", 0, b"hello")
    assert store.read("a", 0, 5) == b"hello"


def test_object_store_sparse_holes():
    store = ObjectStore()
    store.write("a", 100, b"xy")
    assert store.read("a", 0, 4) == b"\x00" * 4
    assert store.read("a", 100, 2) == b"xy"


def test_object_store_read_past_eof_zero_fills():
    store = ObjectStore()
    store.write("a", 0, b"abc")
    assert store.read("a", 0, 6) == b"abc\x00\x00\x00"


def test_object_store_overwrite():
    store = ObjectStore()
    store.write("a", 0, b"aaaa")
    store.write("a", 1, b"bb")
    assert store.read("a", 0, 4) == b"abba"


def test_object_store_missing_object():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.read("nope", 0, 1)
    with pytest.raises(StorageError):
        store.delete("nope")


def test_object_store_capacity():
    store = ObjectStore(capacity_bytes=10)
    store.write("a", 0, b"12345")
    with pytest.raises(StorageError):
        store.write("b", 0, b"123456789")
    store.write("b", 0, b"12345")  # exactly fits


def test_object_store_accounting():
    store = ObjectStore()
    store.write("a", 0, b"12345")
    store.write("b", 0, b"123")
    assert store.used_bytes == 8
    assert len(store) == 2
    assert store.object_names() == ["a", "b"]
    assert store.object_size("a") == 5
    store.delete("a")
    assert store.used_bytes == 3


def test_object_store_validation():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.write("a", -1, b"x")
    store.write("a", 0, b"x")
    with pytest.raises(StorageError):
        store.read("a", -1, 1)


def test_object_store_checksums_track_writes():
    store = ObjectStore()
    store.write("a", 0, b"hello")
    assert store.verify("a")
    store.write("a", 5, b" world")
    assert store.verify("a")
    first = store.stored_checksum("a")
    store.write("a", 0, b"H")
    assert store.stored_checksum("a") != first


def test_object_store_corrupt_breaks_verify():
    store = ObjectStore()
    store.write("a", 0, b"clean-data")
    store.corrupt("a", 0, b"DIRT")
    assert not store.verify("a")
    # Re-writing legitimately heals the checksum.
    store.write("a", 0, b"clean-data")
    assert store.verify("a")


def test_object_store_checksum_validation():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.stored_checksum("missing")
    with pytest.raises(StorageError):
        store.verify("missing")
    with pytest.raises(StorageError):
        store.corrupt("missing", 0, b"x")
    store.write("a", 0, b"x")
    with pytest.raises(StorageError):
        store.corrupt("a", -1, b"x")


def test_object_store_delete_clears_checksum():
    store = ObjectStore()
    store.write("a", 0, b"x")
    store.delete("a")
    with pytest.raises(StorageError):
        store.stored_checksum("a")


@pytest.mark.parametrize("kill_at", ["queued", "granted"])
def test_flush_killed_at_the_barrier_lock_frees_it(kill_at):
    """A flush killed while queued for the barrier lock, or in the ns the
    lock was handed to it, leaves the lock free for the next flush."""
    from repro.errors import ProcessKilled

    env = Environment()
    device = StorageDevice(env, NVME_SSD, name="d")
    first = env.process(device.flush())
    victim = env.process(device.flush())

    def killer():
        if kill_at == "queued":
            yield env.timeout(1)
        else:
            # Two hops, so this wake-up is queued behind the first
            # flush's release of the lock.
            yield env.timeout(NVME_SSD.flush_ns // 2)
            yield env.timeout(NVME_SSD.flush_ns - NVME_SSD.flush_ns // 2)
            assert victim._target.triggered and not victim._target.processed
        victim.interrupt()

    env.process(killer())
    env.run()
    assert first.ok
    assert not victim.ok and isinstance(victim.value, ProcessKilled)
    assert device._flush_lock.count == 0 and device._flush_lock.queue_len == 0
