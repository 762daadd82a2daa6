"""Property tests for the epoch-keyed placement caches.

Two caches sit on the object -> PG -> acting-set path: the OSDMap's
shared PG table (one per pool per epoch) and the object cache on
:class:`repro.osd.client.RadosClient` in front of it.  Their contract:

* a cached answer is always identical to a freshly computed one against
  the current map (over random maps, pools, and object names);
* any epoch bump — device out/in, as driven by the OpPolicy failover
  refresh — invalidates every entry of both, so a stale acting set is
  never served; and
* hit/miss counters in the metrics registry reflect reality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import Mapper, build_flat_cluster, object_to_pg, pg_seed
from repro.net.stack import KERNEL_TCP
from repro.net.topology import Network
from repro.osd.client import RadosClient
from repro.osd.fabric import Fabric
from repro.osd.osdmap import OSDMap
from repro.sim import Environment, MetricsRegistry


def make_client(num_osds, pg_num, size, metrics=None):
    env = Environment()
    net = Network(env)
    net.add_host("h0")
    fabric = Fabric(env, net)
    fabric.register("c0", "h0", KERNEL_TCP)
    cmap, root = build_flat_cluster(num_osds)
    osdmap = OSDMap(cmap)
    for i in range(num_osds):
        osdmap.register_osd(i, "h0")
    pool = osdmap.create_replicated_pool("p", pg_num, size, root)
    client = RadosClient(env, fabric, osdmap, "c0", metrics=metrics)
    return client, osdmap, pool


def fresh_placement(osdmap, pool, name):
    """Ground truth: one scalar rule run, with no cache of any kind."""
    pg = object_to_pg(name, pool.pg_num)
    acting = Mapper(osdmap.crush).do_rule(pool.rule, pg_seed(pool.pool_id, pg), pool.size)
    # The client returns an immutable tuple (its cached entry must not
    # alias caller-visible state); compare values in the same shape.
    return tuple(acting)


def table_placement(osdmap, pool, name):
    """The answer of the map's shared PG table."""
    return osdmap.placement.object_to_osds(pool, name)[1]


@st.composite
def cluster_and_objects(draw):
    num_osds = draw(st.integers(min_value=4, max_value=12))
    pg_num = draw(st.sampled_from([8, 16, 32]))
    size = draw(st.integers(min_value=2, max_value=3))
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return num_osds, pg_num, size, names


@given(cluster_and_objects())
@settings(max_examples=25, deadline=None)
def test_cached_placement_equals_fresh_computation(case):
    num_osds, pg_num, size, names = case
    client, osdmap, pool = make_client(num_osds, pg_num, size)
    for name in names:
        first = client.compute_placement(pool, name)
        again = client.compute_placement(pool, name)  # cache hit
        assert again == first
        assert not client.last_was_miss
        assert first == fresh_placement(osdmap, pool, name)
        assert table_placement(osdmap, pool, name) == first


@given(cluster_and_objects(), st.data())
@settings(max_examples=25, deadline=None)
def test_epoch_bump_never_serves_stale_placement(case, data):
    """Interleave queries with OSD outs/ins (the same map mutations the
    OpPolicy failover refresh reacts to): after every bump the cache
    answer must match a fresh engine against the *current* map, and the
    client's cache epoch must track the map epoch."""
    num_osds, pg_num, size, names = case
    client, osdmap, pool = make_client(num_osds, pg_num, size)
    for name in names:
        client.compute_placement(pool, name)  # warm the cache
    downed = []
    steps = data.draw(st.integers(min_value=1, max_value=4))
    for _ in range(steps):
        can_down = len(downed) < num_osds - size
        if downed and (not can_down or data.draw(st.booleans())):
            osdmap.mark_up(downed.pop())
        elif can_down:
            osd = data.draw(
                st.sampled_from([i for i in range(num_osds) if i not in downed])
            )
            osdmap.mark_down(osd)
            downed.append(osd)
        for name in names:
            acting = client.compute_placement(pool, name)
            assert acting == fresh_placement(osdmap, pool, name)
            assert table_placement(osdmap, pool, name) == acting
            assert client._placement_epoch == osdmap.epoch
        for name in names:  # repeat queries inside the epoch are hits
            client.compute_placement(pool, name)
            assert not client.last_was_miss


def test_hit_miss_counters_track_cache_behavior():
    metrics = MetricsRegistry()
    client, osdmap, pool = make_client(8, 16, 3, metrics=metrics)
    hits = metrics.counter("client.placement_cache.hits")
    misses = metrics.counter("client.placement_cache.misses")
    names = [f"obj-{i}" for i in range(5)]
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (0, 5)
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (5, 5)
    osdmap.mark_down(0)  # epoch bump clears everything
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (5, 10)


def test_cache_key_separates_pools():
    client, osdmap, pool_a = make_client(8, 16, 3)
    cmap_root = osdmap.crush.roots()[0]
    pool_b = osdmap.create_replicated_pool("q", 8, 2, cmap_root)
    a = client.compute_placement(pool_a, "same-name")
    b = client.compute_placement(pool_b, "same-name")
    assert len(a) == 3 and len(b) == 2
    # Both entries live side by side and hit independently.
    assert client.compute_placement(pool_a, "same-name") == a
    assert client.compute_placement(pool_b, "same-name") == b
    assert not client.last_was_miss
