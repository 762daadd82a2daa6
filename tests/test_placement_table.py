"""The OSDMap's shared PG -> acting table (one per pool per epoch).

Every placement reader — clients, the recovery manager, the monitor's
stop-the-world recovery and the scrubber — reads the map's table, so one
epoch costs one batched CRUSH pass per pool however many readers look.
An epoch bump drops the table before any watcher runs.
"""

from repro.crush import Mapper, pg_seed
from repro.osd import ClusterSpec, build_cluster
from repro.osd.scrub import Scrubber
from repro.sim import Environment


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


def build():
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4))
    rep = cluster.create_replicated_pool("rep", pg_num=16, size=3)
    ec = cluster.create_erasure_pool("ec", pg_num=8, k=3, m=2)
    return env, cluster, rep, ec


def scalar_table(osdmap, pool):
    mapper = Mapper(osdmap.crush)
    return tuple(
        tuple(mapper.do_rule(pool.rule, pg_seed(pool.pool_id, pg), pool.size))
        for pg in range(pool.pg_num)
    )


def test_all_readers_share_one_fill_per_pool_per_epoch():
    env, cluster, rep, ec = build()
    osdmap = cluster.osdmap
    epoch = osdmap.epoch
    assert osdmap.placement.fills == 0  # pool creation bumps but reads nothing
    client, other = cluster.new_client("c0"), cluster.new_client("c1")
    for i in range(6):
        run(env, client.write_replicated(rep, f"r{i}", bytes([i]) * 512))
        run(env, other.write_ec(ec, f"e{i}", bytes([i]) * 3072))
        other.compute_placement(rep, f"r{i}")
        client.compute_placement(ec, f"e{i}")
    manager = cluster.enable_recovery()
    manager.kick()
    run(env, manager.wait_converged())
    run(env, cluster.monitor.recover_pool(rep, cluster.any_live_daemon()))
    run(env, cluster.monitor.recover_pool(ec, cluster.any_live_daemon()))
    scrubber = Scrubber(env, cluster.monitor)
    assert run(env, scrubber.scrub(rep, deep=True)).clean
    assert run(env, scrubber.scrub(ec, deep=True)).clean

    assert osdmap.epoch == epoch
    assert osdmap.placement.fills == 2
    assert osdmap.placement.table(rep) == scalar_table(osdmap, rep)
    assert osdmap.placement.table(ec) == scalar_table(osdmap, ec)


def test_mark_down_refreshes_every_reader():
    env, cluster, rep, ec = build()
    osdmap = cluster.osdmap
    client, other = cluster.new_client("c0"), cluster.new_client("c1")
    manager = cluster.enable_recovery()
    names = [f"o{i}" for i in range(12)]
    before = {n: client.compute_placement(rep, n) for n in names}
    victim = before[names[0]][0]
    cluster.monitor.fail_osd(victim)
    # The watcher ran inside the bump and already read the new table.
    for info in manager.pgs.values():
        pool = osdmap.pools[info.pool_id]
        assert info.acting == osdmap.placement.pg_to_osds(pool, info.pg_id)
        assert victim not in info.acting
    for n in names:
        for c in (client, other):
            acting = c.compute_placement(rep, n)
            assert victim not in acting
            assert acting == osdmap.placement.object_to_osds(rep, n)[1]
    assert osdmap.placement.table(rep) == scalar_table(osdmap, rep)
    assert osdmap.placement.table(ec) == scalar_table(osdmap, ec)


def test_recovery_watcher_reads_the_new_epochs_table():
    env, cluster, rep, _ec = build()
    osdmap = cluster.osdmap
    manager = cluster.enable_recovery()
    stale = osdmap.placement.table(rep)
    seen = []

    def spy(epoch):
        seen.append(osdmap.placement.table(rep))

    osdmap.watch(spy)  # runs after the manager's watcher, same epoch
    victim = stale[0][0]
    fills = osdmap.placement.fills
    osdmap.mark_down(victim)
    assert osdmap.placement.fills == fills + 2  # the manager read both pools; the spy hit
    assert seen[0] is not stale
    assert seen[0] == scalar_table(osdmap, rep)
    assert manager.pgs[(rep.pool_id, 0)].acting == seen[0][0]
    assert victim not in manager.pgs[(rep.pool_id, 0)].acting


def test_client_miss_signal_is_per_client_and_per_epoch():
    env, cluster, rep, _ec = build()
    client, other = cluster.new_client("c0"), cluster.new_client("c1")
    client.compute_placement(rep, "a")
    assert client.last_was_miss  # first look at this PG
    other.compute_placement(rep, "a")
    assert other.last_was_miss  # another client's first look, same table
    client.compute_placement(rep, "a")
    assert not client.last_was_miss
    cluster.osdmap.bump()
    client.compute_placement(rep, "a")
    assert client.last_was_miss  # new epoch, first look again
