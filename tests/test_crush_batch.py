"""Differential tests: the batched CRUSH pass against the scalar one.

``Mapper.do_rule_many`` advances many rule walks in lockstep and answers
straw2 draws with one numpy race per bucket (``Straw2Bucket.choose_many``);
``Mapper.do_rule`` runs one walk on the scalar ``choose``.  They must
agree exactly, over random maps that mix bucket algorithms, zero
weights, partial and full device reweights, device classes, every
choose mode, and more replicas than there are devices.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import (
    BucketAlg,
    CrushMap,
    CrushRule,
    DeviceClass,
    Mapper,
    Step,
    StepOp,
    Straw2Bucket,
    crush_ln,
    hash32_3,
    weight_fp,
)
from repro.crush.hashing import hash32_3_many
from repro.crush.ln_table import crush_ln_many

#: Device weights drawn by the map strategy: zero, fractional, unit, and
#: one so large that straw2 draws collide often (coarse quotients).
DEVICE_WEIGHTS = (0.0, 0.5, 1.0, 3.0, 1e6)
#: Reweights: out, partial, full.
REWEIGHTS = (0.0, 0.25, 0.5, 1.0)
CHOOSE_OPS = (
    StepOp.CHOOSE_FIRSTN,
    StepOp.CHOOSE_INDEP,
    StepOp.CHOOSELEAF_FIRSTN,
    StepOp.CHOOSELEAF_INDEP,
)


@st.composite
def crush_case(draw):
    """(map, rule, mapper, num_rep): a random two-level map and rule."""
    cmap = CrushMap()
    cmap.register_type(1, "host")
    cmap.register_type(10, "root")
    hosts = []
    for h in range(draw(st.integers(1, 4))):
        alg = draw(st.sampled_from(list(BucketAlg)))
        ndev = draw(st.integers(1, 5))
        if alg == BucketAlg.UNIFORM:
            weights = [draw(st.sampled_from(DEVICE_WEIGHTS))] * ndev
        elif alg == BucketAlg.TREE:
            # A tree bucket refuses to descend into a zero-weight subtree.
            weights = draw(
                st.lists(st.sampled_from(DEVICE_WEIGHTS[1:]), min_size=ndev, max_size=ndev)
            )
        else:
            weights = draw(st.lists(st.sampled_from(DEVICE_WEIGHTS), min_size=ndev, max_size=ndev))
        devs = []
        for w in weights:
            cls = draw(st.sampled_from([DeviceClass.SSD, DeviceClass.HDD]))
            dev = cmap.add_device(f"osd.{len(cmap.devices)}", w, cls)
            cmap.set_reweight(dev, draw(st.sampled_from(REWEIGHTS)))
            devs.append(dev)
        hosts.append(cmap.add_bucket(alg, 1, devs, name=f"host{h}"))
    root_alg = draw(st.sampled_from([BucketAlg.STRAW2, BucketAlg.STRAW, BucketAlg.LIST]))
    # Explicit unit host weights let an all-zero host win at the root, so
    # its items tie at the minimum draw and the first one must be chosen.
    root_weights = [weight_fp(1.0)] * len(hosts) if draw(st.booleans()) else None
    root = cmap.add_bucket(root_alg, 10, hosts, name="root", weights=root_weights)
    op = draw(st.sampled_from(CHOOSE_OPS))
    num = draw(st.sampled_from([0, 0, 2, -1]))
    choose = Step(op, num=num, type_id=draw(st.sampled_from([0, 1])))
    device_class = draw(st.sampled_from([None, DeviceClass.SSD]))
    rule = CrushRule(0, "r", (Step(StepOp.TAKE, arg=root), choose, Step(StepOp.EMIT)), device_class)
    # Small retry budgets keep maps where most devices are rejected cheap
    # (chooseleaf retries nest) while still exhausting them into holes.
    mapper = Mapper(cmap, total_tries=draw(st.sampled_from([1, 2, 5])))
    num_rep = draw(st.integers(1, min(len(cmap.devices) + 3, 8)))
    return cmap, rule, mapper, num_rep


@given(crush_case(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_do_rule_many_equals_do_rule(case, seed):
    _cmap, rule, mapper, num_rep = case
    rng = random.Random(seed)
    xs = [rng.getrandbits(32) for _ in range(24)] + list(range(8))
    assert mapper.do_rule_many(rule, xs, num_rep) == [mapper.do_rule(rule, x, num_rep) for x in xs]


def test_indep_rules_leave_holes_when_devices_run_out():
    cmap = CrushMap()
    cmap.register_type(10, "root")
    devs = [cmap.add_device(f"osd.{i}", 1.0) for i in range(3)]
    root = cmap.add_bucket(BucketAlg.STRAW2, 10, devs, name="root")
    rule = CrushRule(
        0, "ec", (Step(StepOp.TAKE, arg=root), Step(StepOp.CHOOSE_INDEP), Step(StepOp.EMIT))
    )
    mapper = Mapper(cmap)
    batched = mapper.do_rule_many(rule, range(64), 5)  # default 50 tries
    assert batched == [mapper.do_rule(rule, x, 5) for x in range(64)]
    assert all(sorted(acting)[:3] == [0, 1, 2] and len(acting) == 5 for acting in batched)


@given(
    st.lists(st.one_of(st.just(0), st.integers(1, 2**47)), min_size=1, max_size=12),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_straw2_choose_many_equals_choose(weights, zero_all, seed):
    """Huge weights make quotients coarse, so draws tie and truncation
    matters: ties must go to the first item, and the division must
    truncate toward zero like the scalar race."""
    if zero_all:
        weights = [0] * len(weights)
    rng = random.Random(seed)
    items = [rng.choice([i, -1 - i]) for i in range(len(weights))]
    bucket = Straw2Bucket(-100, items, weights)
    xs = [rng.getrandbits(32) for _ in range(200)]
    rs = [rng.randrange(200) for _ in range(200)]
    assert bucket.choose_many(xs, rs) == [bucket.choose(x, r) for x, r in zip(xs, rs)]


def test_straw2_choose_many_ties_and_exact_quotients():
    """Two races where ``choose_many`` must copy the scalar rules exactly.

    With weights of 2**47 every quotient ``-ln/w`` is below 2, so most
    draws tie and the first item must win.  With weights of 2**44, an
    input whose item-0 draw is ``u = 0x7fff`` has ``ln = -2**44`` exactly,
    so item 0 draws -1; item 1 (``u >= 0x8000``) draws ``-1 < ln/w < 0``,
    which truncates to 0 and wins, but would floor to -1 and lose the tie.
    """
    ties = Straw2Bucket(-1, [0, 1], [1 << 47, 1 << 47])
    xs = list(range(256))
    assert ties.choose_many(xs, [0] * 256) == [ties.choose(x, 0) for x in xs]
    exact = Straw2Bucket(-1, [0, 1], [1 << 44, 1 << 44])
    xs = [156219, 192934, 319944, 428142, 621808]  # found by scanning x < 2**20
    assert all(hash32_3(x, 0, 0) & 0xFFFF == 0x7FFF for x in xs)
    assert all(hash32_3(x, 1, 0) & 0xFFFF >= 0x8000 for x in xs)
    assert exact.choose_many(xs, [0] * 5) == [exact.choose(x, 0) for x in xs] == [1] * 5


def test_crush_ln_many_matches_scalar_over_every_u16():
    got = crush_ln_many(np.arange(1 << 16))
    assert got.dtype == np.int64
    assert got.tolist() == [crush_ln(u) for u in range(1 << 16)]


def test_hash32_3_many_matches_scalar():
    rng = random.Random(7)
    a, b, c = ([rng.getrandbits(32) for _ in range(500)] for _ in range(3))
    assert hash32_3_many(a, b, c).tolist() == [hash32_3(*t) for t in zip(a, b, c)]
