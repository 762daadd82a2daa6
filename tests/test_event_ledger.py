"""Exact cost ledger: the DES event count and object-store bytes of
small fixed runs, pinned.

``Environment._seq`` counts every event the kernel has ever scheduled,
so it is a deterministic measure of simulator work that wall-clock noise
cannot blur.  ``ObjectStore.allocated_bytes`` summed over the OSDs is
the memory the stores hold in page buffers.  Each cell below runs 200
I/Os (plus the read prefill) on ``delibak`` with a fixed seed and must
schedule exactly the recorded number of events and end holding exactly
the recorded number of store bytes.

When a change moves a count, re-record it here and say why in
CHANGES.md: an increase needs a reason; a decrease is re-recorded so
the ledger keeps tracking the current cost.
"""

import pytest

from repro.deliba import PoolSpec, build_framework, framework_by_name
from repro.units import kib
from repro.workloads import FioJob

#: cell -> (pool, fio rw mode, object size, events scheduled, store bytes allocated).
LEDGER = {
    "rep-randrw": (PoolSpec(kind="replicated", size=2), "randrw", None, 13111, 1638400),
    "ec-randwrite": (PoolSpec(kind="erasure", k=4, m=2), "randwrite", kib(4), 23209, 1216512),
}


@pytest.mark.parametrize("cell", sorted(LEDGER))
def test_event_count_is_pinned(cell):
    pool, rw, object_size, events, allocated = LEDGER[cell]
    fw = build_framework(
        framework_by_name("delibak"), pool_spec=pool, object_size=object_size, seed=0
    )
    proc = fw.env.process(fw.run_fio(FioJob(f"ledger.{cell}", rw, iodepth=4, nrequests=200)))
    fw.env.run()
    assert proc.value.ios == 200 and proc.value.errors == 0
    assert fw.env._seq == events, f"{cell}: {fw.env._seq} events scheduled, ledger says {events}"
    held = sum(d.store.allocated_bytes for d in fw.cluster.daemons.values())
    assert held == allocated, f"{cell}: {held} store bytes allocated, ledger says {allocated}"
