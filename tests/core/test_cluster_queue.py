"""Tests for the Cluster Queue's partitioning and scheduling."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cluster_queue import (
    CapacityError,
    ClusterQueue,
    FIFO_PARTITION,
    PRIORITY_DATA_PARTITION,
    PTW_PARTITION,
)
from repro.core.config import NetCrafterConfig
from repro.core.controller import NetCrafterController
from repro.network.flit import segment_packet
from repro.network.link import FlitLink
from repro.network.packet import Packet, PacketType
from repro.sim.engine import Engine


def _flit(ptype=PacketType.READ_REQ, index=0):
    return segment_packet(Packet(ptype=ptype, src_gpu=0, dst_gpu=2), 16)[index]


def _free(q):
    """Entries a push may still fill: reserved entries are not free."""
    return q.capacity - len(q) - q._reserved


def _controller(capacity):
    """A baseline egress controller over a ``capacity``-entry queue."""
    eng = Engine()
    link = FlitLink(eng, "link", 16.0, 0, sink=lambda flit, done: None)
    return NetCrafterController(
        eng, "ctrl", link, 16, NetCrafterConfig.baseline(), queue_capacity=capacity
    )


def _queue(capacity=64, by_type=True, ptw=False, scheduler="age"):
    return ClusterQueue(
        capacity=capacity, partition_by_type=by_type, separate_ptw=ptw,
        scheduler=scheduler,
    )


def test_invalid_capacity():
    with pytest.raises(ValueError):
        _queue(capacity=0)


def test_invalid_scheduler():
    with pytest.raises(ValueError):
        _queue(scheduler="priority")


def test_fifo_partition_when_untyped():
    q = _queue(by_type=False)
    q.push(_flit(PacketType.READ_REQ))
    q.push(_flit(PacketType.WRITE_RSP))
    parts = q.partitions()
    assert len(parts) == 1
    assert parts[0].key == FIFO_PARTITION


def test_type_partitions():
    q = _queue(by_type=True)
    q.push(_flit(PacketType.READ_REQ))
    q.push(_flit(PacketType.WRITE_RSP))
    keys = {p.key for p in q.partitions()}
    assert keys == {"read_req", "write_rsp"}


def test_ptw_partition_split_out():
    q = _queue(by_type=True, ptw=True)
    q.push(_flit(PacketType.PT_REQ))
    q.push(_flit(PacketType.PT_RSP))
    q.push(_flit(PacketType.READ_REQ))
    keys = {p.key for p in q.partitions()}
    assert PTW_PARTITION in keys
    parts = {p.key: p for p in q.partitions()}
    assert len(parts[PTW_PARTITION]) == 2


def test_ptw_partition_even_when_untyped():
    """Figure 8 uses priority over a FIFO baseline: PTW still separates."""
    q = _queue(by_type=False, ptw=True)
    q.push(_flit(PacketType.PT_REQ))
    q.push(_flit(PacketType.READ_REQ))
    keys = {p.key for p in q.partitions()}
    assert keys == {PTW_PARTITION, FIFO_PARTITION}


def test_priority_data_partition():
    q = _queue(by_type=False)
    q.push(_flit(), priority_data=True)
    assert q.partitions()[0].key == PRIORITY_DATA_PARTITION


def test_capacity_rejects_and_counts():
    q = _queue(capacity=2)
    assert q.push(_flit())
    assert q.push(_flit())
    assert not q.push(_flit())
    assert q.rejected == 1
    assert _free(q) == 0


def test_age_selection_serves_oldest_across_partitions():
    q = _queue(scheduler="age")
    first = _flit(PacketType.WRITE_RSP)
    second = _flit(PacketType.READ_REQ)
    q.push(first)
    q.push(second)
    part, _ = q.select_partition(now=0)
    assert part.flits[0] is first


def test_age_selection_is_fifo_equivalent_in_single_partition():
    q = _queue(by_type=False, scheduler="age")
    flits = [_flit() for _ in range(5)]
    for f in flits:
        q.push(f)
    popped = []
    while len(q):
        part, _ = q.select_partition(now=0)
        popped.append(q.pop_from(part))
    assert popped == flits


def test_rr_selection_rotates():
    q = _queue(scheduler="rr")
    for _ in range(2):
        q.push(_flit(PacketType.READ_REQ))
        q.push(_flit(PacketType.WRITE_RSP))
    served = []
    while len(q):
        part, _ = q.select_partition(now=0)
        served.append(part.key)
        q.pop_from(part)
    assert served == ["read_req", "write_rsp", "read_req", "write_rsp"]


def test_prefer_overrides_order():
    q = _queue(ptw=True)
    q.push(_flit(PacketType.READ_REQ))
    q.push(_flit(PacketType.PT_REQ))
    part, _ = q.select_partition(now=0, prefer=PTW_PARTITION)
    assert part.key == PTW_PARTITION


def test_prefer_ignored_when_empty():
    q = _queue(ptw=True)
    q.push(_flit(PacketType.READ_REQ))
    part, _ = q.select_partition(now=0, prefer=PTW_PARTITION)
    assert part.key == "read_req"


def test_blocked_partition_skipped_until_expiry():
    q = _queue()
    q.push(_flit(PacketType.READ_REQ))
    part = q.partitions()[0]
    part.blocked_until = 100
    chosen, earliest = q.select_partition(now=50)
    assert chosen is None and earliest == 100
    chosen, _ = q.select_partition(now=100)
    assert chosen is part


def test_blocked_partition_earliest_reported():
    q = _queue()
    q.push(_flit(PacketType.READ_REQ))
    q.push(_flit(PacketType.WRITE_RSP))
    a, b = q.partitions()
    a.blocked_until, b.blocked_until = 80, 40
    _, earliest = q.select_partition(now=0)
    assert earliest == 40


def test_empty_queue_selects_nothing():
    q = _queue()
    assert q.select_partition(now=0) == (None, None)


def test_remove_flit():
    q = _queue()
    keep, drop = _flit(), _flit()
    q.push(keep)
    q.push(drop)
    assert q.remove_flit(drop)
    assert not q.remove_flit(drop)
    assert len(q) == 1


def test_remove_pooled_head_clears_partition_timer():
    q = _queue()
    pooled, successor = _flit(), _flit()
    pooled.pooled = True
    q.push(pooled)
    q.push(successor)
    part = q.partitions()[0]
    part.blocked_until, part.pooled_at = 100, 68
    assert q.remove_flit(pooled)
    # the timer belonged to the stitched-away head; the successor was
    # never pooled and must not inherit the block
    assert part.blocked_until == 0
    assert part.pooled_at == 0
    assert q.stale_timers_cleared == 1
    chosen, _ = q.select_partition(now=70)
    assert chosen is part


def test_remove_flit_from_a_named_partition_searches_only_it():
    q = _queue()
    req, rsp = _flit(PacketType.READ_REQ), _flit(PacketType.WRITE_RSP)
    req.pooled = True
    q.push(req)
    q.push(rsp)
    req_part, rsp_part = q.partitions()
    req_part.blocked_until, req_part.pooled_at = 100, 68
    assert not q.remove_flit(req, rsp_part)
    assert len(q) == 2
    assert q.remove_flit(req, req_part)
    assert len(q) == 1
    # the pooled head's timer is released on this path too
    assert req_part.blocked_until == 0
    assert q.stale_timers_cleared == 1


def test_remove_non_head_flit_keeps_timer():
    q = _queue()
    pooled, other = _flit(), _flit()
    pooled.pooled = True
    q.push(pooled)
    q.push(other)
    part = q.partitions()[0]
    part.blocked_until = 100
    assert q.remove_flit(other)
    assert part.blocked_until == 100
    assert q.stale_timers_cleared == 0


def test_remove_unpooled_head_keeps_timer():
    q = _queue()
    head = _flit()  # never pooled: the timer is not its to release
    q.push(head)
    part = q.partitions()[0]
    part.blocked_until = 100
    assert q.remove_flit(head)
    assert part.blocked_until == 100
    assert q.stale_timers_cleared == 0


def test_push_front_restores_head():
    q = _queue()
    a, b = _flit(), _flit()
    q.push(a)
    q.push(b)
    part = q.partitions()[0]
    head = q.pop_from(part)
    q.push_front(head, part.key)
    assert part.flits[0] is a
    assert len(q) == 2


def test_push_front_cannot_exceed_capacity():
    """Regression: the pop -> push_front round-trip used to bypass the
    capacity check, driving ``_count`` above ``capacity`` (and
    the free entries negative) whenever admissions landed in between."""
    q = _queue(capacity=2, by_type=False)
    a, b = _flit(), _flit()
    q.push(a)
    q.push(b)
    part = q.partitions()[0]
    popped = q.pop_from(part)
    assert q.push(_flit())  # an admission steals the freed slot
    with pytest.raises(CapacityError):
        q.push_front(popped, part.key)
    assert len(q) == 2
    assert _free(q) == 0


def test_pop_reserved_holds_the_entry():
    q = _queue(capacity=2, by_type=False)
    a, b = _flit(), _flit()
    q.push(a)
    q.push(b)
    part = q.partitions()[0]
    popped = q.pop_reserved(part)
    # the freed slot is reserved for the popped flit's possible return
    assert _free(q) == 0
    assert q._reserved == 1
    assert not q.push(_flit())
    q.push_front(popped, part.key, reserved=True)
    assert q._reserved == 0
    assert part.flits[0] is popped
    assert len(q) == 2


def test_release_reservation_frees_the_entry():
    """The controller's eject gives up the entry pop_reserved held."""
    ctrl = _controller(capacity=2)
    q = ctrl.queue
    q.push(_flit())
    q.push(_flit())
    part = q.partitions()[0]
    parent = q.pop_reserved(part)
    parent.packet._unsent = 1  # staged, as the controller's admission does
    ctrl._eject(parent, 0)
    assert q._reserved == 0
    assert _free(q) == 1
    assert q.push(_flit())


def test_reservation_misuse_raises():
    q = _queue(capacity=4, by_type=False)
    q.push(_flit())
    with pytest.raises(RuntimeError):
        _controller(capacity=4)._eject(_flit(), 0)
    with pytest.raises(RuntimeError):
        q.push_front(_flit(), FIFO_PARTITION, reserved=True)


def test_push_front_allowed_when_space_exists():
    q = _queue(capacity=4, by_type=False)
    a = _flit()
    q.push(a)
    part = q.partitions()[0]
    popped = q.pop_from(part)
    q.push_front(popped, part.key)  # plenty of room: no error
    assert len(q) == 1


def test_stitch_candidates_cross_partitions_bounded_depth():
    q = _queue()
    parent = segment_packet(
        Packet(ptype=PacketType.READ_RSP, src_gpu=0, dst_gpu=2), 16
    )[-1]
    for _ in range(12):
        q.push(_flit(PacketType.READ_REQ))
    q.push(_flit(PacketType.WRITE_RSP))
    seen = list(q.stitch_candidates(parent, search_depth=8))
    # 8 of the read_reqs (depth bound) + the write_rsp
    assert len(seen) == 9


def test_stitch_candidates_skip_parent():
    q = _queue()
    parent = _flit(PacketType.READ_REQ)
    q.push(parent)
    assert list(q.stitch_candidates(parent, 8)) == []


def test_blocked_partitions_listing():
    q = _queue()
    q.push(_flit(PacketType.READ_REQ))
    part = q.partitions()[0]
    assert q.blocked_partitions(now=0) == []
    part.blocked_until = 10
    assert q.blocked_partitions(now=5) == [part]
    assert q.blocked_partitions(now=10) == []


@given(
    kinds=st.lists(st.sampled_from(list(PacketType)), min_size=1, max_size=50),
    scheduler=st.sampled_from(["age", "rr"]),
)
def test_every_pushed_flit_is_eventually_served(kinds, scheduler):
    """Property: draining via select/pop returns exactly what was pushed."""
    q = ClusterQueue(capacity=128, partition_by_type=True, separate_ptw=True,
                     scheduler=scheduler)
    pushed = []
    for kind in kinds:
        flit = _flit(kind)
        assert q.push(flit)
        pushed.append(flit)
    drained = []
    while len(q):
        part, earliest = q.select_partition(now=0)
        assert part is not None
        drained.append(q.pop_from(part))
    assert sorted(f.fid for f in drained) == sorted(f.fid for f in pushed)
