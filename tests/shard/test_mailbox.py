"""Unit tests for the boundary mailbox's validation and mail ordering."""

import pickle

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.network.flit import Flit
from repro.network.link import DELIVERY_RANK_SPAN
from repro.network.packet import Packet, PacketType
from repro.shard.mailbox import (
    BoundaryFlitLink,
    DuplicateDeliveryError,
    LateDeliveryError,
    MailBatch,
    MailItem,
    Mailbox,
)
from repro.shard.shard_system import ShardSystem
from repro.shard.worker import serve
from repro.sim.engine import Engine


def _flit(used_bytes=12) -> Flit:
    packet = Packet(ptype=PacketType.READ_REQ, src_gpu=0, dst_gpu=2)
    packet._unsent = 1  # staged, as an egress controller does
    return Flit(packet=packet, index=0, used_bytes=used_bytes, flit_size=16)


def _item(arrival, skey, src=0, dst=1, link_seq=0, tag=12, done=1) -> MailItem:
    # ``tag`` rides in the flit's used_bytes so a test can tell flits
    # apart after they cross the pickle boundary
    return MailItem(
        arrival=arrival,
        skey=skey,
        src_cluster=src,
        dst_cluster=dst,
        link_seq=link_seq,
        flit=_flit(tag),
        done=done,
    )


def _batch(*items) -> MailBatch:
    return MailBatch.encode(list(items))


def _link_seqs(batch: MailBatch):
    return [
        first + k for _src, _dst, first, count in batch.iter_links() for k in range(count)
    ]


class TestCollateValidation:
    """The checks a window's mail batches pass before delivery."""

    def test_late_delivery_raises(self):
        # arrival at the boundary is late: the receiver already simulated
        # that cycle
        mailbox = Mailbox()
        with pytest.raises(LateDeliveryError):
            mailbox.validate_batch(_batch(_item(arrival=10, skey=-100)), boundary=10)

    def test_arrival_before_boundary_raises(self):
        mailbox = Mailbox()
        with pytest.raises(LateDeliveryError):
            mailbox.validate_batch(_batch(_item(arrival=7, skey=-100)), boundary=10)

    def test_arrival_just_beyond_boundary_is_accepted(self):
        mailbox = Mailbox()
        mailbox.validate_batch(_batch(_item(arrival=11, skey=-100)), boundary=10)
        assert mailbox._last_seq == {(0, 1): 0}

    def test_duplicate_delivery_raises(self):
        mailbox = Mailbox()
        mailbox.validate_batch(
            _batch(_item(arrival=11, skey=-100, link_seq=3)), boundary=10
        )
        with pytest.raises(DuplicateDeliveryError):
            mailbox.validate_batch(
                _batch(_item(arrival=20, skey=-99, link_seq=3)), boundary=19
            )

    def test_regressed_sequence_within_a_batch_raises(self):
        batch = _batch(
            _item(arrival=11, skey=-100, link_seq=1),
            _item(arrival=12, skey=-99, link_seq=0),
        )
        # the regression cannot hide inside a run: it starts a second one
        assert list(batch.iter_links()) == [(0, 1, 1, 1), (0, 1, 0, 1)]
        with pytest.raises(DuplicateDeliveryError):
            Mailbox().validate_batch(batch, boundary=10)

    def test_sequences_are_tracked_per_directed_link(self):
        # the same link_seq on different (src, dst) pairs is no duplicate
        mailbox = Mailbox()
        batch = _batch(
            _item(arrival=11, skey=-300, src=0, dst=1, link_seq=0),
            _item(arrival=11, skey=-200, src=1, dst=0, link_seq=0),
            _item(arrival=11, skey=-100, src=0, dst=2, link_seq=0),
        )
        mailbox.validate_batch(batch, boundary=10)
        assert mailbox._last_seq == {(0, 1): 0, (1, 0): 0, (0, 2): 0}


class TestCollateOrdering:
    """Delivery order is the destination engine's calendar order by
    ``(arrival, skey)``, whatever order the parcels reach the shard in."""

    def _dispatch_order(self, batches):
        # shard 3 of a 4-cluster ring owns cluster 3 alone, so it takes
        # mail from several source shards in one window
        config = SystemConfig.default().with_overrides(
            n_clusters=4, gpus_per_cluster=1, inter_topology="ring"
        )
        shard = ShardSystem(config, NetCrafterConfig.baseline(), 0, 3, 4)
        seen = []
        shard.topology.switches[3].receive_flit_from_network = (
            lambda flit, done: seen.append((shard.engine.now, flit.used_bytes))
        )
        outbox, _status = serve(shard, ("window", 20, tuple(batches)))
        assert outbox == {}
        return seen

    def test_sorted_by_arrival_then_skey(self):
        # each parcel is per-link ascending (what shards produce), but
        # the two source shards' traffic interleaves in (arrival, skey)
        from_c0 = _batch(
            _item(arrival=11, skey=-90, src=0, dst=3, link_seq=0, tag=1),
            _item(arrival=13, skey=-50, src=0, dst=3, link_seq=1, tag=2),
        )
        from_c2 = _batch(
            _item(arrival=11, skey=-20, src=2, dst=3, link_seq=0, tag=3),
            _item(arrival=12, skey=-70, src=2, dst=3, link_seq=1, tag=4),
        )
        assert self._dispatch_order([from_c0, from_c2]) == [
            (11, 1),
            (11, 3),
            (12, 4),
            (13, 2),
        ]

    def test_order_is_independent_of_batch_arrival_order(self):
        # shards hand their outboxes to the coordinator in shard order;
        # the delivery order must not depend on it
        from_c0 = _batch(
            *(
                _item(arrival=11, skey=-90 + k, src=0, dst=3, link_seq=k, tag=k + 1)
                for k in range(4)
            )
        )
        from_c2 = _batch(
            *(
                _item(arrival=11, skey=-290 + k, src=2, dst=3, link_seq=k, tag=k + 5)
                for k in range(4)
            )
        )
        forward = self._dispatch_order([from_c0, from_c2])
        reverse = self._dispatch_order([from_c2, from_c0])
        assert forward == reverse
        assert [tag for _cycle, tag in forward] == [5, 6, 7, 8, 1, 2, 3, 4]


class TestMailBatch:
    def _items(self):
        return [
            _item(arrival=11, skey=-90, src=0, dst=2, link_seq=0, done=1),
            _item(arrival=13, skey=-50, src=0, dst=2, link_seq=1, done=0b101),
            _item(arrival=15, skey=-20, src=1, dst=3, link_seq=0),
        ]

    def test_encode_decode_round_trip(self):
        # read the batch the way the destination shard does: header
        # columns plus one loads of the flit payload
        items = self._items()
        batch = MailBatch.encode(items)
        assert len(batch) == 3
        assert list(batch.arrivals) == [i.arrival for i in items]
        assert list(batch.skeys) == [i.skey for i in items]
        assert list(batch.dones) == [i.done for i in items]
        assert [
            (src, dst) for src, dst, _first, count in batch.iter_links()
            for _ in range(count)
        ] == [(i.src_cluster, i.dst_cluster) for i in items]
        assert _link_seqs(batch) == [i.link_seq for i in items]
        # the payload carries real flits with their packets intact
        flits = pickle.loads(batch.payload)
        assert [f.packet.ptype for f in flits] == [i.flit.packet.ptype for i in items]
        assert [f.fid for f in flits] == [i.flit.fid for i in items]

    def test_header_columns_survive_pickle_without_payload_decode(self):
        batch = MailBatch.encode(self._items())
        clone = pickle.loads(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
        # routing/validation metadata is readable straight off the columns
        assert list(clone.arrivals) == [11, 13, 15]
        assert list(clone.iter_links()) == [(0, 2, 0, 2), (1, 3, 0, 1)]
        assert clone.payload == batch.payload
        assert len(pickle.loads(clone.payload)) == 3

    def test_non_contiguous_sequences_split_runs(self):
        # a gap in a link's sequence numbers must not be papered over by
        # run-length encoding: it starts a new run, which validation then
        # inspects on its own
        items = [
            _item(arrival=11, skey=-90, src=0, dst=2, link_seq=0),
            _item(arrival=13, skey=-50, src=0, dst=2, link_seq=5),
        ]
        batch = MailBatch.encode(items)
        assert list(batch.iter_links()) == [(0, 2, 0, 1), (0, 2, 5, 1)]
        assert _link_seqs(batch) == [0, 5]

    def test_validate_batch_enforces_the_boundary(self):
        batch = MailBatch.encode(self._items())
        with pytest.raises(LateDeliveryError):
            Mailbox().validate_batch(batch, boundary=11)
        Mailbox().validate_batch(batch, boundary=10)  # strictly beyond: ok

    def test_validate_batch_rejects_replayed_sequences(self):
        mailbox = Mailbox()
        mailbox.validate_batch(MailBatch.encode(self._items()), boundary=10)
        replay = MailBatch.encode(
            [_item(arrival=21, skey=-10, src=0, dst=2, link_seq=1)]
        )
        with pytest.raises(DuplicateDeliveryError):
            mailbox.validate_batch(replay, boundary=20)

    def test_validate_batch_tracks_every_run_of_a_batch(self):
        # the per-link cursor advances for each run, not only the first:
        # a replay on the batch's second link is caught too
        mailbox = Mailbox()
        mailbox.validate_batch(MailBatch.encode(self._items()), boundary=10)
        with pytest.raises(DuplicateDeliveryError):
            mailbox.validate_batch(
                _batch(_item(arrival=21, skey=-10, src=1, dst=3, link_seq=0)),
                boundary=20,
            )


class TestBoundaryFlitLink:
    def _link(self):
        engine = Engine()
        link = BoundaryFlitLink(
            engine,
            "c0->c1",
            bytes_per_cycle=32.0,
            latency=8,
            src_cluster=0,
            dst_cluster=1,
        )
        link.delivery_rank = 0 * 4 + 1  # src * n_clusters + dst
        return link

    def test_deliveries_land_in_the_outbox_with_monotone_sequence(self):
        link = self._link()
        link.send(_flit())  # cycle 0: ceil(16 B / 32 B/cycle) + 8 = 9
        link.engine.run(until=3)
        link.send(_flit())  # cycle 3: ceil(3.5) + 8 = 12
        items = link.drain_outbox()
        assert [i.link_seq for i in items] == [0, 1]
        assert [i.arrival for i in items] == [9, 12]
        assert link.outbox == []

    def test_delivery_skeys_are_negative_and_rank_spaced(self):
        link = self._link()
        link.send(_flit())  # two 16 B flits fit one 32 B/cycle cycle
        link.send(_flit())
        first, second = link.drain_outbox()
        assert first.arrival == second.arrival == 9
        assert first.skey < 0 and second.skey < 0
        # consecutive deliveries are one full rank span apart, so two
        # links' same-cycle deliveries interleave by (seq, rank)
        assert second.skey - first.skey == DELIVERY_RANK_SPAN

    def test_sink_is_unreachable(self):
        # a boundary link has no local sink: every send, clean or
        # faulted, leaves through the outbox
        link = self._link()
        assert link.sink is None
        link.send(_flit())
        (item,) = link.drain_outbox()
        assert item.arrival > 0
        assert item.done == 1  # the flit completes its own packet
