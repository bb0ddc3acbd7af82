"""Adaptive window boundaries (``ShardedSystem._untils``) on hand-made
candidate times.

The digest-level guarantee (sharded runs reproduce the single engine)
lives in ``test_adaptive_property.py``; this file pins the boundary
rule itself: the earliest shard keeps its stretch only when it is alone
within one link latency of the minimum candidate, so two busy shards
run side by side instead of taking turns.
"""

from array import array

import pytest

from repro.config import SystemConfig
from repro.shard.coordinator import ShardedSystem
from repro.shard.mailbox import MailBatch
from repro.shard.shard_system import ShardStatus

#: 4 clusters x 2 GPUs, link latency L = 128
L = 128
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=L)


def _status(next_cycle):
    return ShardStatus(
        next_event=None if next_cycle is None else (next_cycle, next_cycle),
        real_pending=0 if next_cycle is None else 1,
        wavefronts_remaining=1,
        last_wf_cycle=0,
        counters_zero=True,
        max_drain=(0, 0),
    )


def _untils(cands, pending=None):
    node = ShardedSystem(config=CONFIG, n_shards=len(cands))
    pending = pending or [[] for _ in cands]
    return node._untils([_status(c) for c in cands], pending)


@pytest.mark.parametrize(
    "cands, expected",
    [
        # two shards within one latency: both stop at min + L (the
        # earlier one used to run to 228 and leapfrog the other)
        ([0, 100], [L, L]),
        ([100, 0], [L, L]),
        ([0, L], [L, L]),
        ([0, 0], [L, L]),
        # alone before min + L: the earliest shard keeps its stretch
        ([0, L + 1], [L + 1 + L, L]),
        ([0, 1000], [1 + 2 * L, L]),
        ([0, None], [1 + 2 * L, L]),
        # four shards: one close neighbour is enough to stop the stretch
        ([0, 500, 90, 700], [L, L, L, L]),
        ([0, 500, 600, 700], [1 + 2 * L, L, L, L]),
    ],
)
def test_boundaries(cands, expected):
    assert _untils(cands) == expected


def test_pending_mail_counts_as_a_candidate():
    # shard 1 has no event, but mail arriving at 100 makes it busy
    # within one latency of shard 0
    batch = MailBatch(
        array("q", [100]), array("q", [99]), array("q", [0]), array("q"), b""
    )
    assert _untils([0, None], [[], [batch]]) == [L, L]
