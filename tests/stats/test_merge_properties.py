"""Property tests: ``LatencyStat.merge`` is commutative and associative.

Shard reports merge in whatever grouping the coordinator (or a resumed
checkpoint) produces, so merged statistics must not depend on the merge
tree.  A merge sums counts, totals and histogram buckets and takes the
max of maxima, so every merge order and every parenthesisation gives
the same stat.
"""

import copy
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.collectors import LatencyStat

#: values reach well above 16, where histogram buckets are coarser than
#: one cycle and distinct latencies share a bucket
values = st.lists(st.integers(min_value=0, max_value=5000), max_size=20)


def make_stat(samples):
    stat = LatencyStat()
    for v in samples:
        stat.record(v)
    return stat


def merged(*stats):
    out = copy.deepcopy(stats[0])
    for stat in stats[1:]:
        out.merge(copy.deepcopy(stat))
    return out


def assert_equivalent(a: LatencyStat, b: LatencyStat) -> None:
    assert a.count == b.count
    assert a.total == b.total
    assert a.max == b.max
    assert a._hist == b._hist
    for p in (0, 25, 50, 75, 99, 100):
        assert a.percentile(p) == b.percentile(p)


@settings(max_examples=200, deadline=None)
@given(values, values)
def test_merge_commutative(xs, ys):
    a, b = make_stat(xs), make_stat(ys)
    assert_equivalent(merged(a, b), merged(b, a))


@settings(max_examples=200, deadline=None)
@given(values, values, values)
def test_merge_associative(xs, ys, zs):
    a, b, c = make_stat(xs), make_stat(ys), make_stat(zs)
    left = merged(merged(a, b), c)
    right = merged(a, merged(b, c))
    assert_equivalent(left, right)


@settings(max_examples=100, deadline=None)
@given(values, values, values)
def test_three_way_merge_order_free(xs, ys, zs):
    """All six orderings of a 3-way merge agree, and agree with one stat
    that recorded every value (the coordinator merges shard reports in
    shard order, a resumed run in resume order)."""
    stats = [make_stat(v) for v in (xs, ys, zs)]
    reference = merged(*stats)
    assert_equivalent(reference, make_stat(xs + ys + zs))
    for perm in itertools.permutations(stats):
        assert_equivalent(merged(*perm), reference)
