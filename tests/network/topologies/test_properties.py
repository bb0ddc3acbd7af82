"""Property tests over the topology zoo (hypothesis).

Three contracts the rest of the simulator leans on:

* ring routing is shortest-path with the clockwise tie-break, for any
  cluster count (odd and even — even rings are where ties occur);
* ``inter_pairs`` is deterministic and source-ascending for every
  registered topology, so contiguous shard node ranges always map to
  contiguous slices of the global link list;
* a partial (``owned_clusters``) build installs exactly the routes the
  full build installs on those switches — shards cannot diverge from
  the single engine by construction.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.config import SystemConfig
from repro.network.link import FlitLink
from repro.network.topology import build_topology, inter_pairs, topology_spec
from repro.shard.partition import ShardPlan
from repro.sim.engine import Engine

SHIPPED = ("mesh", "ring", "star", "fat_tree", "torus3d")


def _config(topology, n_clusters, **overrides):
    return SystemConfig.default().with_overrides(
        inter_topology=topology,
        n_clusters=n_clusters,
        gpus_per_cluster=1,
        **overrides,
    )


class _FakeGpu:
    def __init__(self):
        # the downlink delivers into the GPU's RDMA engine; the fake is both
        self.rdma = self

    def attach_uplink(self, link):
        self.uplink = link

    def receive_packet(self, packet):  # pragma: no cover - wiring only
        pass


class _FakeController:
    def __init__(self, name, link, src, dst):
        self.name = name
        self.link = link
        self.src = src
        self.dst = dst

    def accept_packet(self, packet):  # pragma: no cover - wiring only
        pass


# -- ring routes --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=65))
def test_ring_routes_are_shortest_path_with_clockwise_ties(n):
    config = _config("ring", n)
    routes = topology_spec(config).routes(config)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                assert (src, dst) not in routes
                continue
            clockwise = (dst - src) % n
            counter = (src - dst) % n
            via = routes[(src, dst)]
            assert via in ((src + 1) % n, (src - 1) % n)  # adjacent hop
            if clockwise < counter:
                assert via == (src + 1) % n
            elif counter < clockwise:
                assert via == (src - 1) % n
            else:  # even ring, antipodal pair: tie broken clockwise
                assert via == (src + 1) % n


# -- canonical order ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SHIPPED),
    n=st.integers(min_value=2, max_value=40),
)
def test_inter_pairs_is_stable_and_source_ascending(name, n):
    config = _config(name, n)
    pairs = inter_pairs(config)
    assert pairs == inter_pairs(config)  # deterministic
    srcs = [src for src, _dst in pairs]
    assert srcs == sorted(srcs)
    assert len(set(pairs)) == len(pairs)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SHIPPED),
    n_shards=st.sampled_from([1, 2, 4]),
    multiplier=st.integers(min_value=1, max_value=6),
)
def test_shard_slices_concatenate_to_the_global_order(name, n_shards, multiplier):
    assume(n_shards * multiplier >= 2)  # star/fat_tree need 2+ clusters
    config = _config(name, n_shards * multiplier)
    plan = ShardPlan.from_config(config, n_shards)
    pairs = inter_pairs(config)
    merged = []
    for shard in range(n_shards):
        owned = set(plan.nodes_of(shard))
        merged.extend(p for p in pairs if p[0] in owned)
    assert merged == pairs


# -- partial builds -----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(SHIPPED),
    multiplier=st.integers(min_value=1, max_value=4),
)
def test_partial_build_installs_the_full_builds_routes(name, multiplier):
    config = _config(name, 2 * multiplier)
    engine = Engine()
    gpus = {g: _FakeGpu() for g in range(config.n_gpus)}
    full = build_topology(engine, config, gpus, _FakeController)

    plan = ShardPlan.from_config(config, 2)
    for shard in range(2):
        owned = set(plan.nodes_of(shard))
        shard_engine = Engine()
        shard_gpus = {
            g: _FakeGpu()
            for g in range(config.n_gpus)
            if config.cluster_of(g) in owned
        }

        def boundary(bname, bpc, latency, _src, _dst):
            return FlitLink(
                shard_engine, bname, bpc, latency, sink=lambda flit, done: None
            )

        partial = build_topology(
            shard_engine,
            config,
            shard_gpus,
            _FakeController,
            owned_clusters=owned,
            boundary_link_factory=boundary,
        )
        assert set(partial.switches) == owned
        for node in owned:
            assert (
                partial.switches[node]._next_hop
                == full.switches[node]._next_hop
            )
        # the shard's links are the contiguous slice of the global list
        shard_pairs = [(c.src, c.dst) for c in partial.controllers]
        assert shard_pairs == [
            p for p in inter_pairs(config) if p[0] in owned
        ]
        # and boundary links carry the same rank/span as the full build
        full_by_name = {link.name: link for link in full.inter_links}
        for link in partial.inter_links:
            twin = full_by_name[link.name]
            assert link.delivery_rank == twin.delivery_rank
            assert link.delivery_span == twin.delivery_span
