"""Tests for the collective-communication workload family."""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.workloads.base import Scale
from repro.workloads.collective import (
    CollectiveWorkload,
    PolicyEntry,
    all_to_all_schedule,
    collective_generators,
    ring_allreduce_schedule,
    train_mix_schedule,
    tree_allreduce_schedule,
)
from repro.workloads.registry import (
    WORKLOADS,
    all_workload_names,
    collective_workload_names,
    get_workload,
)
from repro.workloads.serialization import trace_from_dict, trace_to_dict

N = 4  # GPUs used by most schedule tests
CHUNK = 4


class TestPolicyEntry:
    def test_self_peer_rejected(self):
        with pytest.raises(ValueError, match="pulls from itself"):
            PolicyEntry(0, "reduce", 2, (1, 1))

    def test_out_of_range_peer_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PolicyEntry(0, "reduce", 2, (3, -1))
        with pytest.raises(ValueError, match="outside"):
            PolicyEntry(0, "reduce", 2, (-2, 0))

    def test_negative_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk_lines"):
            PolicyEntry(0, "reduce", -1, (1, -1))

    def test_empty_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            PolicyEntry(0, "", 2, (1, -1))

    def test_idle_marker_allowed(self):
        entry = PolicyEntry(3, "bubble", 0, (-1, -1))
        assert entry.peers == (-1, -1)


class TestSchedules:
    def test_ring_shape(self):
        sched = ring_allreduce_schedule(N, CHUNK)
        assert len(sched) == 2 * (N - 1)
        assert [e.phase for e in sched[: N - 1]] == ["reduce_scatter"] * (N - 1)
        assert [e.phase for e in sched[N - 1 :]] == ["all_gather"] * (N - 1)
        for entry in sched:  # neighbour-only traffic
            assert entry.peers == tuple((g - 1) % N for g in range(N))

    def test_tree_up_down_mirror(self):
        sched = tree_allreduce_schedule(N, CHUNK)
        up = [e for e in sched if e.phase == "reduce"]
        down = [e for e in sched if e.phase == "broadcast"]
        assert len(up) == len(down) == 2  # log2(4) levels each way
        # the down-sweep at each level inverts the matching up-sweep
        for up_entry, down_entry in zip(up, reversed(down)):
            inverted = {}
            for parent, child in enumerate(up_entry.peers):
                if child >= 0:
                    inverted[child] = parent
            for child, parent in enumerate(down_entry.peers):
                if parent >= 0:
                    assert inverted[child] == parent

    def test_all_to_all_covers_every_pair(self):
        sched = all_to_all_schedule(N, CHUNK)
        assert len(sched) == N - 1
        for g in range(N):
            partners = {e.peers[g] for e in sched}
            assert partners == set(range(N)) - {g}

    def test_train_mix_has_bubble(self):
        sched = train_mix_schedule(N, CHUNK)
        phases = [e.phase for e in sched]
        assert phases.count("pp_bubble") == 1
        bubble = next(e for e in sched if e.phase == "pp_bubble")
        assert bubble.peers == (-1,) * N
        assert bubble.chunk_lines == 0
        # DP gradients move half-size chunks
        dp = next(e for e in sched if e.phase == "dp_allreduce")
        assert dp.chunk_lines == max(1, CHUNK // 2)

    def test_single_gpu_degenerates_safely(self):
        for builder in (
            ring_allreduce_schedule,
            tree_allreduce_schedule,
            all_to_all_schedule,
            train_mix_schedule,
        ):
            sched = builder(1, CHUNK)
            assert sched, builder.__name__
            for entry in sched:
                assert all(p == -1 for p in entry.peers)


class TestCollectiveWorkload:
    def test_registry_entries(self):
        names = collective_workload_names()
        assert names == ["ar_ring", "ar_tree", "a2a", "trainmix"]
        for name in names:
            assert name in WORKLOADS
            assert get_workload(name).pattern == "collective"
            assert name not in all_workload_names()  # not Table 3

    def test_build_is_deterministic(self):
        a = get_workload("ar_ring").build(N, Scale.tiny(), seed=3)
        b = get_workload("ar_ring").build(N, Scale.tiny(), seed=3)
        assert trace_to_dict(a) == trace_to_dict(b)

    def test_kernels_carry_phase_labels(self):
        trace = get_workload("trainmix").build(N, Scale.tiny(), seed=0)
        phases = {k.phase for k in trace.kernels}
        assert phases == {"tp_allreduce", "pp_bubble", "dp_allreduce"}
        assert all(k.phase is not None for k in trace.kernels)

    def test_traffic_follows_peer_map(self):
        """A ring step's remote reads land only in the left neighbour's
        block — the peer map is the traffic endpoint."""
        gen = get_workload("ar_ring")
        scale = Scale.tiny()
        trace = gen.build(N, scale, seed=0)
        kernel = trace.kernels[0]
        for cta in kernel.ctas:
            peer = (cta.gpu - 1) % N
            for wf in cta.wavefronts:
                for acc in wf.accesses:
                    owner = kernel.page_owner[acc.vpn]
                    assert owner == (cta.gpu if acc.is_write else peer)

    def test_bubble_kernel_has_zero_accesses(self):
        trace = get_workload("trainmix").build(N, Scale.tiny(), seed=0)
        bubble = next(k for k in trace.kernels if k.phase == "pp_bubble")
        assert bubble.access_count() == 0
        assert bubble.wavefront_count() > 0  # still launches and quiesces

    def test_with_schedule_override(self):
        override = [PolicyEntry(0, "custom", 2, (1, -1, -1, -1))]
        pinned = get_workload("ar_ring").with_schedule(override)
        trace = pinned.build(N, Scale.tiny(), seed=0)
        assert len(trace.kernels) == 1
        assert trace.kernels[0].phase == "custom"
        # only GPU 0 moves data
        for cta in trace.kernels[0].ctas:
            n = sum(len(wf.accesses) for wf in cta.wavefronts)
            assert (n > 0) == (cta.gpu == 0)

    def test_empty_schedule_rejected(self):
        broken = CollectiveWorkload("broken", lambda n, c: [])
        with pytest.raises(ValueError, match="empty schedule"):
            broken.build(N, Scale.tiny(), seed=0)

    def test_serialization_round_trips_phase(self):
        trace = get_workload("ar_tree").build(N, Scale.tiny(), seed=0)
        restored = trace_from_dict(trace_to_dict(trace))
        assert [k.phase for k in restored.kernels] == [
            k.phase for k in trace.kernels
        ]

    def test_unlabelled_dump_has_no_phase_key(self):
        # pre-phase dumps and Table-3 traces stay byte-identical
        trace = get_workload("gups").build(N, Scale.tiny(), seed=0)
        doc = trace_to_dict(trace)
        assert all("phase" not in k for k in doc["kernels"])
        assert trace_from_dict(doc).kernels[0].phase is None


class TestZeroAccessRuns:
    def test_bubble_only_run_end_to_end(self):
        """A communication-only workload whose every kernel is a bubble:
        zero memory accesses end to end.  The zero-denominator stats
        edges (l1_mpki, stitch/utilization rates) must all return 0
        instead of dividing by zero, and no read is recorded."""
        config = SystemConfig.default()
        schedule = [
            PolicyEntry(i, "bubble", 0, (-1,) * config.n_gpus) for i in range(3)
        ]
        gen = CollectiveWorkload("bubbles", lambda n, c: schedule)
        trace = gen.build(config.n_gpus, Scale.tiny(), seed=0)
        assert trace.total_accesses() == 0
        system = MultiGpuSystem(config, NetCrafterConfig.full(), seed=0)
        system.load(trace)
        result = system.run()
        assert result.stats.l1_mpki() == 0.0
        assert sum(result.stats.read_req_bytes_hist.values()) == 0
        assert result.stitch_rate() == 0.0
        assert result.inter_utilization() == 0.0
        assert result.ptw_traffic_fraction() == 0.0
        assert result.padded_fraction_distribution(16) == {}
        assert result.mean_inter_read_latency() == 0.0
        assert result.inter_flits_sent == 0
        assert result.stats.kernel_count == 3
        bubble = result.phase_breakdown()["bubble"]
        assert bubble.kernels == 3
        assert bubble.inter_flits == 0
        assert bubble.stitch_rate() == 0.0
