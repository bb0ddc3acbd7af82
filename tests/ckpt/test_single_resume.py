"""Single-engine checkpoint/resume: byte-identity at every cut.

The standing gate in miniature: snapshot a ``MultiGpuSystem`` every
``every`` cycles, resume each snapshot in the same process, and require
the resumed ``RunResult`` to be byte-for-byte the uninterrupted run's.
Also pins the loud-failure contract: mismatched fingerprints, foreign
files, and future format versions all refuse before unpickling.
"""

import json
import shutil

import pytest

from repro.bench.smoke import digestable_payload
from repro.ckpt import (
    SNAPSHOT_FORMAT_VERSION,
    Checkpointer,
    FingerprintMismatchError,
    SnapshotFormatError,
    read_header,
    resume,
    run_fingerprint,
)
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.build import ShardingOptions
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

CONFIG = SystemConfig.default()
NC = NetCrafterConfig.full()


class KeepEvery(Checkpointer):
    """Retain each cut's snapshot instead of overwriting it."""

    def after_save(self, cycle):
        shutil.copy(self.path, f"{self.path}.c{cycle}")


def _trace(workload: str):
    return get_workload(workload).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.small(), seed=0
    )


def _reference(trace):
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node.load(trace)
    return node.run()


def _checkpointed_run(trace, tmp_path, every):
    fingerprint = run_fingerprint(CONFIG, NC, 0, trace)
    hook = KeepEvery(path=tmp_path / "s.ckpt", fingerprint=fingerprint, every=every)
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node._ckpt_hook = hook
    node.load(trace)
    return hook, digestable_payload(node.run().to_dict())


@pytest.mark.parametrize("workload", ["mm2", "lenet"])
def test_every_boundary_resumes_byte_identical(workload, tmp_path):
    """Cut three times mid-run, between engine runs; each snapshot
    resumes to the uninterrupted result."""
    trace = _trace(workload)
    finished = _reference(trace)
    reference = digestable_payload(finished.to_dict())
    every = finished.cycles // 4 + 1
    hook, hooked = _checkpointed_run(trace, tmp_path, every)
    # saving schedules nothing: the checkpointed run itself is
    # indistinguishable from the unhooked one
    assert hooked == reference
    # one snapshot per cut the run had not finished by
    assert hook.saved_cycles == [every, 2 * every, 3 * every]
    for cycle in hook.saved_cycles:
        assert read_header(tmp_path / f"s.ckpt.c{cycle}")["cycle"] == cycle
        result = resume(
            tmp_path / f"s.ckpt.c{cycle}",
            config=CONFIG,
            netcrafter=NC,
            seed=0,
            workload=trace,
        ).run()
        assert digestable_payload(result.to_dict()) == reference, (
            f"cycle {cycle} resumed to a different result"
        )


def test_every_option_skips_intermediate_boundaries(tmp_path):
    """``every`` counts simulated cycles: a run is cut at each multiple
    of it, and at nothing in between — kernel boundaries included."""
    trace = _trace("lenet")
    cycles = _reference(trace).cycles
    every = cycles // 2 + 1
    hook, _ = _checkpointed_run(trace, tmp_path, every)
    assert hook.saved_cycles == [every]
    hook, _ = _checkpointed_run(trace, tmp_path, cycles + 1)
    assert hook.saved_cycles == []


def test_resume_keeps_checkpointing_with_a_new_hook(tmp_path):
    """A checkpointer handed to resume() keeps cutting on the same
    grid, and a restored run without one takes no further snapshots."""
    trace = _trace("mm2")
    finished = _reference(trace)
    every = finished.cycles // 4 + 1
    hook, reference = _checkpointed_run(trace, tmp_path, every)
    later = Checkpointer(
        path=tmp_path / "later.ckpt", fingerprint=hook.fingerprint, every=every
    )
    node = resume(
        tmp_path / f"s.ckpt.c{every}",
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        workload=trace,
        checkpointer=later,
    )
    assert digestable_payload(node.run().to_dict()) == reference
    assert later.saved_cycles == hook.saved_cycles[1:]


class TestLoudFailures:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        trace = _trace("mm2")
        hook, _ = _checkpointed_run(trace, tmp_path, every=1000)
        return tmp_path / "s.ckpt.c1000", trace

    def test_mismatched_seed_refuses(self, snapshot):
        path, trace = snapshot
        with pytest.raises(FingerprintMismatchError):
            resume(path, config=CONFIG, netcrafter=NC, seed=1, workload=trace)

    def test_mismatched_system_config_refuses(self, snapshot):
        path, trace = snapshot
        other = CONFIG.with_overrides(
            inter_link_latency=CONFIG.effective_inter_link_latency + 1
        )
        with pytest.raises(FingerprintMismatchError):
            resume(path, config=other, netcrafter=NC, seed=0, workload=trace)

    def test_mismatched_netcrafter_config_refuses(self, snapshot):
        path, trace = snapshot
        with pytest.raises(FingerprintMismatchError):
            resume(
                path,
                config=CONFIG,
                netcrafter=NetCrafterConfig.baseline(),
                seed=0,
                workload=trace,
            )

    def test_mismatched_workload_refuses(self, snapshot):
        path, _ = snapshot
        with pytest.raises(FingerprintMismatchError):
            resume(
                path, config=CONFIG, netcrafter=NC, seed=0, workload=_trace("gups")
            )

    def test_single_snapshot_refuses_sharded_resume(self, snapshot):
        path, trace = snapshot
        with pytest.raises(FingerprintMismatchError):
            resume(
                path,
                config=CONFIG,
                netcrafter=NC,
                seed=0,
                workload=trace,
                sharding=ShardingOptions(n_shards=2, parallel=False),
            )

    def test_foreign_file_is_not_a_snapshot(self, tmp_path):
        path = tmp_path / "not-a-snapshot"
        path.write_bytes(b"definitely not a checkpoint\n")
        with pytest.raises(SnapshotFormatError):
            read_header(path)

    def test_future_format_version_refuses(self, snapshot, tmp_path):
        path, _ = snapshot
        raw = path.read_bytes()
        magic, header_line, payload = raw.split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = SNAPSHOT_FORMAT_VERSION + 1
        doctored = tmp_path / "future.ckpt"
        doctored.write_bytes(
            magic + b"\n" + json.dumps(header).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotFormatError):
            read_header(doctored)

    def test_ring_engine_format_refuses_naming_both_versions(self, snapshot, tmp_path):
        """Format 6 pickled the calendar-ring engine's pending set with a
        sequence number per event; this version cannot read it."""
        path, _ = snapshot
        magic, header_line, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = 6
        old = tmp_path / "ring.ckpt"
        old.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(
            SnapshotFormatError,
            match=rf"format 6, this version reads {SNAPSHOT_FORMAT_VERSION}",
        ):
            read_header(old)

    def test_global_id_format_refuses_naming_both_versions(self, snapshot, tmp_path):
        """Format 7 stored the process-global packet/flit ID cursors
        beside the system; IDs now live in the RDMA engines and egress
        controllers, and this version cannot read it."""
        path, _ = snapshot
        magic, header_line, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = 7
        old = tmp_path / "global-ids.ckpt"
        old.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(
            SnapshotFormatError,
            match=rf"format 7, this version reads {SNAPSHOT_FORMAT_VERSION}",
        ):
            read_header(old)

    def test_receiver_reassembly_format_refuses_naming_both_versions(
        self, snapshot, tmp_path
    ):
        """Format 8 pickled packets without their unsent-flit count, which
        the sending link now counts down to complete a packet; this
        version cannot read it."""
        path, _ = snapshot
        magic, header_line, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = 8
        old = tmp_path / "receiver-reassembly.ckpt"
        old.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(
            SnapshotFormatError,
            match=rf"format 8, this version reads {SNAPSHOT_FORMAT_VERSION}",
        ):
            read_header(old)

    def test_per_flit_delivery_format_refuses_naming_both_versions(
        self, snapshot, tmp_path
    ):
        """Format 9 pickled switches with a reassembly buffer and faulted
        links' pending per-flit deliveries; every link now completes
        packets at the sender, and this version cannot read it."""
        path, _ = snapshot
        magic, header_line, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = 9
        old = tmp_path / "per-flit-delivery.ckpt"
        old.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(
            SnapshotFormatError,
            match=rf"format 9, this version reads {SNAPSHOT_FORMAT_VERSION}",
        ):
            read_header(old)

    def test_kernel_boundary_format_refuses_naming_both_versions(
        self, snapshot, tmp_path
    ):
        """Format 10 snapshots were taken inside the kernel-boundary
        event and resumed by replaying its tail; snapshots are now cut
        between engine runs, and this version cannot read it."""
        path, _ = snapshot
        magic, header_line, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_line)
        header["format"] = 10
        old = tmp_path / "kernel-boundary.ckpt"
        old.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        assert SNAPSHOT_FORMAT_VERSION == 11
        with pytest.raises(SnapshotFormatError, match=r"format 10, this version reads 11"):
            read_header(old)

    def test_header_reads_without_unpickling(self, snapshot):
        path, _ = snapshot
        header = read_header(path)
        assert header["mode"] == "single"
        assert header["cycle"] == 1000
        assert "boundary" not in header
        assert header["format"] == SNAPSHOT_FORMAT_VERSION
