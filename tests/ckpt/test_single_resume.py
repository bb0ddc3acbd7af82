"""Single-engine checkpoint/resume: byte-identity at every boundary.

The standing gate in miniature: snapshot a ``MultiGpuSystem`` at each
kernel boundary, resume each snapshot in the same process, and require
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
    """Retain each boundary's snapshot instead of overwriting it."""

    def after_save(self, boundary):
        shutil.copy(self.path, f"{self.path}.b{boundary}")


def _trace(workload: str):
    return get_workload(workload).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.small(), seed=0
    )


def _reference_payload(trace):
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node.load(trace)
    return digestable_payload(node.run().to_dict())


def _checkpointed_run(trace, tmp_path):
    fingerprint = run_fingerprint(CONFIG, NC, 0, trace)
    hook = KeepEvery(path=tmp_path / "s.ckpt", fingerprint=fingerprint, every=1)
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node._ckpt_hook = hook
    node.load(trace)
    return hook, digestable_payload(node.run().to_dict())


@pytest.mark.parametrize("workload", ["mm2", "lenet"])
def test_every_boundary_resumes_byte_identical(workload, tmp_path):
    trace = _trace(workload)
    reference = _reference_payload(trace)
    hook, hooked = _checkpointed_run(trace, tmp_path)
    # the hook is a pure observer: the checkpointed run itself is
    # indistinguishable from the unhooked one
    assert hooked == reference
    # one snapshot per kernel boundary, final boundary included
    assert hook.saved_boundaries == list(range(1, len(trace.kernels) + 1))
    for boundary in hook.saved_boundaries:
        result = resume(
            tmp_path / f"s.ckpt.b{boundary}",
            config=CONFIG,
            netcrafter=NC,
            seed=0,
            workload=trace,
        )
        assert digestable_payload(result.to_dict()) == reference, (
            f"boundary {boundary} resumed to a different result"
        )


def test_every_option_skips_intermediate_boundaries(tmp_path):
    trace = _trace("lenet")
    fingerprint = run_fingerprint(CONFIG, NC, 0, trace)
    hook = Checkpointer(path=tmp_path / "s.ckpt", fingerprint=fingerprint, every=4)
    node = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0)
    node._ckpt_hook = hook
    node.load(trace)
    node.run()
    # every 4th boundary plus the final one (lenet has 10 kernels)
    assert hook.saved_boundaries == [4, 8, 10]


class TestLoudFailures:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        trace = _trace("mm2")
        hook, _ = _checkpointed_run(trace, tmp_path)
        return tmp_path / "s.ckpt.b1", trace

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
        with pytest.raises(SnapshotFormatError, match=r"format 9, this version reads 10"):
            read_header(old)

    def test_header_reads_without_unpickling(self, snapshot):
        path, _ = snapshot
        header = read_header(path)
        assert header["mode"] == "single"
        assert header["boundary"] == 1
        assert header["format"] == SNAPSHOT_FORMAT_VERSION
