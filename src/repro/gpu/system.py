"""MultiGpuSystem: build, load a workload, run, and report.

This is the top of the public API: construct with a
:class:`~repro.config.SystemConfig` and a
:class:`~repro.core.config.NetCrafterConfig`, load a
:class:`~repro.gpu.cta.WorkloadTrace`, call :meth:`run`, and read the
returned :class:`~repro.stats.report.RunResult`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import KernelTrace
from repro.gpu.node import NodeCore
from repro.obs import Observability
from repro.stats.assemble import assemble_result
from repro.stats.report import RunResult


def config_label(config: SystemConfig, netcrafter: NetCrafterConfig) -> str:
    """Short human label for a (system, netcrafter) configuration pair.

    Shared between the single-engine system and the sharded coordinator
    so both report identical ``RunResult.config_label`` strings.
    """
    parts: List[str] = []
    if netcrafter.enable_stitching:
        label = "stitch"
        if netcrafter.enable_pooling:
            label += (
                f"+sfp{netcrafter.pooling_window}"
                if netcrafter.selective_pooling
                else f"+fp{netcrafter.pooling_window}"
            )
        parts.append(label)
    if netcrafter.enable_trimming:
        parts.append("trim")
    if netcrafter.enable_sequencing:
        parts.append("seq")
    if config.l1_fetch_mode == "sector":
        parts.append(f"sector{config.l1_sector_bytes}")
    if not parts:
        parts.append("baseline")
    return "+".join(parts)


class MultiGpuSystem(NodeCore):
    """A complete non-uniform bandwidth multi-GPU node on one engine.

    The node machinery lives in :class:`~repro.gpu.node.NodeCore`; this
    class adds the single-engine drive: kernels launch back to back,
    each after a polled quiesce at the previous kernel's end.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        netcrafter: Optional[NetCrafterConfig] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        config = config or SystemConfig.default()
        super().__init__(
            config,
            netcrafter or NetCrafterConfig.baseline(),
            seed,
            obs or Observability(),
            gpu_ids=range(config.n_gpus),
        )
        #: optional :class:`repro.ckpt.Checkpointer`: :meth:`run` then
        #: runs the engine in slices and snapshots between them
        self._ckpt_hook = None

    def __getstate__(self) -> dict:
        # the hook belongs to the run that saves, not to its snapshot
        state = self.__dict__.copy()
        state["_ckpt_hook"] = None
        return state

    # -- execution ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run all kernels to completion and assemble the result.

        A restored snapshot (:func:`repro.ckpt.resume`) continues where
        it was cut.  With a checkpoint hook the engine runs in slices
        ending at the hook's cuts, and the system is saved between
        slices, where no event is half done.
        """
        if not self._begun:
            self._begin()
        engine = self.engine
        hook = self._ckpt_hook
        if hook is None:
            engine.run()
        else:
            while True:
                engine.run(until=hook.next_cut(engine.now))
                if engine.peek_time() is None:
                    break
                hook.save("single", engine.now, {"system": self})
        if self.stats.finish_cycle is None:
            raise RuntimeError(
                "simulation drained without completing all wavefronts "
                f"(kernel {self._kernel_index}, {self._wavefronts_remaining} left)"
            )
        return self._collect(self._workload.name)

    def _start_kernel(self, kernel: KernelTrace) -> None:
        self._wavefronts_remaining = kernel.wavefront_count()
        if self._wavefronts_remaining == 0:
            self._on_kernel_done()
            return
        self._dispatch_ctas(kernel)

    def _on_wavefront_done(self) -> None:
        self._wavefronts_remaining -= 1
        if self._wavefronts_remaining == 0:
            self._on_kernel_done()

    def _on_kernel_done(self) -> None:
        self.stats.kernel_count += 1
        if self.config.coherence == "software":
            # software-managed coherence flushes L1s at kernel boundaries;
            # the hardware-coherence extension keeps them live (the
            # directory invalidates stale copies eagerly)
            for gpu in self.gpus.values():
                gpu.invalidate_l1s()
        self.engine.schedule(0, self._advance_when_quiesced)

    def _is_quiesced(self) -> bool:
        """Kernel-boundary fence: posted writes and coherence
        invalidations must drain before the next kernel launches."""
        return all(
            gpu.rdma.outstanding_writes == 0
            and gpu.rdma.outstanding_invalidations == 0
            for gpu in self.gpus.values()
        )

    def _advance_when_quiesced(self) -> None:
        if not self._is_quiesced():
            self.engine.schedule(16, self._advance_when_quiesced)
            return
        self._kernel_index += 1
        self._phase_close(self.engine.now)
        if self._kernel_index < len(self._workload.kernels):
            next_kernel = self._workload.kernels[self._kernel_index]
            self._phase_begin(next_kernel)
            self._start_kernel(next_kernel)
        else:
            self.stats.finish_cycle = self.engine.now

    # -- result assembly ---------------------------------------------------------------

    def _collect(self, workload_name: str) -> RunResult:
        cycles = self.stats.finish_cycle
        return assemble_result(
            workload=workload_name,
            config_label=self._config_label(),
            cycles=cycles,
            kernel_count=self.stats.kernel_count,
            slices=[self.harvest(cycles)],
        )

    def _config_label(self) -> str:
        return config_label(self.config, self.netcrafter)
