"""Alternative page-placement policies, for the Section 5.1 analysis.

The paper validates its baseline by showing LASP "effectively maximizes
local accesses and balances remote accesses across GPUs" — i.e. the
network bottleneck is not an artifact of bad placement.  These helpers
rewrite a workload trace's page->owner maps under naive policies so the
comparison can be reproduced:

* ``interleave`` — pages round-robin across GPUs regardless of affinity
  (UVM's default striping);
* ``single_gpu`` — everything on GPU 0 (the no-placement worst case).

CTA scheduling is left untouched: the study isolates *data placement*.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.gpu.cta import KernelTrace, WorkloadTrace


def _rewrite(trace: WorkloadTrace, n_gpus: int, gpu: Optional[int]) -> WorkloadTrace:
    """Re-own every page: round-robin by sorted VPN, or all on ``gpu``."""
    kernels = []
    for kernel in trace.kernels:
        new_owner: Dict[int, int] = {
            vpn: index % n_gpus if gpu is None else gpu
            for index, vpn in enumerate(sorted(kernel.page_owner))
        }
        kernels.append(
            KernelTrace(name=kernel.name, ctas=kernel.ctas, page_owner=new_owner)
        )
    out = WorkloadTrace(name=f"{trace.name}", kernels=kernels)
    out.validate()
    return out


def interleave_placement(trace: WorkloadTrace, n_gpus: int) -> WorkloadTrace:
    """Stripe every page round-robin across GPUs."""
    return _rewrite(trace, n_gpus, None)


def single_gpu_placement(trace: WorkloadTrace, n_gpus: int, gpu: int = 0) -> WorkloadTrace:
    """Place every page on one GPU (the no-placement worst case)."""
    if not 0 <= gpu < n_gpus:
        raise ValueError(f"no such GPU {gpu}")
    return _rewrite(trace, n_gpus, gpu)


#: the naive policies by name: ``get_workload("gups@interleave")`` builds
#: the registered workload's trace and re-places its pages with one
PLACEMENTS = {
    "interleave": interleave_placement,
    "single_gpu": single_gpu_placement,
}


def access_locality(trace: WorkloadTrace) -> Dict[str, float]:
    """Static locality profile of a placed trace (Section 5.1's analysis).

    Returns the fraction of accesses whose page lives on the issuing
    CTA's GPU (``local``), plus the per-GPU balance of remote accesses
    (``remote_imbalance``: max/mean of remote-access counts by home GPU;
    1.0 = perfectly balanced).
    """
    local = 0
    total = 0
    remote_by_home: Dict[int, int] = {}
    for kernel in trace.kernels:
        for cta in kernel.ctas:
            for wf in cta.wavefronts:
                for acc in wf.accesses:
                    total += 1
                    owner = kernel.page_owner[acc.vpn]
                    if owner == cta.gpu:
                        local += 1
                    else:
                        remote_by_home[owner] = remote_by_home.get(owner, 0) + 1
    if total == 0:
        return {"local": 0.0, "remote_imbalance": 1.0}
    if remote_by_home:
        counts = list(remote_by_home.values())
        imbalance = max(counts) / (sum(counts) / len(counts))
    else:
        imbalance = 1.0
    return {"local": local / total, "remote_imbalance": imbalance}
