"""Pinned digests for configuration branches the smoke grid leaves out.

``SMOKE_digest.json`` runs the default system, so the CU's directory
hooks (``coherence="hardware"``) and its sector-fetch fill path
(``l1_fetch_mode="sector"``) reach no digest gate there.  These points
pin them: ``Scale.tiny()`` ``gups`` and ``mt``, baseline and full, seed
0, each ``results_digest`` recorded before the memory-path inlining and
unchanged by it.

At ``Scale.tiny()`` no write meets a remote sharer, so the hardware
points send no invalidation and equal their software-coherence digests;
``gups`` at ``Scale.small()`` sends 95 (baseline) and 85 (full), which
pins the directory's invalidation path too.
"""

import pytest

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.runner import ExperimentPoint, execute_point
from repro.workloads.base import Scale

BRANCHES = {
    "coherence=hardware": {"coherence": "hardware"},
    "l1_fetch_mode=sector": {"l1_fetch_mode": "sector"},
}

SCALES = {"tiny": Scale.tiny(), "small": Scale.small()}

PINNED = {
    ("coherence=hardware", "gups", "baseline", "tiny"):
        "0fc80e7d5e67726cb37e779b4170a0a4e9832cf9c2363fa5d7151a8912f89422",
    ("coherence=hardware", "gups", "full", "tiny"):
        "b8fc66294687367476e939968ebe6973eca3abe6799121ce6cd0c2895804c0ef",
    ("coherence=hardware", "mt", "baseline", "tiny"):
        "577b29f126d4507c61232430cc0c4c12fb366594f510677de650675b639a9a4a",
    ("coherence=hardware", "mt", "full", "tiny"):
        "1d912e92b840fcd96cd476af7abb98535f409d3bead7b5e59ae02e165f087cb9",
    ("l1_fetch_mode=sector", "gups", "baseline", "tiny"):
        "401fb339a09a914f2f5b9e82eb1d684f1cb6647afc93e9959247856f18706df4",
    ("l1_fetch_mode=sector", "gups", "full", "tiny"):
        "ba6e918a0a533877a5537fffd05768aa631023111ca888ec7e12f5b2f5711935",
    ("l1_fetch_mode=sector", "mt", "baseline", "tiny"):
        "39be0443d32b0e5651f151b9957f6711927b788c5dea8f2b6b1923c256554c9a",
    ("l1_fetch_mode=sector", "mt", "full", "tiny"):
        "f876f3f6e6706c03b1f86a5d21dfd853c58f6acbedad9d381fb8f7d2093a7d96",
    ("coherence=hardware", "gups", "baseline", "small"):
        "0c9ddcf90d09349c5cbba0950fc30ddcc498cbea9c9b0715ffd999336bcf77b0",
    ("coherence=hardware", "gups", "full", "small"):
        "c91cda27f4137a4843318cdf4d7a6566bd13439a8af48b30201da198e15d47a1",
}


@pytest.mark.parametrize("branch, workload, variant, scale", sorted(PINNED))
def test_branch_point_digest_is_pinned(branch, workload, variant, scale):
    point = ExperimentPoint(
        workload=workload,
        system=SystemConfig.default().with_overrides(**BRANCHES[branch]),
        netcrafter=getattr(NetCrafterConfig, variant)(),
        scale=SCALES[scale],
        seed=0,
    )
    result, _ = execute_point(point)
    assert results_digest([result.to_dict()]) == PINNED[branch, workload, variant, scale]
