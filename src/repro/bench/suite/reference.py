"""Reference result digests: the suite's correctness check.

Every point (and every served campaign) the suite runs is digested with
:func:`repro.bench.smoke.results_digest`, which excludes effort fields
such as ``events_processed``.  The digest is checked against the
committed ``suite_reference.json`` — generated on the single-engine,
direct :func:`~repro.experiments.runner.execute_point` path for base
seeds 0 and 1 — so the sharded and served entries also check cross-mode
identity.  Points the committed file does not cover (other seeds) are
recomputed on that same reference path after the timed region.

Regenerate with ``python -m repro.bench.suite reference`` only when the
simulator's results change on purpose.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.bench.smoke import results_digest
from repro.bench.suite.workloads import WORKLOADS, Workload
from repro.experiments.runner import execute_point

REFERENCE_PATH = Path(__file__).with_name("suite_reference.json")

#: base seeds the committed reference covers
REFERENCE_SEEDS = (0, 1)

#: serving rounds per base seed the committed reference covers
REFERENCE_SERVE_ROUNDS = 48


def serve_seed_sets(base_seed: int) -> Iterator[Tuple[int, ...]]:
    """Campaign seed sets of a serving run: the warm-up campaign
    ``(S,)``, then round ``r`` = ``(S+r-1, S+r)`` for ``r = 1, 2, ...`` —
    each round re-requests the previous round's newer seed (served from
    the server's memo) next to one seed no round has asked for yet."""
    yield (base_seed,)
    for r in itertools.count(1):
        yield (base_seed + r - 1, base_seed + r)


def campaign_key(seeds: Iterable[int]) -> str:
    return "s" + "-".join(str(s) for s in seeds)


class Reference:
    """Committed digests per workload: ``{workload: {key: digest}}``."""

    def __init__(self, digests: Dict[str, Dict[str, str]]) -> None:
        self.digests = digests

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "Reference":
        doc = json.loads(Path(path or REFERENCE_PATH).read_text())
        return cls(doc["digests"])

    def expected(self, workload: str, key: str) -> Optional[str]:
        return self.digests.get(workload, {}).get(key)


def generate(workloads: Iterable[Workload] = WORKLOADS.values()) -> Dict[str, object]:
    """Recompute the committed reference document."""
    from repro.campaign.spec import parse_campaign

    digests: Dict[str, Dict[str, str]] = {}
    for wl in workloads:
        table: Dict[str, str] = {}
        if wl.kind == "serve":
            memo: Dict[str, Dict[str, object]] = {}
            for base in REFERENCE_SEEDS:
                for seeds in itertools.islice(
                    serve_seed_sets(base), REFERENCE_SERVE_ROUNDS + 1
                ):
                    spec = parse_campaign(wl.campaign(seeds), wl.name)
                    for fp, point in zip(spec.fingerprints, spec.points):
                        if fp not in memo:
                            memo[fp] = execute_point(point)[0].to_dict()
                    table[campaign_key(seeds)] = results_digest(
                        [memo[fp] for fp in spec.fingerprints]
                    )
        else:
            for base in REFERENCE_SEEDS:
                for point in wl.points(base):
                    if point.label not in table:
                        result, _ = execute_point(wl.experiment_point(point))
                        table[point.label] = results_digest([result.to_dict()])
        digests[wl.name] = dict(sorted(table.items()))
    return {
        "generated_by": "python -m repro.bench.suite reference",
        "base_seeds": list(REFERENCE_SEEDS),
        "serve_rounds": REFERENCE_SERVE_ROUNDS,
        "digests": digests,
    }
