"""CI gates for the fault-injection subsystem.

Two checks, both cheap enough for every pull request, and both run
their points as campaigns through the smoke gate's runner
(:func:`repro.bench.smoke.run_smoke_grid`):

``--check-inert``
    Reruns the quick smoke grid with fault blocks that must be inert —
    all rates zero (auto-disable) and ``enabled=False`` with nonzero
    rates (forced off) — and requires the committed single-engine digest
    (``SMOKE_digest.json``) back, byte for byte.  Proves the subsystem
    costs nothing and changes nothing when disabled.

``--chaos-smoke``
    One seeded faulty run; asserts faults actually fired (nonzero
    corrupted and retransmitted counters), that the link-level
    conservation identity holds (every corrupted/dropped transmission is
    either retransmitted or abandoned), that goodput never exceeds raw
    wire throughput, and that recovery is lossless — the faulty run
    delivers exactly the same payload bytes as a fault-free run of the
    same workload.  Proves the subsystem works when enabled.

Usage::

    python -m repro.faults --check-inert --expect-file SMOKE_digest.json
    python -m repro.faults --chaos-smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: fault blocks that must leave the quick smoke grid byte-identical
INERT_FAULTS = {
    "zero rates (auto-disable)": {"ber": 0.0, "drop_rate": 0.0},
    "enabled=False with nonzero rates": {
        "ber": 1e-4,
        "drop_rate": 0.01,
        "flaps": [[100, 500, 0.5]],
        "seed": 9,
        "enabled": False,
    },
}

#: the chaos smoke's faulted point: corruption, drops and one flap window
CHAOS_FAULTS = {
    "ber": 2e-4,
    "drop_rate": 0.01,
    "flaps": [[200, 900, 0.25]],
    "seed": 7,
    "rdma_timeout": 512,
}


def check_inert(expect_file: str) -> int:
    from repro.bench.smoke import results_digest, run_smoke_grid, smoke_campaign

    expected = json.loads(Path(expect_file).read_text())["quick"]
    failures = 0
    for label, faults in INERT_FAULTS.items():
        campaign = smoke_campaign(quick=True)
        for point in campaign["points"]:
            point["faults"] = faults
        results, _, _ = run_smoke_grid(campaign)
        digest = results_digest([r.to_dict() for r in results])
        ok = digest == expected
        print(f"inert [{label}]: {digest} {'OK' if ok else 'MISMATCH'}")
        if not ok:
            print(f"  expected {expected}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def chaos_smoke() -> int:
    from repro.bench.smoke import run_smoke_grid

    point = {"workload": "gups", "variant": "full", "scale": "tiny", "seed": 0}
    campaign = {"name": "chaos-smoke", "points": [point, {**point, "faults": CHAOS_FAULTS}]}
    (clean, result), _, _ = run_smoke_grid(campaign)
    f = result.stats.faults

    checks = [
        ("run completed", result.cycles > 0),
        ("fault stats collected", f is not None),
        ("flits corrupted", f.flits_corrupted > 0),
        ("flits retransmitted", f.flits_retransmitted > 0),
        (
            "conservation: corrupted+dropped == retransmitted+abandoned",
            f.flits_corrupted + f.flits_dropped
            == f.flits_retransmitted + f.flits_abandoned,
        ),
        ("crc verdicts cover wire flits", f.crc_ok > 0 and f.crc_fail > 0),
        (
            "goodput <= raw throughput",
            result.inter_useful_bytes <= result.inter_wire_bytes,
        ),
        (
            "recovery lossless: delivered payload bytes match fault-free run",
            result.inter_useful_bytes == clean.inter_useful_bytes,
        ),
        (
            "recovery latencies recorded",
            f.recovery_latency.count == f.flits_retransmitted
            or f.recovery_latency.count > 0,
        ),
    ]
    failures = 0
    for label, ok in checks:
        print(f"chaos-smoke [{label}]: {'OK' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    print(
        f"  cycles={result.cycles} corrupted={f.flits_corrupted} "
        f"dropped={f.flits_dropped} retransmitted={f.flits_retransmitted} "
        f"abandoned={f.flits_abandoned} rdma_retries={f.rdma_retries} "
        f"goodput_ratio={result.goodput_ratio():.3f}"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="CI gates for the deterministic fault-injection layer.",
    )
    parser.add_argument(
        "--check-inert",
        action="store_true",
        help="disabled fault configs must reproduce the committed smoke digest",
    )
    parser.add_argument(
        "--chaos-smoke",
        action="store_true",
        help="one seeded faulty run with counter/conservation assertions",
    )
    parser.add_argument(
        "--expect-file",
        default="SMOKE_digest.json",
        metavar="PATH",
        help="committed digest file for --check-inert (default: "
        "SMOKE_digest.json)",
    )
    args = parser.parse_args(argv)
    if not (args.check_inert or args.chaos_smoke):
        parser.error("nothing to do: pass --check-inert and/or --chaos-smoke")
    exit_code = 0
    if args.check_inert:
        exit_code |= check_inert(args.expect_file)
    if args.chaos_smoke:
        exit_code |= chaos_smoke()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
