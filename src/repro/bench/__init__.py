"""Benchmark subsystem: the repo's performance baseline and trajectory.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; this package is how that claim is measured rather than
asserted.  It provides:

* **microbenchmarks** (:mod:`repro.bench.micro`) isolating the three
  inner loops every experiment pays for — engine event dispatch, link
  serialization, and the Cluster Queue stitch scan;
* an **end-to-end smoke sweep** (:mod:`repro.bench.smoke`) over a
  representative workload x configuration grid, which doubles as the
  bit-identity gate: its result digest must not move unless simulator
  semantics intentionally changed;
* a **report format** (``BENCH_core.json``, validated by
  :mod:`repro.bench.schema`) and a ``--compare`` mode
  (:mod:`repro.bench.harness`) that diffs a fresh run against the
  committed baseline (``BENCH_baseline.json``) so perf regressions and
  semantic drift both fail loudly, in CI and locally.

Run ``python -m repro.bench --help`` for the CLI.

The names below load on first use (PEP 562): importing
:mod:`repro.bench.smoke` or :mod:`repro.bench.suite`, as the campaign
server and the benchmark suite do, compiles neither the harness nor the
schema.
"""

import importlib

#: exported name -> the module defining it
_EXPORTS = {
    "BenchRecord": "repro.bench.harness",
    "BenchReport": "repro.bench.harness",
    "compare_reports": "repro.bench.harness",
    "run_benchmarks": "repro.bench.harness",
    "BENCH_SCHEMA_VERSION": "repro.bench.schema",
    "validate_report": "repro.bench.schema",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
