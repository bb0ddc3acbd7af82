"""Layer-attributed benchmark suite (``python -m repro.bench.suite``).

Four workloads — two serial sweeps, a sharded collective run and a
served campaign mix — each reporting the end-to-end metrics declared in
the repository's ``BENCHMARK.json``, checked against reference digests,
plus a traced run that splits the time into per-layer metrics.  See
``SUITE.md`` beside this file.
"""
