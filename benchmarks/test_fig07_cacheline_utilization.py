"""Figure 7: inter-cluster reads by bytes required (Observation 2).

Paper: the sparse workloads (GUPS, SPMV, MIS, PR) need <=16 bytes of the
64-byte line for most requests — the opportunity Trimming exploits —
while streaming workloads need the whole line.
"""

from repro.experiments import run_figure


def test_fig07_cacheline_utilization(benchmark, exp, record_table):
    result = benchmark.pedantic(
        run_figure, args=("fig7", exp), rounds=1, iterations=1
    )
    record_table(result)
    le16 = dict(zip(result.labels, result.series["<= 16B"]))
    for sparse in ("gups", "spmv", "mis"):
        if sparse in le16:
            assert le16[sparse] > 0.5, sparse
    for streaming in ("im2col", "syr2k", "vgg16"):
        if streaming in le16:
            assert le16[streaming] < 0.5, streaming
