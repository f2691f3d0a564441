"""Table 1 + Example 1: exact PPR on the Figure-1 graph and its
rank-k' factorization by ApproxPPR.

Regenerates the paper's Table 1 rows (sources v2, v4, v7, v9 at
alpha = 0.15) and checks the Example-1 score pair
(X_v2 . Y_v4 ~ 0.119, X_v9 . Y_v7 ~ 0.166).
"""

import numpy as np

from conftest import report
from repro.bench import format_table
from repro.core import ApproxPPRConfig, approx_ppr_embeddings
from repro.graph import TABLE1_PPR, figure1_graph
from repro.ppr import ppr_matrix_dense


def test_table1_exact_ppr(benchmark):
    graph = figure1_graph()
    pi = benchmark.pedantic(lambda: ppr_matrix_dense(graph, 0.15),
                            rounds=3, iterations=1)
    rows = []
    for src in (1, 3, 6, 8):
        rows.append([f"pi(v{src + 1}, .) ours",
                     *[round(float(v), 3) for v in pi[src]]])
        rows.append([f"pi(v{src + 1}, .) paper", *TABLE1_PPR[src]])
    block = format_table(["row", *[f"v{i}" for i in range(1, 10)]], rows,
                         float_fmt="{:.3f}")
    report("table1_ppr", f"\nTable 1 (alpha=0.15) - paper vs reproduction\n"
                         f"(paper's v7 row is a known erratum: it breaks "
                         f"d(u) pi(u,v) = d(v) pi(v,u), so it is not "
                         f"checked)\n{block}")
    for src in (1, 3, 8):
        np.testing.assert_allclose(pi[src], TABLE1_PPR[src], atol=1.5e-3)


def test_example1_approxppr_scores(benchmark):
    graph = figure1_graph()
    cfg = ApproxPPRConfig(k_prime=6, svd="exact")
    x, y = benchmark.pedantic(lambda: approx_ppr_embeddings(graph, cfg),
                              rounds=3, iterations=1)
    s24, s97 = float(x[1] @ y[3]), float(x[8] @ y[6])
    block = format_table(
        ["pair", "paper", "ours"],
        [["X_v2 . Y_v4", 0.119, s24], ["X_v9 . Y_v7", 0.166, s97]])
    report("example1_scores", f"\nExample 1 - factorized PPR scores\n{block}")
    assert abs(s24 - 0.119) < 0.02 and abs(s97 - 0.166) < 0.02
