"""Personalized PageRank: the exact power-iteration oracle and the
frontier spread of the streaming repair."""

from .kernels import spread_frontier
from .power_iteration import (ppr_matrix_dense, ppr_row, ppr_rows,
                              truncated_ppr_matrix)

__all__ = [
    "ppr_row", "ppr_rows", "ppr_matrix_dense", "truncated_ppr_matrix",
    "spread_frontier",
]
