"""Personalized PageRank substrate: exact, push-based, Monte-Carlo,
FORA, and top-k solvers."""

from .backward_push import backward_push
from .fora import fora
from .forward_push import forward_push
from .kernels import (HAS_NUMBA, KERNELS, available_kernels,
                      backward_push_batch, default_kernel,
                      forward_push_batch, resolve_kernel, spread_frontier)
from .monte_carlo import monte_carlo_ppr, terminate_walks
from .power_iteration import (ppr_matrix_dense, ppr_row, ppr_rows,
                              truncated_ppr_matrix)
from .topk import top_k_ppr, top_k_ppr_exact

__all__ = [
    "ppr_row", "ppr_rows", "ppr_matrix_dense", "truncated_ppr_matrix",
    "forward_push", "backward_push", "monte_carlo_ppr", "terminate_walks",
    "fora", "top_k_ppr", "top_k_ppr_exact",
    "forward_push_batch", "backward_push_batch", "spread_frontier",
    "KERNELS", "HAS_NUMBA", "available_kernels", "default_kernel",
    "resolve_kernel",
]
