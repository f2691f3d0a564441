"""Linear-algebra substrate: randomized SVDs, projections, PPMI, filters."""

from .bksvd import bksvd, default_krylov_iterations
from .chebyshev import apply_chebyshev_filter, chebyshev_coefficients
from .ppmi import deepwalk_matrix_dense, ppmi_dense, ppmi_sparse
from .projections import gaussian_projection, orthogonal_projection
from .rsvd import randomized_svd
from .sparse_svd import sparse_eigsh, sparse_svd

__all__ = [
    "bksvd", "default_krylov_iterations", "randomized_svd",
    "gaussian_projection", "orthogonal_projection",
    "ppmi_dense", "ppmi_sparse", "deepwalk_matrix_dense",
    "chebyshev_coefficients", "apply_chebyshev_filter",
    "sparse_svd", "sparse_eigsh",
]
