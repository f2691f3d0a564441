"""STRAP: scalable transpose-proximity embedding (Yin & Wei, KDD'19).

STRAP approximates the *transpose proximity* ``M = Pi + Pi^T`` (PPR of
the graph plus PPR of the reversed graph), keeps only entries above
``delta/2``, and factorizes with sparse SVD. The forward/backward
halves ``U sqrt(S), V sqrt(S)`` make it direction-aware, which is why
the NRP paper treats it as the strongest PPR competitor.

Substitution note: the original uses
per-node backward push with threshold ``delta``; pushing node-by-node
in pure Python is orders slower than the authors' C++, so the seed
computed the same thresholded approximation with pruned sparse power
iteration — every series term is accumulated in CSR form and entries
below ``delta/2`` are dropped each round, giving the same
sparsity/accuracy semantics at vectorized speed. With the
frontier-synchronous kernel layer (:mod:`repro.ppr.kernels`) the
original per-target formulation is now fast too:
:func:`pruned_ppr_matrix_push` builds the same thresholded matrix from
batched backward pushes, and ``STRAP(solver="push")`` fits on it. The
two solvers agree within the additive push bound (``delta / 2``) and
are property-tested against each other; ``solver="power"`` stays the
default so seed results remain bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError
from ..graph import Graph
from ..linalg import sparse_svd
from ..ppr.kernels import backward_push_batch
from .base import BaselineEmbedder, register

__all__ = ["STRAP", "pruned_ppr_matrix", "pruned_ppr_matrix_push"]


def pruned_ppr_matrix(graph: Graph, alpha: float, *, delta: float,
                      max_terms: int = 100) -> sp.csr_matrix:
    """Sparse approximation of ``Pi`` keeping entries ``>= delta / 2``.

    Accumulates ``alpha (1-alpha)^i P^i`` and prunes small entries of the
    *iterate* each term, mirroring how push truncates small residues.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must be in (0, 1)")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    p = graph.transition_matrix().tocsr()
    n = graph.num_nodes
    term = sp.identity(n, format="csr") * alpha
    terms = [term.copy()]
    threshold = delta / 2.0
    for i in range(1, max_terms + 1):
        term = ((1.0 - alpha) * term) @ p
        term.data[term.data < threshold * alpha] = 0.0
        term.eliminate_zeros()
        if term.nnz == 0 or (1.0 - alpha) ** i < threshold:
            break
        terms.append(term.copy())
    # one balanced reduction instead of n_terms incremental additions
    while len(terms) > 1:
        terms = [terms[j] + terms[j + 1] if j + 1 < len(terms) else terms[j]
                 for j in range(0, len(terms), 2)]
    acc = terms[0].tocsr()
    acc.data[acc.data < threshold] = 0.0
    acc.eliminate_zeros()
    return acc


#: Per-batch dense-buffer budget of the push matrix builder, in float64
#: elements: each backward_push_batch call materializes two
#: ``(batch, n)`` buffers, so the batch shrinks as graphs grow to keep
#: the peak near ~256 MB instead of scaling with ``batch_size * n``.
_PUSH_BATCH_ELEMENTS = 16 << 20


def pruned_ppr_matrix_push(graph: Graph, alpha: float, *, delta: float,
                           batch_size: int = 512,
                           kernel: str | None = None) -> sp.csr_matrix:
    """Sparse ``Pi`` via batched backward push, entries ``>= delta / 2``.

    The original STRAP formulation: column ``t`` of ``Pi`` is the
    backward-push estimate toward target ``t`` with residue threshold
    ``delta / 2`` (additive error at most ``delta / 2`` per entry), and
    entries below ``delta / 2`` are dropped. Targets are processed in
    batches through :func:`repro.ppr.kernels.backward_push_batch`, so
    the whole matrix costs one frontier sweep per batch rather than one
    Python-level push per node. ``batch_size`` is a ceiling: the
    effective batch shrinks on large graphs so the kernel's dense
    ``(batch, n)`` buffers stay within a fixed memory budget.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must be in (0, 1)")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    n = graph.num_nodes
    threshold = delta / 2.0
    batch = max(1, min(batch_size, _PUSH_BATCH_ELEMENTS // max(1, n)))
    blocks = []
    for start in range(0, n, batch):
        targets = np.arange(start, min(start + batch, n),
                            dtype=np.int64)
        estimate, _ = backward_push_batch(graph, targets, alpha,
                                          r_max=threshold, kernel=kernel)
        estimate[estimate < threshold] = 0.0
        blocks.append(sp.csr_matrix(estimate))
    # block rows are Pi columns: stack to (n, n) then transpose back
    return sp.vstack(blocks, format="csr").T.tocsr()


@register
class STRAP(BaselineEmbedder):
    """Transpose-proximity PPR factorization with forward/backward halves."""

    name = "STRAP"
    directional = True
    lp_scoring = "inner"

    def __init__(self, dim: int = 128, *, alpha: float = 0.15,
                 delta: float = 1e-5, solver: str = "power",
                 kernel: str | None = None, seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        if solver not in ("power", "push"):
            raise ParameterError(
                f"solver must be 'power' or 'push', got {solver!r}")
        self.alpha = alpha
        self.delta = delta
        self.solver = solver
        self.kernel = kernel

    def _pruned_pi(self, graph: Graph) -> sp.csr_matrix:
        if self.solver == "push":
            return pruned_ppr_matrix_push(graph, self.alpha,
                                          delta=self.delta,
                                          kernel=self.kernel)
        return pruned_ppr_matrix(graph, self.alpha, delta=self.delta)

    def fit(self, graph: Graph) -> "STRAP":
        pi = self._pruned_pi(graph)
        if graph.directed:
            pi_t = self._pruned_pi(graph.transpose())
            proximity = pi + pi_t.T
        else:
            proximity = pi + pi.T
        k_prime = self.dim // 2
        u, s, v = sparse_svd(proximity, min(k_prime, graph.num_nodes - 2),
                             seed=self.seed or 0)
        root = np.sqrt(s)[None, :]
        self.forward_ = u * root
        self.backward_ = v * root
        return self
