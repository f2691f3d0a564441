"""Node reweighting: Algorithms 2 (backward) and 4 (forward) of the paper.

Each node ``v`` receives a forward weight ``w_fwd[v]`` and a backward
weight ``w_bwd[v]``; coordinate descent on Eq. (6) updates one weight at
a time by its closed-form minimizer (Eq. 8 / Eq. 23) clamped to
``>= 1/n``. A full epoch costs ``O(n k'^2)`` thanks to the shared
aggregates of Eq. (9)/(10)/(13) (named ``xi, chi, rho1, rho2, lam_mat,
phi`` as in the paper) with ``rho1, rho2`` maintained incrementally
(Eq. 11 / 26).

One sweep serves both algorithms. It is written in the *backward*
orientation; the forward sweep is the same computation with ``(x,
w_fwd, d_out)`` and ``(y, w_bwd, d_in)`` exchanged (compare the
aggregate definitions below). Everything in a node's update except one
dot product with the fused state ``r = [rho1, rho2]`` is independent of
the other updates, so it is precomputed for many rows at once. Two
update modes finish the epoch:

* ``sequential`` — the Gauss–Seidel sweep of Algorithm 2/4 (random node
  order, incremental ``rho``). Until a weight hits the ``1/n`` floor the
  recurrence is linear in the weight changes, so the sweep walks the
  node order in blocks of :data:`SWEEP_BLOCK` nodes and solves each
  block as one lower-triangular system (one GEMV, one GEMM, one
  ``dtrsv``). A node that falls below the floor, or whose denominator
  vanishes, is pinned to the floor and the block is solved again from
  the node after it, so the trajectory is the per-node one in exact
  arithmetic and agrees with it up to rounding in floating point.
  The sweep gathers and precomputes the visiting order
  :data:`SWEEP_CHUNK` rows at a time and carries ``r`` from chunk to
  chunk. Its temporaries are ``O(SWEEP_CHUNK k')``, not ``O(n k')``:
  at 50k nodes and ``k' = 64`` a sweep's ``tracemalloc`` peak went from
  210 to 27 MB. A chunk is a whole number of blocks, and every row's
  terms are computed as over the whole order, so the weights are the
  same bits either way. Small temporaries also keep a streaming batch
  from returning them to the OS and faulting them in again each time;
* ``jacobi`` — all coordinates updated from the same aggregates in one
  vectorized shot (an ablation; much faster on huge graphs, slightly
  different trajectory).

Results are deterministic given ``seed``. The naive functions at the end
evaluate the Eq. (7)/(23) sums directly in ``O(n k')`` per node; tests
use them to pin down the fast path.

``b1`` handling: Eq. (14) approximates ``b1`` via the AM-GM sandwich of
Eq. (12) with a ``k'/2`` multiplier. Since ``b1`` is exactly
``Y_v Lambda Y_v^T - w_fwd[v]^2 (X_v . Y_v)^2`` and ``Y_v Lambda Y_v^T``
is already needed for ``a3``, we also expose ``exact_b1=True`` as a
zero-extra-cost ablation of this design choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

from ..errors import DimensionError, ParameterError
from ..rng import ensure_rng

__all__ = [
    "BackwardAggregates", "ForwardAggregates",
    "backward_aggregates", "forward_aggregates",
    "update_backward_weights", "update_forward_weights",
    "naive_backward_terms", "naive_forward_terms",
]

#: Nodes per triangular solve of the sequential sweep: enough rows for
#: the block GEMM to amortize the per-call overhead, few enough that a
#: restart after a clamped node repeats little work (32 measured ~5%
#: faster than 64 at k' = 64, larger blocks slower).
SWEEP_BLOCK = 32

#: Rows of the visiting order gathered and precomputed at a time by the
#: sequential sweep; a multiple of :data:`SWEEP_BLOCK`, so the blocks of
#: the triangular solves are the same as over the whole order.
SWEEP_CHUNK = 64 * SWEEP_BLOCK

# A denominator at or below this is treated as zero: the node is pinned.
_TINY = 1e-300


def _check_inputs(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                  w_bwd: np.ndarray, d_out: np.ndarray,
                  d_in: np.ndarray) -> None:
    if x.ndim != 2 or x.shape != y.shape:
        raise DimensionError("X and Y must be (n, k') with identical shapes")
    n = x.shape[0]
    if w_fwd.shape != (n,) or w_bwd.shape != (n,):
        raise DimensionError("weights must be length-n vectors")
    if np.shape(d_out) != (n,) or np.shape(d_in) != (n,):
        raise DimensionError("degree vectors must be length-n vectors")


@dataclass
class BackwardAggregates:
    """Shared terms of Eq. (9), (10), (13) for the backward sweep."""

    xi: np.ndarray        # sum_u d_out(u) w_fwd[u] X_u               (k',)
    chi: np.ndarray       # sum_u w_fwd[u] X_u                        (k',)
    lam_mat: np.ndarray   # sum_u w_fwd[u]^2 X_u^T X_u                (k', k')
    rho1: np.ndarray      # sum_v w_bwd[v] Y_v                        (k',)
    rho2: np.ndarray      # sum_v w_fwd[v]^2 w_bwd[v] (X_v.Y_v) X_v   (k',)
    phi: np.ndarray       # phi[r] = sum_u w_fwd[u]^2 X_u[r]^2        (k',)


@dataclass
class ForwardAggregates:
    """Shared terms of Eq. (24), (25), (28) for the forward sweep."""

    xi: np.ndarray        # sum_v d_in(v) w_bwd[v] Y_v                (k',)
    chi: np.ndarray       # sum_v w_bwd[v] Y_v                        (k',)
    lam_mat: np.ndarray   # sum_v w_bwd[v]^2 Y_v^T Y_v                (k', k')
    rho1: np.ndarray      # sum_u w_fwd[u] X_u                        (k',)
    rho2: np.ndarray      # sum_v w_fwd[v] w_bwd[v]^2 (X_v.Y_v) Y_v   (k',)
    phi: np.ndarray       # phi[r] = sum_v w_bwd[v]^2 Y_v[r]^2        (k',)


def backward_aggregates(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                        w_bwd: np.ndarray, d_out: np.ndarray,
                        ) -> BackwardAggregates:
    """Compute Lines 1-3 of Algorithm 2 in ``O(n k'^2)``."""
    xy = np.einsum("ij,ij->i", x, y)
    wf2 = w_fwd * w_fwd
    return BackwardAggregates(
        xi=(d_out * w_fwd) @ x,
        chi=w_fwd @ x,
        lam_mat=x.T @ (wf2[:, None] * x),
        rho1=w_bwd @ y,
        rho2=(wf2 * w_bwd * xy) @ x,
        phi=wf2 @ (x * x),
    )


def forward_aggregates(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                       w_bwd: np.ndarray, d_in: np.ndarray,
                       ) -> ForwardAggregates:
    """Compute Line 1-3 of Algorithm 4 in ``O(n k'^2)``."""
    xy = np.einsum("ij,ij->i", x, y)
    wb2 = w_bwd * w_bwd
    return ForwardAggregates(
        xi=(d_in * w_bwd) @ y,
        chi=w_bwd @ y,
        lam_mat=y.T @ (wb2[:, None] * y),
        rho1=w_fwd @ x,
        rho2=(w_fwd * wb2 * xy) @ y,
        phi=wb2 @ (y * y),
    )


# ----------------------------------------------------------------------
# The sweep, in the backward orientation (see the module docstring).
# ----------------------------------------------------------------------

def _row_terms(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
               w0: np.ndarray, d_in: np.ndarray, lam: float,
               agg: BackwardAggregates, exact_b1: bool,
               ) -> tuple[np.ndarray, ...]:
    """Rho-independent per-node terms of Eq. (8), one row per node.

    Returns ``(z, u, num0, denom)``: node ``v``'s update is ``new =
    clamp((num0[v] - r . z[v]) / denom[v])``, after which Eq. (11) reads
    ``r += (new - w0[v]) * u[v]``.
    """
    k_prime = x.shape[1]
    xy = np.einsum("ij,ij->i", x, y)
    wf2 = w_fwd * w_fwd
    lam_y = y @ agg.lam_mat.T                   # row v = lam_mat @ y[v]
    y_lam_y = np.einsum("ij,ij->i", lam_y, y)
    a1 = y @ agg.xi
    proj = y @ agg.chi - w_fwd * xy
    a2 = d_in * proj
    b2 = proj * proj
    if exact_b1:
        b1 = y_lam_y - wf2 * xy * xy
    else:
        b1 = 0.5 * k_prime * ((y * y) @ agg.phi
                              - wf2 * ((y * x) ** 2).sum(axis=1))
    # a3 = rho1.lam_y[v] - w0 y_lam_y - rho2.y[v] + w0 wf2 xy^2; the two
    # rho dots are r . z[v], the rest folds into num0 (each node is
    # visited once per epoch, so its own weight is still w0 there).
    z = np.hstack([lam_y, -y])
    u = np.hstack([y, (wf2 * xy)[:, None] * x])
    num0 = a1 + a2 + w0 * y_lam_y - w0 * wf2 * xy * xy
    denom = b1 + b2 + lam
    return z, u, num0, denom


def _gauss_seidel(z: np.ndarray, u: np.ndarray, num0: np.ndarray,
                  denom: np.ndarray, w0: np.ndarray, r: np.ndarray,
                  floor: float) -> np.ndarray:
    """The sequential recurrence over the rows in order; new weights.

    Row ``i`` sets ``new_i = max(floor, (num0_i - r . z_i) / denom_i)``
    (``floor`` when ``denom_i <= 1e-300``), then ``r += (new_i - w0_i)
    u_i``. While no clamp fires, the changes ``d = new - w0`` of a block
    of rows solve ``(diag(denom) + strict_tril(Z U^T)) d = num0 - Z r -
    denom w0``, with ``r`` taken at the start of the block.
    """
    n = len(num0)
    vanishing = denom <= _TINY
    diag = np.where(vanishing, 1.0, denom)
    rhs0 = num0 - denom * w0
    lo = floor - w0                     # a smaller change clamps the node
    delta = np.empty(n)
    pinned = []
    for start in range(0, n, SWEEP_BLOCK):
        stop = min(n, start + SWEEP_BLOCK)
        zb, ub = z[start:stop], u[start:stop]
        g = (ub @ zb.T).T               # Z U^T, in the order dtrsv reads
        np.fill_diagonal(g, diag[start:stop])
        rhs = rhs0[start:stop] - zb @ r
        s = 0
        while True:
            d = dtrsv(g, rhs, lower=1)
            bad = np.flatnonzero(vanishing[start + s:stop]
                                 | (d[s:] < lo[start + s:stop]))
            if not bad.size:
                break
            # pin the first offender to the floor; rows before it keep
            # their values, rows after it see the pinned change
            s += bad[0]
            g[s, :s] = 0.0
            g[s, s] = 1.0
            rhs[s] = lo[start + s]
            pinned.append(start + s)
            s += 1
        delta[start:stop] = d
        r += d @ ub
    new = w0 + delta
    new[pinned] = floor
    return new


def _sweep(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
           w_bwd: np.ndarray, d_out: np.ndarray, d_in: np.ndarray,
           lam: float, *, mode: str, exact_b1: bool, seed) -> np.ndarray:
    """One epoch in the backward orientation; returns new ``w_bwd``."""
    if mode not in ("sequential", "jacobi"):
        raise ParameterError(f"unknown update mode {mode!r}")
    n = x.shape[0]
    floor = 1.0 / n
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    r = np.concatenate([agg.rho1, agg.rho2])
    if mode == "jacobi":
        # Eq. (8) for every node from the same (frozen) rho
        z, _, num0, denom = _row_terms(x, y, w_fwd, w_bwd, d_in, lam, agg,
                                       exact_b1)
        new = np.where(denom > _TINY, (num0 - z @ r)
                       / np.maximum(denom, _TINY), floor)
        return np.maximum(floor, new)

    # The precompute runs on the rows in visiting order, one chunk at a
    # time, so the sweep reads each block as one contiguous slice and
    # its temporaries stay O(SWEEP_CHUNK k'); r carries across chunks.
    perm = ensure_rng(seed).permutation(n)
    d_in = np.asarray(d_in)
    out = np.empty(n)
    for start in range(0, n, SWEEP_CHUNK):
        rows = perm[start:start + SWEEP_CHUNK]
        w0 = w_bwd[rows].astype(np.float64)
        terms = _row_terms(x[rows], y[rows], w_fwd[rows], w0, d_in[rows],
                           lam, agg, exact_b1)
        out[rows] = _gauss_seidel(*terms, w0, r, floor)
    return out


def update_backward_weights(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                            w_bwd: np.ndarray, d_out: np.ndarray,
                            d_in: np.ndarray, lam: float, *,
                            mode: str = "sequential", exact_b1: bool = False,
                            seed=None) -> np.ndarray:
    """One epoch of Algorithm 2 (``updateBwdWeights``); returns new weights."""
    _check_inputs(x, y, w_fwd, w_bwd, d_out, d_in)
    return _sweep(x, y, w_fwd, w_bwd, d_out, d_in, lam, mode=mode,
                  exact_b1=exact_b1, seed=seed)


def update_forward_weights(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                           w_bwd: np.ndarray, d_out: np.ndarray,
                           d_in: np.ndarray, lam: float, *,
                           mode: str = "sequential", exact_b1: bool = False,
                           seed=None) -> np.ndarray:
    """One epoch of Algorithm 4 (``updateFwdWeights``); returns new weights.

    The forward sweep is the backward sweep with the roles of
    ``(x, w_fwd, d_out)`` and ``(y, w_bwd, d_in)`` exchanged.
    """
    _check_inputs(x, y, w_fwd, w_bwd, d_out, d_in)
    return _sweep(y, x, w_bwd, w_fwd, d_in, d_out, lam, mode=mode,
                  exact_b1=exact_b1, seed=seed)


# ----------------------------------------------------------------------
# Naive O(n k') / O(n^2) reference implementations of the Eq. (7) / (23)
# terms, used by the test suite to validate the accelerated formulas.
# ----------------------------------------------------------------------

def naive_backward_terms(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                         w_bwd: np.ndarray, d_out: np.ndarray,
                         d_in: np.ndarray, v: int,
                         ) -> tuple[float, float, float, float, float]:
    """``(a1, a2, a3, b1_exact, b2)`` for node ``v`` straight from Eq. (7)."""
    _check_inputs(x, y, w_fwd, w_bwd, d_out, d_in)
    n = x.shape[0]
    s = x @ y[v]                        # s[u] = X_u . Y_v
    ws = w_fwd * s
    a1 = float((d_out * ws).sum())
    a2 = float(d_in[v] * (ws.sum() - ws[v]))
    # G[u, v'] = w_fwd[u] (X_u . Y_v') w_bwd[v']
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    row_sums = g.sum(axis=1) - g[np.arange(n), np.arange(n)] - g[:, v]
    # v' = v was subtracted twice for u = v; add it back once
    row_sums[v] += g[v, v]
    a3 = float((row_sums * ws).sum())
    b1 = float((ws * ws).sum() - ws[v] * ws[v])
    b2 = float((ws.sum() - ws[v]) ** 2)
    return a1, a2, a3, b1, b2


def naive_forward_terms(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                        w_bwd: np.ndarray, d_out: np.ndarray,
                        d_in: np.ndarray, u: int,
                        ) -> tuple[float, float, float, float, float]:
    """``(a1', a2', a3', b1'_exact, b2')`` for node ``u`` from Eq. (23)."""
    _check_inputs(x, y, w_fwd, w_bwd, d_out, d_in)
    n = x.shape[0]
    s = y @ x[u]                        # s[v] = X_u . Y_v
    ws = w_bwd * s
    a1 = float((d_in * ws).sum())
    a2 = float(d_out[u] * (ws.sum() - ws[u]))
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    col_sums = g.sum(axis=0) - g[np.arange(n), np.arange(n)] - g[u, :]
    col_sums[u] += g[u, u]
    a3 = float((col_sums * ws).sum())
    b1 = float((ws * ws).sum() - ws[u] * ws[u])
    b2 = float((ws.sum() - ws[u]) ** 2)
    return a1, a2, a3, b1, b2
