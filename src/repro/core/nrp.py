"""Algorithm 3: the complete NRP embedding method (the paper's headline).

``NRP.fit`` runs ApproxPPR (Algorithm 1) for the base factorization,
initializes ``w_fwd = d_out`` and ``w_bwd = 1`` (Line 4), alternates
``ell2`` epochs of backward/forward coordinate-descent sweeps
(Lines 5-7), and finally scales each node's embeddings by its learned
weights (Lines 8-9):

    X_v <- w_fwd[v] * X_v        Y_v <- w_bwd[v] * Y_v

so that ``X_u . Y_v ~= w_fwd[u] pi(u, v) w_bwd[v]`` (Eq. 4), the
degree-calibrated proximity that fixes vanilla PPR's locality problem.

The whole fit runs in one process: :mod:`repro.core.approx_ppr` for the
factorization, then one blocked sweep per half-epoch from
:mod:`repro.core.reweighting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..embedder import Embedder
from ..errors import ParameterError, ReproError, check_integers
from ..graph import Graph
from ..rng import spawn_rngs
from .approx_ppr import (ApproxPPRConfig, PPRFactorState,
                         approx_ppr_embeddings, approx_ppr_state)
from .objective import reweighting_objective
from .reweighting import update_backward_weights, update_forward_weights

__all__ = ["NRPConfig", "NRP", "ApproxPPREmbedder"]


@dataclass(frozen=True)
class NRPConfig:
    """All hyperparameters of Algorithm 3 with the paper's defaults.

    ``dim`` is the total per-node budget ``k``; each side receives
    ``k' = k/2`` (Line 1 of Algorithm 3). A fit is deterministic given
    ``seed``: two fits of one graph are bit-identical.
    """

    dim: int = 128
    alpha: float = 0.15
    ell1: int = 20
    ell2: int = 10
    eps: float = 0.2
    lam: float = 10.0
    svd: str = "bksvd"
    update_mode: str = "sequential"   # "sequential" (faithful) | "jacobi"
    exact_b1: bool = False            # paper uses the Eq. (14) approximation
    seed: int | None = 0

    def approx_config(self, seed) -> ApproxPPRConfig:
        """The Algorithm-1 inputs of this fit, with ``seed`` for the SVD."""
        return ApproxPPRConfig(k_prime=self.dim // 2, alpha=self.alpha,
                               ell1=self.ell1, eps=self.eps, svd=self.svd,
                               seed=seed)

    def validate(self) -> None:
        check_integers(dim=self.dim, ell2=self.ell2)
        if self.dim < 2 or self.dim % 2:
            raise ParameterError("dim must be an even integer >= 2")
        if self.ell2 < 0:
            raise ParameterError("ell2 must be >= 0")
        if not 0.0 <= self.lam < np.inf:   # also refuses NaN
            raise ParameterError(
                f"lam must be finite and nonnegative, got {self.lam!r}")
        if self.update_mode not in ("sequential", "jacobi"):
            raise ParameterError(f"unknown update_mode {self.update_mode!r}")
        # alpha, ell1, eps and svd (shared with the ApproxPPR stage) are
        # validated once, there
        self.approx_config(self.seed).validate()


class NRP(Embedder):
    """Node-Reweighted PageRank embeddings (paper Algorithm 3).

    Attributes after :meth:`fit`:

    ``forward_``, ``backward_``
        The reweighted embeddings ``w_fwd[v] X_v`` and ``w_bwd[v] Y_v``.
    ``base_forward_``, ``base_backward_``
        The un-reweighted ApproxPPR embeddings (what ``ell2 = 0`` gives).
    ``w_fwd_``, ``w_bwd_``
        The learned node weights.
    ``objective_history_``
        Eq. (6) value before reweighting and after every epoch (only
        when ``track_objective=True``).
    """

    name = "NRP"
    directional = True

    def __init__(self, dim: int = 128, *, alpha: float = 0.15, ell1: int = 20,
                 ell2: int = 10, eps: float = 0.2, lam: float = 10.0,
                 svd: str = "bksvd", update_mode: str = "sequential",
                 exact_b1: bool = False, seed: int | None = 0,
                 track_objective: bool = False,
                 keep_factor_state: bool = False) -> None:
        super().__init__(dim, seed=seed)
        self.config = NRPConfig(dim=dim, alpha=alpha, ell1=ell1, ell2=ell2,
                                eps=eps, lam=lam, svd=svd,
                                update_mode=update_mode, exact_b1=exact_b1,
                                seed=seed)
        self.config.validate()
        self.track_objective = track_objective
        self.keep_factor_state = keep_factor_state
        self.factor_state_: PPRFactorState | None = None
        self.w_fwd_: np.ndarray | None = None
        self.w_bwd_: np.ndarray | None = None
        self.base_forward_: np.ndarray | None = None
        self.base_backward_: np.ndarray | None = None
        self.objective_history_: list[float] = []
        self.last_warm_refit_: dict | None = None

    def fit(self, graph: Graph) -> "NRP":
        cfg = self.config
        svd_rng, sweep_rng = spawn_rngs(cfg.seed, 2)
        # nrp.fit is the root span; approx_ppr.svd / approx_ppr.propagation
        # and nrp.reweighting nest inside it, giving per-phase timings
        with obs.trace("nrp.fit", n=graph.num_nodes, dim=cfg.dim):
            state = approx_ppr_state(graph, cfg.approx_config(svd_rng))
            if self.keep_factor_state:
                # Streaming tier: retain the Algorithm-1 internals so
                # IncrementalPPR can repair them without a second SVD.
                self.factor_state_ = state
            # Algorithm 1 runs in float32; the reweighting and the
            # embeddings are float64. Scaling after the cast gives the
            # X that IncrementalPPR.embeddings() gives for this state.
            x = state.x_iter.astype(np.float64)
            x *= cfg.alpha * (1.0 - cfg.alpha)
            self._fit_weights(graph, x, state.y.astype(np.float64),
                              sweep_rng)
        return self

    def _fit_weights(self, graph: Graph, x: np.ndarray, y: np.ndarray,
                     sweep_rng) -> None:
        """Lines 4-9 of Algorithm 3 given the base factorization."""
        cfg = self.config
        n = graph.num_nodes
        d_out = graph.out_degrees.astype(np.float64)
        d_in = graph.in_degrees.astype(np.float64)
        if cfg.ell2 == 0:
            # Section 5.6: ell2 = 0 "disables our reweighting scheme and
            # only uses the conventional PPR for embedding" — unit weights.
            w_fwd = np.ones(n)
            w_bwd = np.ones(n)
        else:
            # Line 4: w_fwd = d_out, w_bwd = 1. Dangling nodes would start
            # at 0, below the feasible floor 1/n, so they are clamped.
            w_fwd = np.maximum(d_out, 1.0 / n)
            w_bwd = np.ones(n)

        self.objective_history_ = []
        if self.track_objective:
            self.objective_history_.append(reweighting_objective(
                x, y, w_fwd, w_bwd, d_out, d_in, cfg.lam))
        with obs.trace("nrp.reweighting", epochs=cfg.ell2):
            for _ in range(cfg.ell2):
                w_fwd, w_bwd = self._epoch(x, y, w_fwd, w_bwd, d_out, d_in,
                                           sweep_rng)
                if self.track_objective:
                    self.objective_history_.append(reweighting_objective(
                        x, y, w_fwd, w_bwd, d_out, d_in, cfg.lam))

        self.base_forward_ = x
        self.base_backward_ = y
        self.w_fwd_ = w_fwd
        self.w_bwd_ = w_bwd
        self.forward_ = w_fwd[:, None] * x       # Lines 8-9
        self.backward_ = w_bwd[:, None] * y

    def _epoch(self, x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
               w_bwd: np.ndarray, d_out: np.ndarray, d_in: np.ndarray,
               sweep_rng) -> tuple[np.ndarray, np.ndarray]:
        """One backward-then-forward sweep pair; new ``(w_fwd, w_bwd)``."""
        cfg = self.config
        options = dict(mode=cfg.update_mode, exact_b1=cfg.exact_b1,
                       seed=sweep_rng)
        w_bwd = update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in,
                                        cfg.lam, **options)
        w_fwd = update_forward_weights(x, y, w_fwd, w_bwd, d_out, d_in,
                                       cfg.lam, **options)
        return w_fwd, w_bwd

    def warm_refit(self, graph: Graph, *, x: np.ndarray | None = None,
                   y: np.ndarray | None = None, epochs: int | None = None,
                   drift_threshold: float | None = None) -> "NRP":
        """Refresh a fitted model for a slightly-changed graph.

        Instead of restarting Algorithm 3 from the ``w_fwd = d_out,
        w_bwd = 1`` initialization, the reweighting sweeps warm-start
        from the *previous* learned weights (with their incremental
        ``rho`` aggregates rebuilt from those weights), running only
        ``epochs`` sweep pairs (default ``max(1, ell2 // 5)``). ``x`` /
        ``y`` supply refreshed base factor sketches — in the streaming
        tier, the output of :class:`repro.streaming.IncrementalPPR` —
        and default to the previous fit's base factors.

        ``drift_threshold`` guards against the warm start hiding a
        structurally different optimum: after the warm sweeps, the
        relative L1 weight drift ``|w_new - w_old|_1 / |w_old|_1``
        (both sides pooled) is compared against it, and a larger drift
        **escalates to a full** :meth:`fit` on ``graph`` (so the SVD
        basis is refreshed too). A node-count change always escalates.
        The decision is recorded in ``self.last_warm_refit_``
        (``escalated``, ``drift``, ``epochs``, ``reason``).
        """
        cfg = self.config
        if self.w_fwd_ is None or self.base_forward_ is None:
            raise ReproError(f"{self.name}: warm_refit requires a fitted "
                             f"model; call fit() first")
        if (x is None) != (y is None):
            raise ParameterError("pass both x and y or neither")
        if epochs is None:
            epochs = max(1, cfg.ell2 // 5) if cfg.ell2 else 0
        if epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if drift_threshold is not None and drift_threshold <= 0:
            raise ParameterError("drift_threshold must be positive or None")
        if x is None:
            x, y = self.base_forward_, self.base_backward_
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = graph.num_nodes
        if len(self.w_fwd_) != n or x.shape[0] != n:
            self.fit(graph)
            # drift is None, not inf: these records travel as JSON lines
            # and Infinity is not valid JSON
            self.last_warm_refit_ = {"escalated": True, "drift": None,
                                     "epochs": 0,
                                     "reason": "node count changed"}
            return self

        d_out = graph.out_degrees.astype(np.float64)
        d_in = graph.in_degrees.astype(np.float64)
        floor = 1.0 / n
        w_fwd = np.maximum(self.w_fwd_.astype(np.float64, copy=True), floor)
        w_bwd = np.maximum(self.w_bwd_.astype(np.float64, copy=True), floor)
        prev_norm = np.abs(w_fwd).sum() + np.abs(w_bwd).sum()
        prev_fwd, prev_bwd = w_fwd.copy(), w_bwd.copy()

        sweep_rng = spawn_rngs(cfg.seed, 2)[1]
        with obs.trace("nrp.warm_refit", epochs=epochs):
            for _ in range(epochs):
                w_fwd, w_bwd = self._epoch(x, y, w_fwd, w_bwd, d_out, d_in,
                                           sweep_rng)
        drift = float((np.abs(w_fwd - prev_fwd).sum()
                       + np.abs(w_bwd - prev_bwd).sum())
                      / max(prev_norm, 1e-300))
        if drift_threshold is not None and drift > drift_threshold:
            self.fit(graph)
            self.last_warm_refit_ = {
                "escalated": True, "drift": drift, "epochs": epochs,
                "reason": f"drift {drift:.4f} > threshold "
                          f"{drift_threshold:.4f}"}
            return self

        self.base_forward_ = x
        self.base_backward_ = y
        self.w_fwd_ = w_fwd
        self.w_bwd_ = w_bwd
        self.forward_ = w_fwd[:, None] * x
        self.backward_ = w_bwd[:, None] * y
        self.last_warm_refit_ = {"escalated": False, "drift": drift,
                                 "epochs": epochs, "reason": None}
        return self


class ApproxPPREmbedder(Embedder):
    """The ApproxPPR baseline of Section 3 as a standalone method.

    Identical to ``NRP(ell2=0)`` up to the degree initialization of the
    forward weights: ApproxPPR uses the raw factorization ``X, Y``.
    """

    name = "ApproxPPR"
    directional = True

    def __init__(self, dim: int = 128, *, alpha: float = 0.15, ell1: int = 20,
                 eps: float = 0.2, svd: str = "bksvd",
                 seed: int | None = 0) -> None:
        super().__init__(dim, seed=seed)
        self.config = ApproxPPRConfig(k_prime=dim // 2, alpha=alpha,
                                      ell1=ell1, eps=eps, svd=svd, seed=seed)
        self.config.validate()

    def fit(self, graph: Graph) -> "ApproxPPREmbedder":
        x, y = approx_ppr_embeddings(graph, self.config)
        self.forward_ = np.asarray(x, dtype=np.float64)
        self.backward_ = np.asarray(y, dtype=np.float64)
        return self
