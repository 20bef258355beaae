"""Levenberg-Marquardt refinement of pose-graph estimates.

Minimizes the global objective (rotation/translation-weighted squared
residuals of :func:`dpgo.graph.se2_residuals`) by damped Gauss-Newton steps
with analytic Jacobians, solving sparse normal equations with a
fill-reducing sparse LU. Each solve builds the CSC sparsity pattern of the
normal equations and the scatter indices into it once; an iteration then
fills the pattern's values, and each damped try adds the damping at the
stored diagonal positions only. The state is the (N, 3) pose array
(x, y, theta) of the vertices in sorted id order, so each variable block is
(x, y, theta) while residual rows are (dtheta, dx, dy). One vertex is
anchored to remove the gauge freedom. Optional prior factors (used by the
consensus layer) pull selected vertices toward target poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Pose2, wrap_angle
from .graph import GraphError, PoseGraph, ResidualWeights, graph_arrays, se2_residuals


class SingularNormalEquations(GraphError):
    pass


@dataclass(frozen=True)
class LMConfig:
    max_iters: int = 75
    mu0: float = 1e-4
    mu_up: float = 10.0
    mu_down: float = 1.0 / 3.0
    gtol: float = 1e-10
    ftol: float = 1e-14
    mu_max: float = 1e32

    def __post_init__(self):
        if self.mu0 <= 0 or self.mu_up <= 1 or not 0 < self.mu_down < 1:
            raise ValueError("invalid damping configuration")


@dataclass
class LMIterate:
    iteration: int
    objective: float
    damping: float
    step_norm: float
    accepted: bool


@dataclass(frozen=True)
class PriorFactor:
    """Quadratic pull ||sqrt_weight @ (x (-) target)||^2 on one vertex."""

    vertex: int
    target: np.ndarray  # pose (x, y, theta)
    sqrt_weight: np.ndarray  # (3, 3), acting on the pose difference (dx, dy, dtheta)


@dataclass
class LMResult:
    graph: PoseGraph
    iterates: list[LMIterate]
    anchor: int
    stop: str  # "gtol", "ftol", "max_iters" or "floor" (no finite step lowers f)


def _residuals_jacobians(x, e_from, e_to, meas, w: ResidualWeights):
    """Weighted residuals (E, 3) and their Jacobian blocks A, B (E, 3, 3)
    with respect to the source and target poses (x, y, theta)."""
    xp = x[e_from]
    wr, wt = w.w_rot, w.w_trans
    r = se2_residuals(xp, x[e_to], meas)
    # R_p^T (t_q - t_p): the residual's translation plus the measured one
    tx, ty = r[:, 1] + meas[:, 0], r[:, 2] + meas[:, 1]
    r *= np.array([wr, wt, wt])
    c, s = np.cos(xp[:, 2]), np.sin(xp[:, 2])
    b = np.zeros((len(e_from), 3, 3))
    b[:, 0, 2] = wr
    b[:, 1, 0], b[:, 1, 1] = wt * c, wt * s
    b[:, 2, 0], b[:, 2, 1] = -wt * s, wt * c
    a = -b
    a[:, 1, 2] = wt * ty
    a[:, 2, 2] = -wt * tx
    return r, a, b


def _prior_residuals(x, rows, targets, sqrt_w):
    """Weighted prior residuals (P, 3): sqrt_weight @ (x (-) target)."""
    d = x[rows] - targets
    d[:, 2] = wrap_angle(d[:, 2])
    return np.einsum("pij,pj->pi", sqrt_w, d)


def _objective_value(x, e_from, e_to, meas, w, prior):
    r = se2_residuals(x[e_from], x[e_to], meas) * np.array([w.w_rot, w.w_trans, w.w_trans])
    rp = _prior_residuals(x, *prior)
    return float((r * r).sum()) + float((rp * rp).sum())


class _NormalEquations:
    """Normal equations ``H d = -g`` of the free variables of one LM solve.

    The CSC pattern of H (int32 indices, with an explicit diagonal entry for
    every free variable), the scatter indices of the Jacobian-product and
    prior blocks into H's ``data`` and of their gradient terms into g, and
    the positions of H's diagonal are built once. Duplicates (parallel edges,
    several priors on one vertex) are summed by ``np.bincount``; terms on the
    anchor go to one trailing bin that is dropped.
    """

    def __init__(self, free_of, n_free, e_from, e_to, prior):
        p_rows, _, sqrt_w = prior
        ends = free_of[np.stack([e_from, e_to], axis=1)]  # (E, 2): free index of source, target
        fprior = free_of[p_rows]
        k = np.arange(3)
        free = np.arange(n_free)
        # block row and column of every 3x3 term: per edge the 2x2 blocks of [A B]^T [A B],
        # then per prior (v, v); the trailing diagonal blocks only put the diagonal into the pattern
        n_edge = 4 * len(e_from)
        bi = np.concatenate([np.repeat(ends, 2, axis=1).ravel(), fprior, free])
        bj = np.concatenate([np.tile(ends, 2).ravel(), fprior, free])
        live = (bi >= 0) & (bj >= 0)
        blocks, which = np.unique(bj[live] * n_free + bi[live], return_inverse=True)
        col, row = np.divmod(blocks, n_free)
        per_col = np.bincount(col, minlength=n_free)
        first = np.concatenate([[0], np.cumsum(per_col)])
        # entry (i, j) of stored block u: its block column holds 3 columns of 3 * per_col rows each
        pos = (
            9 * first[col][:, None, None]
            + 3 * per_col[col][:, None, None] * k[None, None, :]
            + 3 * (np.arange(len(blocks)) - first[col])[:, None, None]
            + k[None, :, None]
        )
        self.n = 3 * n_free
        self.nnz = 9 * len(blocks)
        self.indptr = np.append(9 * first[:-1, None] + 3 * per_col[:, None] * k, self.nnz).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[pos.ravel()] = np.broadcast_to(3 * row[:, None, None] + k[None, :, None], pos.shape).ravel()
        self.diag = pos[which[-n_free:]][:, k, k].ravel()
        h_pos = np.full((len(bi), 3, 3), self.nnz)
        h_pos[live] = pos[which]
        # edge terms come as (E, 6, 6) products: reorder blocks (e, s, t, i, j) to rows (e, s, i, t, j)
        edge_pos = h_pos[:n_edge].reshape(-1, 2, 2, 3, 3).transpose(0, 1, 3, 2, 4)
        self.h_scatter = np.concatenate([edge_pos.ravel(), h_pos[n_edge : len(bi) - n_free].ravel()])
        gv = np.concatenate([ends.ravel(), fprior])
        self.g_scatter = np.where(gv[:, None] >= 0, 3 * gv[:, None] + k, self.n).ravel()
        self.prior_blocks = np.einsum("pji,pjk->pik", sqrt_w, sqrt_w).ravel()

    def assemble(self, x, e_from, e_to, meas, w, prior):
        """H's CSC ``data`` and the gradient g at the pose array ``x``."""
        r, a, b = _residuals_jacobians(x, e_from, e_to, meas, w)
        rp = _prior_residuals(x, *prior)
        jac = np.concatenate([a, b], axis=2)  # (E, 3, 6): [A B]
        jac_t = jac.transpose(0, 2, 1)
        h_terms = np.concatenate([(jac_t @ jac).ravel(), self.prior_blocks])
        g_terms = np.concatenate([(jac_t @ r[:, :, None]).ravel(), np.einsum("pji,pj->pi", prior[2], rp).ravel()])
        h = np.bincount(self.h_scatter, h_terms, minlength=self.nnz + 1)[: self.nnz]
        g = np.bincount(self.g_scatter, g_terms, minlength=self.n + 1)[: self.n]
        return h, g

    def damped(self, h, mu):
        """CSC matrix of H + mu I, for H's ``data`` ``h``."""
        data = h.copy()
        data[self.diag] += mu
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def lm_refine_full(
    g: PoseGraph,
    weights: ResidualWeights | None = None,
    cfg: LMConfig | None = None,
    *,
    anchor: int | None = None,
    priors: tuple = (),
) -> LMResult:
    w = weights or ResidualWeights()
    cfg = cfg or LMConfig()
    a = graph_arrays(g)
    vids, x, e_from, e_to, meas = a.vids, a.estimates, a.e_from, a.e_to, a.meas
    if anchor is None:
        anchor = vids[0]
    free = np.flatnonzero(np.array(vids) != anchor)
    free_of = np.full(len(vids), -1, dtype=np.intp)
    free_of[free] = np.arange(len(free))
    n_free = len(free)
    index = {vid: i for i, vid in enumerate(vids)}
    prior = (
        np.array([index[p.vertex] for p in priors], dtype=np.intp),
        np.array([p.target for p in priors], dtype=float).reshape(-1, 3),
        np.array([p.sqrt_weight for p in priors], dtype=float).reshape(-1, 3, 3),
    )

    iterates: list[LMIterate] = []
    f_cur = _objective_value(x, e_from, e_to, meas, w, prior)
    mu = cfg.mu0
    it = 0
    # with nothing free or nothing to fit, the gradient is empty or zero
    stop = None if n_free > 0 and (len(e_from) or priors) else "gtol"
    if stop is None:
        neq = _NormalEquations(free_of, n_free, e_from, e_to, prior)
    while stop is None:
        if it >= cfg.max_iters:
            stop = "max_iters"
            break
        h, grad = neq.assemble(x, e_from, e_to, meas, w, prior)
        if np.abs(grad).max() < cfg.gtol:
            stop = "gtol"
            break
        solved = False  # whether any damped system since the last accepted step had a finite solution
        while it < cfg.max_iters:
            it += 1
            try:
                delta = spla.splu(neq.damped(h, mu)).solve(-grad)
                ok = np.isfinite(delta).all()
            except RuntimeError:
                ok = False
                delta = np.zeros(n_free * 3)
            solved = solved or ok
            if ok:
                x_try = x.copy()
                x_try[free] += delta.reshape(-1, 3)
                x_try[free, 2] = wrap_angle(x_try[free, 2])
                f_try = _objective_value(x_try, e_from, e_to, meas, w, prior)
            else:
                f_try = math.inf
            step_norm = float(np.linalg.norm(delta))
            if f_try < f_cur:
                rel_dec = (f_cur - f_try) / max(f_cur, 1e-300)
                x, f_cur = x_try, f_try
                iterates.append(LMIterate(it, f_cur, mu, step_norm, True))
                mu = max(mu * cfg.mu_down, 1e-15)
                if rel_dec < cfg.ftol:
                    stop = "ftol"
                break
            iterates.append(LMIterate(it, f_cur, mu, step_norm, False))
            mu *= cfg.mu_up
            if mu > cfg.mu_max:
                if not solved:
                    raise SingularNormalEquations("damping overflow; normal equations unsolvable")
                # every finite step was too small to lower f: x is at the rounding floor
                stop = "floor"
                break

    out = g.copy()
    for vid, pose in zip(vids, x.tolist()):
        out.vertices[vid].estimate = Pose2(*pose)
    return LMResult(out, iterates, anchor, stop)


def lm_refine(
    g: PoseGraph,
    weights: ResidualWeights | None = None,
    cfg: LMConfig | None = None,
    *,
    anchor: int | None = None,
) -> tuple[PoseGraph, list[LMIterate]]:
    """Refine vertex estimates; returns the new graph and the iteration log."""
    res = lm_refine_full(g, weights, cfg, anchor=anchor)
    return res.graph, res.iterates


def iteration_log_csv(iterates, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective,damping,step_norm,accepted\n")
        for it in iterates:
            fh.write(
                f"{it.iteration},{it.objective!r},{it.damping!r},{it.step_norm!r},{int(it.accepted)}\n"
            )
