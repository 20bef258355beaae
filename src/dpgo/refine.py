"""Levenberg-Marquardt refinement of pose-graph estimates.

Minimizes the global objective (rotation/translation-weighted squared
residuals of :func:`dpgo.graph.se2_residuals`) by damped Gauss-Newton steps
with analytic Jacobians, assembling sparse normal equations and solving them
with a fill-reducing sparse LU. The state is the (N, 3) pose array
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


def _assemble(x, e_from, e_to, meas, w, prior, free_of, n_free):
    r, a, b = _residuals_jacobians(x, e_from, e_to, meas, w)
    p_rows, _, sqrt_w = prior
    rp = _prior_residuals(x, *prior)
    fp, fq, fprior = free_of[e_from], free_of[e_to], free_of[p_rows]

    rows, cols, vals = [], [], []
    grad = np.zeros(n_free * 3)

    def add_block(fi, fj, block):
        sel = (fi >= 0) & (fj >= 0)
        if not sel.any():
            return
        i3 = (fi[sel, None] * 3 + np.arange(3)[None, :]).repeat(3, axis=1).reshape(-1)
        j3 = np.tile(fj[sel, None] * 3 + np.arange(3)[None, :], (1, 3)).reshape(-1)
        rows.append(i3)
        cols.append(j3)
        vals.append(block[sel].reshape(-1))

    at_b = np.einsum("eji,ejk->eik", a, b)
    add_block(fp, fp, np.einsum("eji,ejk->eik", a, a))
    add_block(fp, fq, at_b)
    add_block(fq, fp, np.transpose(at_b, (0, 2, 1)))
    add_block(fq, fq, np.einsum("eji,ejk->eik", b, b))
    add_block(fprior, fprior, np.einsum("pji,pjk->pik", sqrt_w, sqrt_w))
    for sel_idx, jac, res in ((fp, a, r), (fq, b, r), (fprior, sqrt_w, rp)):
        ok = sel_idx >= 0
        contrib = np.einsum("eji,ej->ei", jac[ok], res[ok])
        np.add.at(grad, (sel_idx[ok, None] * 3 + np.arange(3)[None, :]).reshape(-1), contrib.reshape(-1))

    n = n_free * 3
    if rows:
        h_mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsc()
    else:
        h_mat = sp.csc_matrix((n, n))
    return h_mat, grad


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
    while it < cfg.max_iters and n_free > 0 and (len(e_from) or priors):
        h_mat, grad = _assemble(x, e_from, e_to, meas, w, prior, free_of, n_free)
        if np.abs(grad).max() < cfg.gtol:
            break
        stop = False
        while it < cfg.max_iters:
            it += 1
            damped = (h_mat + mu * sp.identity(n_free * 3, format="csc")).tocsc()
            try:
                solve = spla.splu(damped)
                delta = solve.solve(-grad)
                ok = np.isfinite(delta).all()
            except RuntimeError:
                ok = False
                delta = np.zeros(n_free * 3)
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
                    stop = True
                break
            iterates.append(LMIterate(it, f_cur, mu, step_norm, False))
            mu *= cfg.mu_up
            if mu > cfg.mu_max:
                raise SingularNormalEquations("damping overflow; normal equations unsolvable")
        if stop:
            break

    out = g.copy()
    for vid, pose in zip(vids, x.tolist()):
        out.vertices[vid].estimate = Pose2(*pose)
    return LMResult(out, iterates, anchor)


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
