"""Levenberg-Marquardt refinement of pose-graph estimates.

Minimizes the global objective f (the sum of squared residuals of
:func:`dpgo.graph.se2_residuals`) by damped Gauss-Newton steps with analytic
Jacobians, solving sparse normal equations by sparse LU. The state is the
(N, 3) pose array (x, y, theta) of the vertices in sorted id order, so each
variable block is (x, y, theta) while residual rows are (dtheta, dx, dy). One
vertex is anchored to remove the gauge freedom. Optional :class:`Priors`, one
validated struct of arrays (used by the consensus layer), pull selected
vertices toward target poses.

LM stops when the gradient is below ``_GTOL``, at ``max_iters`` damped tries,
at the rounding floor (no finite step lowers f), or after an accepted step
that lowers f by less than ``ftol`` relative. The default ``ftol`` of 1e-10
stops LM off the rounding floor: at 1e-14, most accepted steps of the
consensus layer's local solves lowered f by less than 1e-10 and tries were
accepted or rejected on a few ulp, while inexact local ADMM solves need no
such precision (Boyd et al. 2011, section 3.4.4). A centralized solve's
decreases stay far above it.

What depends only on the graph's edge arrays, the anchor and the vertices
that carry priors is an :class:`LMSystem`, built once for a solve or, by a
caller that solves one graph repeatedly (a consensus block, once per
round), once for all of its solves: the free vertex rows, a symmetric
minimum-degree elimination order of the block graph of H as in square-root
SAM (Dellaert and Kaess, IJRR 2006), the CSC pattern of the normal
equations and the scatter indices into it in that order, and one damped
CSC matrix whose values each factorization overwrites in place. H = JᵀJ
(plus the prior blocks SᵀS, computed per solve) is positive semidefinite,
so H + mu I is positive definite for mu > 0 and elimination keeps the
diagonal pivots and the order. The output graph shares the input's
read-only arrays (:meth:`dpgo.graph.PoseGraph.with_estimates`), so the
same system serves the next solve on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import wrap_angle
from .graph import GraphError, PoseGraph, _column, _ids, _reject, se2_residuals


class SingularNormalEquations(GraphError):
    pass


# the damping schedule: Marquardt's (1963) tenfold increase after a rejected step, and a cut
# to a third after an accepted one, the largest cut of Madsen, Nielsen and Tingleff (2004)
_MU_UP = 10.0
_MU_DOWN = 1.0 / 3.0
# past this damping a step is far below the rounding of the poses, so LM stops raising it
_MU_MAX = 1e32
_GTOL = 1e-10  # largest gradient entry at which x counts as stationary


@dataclass(frozen=True)
class LMConfig:
    """LM settings; ``ftol`` is the relative decrease of f below which an
    accepted step ends the solve (1e-10, see the module docstring)."""

    max_iters: int = 75
    mu0: float = 1e-4
    ftol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0 < self.mu0 < _MU_MAX:
            raise ValueError(f"mu0 must be positive and below {_MU_MAX}")
        if not self.ftol >= 0:
            raise ValueError("ftol must be non-negative")
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be non-negative")


@dataclass
class LMIterate:
    iteration: int
    objective: float
    damping: float
    step_norm: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class Priors:
    """Pulls ||sqrt_weights[k] @ (x (-) targets[k])||^2 on the pose x of vertex
    ``vertices[k]``: ids (P,), target poses (P, 3) and square-root weights
    (P, 3, 3) on the pose difference (dx, dy, dtheta), copied and validated
    here; a non-finite row is rejected by its vertex, ``position`` ("prior", k)."""

    vertices: np.ndarray
    targets: np.ndarray
    sqrt_weights: np.ndarray

    def __post_init__(self):
        vids = _ids(self.vertices, (np.size(self.vertices),), "prior vertex", "prior")
        n = len(vids)
        for name, shape in (("targets", (n, 3)), ("sqrt_weights", (n, 3, 3))):
            arr = _column(getattr(self, name), float, shape, f"prior {name}")
            bad = ~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            _reject(bad, "prior", lambda k: f"prior {name} on vertex {vids[k]} are not finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "vertices", vids)


_NO_PRIORS = Priors(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3, 3)))


@dataclass
class LMResult:
    graph: PoseGraph
    iterates: list[LMIterate]
    stop: str  # "gtol", "ftol", "max_iters" or "floor" (no finite step lowers f)


def _jacobians(x, r, e_from, meas):
    """Jacobian blocks A, B (E, 3, 3) of the edge residuals ``r`` at ``x``
    with respect to the source and target poses (x, y, theta)."""
    # R_p^T (t_q - t_p): the residual's translation plus the measured one
    tx, ty = r[:, 1] + meas[:, 0], r[:, 2] + meas[:, 1]
    theta = x[e_from, 2]
    c, s = np.cos(theta), np.sin(theta)
    b = np.zeros((len(e_from), 3, 3))
    b[:, 0, 2] = 1.0
    b[:, 1, 0], b[:, 1, 1] = c, s
    b[:, 2, 0], b[:, 2, 1] = -s, c
    a = -b
    a[:, 1, 2] = ty
    a[:, 2, 2] = -tx
    return a, b


def _prior_residuals(x, rows, targets, sqrt_w):
    """Weighted prior residuals (P, 3): sqrt_weight @ (x (-) target)."""
    d = x[rows] - targets
    d[:, 2] = wrap_angle(d[:, 2])
    return np.einsum("pij,pj->pi", sqrt_w, d)


def _residuals(x, e_from, e_to, meas, prior):
    """Edge residuals (E, 3), weighted prior residuals (P, 3) and the objective at ``x``."""
    r = se2_residuals(x[e_from], x[e_to], meas)
    rp = _prior_residuals(x, *prior)
    return r, rp, float((r * r).sum()) + float((rp * rp).sum())


class _NormalEquations:
    """Normal equations ``H d = -g`` of the free variables of a graph.

    The elimination order is chosen once, here: a symmetric minimum-degree
    order of the block graph of H (one node per free vertex), and free vertex
    k becomes block ``perm[k]``. The CSC pattern of H (int32 indices, with an
    explicit diagonal entry for every free variable), the scatter indices of
    the Jacobian-product and prior blocks into H's ``data`` and of their
    gradient terms into g, and the positions of H's diagonal are built once,
    all in that order, so H, g and the step need no permutation later.
    Duplicates (parallel edges, several priors on one vertex) are summed by
    ``np.bincount``; terms on the anchor go to one trailing bin that is
    dropped. ``factor`` refills the values of one stored CSC matrix.
    """

    def __init__(self, free_of, n_free, e_from, e_to, p_rows):
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
        # the block graph, strictly diagonally dominant so that it factors without pivoting
        graph = sp.csc_matrix((np.where(col == row, per_col[col], -1.0), row, first), shape=(n_free, n_free))
        self.perm = spla.splu(
            graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        ).perm_c.astype(np.intp)
        col, row = self.perm[col], self.perm[row]
        order = np.argsort(col * n_free + row)
        col, row, which = col[order], row[order], np.argsort(order)[which]
        per_col = per_col[np.argsort(self.perm)]
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
        gv = np.append(self.perm, -1)[np.concatenate([ends.ravel(), fprior])]
        self.g_scatter = np.where(gv[:, None] >= 0, 3 * gv[:, None] + k, self.n).ravel()
        self._matrix = sp.csc_matrix((np.zeros(self.nnz), self.indices, self.indptr), shape=(self.n, self.n))

    def assemble(self, x, e_from, meas, r, rp, sqrt_w, prior_blocks):
        """H's CSC ``data`` and the gradient g at the pose array ``x``, from the
        edge residuals ``r`` and weighted prior residuals ``rp`` at ``x``, the
        prior square-root weights and their products ``prior_blocks`` (SᵀS)."""
        a, b = _jacobians(x, r, e_from, meas)
        jac = np.concatenate([a, b], axis=2)  # (E, 3, 6): [A B]
        jac_t = jac.transpose(0, 2, 1)
        h_terms = np.concatenate([(jac_t @ jac).ravel(), prior_blocks.ravel()])
        g_terms = np.concatenate([(jac_t @ r[:, :, None]).ravel(), np.einsum("pji,pj->pi", sqrt_w, rp).ravel()])
        h = np.bincount(self.h_scatter, h_terms, minlength=self.nnz + 1)[: self.nnz]
        g = np.bincount(self.g_scatter, g_terms, minlength=self.n + 1)[: self.n]
        return h, g

    def damped(self, h, mu):
        """A new CSC matrix of H + mu I, for H's ``data`` ``h``."""
        data = h.copy()
        data[self.diag] += mu
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def factor(self, h, mu):
        """LU factors of H + mu I in the stored order, written into the stored
        matrix's values. The matrix is symmetric positive definite for mu > 0,
        so the diagonal pivots are stable."""
        data = self._matrix.data
        data[:] = h
        data[self.diag] += mu
        return spla.splu(self._matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class LMSystem:
    """The part of an LM solve that the graph's edge arrays, its anchor and
    the vertices carrying priors fix (see the module docstring).

    ``rows`` holds the anchor's row, then each prior vertex's row in order;
    ``free`` the vertex row of each block of the step; ``neq`` the normal
    equations, None when nothing is free or nothing is fitted. A system
    serves every :func:`lm_refine_full` call on a graph with the same
    ``e_from``/``e_to`` objects (the graph it was built from and the graphs
    LM returns from it), the same anchor and the same prior vertices in the
    same order.
    """

    def __init__(self, g: PoseGraph, anchor: int, prior_vertices):
        rows = g.rows_of(np.append(anchor, prior_vertices))
        if rows[0] < 0:
            raise GraphError(f"anchor {anchor} is not a vertex of the graph")
        if (rows[1:] < 0).any():
            raise GraphError(f"prior vertex {prior_vertices[int(np.argmax(rows[1:] < 0))]} is not a vertex of the graph")
        self.e_from, self.e_to, self.rows = g.e_from, g.e_to, rows
        free = np.flatnonzero(np.arange(g.num_vertices) != rows[0])
        self.neq = None
        if len(free) and (len(g.e_from) or len(rows) > 1):
            free_of = np.full(g.num_vertices, -1, dtype=np.intp)
            free_of[free] = np.arange(len(free))
            self.neq = _NormalEquations(free_of, len(free), g.e_from, g.e_to, rows[1:])
            free = free[np.argsort(self.neq.perm)]
        self.free = free


def lm_refine_full(
    g: PoseGraph,
    cfg: LMConfig | None = None,
    *,
    anchor: int | None = None,
    priors: Priors = _NO_PRIORS,
    system: LMSystem | None = None,
) -> LMResult:
    """Refine the estimates of ``g``; ``anchor`` defaults to the lowest vertex id.

    ``system`` is an :class:`LMSystem` built for this graph, anchor and prior
    vertices, to skip building one; passing it changes no number. A system
    built for another graph, anchor or prior vertex set is rejected.
    """
    cfg = cfg or LMConfig()
    x, e_from, e_to, meas = g.estimates.copy(), g.e_from, g.e_to, g.meas
    if anchor is None:
        anchor = int(g.vids[0])
    system = system or LMSystem(g, anchor, priors.vertices)
    rows = g.rows_of(np.append(anchor, priors.vertices))
    if not (system.e_from is e_from and system.e_to is e_to and np.array_equal(system.rows, rows)):
        raise GraphError("the LMSystem was built for another graph, anchor or prior vertex set")
    prior = (system.rows[1:], priors.targets, priors.sqrt_weights)
    neq, free = system.neq, system.free

    iterates: list[LMIterate] = []
    r, rp, f_cur = _residuals(x, e_from, e_to, meas, prior)
    mu = cfg.mu0
    it = 0
    # with nothing free or nothing to fit, the gradient is empty or zero
    stop = None if neq is not None else "gtol"
    prior_blocks = np.einsum("pji,pjk->pik", prior[2], prior[2])
    while stop is None:
        if it >= cfg.max_iters:
            stop = "max_iters"
            break
        h, grad = neq.assemble(x, e_from, meas, r, rp, prior[2], prior_blocks)
        if np.abs(grad).max() < _GTOL:
            stop = "gtol"
            break
        solved = False  # whether any damped system since the last accepted step had a finite solution
        while it < cfg.max_iters:
            it += 1
            try:
                delta = neq.factor(h, mu).solve(-grad)
                ok = np.isfinite(delta).all()
            except RuntimeError:
                ok = False
                delta = np.zeros(len(free) * 3)
            solved = solved or ok
            if ok:
                x_try = x.copy()
                x_try[free] += delta.reshape(-1, 3)
                x_try[free, 2] = wrap_angle(x_try[free, 2])
                r_try, rp_try, f_try = _residuals(x_try, e_from, e_to, meas, prior)
            else:
                f_try = math.inf
            step_norm = float(np.linalg.norm(delta))
            if f_try < f_cur:
                rel_dec = (f_cur - f_try) / max(f_cur, 1e-300)
                x, r, rp, f_cur = x_try, r_try, rp_try, f_try
                iterates.append(LMIterate(it, f_cur, mu, step_norm, True))
                mu = max(mu * _MU_DOWN, 1e-15)
                if rel_dec < cfg.ftol:
                    stop = "ftol"
                break
            iterates.append(LMIterate(it, f_cur, mu, step_norm, False))
            mu *= _MU_UP
            if mu > _MU_MAX:
                if not solved:
                    raise SingularNormalEquations("damping overflow; normal equations unsolvable")
                # every finite step was too small to lower f: x is at the rounding floor
                stop = "floor"
                break

    return LMResult(g.with_estimates(x), iterates, stop)


def lm_refine(
    g: PoseGraph, cfg: LMConfig | None = None, *, anchor: int | None = None
) -> tuple[PoseGraph, list[LMIterate]]:
    """Refine vertex estimates; returns the new graph and the iteration log."""
    res = lm_refine_full(g, cfg=cfg, anchor=anchor)
    return res.graph, res.iterates


def iteration_log_csv(iterates, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective,damping,step_norm,accepted\n")
        for it in iterates:
            fh.write(f"{it.iteration},{it.objective!r},{it.damping!r},{it.step_norm!r},{int(it.accepted)}\n")
