"""Levenberg-Marquardt refinement of pose-graph estimates.

Minimizes the global objective f (the sum of squared residuals of
:func:`dpgo.graph.se2_residuals`) by damped Gauss-Newton steps with analytic
Jacobians, solving sparse normal equations by sparse LU. The state is the
(N, 3) pose array (x, y, theta) of the vertices in sorted id order, so each
variable block is (x, y, theta) while residual rows are (dtheta, dx, dy). One
vertex is anchored to remove the gauge freedom. Optional :class:`Priors`, one
validated struct of arrays, pull selected vertices of a central solve toward
target poses.

One loop, :func:`levenberg_marquardt`, serves the central solve here and the
distributed one of :mod:`dpgo.consensus`: it owns the damping schedule and
the stops, and a system object supplies the objective and the damped linear
solve. LM stops when the gradient is below ``_GTOL``, at ``max_iters`` damped
tries, at the rounding floor (no finite step lowers f), or after an accepted
step that lowers f by less than ``ftol`` relative. Near the optimum LM
converges fast, so later tries gain less still: from the seeded graphs of the
tests, an ``ftol`` of 1e-14 takes two or three more tries and ends within
1e-12 relative of the objective of the default ``ftol``, 1e-10.

What depends only on the graph's edge arrays, the anchor and the priors is
an :class:`LMSystem`, built once for a solve or, by a caller that solves one
graph repeatedly, once for all of its solves: the free vertex rows, a
symmetric minimum-degree elimination order of the block graph of H as in
square-root SAM (Dellaert and Kaess, IJRR 2006), the CSC pattern of the
normal equations and the scatter indices into it in that order, the prior
blocks SᵀS, and one damped CSC matrix whose values each factorization
overwrites in place. H = JᵀJ (plus the prior blocks) is positive
semidefinite, so H + mu I is positive definite for mu > 0 and elimination
keeps the diagonal pivots and the order. The output graph shares the input's
read-only arrays (:meth:`dpgo.graph.PoseGraph.with_estimates`), so the same
system serves the next solve on it.
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
    (P, 3, 3) on the pose difference (dx, dy, dtheta), copied, validated and
    made read-only here; a non-finite row is rejected by its vertex,
    ``position`` ("prior", k)."""

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
            arr.flags.writeable = False
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


class _NormalEquations:
    """Normal equations ``H d = -g`` of the free variables of a graph.

    The elimination order is chosen once, here. The last ``n_last`` free
    vertices (a consensus block's separators) stay last, in their order; the
    others, the interior (every free vertex of a central solve), take a
    symmetric minimum-degree order of their block graph of H (one node per
    free vertex). Free vertex k becomes block ``perm[k]``. The CSC pattern of
    H (int32 indices, with an explicit diagonal entry for every free
    variable) and the scatter indices of the Jacobian-product blocks and of
    the prior blocks on the vertex rows ``p_rows`` into H's ``data`` and of
    their gradient terms into g are built once, in that order, so H, g and
    the step need no permutation later. Duplicates (parallel edges, several
    priors on one vertex) are summed by ``np.bincount``; terms on the anchor
    go to one trailing bin that is dropped. ``factor`` refills the values of
    one stored CSC matrix of the interior, the leading ``n_inner``
    variables; ``borders`` reads the separator columns.
    """

    def __init__(self, free_of, n_free, e_from, e_to, n_last=0, p_rows=np.zeros(0, dtype=np.intp)):
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
        m = n_free - n_last
        self.perm = np.arange(n_free)
        if m:
            self.perm[:m] = spla.splu(
                graph[:m, :m], permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            ).perm_c
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
        self.n, self.n_inner = 3 * n_free, 3 * m
        self.nnz = 9 * len(blocks)
        self.indptr = np.append(9 * first[:-1, None] + 3 * per_col[:, None] * k, self.nnz).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[pos.ravel()] = np.broadcast_to(3 * row[:, None, None] + k[None, :, None], pos.shape).ravel()
        h_pos = np.full((len(bi), 3, 3), self.nnz)
        h_pos[live] = pos[which]
        # edge terms come as (E, 6, 6) products: reorder blocks (e, s, t, i, j) to rows (e, s, i, t, j)
        edge_pos = h_pos[:n_edge].reshape(-1, 2, 2, 3, 3).transpose(0, 1, 3, 2, 4)
        self.h_scatter = np.concatenate([edge_pos.ravel(), h_pos[n_edge : len(bi) - n_free].ravel()])
        gv = np.append(self.perm, -1)[np.concatenate([ends.ravel(), fprior])]
        self.g_scatter = np.where(gv[:, None] >= 0, 3 * gv[:, None] + k, self.n).ravel()
        # the interior's entries are a prefix of each of its columns, since rows are sorted; without
        # separators (a central solve) they are all of H, and a slice spares factor a copy
        cols = np.repeat(np.arange(self.n), np.diff(self.indptr))
        inner = (cols < self.n_inner) & (self.indices < self.n_inner)
        self._inner = np.flatnonzero(inner) if n_last else slice(None)
        self._diag = np.flatnonzero(self.indices[inner] == cols[inner])
        indptr = np.append(0, np.cumsum(np.bincount(cols[inner], minlength=self.n_inner))).astype(np.int32)
        self._matrix = sp.csc_matrix(
            (np.zeros(int(inner.sum())), self.indices[self._inner], indptr),
            shape=(self.n_inner, self.n_inner),
        )
        border = cols >= self.n_inner
        self._border = np.flatnonzero(border)
        self._border_at = self.indices[border] * (self.n - self.n_inner) + cols[border] - self.n_inner

    def assemble(self, x, e_from, meas, r, prior_h=(), prior_g=()):
        """H's CSC ``data`` and the gradient g at the pose array ``x``, from
        the edge residuals ``r`` at ``x`` and the terms of the priors on
        ``p_rows``: their blocks SᵀS (P, 3, 3) and gradients Sᵀ r_p (P, 3)."""
        a, b = _jacobians(x, r, e_from, meas)
        jac = np.concatenate([a, b], axis=2)  # (E, 3, 6): [A B]
        jac_t = jac.transpose(0, 2, 1)
        h_terms = np.concatenate([(jac_t @ jac).ravel(), np.ravel(prior_h)])
        g_terms = np.concatenate([(jac_t @ r[:, :, None]).ravel(), np.ravel(prior_g)])
        h = np.bincount(self.h_scatter, h_terms, minlength=self.nnz + 1)[: self.nnz]
        g = np.bincount(self.g_scatter, g_terms, minlength=self.n + 1)[: self.n]
        return h, g

    def factor(self, h, mu):
        """LU factors of the interior's H + mu I in the stored order, written
        into the stored matrix's values. The matrix is symmetric positive
        definite for mu > 0, so the diagonal pivots are stable."""
        data = self._matrix.data
        data[:] = h[self._inner]
        data[self._diag] += mu
        return spla.splu(self._matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def borders(self, h):
        """H's separator columns, the variables past ``n_inner``, as a dense
        (n, n - n_inner) array, for H's ``data`` ``h``."""
        out = np.zeros(self.n * (self.n - self.n_inner))
        out[self._border_at] = h[self._border]
        return out.reshape(self.n, -1)


class LMSystem:
    """The part of an LM solve that the graph's edge arrays, its anchor and
    its priors fix (see the module docstring).

    ``rows`` holds the anchor's row, then each prior vertex's row in order;
    ``free`` the vertex row of each block of the step; ``neq`` the normal
    equations, None when nothing is free or nothing is fitted. A system
    serves every :func:`lm_refine_full` call on a graph with the same
    ``e_from``/``e_to`` objects (the graph it was built from and the graphs
    LM returns from it), the same anchor and the same ``priors`` object.
    """

    def __init__(self, g: PoseGraph, anchor: int, priors: Priors = _NO_PRIORS):
        rows = g.rows_of(np.append(anchor, priors.vertices))
        if rows[0] < 0:
            raise GraphError(f"anchor {anchor} is not a vertex of the graph")
        if (rows[1:] < 0).any():
            raise GraphError(f"prior vertex {priors.vertices[np.argmax(rows[1:] < 0)]} is not a vertex of the graph")
        self.e_from, self.e_to, self.meas, self.rows, self.priors = g.e_from, g.e_to, g.meas, rows, priors
        self.prior_h = np.einsum("pji,pjk->pik", priors.sqrt_weights, priors.sqrt_weights)
        free = np.flatnonzero(np.arange(g.num_vertices) != rows[0])
        self.neq = None
        if len(free) and (len(g.e_from) or len(rows) > 1):
            free_of = np.full(g.num_vertices, -1, dtype=np.intp)
            free_of[free] = np.arange(len(free))
            self.neq = _NormalEquations(free_of, len(free), g.e_from, g.e_to, p_rows=rows[1:])
            free = free[np.argsort(self.neq.perm)]
        self.free = free
        self.fitted = self.neq is not None

    def evaluate(self, x):
        """The edge and weighted prior residuals and the objective at the pose array ``x``."""
        r = se2_residuals(x[self.e_from], x[self.e_to], self.meas)
        rp = _prior_residuals(x, self.rows[1:], self.priors.targets, self.priors.sqrt_weights)
        return (r, rp), float((r * r).sum()) + float((rp * rp).sum())

    def linearize(self, x, state):
        """The gradient at ``x`` and the solve mu -> step of the damped normal equations."""
        r, rp = state
        prior_g = np.einsum("pji,pj->pi", self.priors.sqrt_weights, rp)
        h, grad = self.neq.assemble(x, self.e_from, self.meas, r, self.prior_h, prior_g)
        return grad, lambda mu: self.neq.factor(h, mu).solve(-grad)


def levenberg_marquardt(x: np.ndarray, cfg: LMConfig, system) -> tuple[np.ndarray, list[LMIterate], str]:
    """LM from the pose array ``x`` (not modified); returns the final pose
    array, the tries and the stop reason.

    ``system`` supplies the problem: ``free``, the rows of the step's
    vertices; ``fitted``, whether anything is free and fitted;
    ``evaluate(x)``, some state and the objective at ``x``; and
    ``linearize(x, state)``, the gradient (in any order) and a function of
    mu that returns the damped step over ``free`` or raises ``RuntimeError``
    or ``LinAlgError`` when the damped system cannot be solved.
    """
    free = system.free
    iterates: list[LMIterate] = []
    state, f_cur = system.evaluate(x)
    mu = cfg.mu0
    it = 0
    # with nothing free or nothing to fit, the gradient is empty or zero
    stop = None if system.fitted else "gtol"
    while stop is None:
        if it >= cfg.max_iters:
            stop = "max_iters"
            break
        grad, solve = system.linearize(x, state)
        if np.abs(grad).max() < _GTOL:
            stop = "gtol"
            break
        solved = False  # whether any damped system since the last accepted step had a finite solution
        while it < cfg.max_iters:
            it += 1
            try:
                delta = solve(mu)
                ok = np.isfinite(delta).all()
            except (RuntimeError, np.linalg.LinAlgError):
                ok = False
                delta = np.zeros(len(free) * 3)
            solved = solved or ok
            if ok:
                x_try = x.copy()
                x_try[free] += delta.reshape(-1, 3)
                x_try[free, 2] = wrap_angle(x_try[free, 2])
                state_try, f_try = system.evaluate(x_try)
            else:
                f_try = math.inf
            step_norm = float(np.linalg.norm(delta))
            if f_try < f_cur:
                rel_dec = (f_cur - f_try) / max(f_cur, 1e-300)
                x, state, f_cur = x_try, state_try, f_try
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
    return x, iterates, stop


def lm_refine_full(
    g: PoseGraph,
    cfg: LMConfig | None = None,
    *,
    anchor: int | None = None,
    priors: Priors = _NO_PRIORS,
    system: LMSystem | None = None,
) -> LMResult:
    """Refine the estimates of ``g``; ``anchor`` defaults to the lowest vertex id.

    ``system`` is an :class:`LMSystem` built for this graph, anchor and
    ``priors``, to skip building one; passing it changes no number. A system
    built for another graph, anchor or priors is rejected.
    """
    cfg = cfg or LMConfig()
    if anchor is None:
        anchor = int(g.vids[0])
    system = system or LMSystem(g, anchor, priors)
    same_graph = system.e_from is g.e_from and system.e_to is g.e_to
    if not (same_graph and system.priors is priors and system.rows[0] == g.rows_of([anchor])[0]):
        raise GraphError("the LMSystem was built for another graph, anchor or priors")
    x, iterates, stop = levenberg_marquardt(g.estimates.copy(), cfg, system)
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
