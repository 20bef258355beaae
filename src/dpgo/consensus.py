"""Consensus over separator poses: central Levenberg-Marquardt, solved block by block.

Every edge of a partition is held by exactly one block, so the objective is
f = sum_b f_b over the blocks' edges, and LM's normal equations split the
same way: H = sum_b H_b and g = sum_b g_b. A vertex that is no separator has
all of its edges in its owner's block. With each block's free vertices
ordered interior (i) first and separators (s) last, eliminating the interior
of the damped block system leaves a Schur complement and reduced gradient

    S_b = H_b,ss + mu I - H_b,si (H_b,ii + mu I)^-1 H_b,is,
    r_b = g_b,s - H_b,si (H_b,ii + mu I)^-1 g_b,i.

The interiors are disjoint and meet only through separators, so sum_b S_b,
with the mu that the holders of a shared separator each add counted once,
is the Schur complement of the central H + mu I on the separators, and
sum_b r_b its reduced gradient. One dense Cholesky of that system gives the
separators' part of the central damped step, and each block back-substitutes
its interior, d_i = -(H_b,ii + mu I)^-1 (g_b,i + H_b,is d_s). A try is
accepted on sum_b f_b, and the stationarity test reads the interior
gradients and the summed separator gradient (one block's is a partial sum).
So distributed LM is central LM try for try, held like it at the global
lowest vertex id, and each separator has one value throughout: the
decentralized square-root SAM of DDF-SAM (Cunningham, Paluri and Dellaert,
IROS 2010), with the blocks as the dissection of nested dissection (George,
SIAM J. Numer. Anal. 1973). :func:`dpgo.refine.levenberg_marquardt` runs the
loop as for a central solve; this module supplies the summed objective and
the step. Each try is one round: each block factors its damped interior in
place on a pattern built once and sends S_b and r_b, 8 (9 s^2 + 3 s) bytes
for s separators. ``admm_consensus`` and ``AdmmResult`` keep the names the
benchmark calls.

Before the first try every vertex is set to a distributed two-stage chordal
initialization (:func:`chordal_start`; Carlone et al., ICRA 2015). It solves
over the union of the blocks' edges, which holds each edge once because a
cut edge is held by one block. Rotations first: r_j - Rot(theta_ij) r_i = 0
for r = (cos theta, sin theta), weighted by each edge's theta-theta
information; theta is then the angle of r. Then translations:
t_j - t_i = R_i t_ij, weighted by R_i Omega_tt R_i^T. Both are least squares
over x_j - B x_i = d with real 2x2 blocks: each edge gives two rows
S (x_j - B x_i - d) with S^T S = W, on one sparse pattern, and one solver
serves both normal equations A^T A x = A^T S d. The gauge is the lowest
vertex id of each connected component of the union, held at its estimate:
the vertex central LM anchors by default. The blocks' local anchors are not
held, since they sit at mutually inconsistent dead-reckoning poses. The
solve is block successive over-relaxation, the scheme of DGS (Choudhary et
al., IJRR 2017): each block updates the vertices it owns from one
factorization of its diagonal block per stage, with the other blocks'
latest values held. omega = 1.8 needs (81, 77) sweeps (rotation,
translation) on the 4x60 benchmark graph where Gauss-Seidel (omega = 1)
needs (259, 321), and more than 1000 at 4x250. A stage stops at the first
sweep whose largest update is at most 1e-8 of max(1, |x|max), which leaves
the start within about 1e-7 of the central linear solve at 4x60; the sweep
cap is a guard only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .geometry import Pose2, wrap_angle
from .graph import se2_residuals
from .partition import Partition
from .refine import LMConfig, LMIterate, _NormalEquations, levenberg_marquardt
from .refine import lm_refine_full  # noqa: F401  the benchmark's tracer wraps it by name in this module

_RIDGE = 1e-9
_SOR_OMEGA = 1.8
_SOR_TOL = 1e-8  # largest update of a sweep, relative to max(1, |x|max)
_SOR_MAX_SWEEPS = 1000  # a guard only: the tolerance ends every sweep loop measured so far


@dataclass
class AdmmResult:
    resolved: dict[int, Pose2]  # the pose of every separator, the anchor too if it is one
    partition: Partition
    iterates: list[LMIterate]  # the LM tries
    stop: str  # the LM stop reason: "gtol", "ftol", "max_iters" or "floor"
    message_bytes: int  # the largest message one block sends per try: its S_b and r_b
    start_sweeps: tuple[int, int]  # SOR sweeps of the chordal start: (rotation, translation)

    @property
    def iterations(self) -> int:
        return len(self.iterates)

    @property
    def converged(self) -> bool:
        return self.stop != "max_iters"

    @property
    def disagreement(self) -> list[float]:
        """0.0 per try, and at least one entry: each separator has one value, so
        the blocks never disagree."""
        return [0.0] * max(1, len(self.iterates))


def information_weighted_mean(poses, infos, groups) -> np.ndarray:
    """Weighted mean of the pose rows in each group; angles averaged chordally.

    ``poses`` is (C, 3) ordered (x, y, theta), ``infos`` (C, 3, 3) ordered
    (theta, x, y) and ``groups`` (C,) the group index of each row. Returns
    the (G, 3) means, G = max(groups) + 1; every group needs a row.

    Nothing in the package calls it: it stays only because the benchmark's
    tracer wraps it by name.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    infos = np.asarray(infos, dtype=float).reshape(-1, 3, 3)
    groups = np.asarray(groups, dtype=np.intp)
    n = int(groups.max(initial=-1)) + 1
    wt = infos[:, 1:, 1:] + _RIDGE * np.eye(2)
    a = np.zeros((n, 2, 2))
    np.add.at(a, groups, wt)
    bt = np.zeros((n, 2))
    np.add.at(bt, groups, np.einsum("cij,cj->ci", wt, poses[:, :2]))
    w_th = infos[:, 0, 0] + _RIDGE
    sin_acc = np.bincount(groups, w_th * np.sin(poses[:, 2]), n)
    cos_acc = np.bincount(groups, w_th * np.cos(poses[:, 2]), n)
    t = np.linalg.solve(a, bt[:, :, None])[:, :, 0]
    return np.column_stack([t, wrap_angle(np.arctan2(sin_acc, cos_acc))])


class ChordalStart(NamedTuple):
    """The chordal pose of every vertex of a partition, and the SOR sweeps it took."""

    vids: np.ndarray  # (N,) every vertex id of the partition, increasing
    poses: np.ndarray  # (N, 3) pose array of those vertices
    sweeps: tuple[int, int]  # SOR sweeps of the rotation and the translation stage


def _rotations(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _block_sor(h: sp.csr_matrix, rhs: np.ndarray, x: np.ndarray, bounds) -> int:
    """Solve ``h x = rhs`` in place by block successive over-relaxation.

    Block b holds the unknowns ``bounds[b]:bounds[b + 1]``; its diagonal block
    of the symmetric positive definite ``h`` is factored once. A sweep updates
    the blocks in turn, each from the latest values of the others, and the
    solve stops after the first sweep whose largest update is at most
    ``_SOR_TOL * max(1, |x|max)``. Returns the number of sweeps.
    """
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            rows = h[lo:hi]
            diag = rows[:, lo:hi].tocsc()
            lu = spla.splu(diag, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            blocks.append((lo, hi, rows, lu))
    for sweep in range(1, _SOR_MAX_SWEEPS + 1):
        largest = 0.0
        for lo, hi, rows, lu in blocks:
            step = _SOR_OMEGA * lu.solve(rhs[lo:hi] - rows @ x)
            x[lo:hi] += step
            largest = max(largest, float(np.abs(step).max()))
        if largest <= _SOR_TOL * max(1.0, float(np.abs(x).max(initial=0.0))):
            break
    return sweep if blocks else 0


def chordal_start(p: Partition) -> ChordalStart:
    """Two-stage chordal initialization of every vertex of ``p``, solved by
    block SOR over the blocks' owned vertices (see the module docstring)."""
    vids = np.unique(np.concatenate([sub.vids for sub in p.subgraphs]))
    owner = np.array([p.owner[v] for v in vids.tolist()], dtype=np.intp)
    est = np.empty((len(vids), 3))
    for b, sub in enumerate(p.subgraphs):
        rows = np.searchsorted(vids, sub.vids)
        mine = owner[rows] == b
        est[rows[mine]] = sub.estimates[mine]
    # a cut edge is held by one block only, so the union holds each edge once
    src = np.searchsorted(vids, np.concatenate([sub.from_ids for sub in p.subgraphs]))
    dst = np.searchsorted(vids, np.concatenate([sub.to_ids for sub in p.subgraphs]))
    meas = np.concatenate([sub.meas for sub in p.subgraphs])
    info = np.concatenate([sub.info for sub in p.subgraphs])
    adj = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(len(vids), len(vids)))
    _, labels = csgraph.connected_components(adj, directed=False)
    fixed = np.unique(labels, return_index=True)[1]  # the lowest id of each component

    # the free unknowns, two per vertex, numbered block by block; -1 marks a fixed one
    free = np.delete(np.arange(len(vids)), fixed)
    free = free[np.argsort(owner[free], kind="stable")]
    pos = np.full((len(vids), 2), -1)
    pos[free] = 2 * np.arange(len(free))[:, None] + np.arange(2)
    n = 2 * len(free)
    bounds = 2 * np.searchsorted(owner[free], np.arange(p.n_blocks + 1))
    # per edge two whitened rows S (x_dst - B x_src - d), S^T S = W, over the unknowns of dst then src;
    # the pattern is the same for both stages, and a fixed unknown's column goes to the right-hand side
    cols = np.concatenate([pos[dst], pos[src]], axis=1)
    live = np.broadcast_to(cols[:, None, :] >= 0, (len(src), 2, 4))
    indices = np.broadcast_to(cols[:, None, :], live.shape)[live]
    indptr = np.concatenate([[0], np.cumsum(live.sum(axis=2).ravel())])

    def solve(b_mat, s_mat, d, x_all) -> int:
        """Least squares over every edge's S (x_dst - B x_src - d) for the (N, 2)
        unknowns ``x_all``, in place; fixed rows keep their values."""
        coef = np.concatenate([s_mat, -(s_mat @ b_mat)], axis=2)
        a = sp.csr_matrix((coef[live], indices, indptr), shape=(2 * len(src), n))
        held_x = np.where(live, 0.0, np.concatenate([x_all[dst], x_all[src]], axis=1)[:, None, :])
        v = (s_mat @ d[:, :, None])[:, :, 0] - (coef * held_x).sum(axis=2)
        x = x_all[free].ravel()
        sweeps = _block_sor((a.T @ a).tocsr(), a.T @ v.ravel(), x, bounds)
        x_all[free] = x.reshape(-1, 2)
        return sweeps

    # rotations: r_j - Rot(theta_ij) r_i = 0 for r = (cos, sin), weighted by the theta-theta information
    r = np.column_stack([np.cos(est[:, 2]), np.sin(est[:, 2])])
    rot_sweeps = solve(_rotations(meas[:, 2]), np.sqrt(info[:, :1, :1]) * np.eye(2), np.zeros((len(src), 2)), r)
    theta = np.arctan2(r[:, 1], r[:, 0])
    theta[fixed] = est[fixed, 2]
    # translations: t_j - t_i = R_i t_ij, weighted by R_i Omega_tt R_i^T = S^T S for S = (R_i L)^T, Omega_tt = L L^T
    rot_src = _rotations(theta[src])
    s_tr = (rot_src @ np.linalg.cholesky(info[:, 1:, 1:])).transpose(0, 2, 1)
    t = est[:, :2].copy()
    tr_sweeps = solve(np.broadcast_to(np.eye(2), s_tr.shape), s_tr, (rot_src @ meas[:, :2, None])[:, :, 0], t)
    return ChordalStart(vids, np.column_stack([t, wrap_angle(theta)]), (rot_sweeps, tr_sweeps))


class _Blocks:
    """The blocks' part of distributed LM (see the module docstring): the
    summed objective and the damped step from their messages, over the
    (N, 3) pose array of every vertex of a partition with the lowest id held.

    Each block's free vertices are its interior, in minimum-degree order,
    then its separators in id order. ``free``, the rows of the step, holds
    every block's interior, block by block, then the separators. A block
    with no edges fits nothing and takes no part.
    """

    def __init__(self, p: Partition, vids: np.ndarray):
        sep = np.array(sorted(p.separators), dtype=np.int64)
        sep = sep[sep != vids[0]]  # the unknowns of the reduced system
        self.blocks = []  # per block: subgraph, rows in the pose array, normal equations, reduced columns
        interiors = []
        holders = np.zeros(3 * len(sep))
        for sub in p.subgraphs:
            is_sep = np.isin(sub.vids, sep)
            free = np.concatenate([np.flatnonzero(~is_sep & (sub.vids != vids[0])), np.flatnonzero(is_sep)])
            if not (len(free) and len(sub.e_from)):
                continue
            free_of = np.full(sub.num_vertices, -1, dtype=np.intp)
            free_of[free] = np.arange(len(free))
            neq = _NormalEquations(free_of, len(free), sub.e_from, sub.e_to, int(is_sep.sum()))
            free = free[np.argsort(neq.perm)]
            inner = neq.n_inner // 3
            cols = (3 * np.searchsorted(sep, sub.vids[free[inner:]])[:, None] + np.arange(3)).ravel()
            self.blocks.append((sub, np.searchsorted(vids, sub.vids), neq, cols))
            interiors.append(np.searchsorted(vids, sub.vids[free[:inner]]))
            holders[cols] += 1
        self.free = np.concatenate(interiors + [np.searchsorted(vids, sep)])
        self.fitted = bool(self.blocks)
        self.extra = holders - 1  # every holder's S_b adds mu on a separator's diagonal; the sum keeps one
        self.message_bytes = max((8 * len(c) * (len(c) + 1) for *_, c in self.blocks), default=0)

    def evaluate(self, x):
        """Each block's pose array and edge residuals, and the sum of the block objectives."""
        states, f = [], 0.0
        for sub, rows, _, _ in self.blocks:
            xb = x[rows]
            r = se2_residuals(xb[sub.e_from], xb[sub.e_to], sub.meas)
            states.append((xb, r))
            f += float((r * r).sum())
        return states, f

    def linearize(self, x, states):
        """The interior gradients and the summed separator gradient, and the solve mu -> step."""
        parts, grads = [], []
        g_sep = np.zeros(len(self.extra))
        for (sub, _, neq, cols), (xb, r) in zip(self.blocks, states):
            h, g = neq.assemble(xb, sub.e_from, sub.meas, r)
            k = neq.n_inner
            border = neq.borders(h)
            parts.append((neq, h, g[:k], g[k:], border[:k], border[k:], cols))
            grads.append(g[:k])
            g_sep[cols] += g[k:]
        return np.concatenate(grads + [g_sep]), lambda mu: self._step(parts, mu)

    def _step(self, parts, mu):
        s = np.diag(-mu * self.extra)
        rhs = np.zeros(len(self.extra))
        back = []
        for neq, h, g_in, g_sep, h_is, h_ss, cols in parts:
            # the block sends S_b and r_b and keeps y = (H_ii + mu I)^-1 g_i and xs = (H_ii + mu I)^-1 H_is
            s_b, r_b, y, xs = h_ss + mu * np.eye(len(cols)), g_sep, g_in, h_is
            if neq.n_inner:
                lu = neq.factor(h, mu)
                y, xs = lu.solve(g_in), lu.solve(h_is)
                s_b -= h_is.T @ xs
                r_b = g_sep - h_is.T @ y
            s[np.ix_(cols, cols)] += s_b
            rhs[cols] += r_b
            back.append((y, xs, cols))
        d_sep = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s, check_finite=False), -rhs, check_finite=False)
        return np.concatenate([-(y + xs @ d_sep[cols]) for y, xs, cols in back] + [d_sep])


def admm_consensus(p: Partition, cfg: LMConfig | None = None) -> AdmmResult:
    """Distributed LM over the blocks of ``p`` from :func:`chordal_start`
    (see the module docstring); ``p`` is left unchanged."""
    # the result's graphs are new ones: a shallow copy of the partition suffices
    part = Partition(list(p.subgraphs), dict(p.owner), dict(p.separators), list(p.edge_gids))
    start = chordal_start(part)
    blocks = _Blocks(part, start.vids)
    x, iterates, stop = levenberg_marquardt(start.poses, cfg or LMConfig(), blocks)
    part.subgraphs = [sub.with_estimates(x[np.searchsorted(start.vids, sub.vids)]) for sub in part.subgraphs]
    sep_ids = sorted(part.separators)
    poses = x[np.searchsorted(start.vids, np.array(sep_ids, dtype=np.int64))].tolist()
    resolved = {vid: Pose2(*pose) for vid, pose in zip(sep_ids, poses)}
    return AdmmResult(resolved, part, iterates, stop, blocks.message_bytes, start.sweeps)
