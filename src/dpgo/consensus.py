"""Consensus over separator poses.

Scaled consensus ADMM (Boyd et al. 2011, section 7.1) over a copy table built
once: one row per (separator, holding block). The consensus poses z are an
(S, 3) array, one row per separator, and the scaled duals u a (C, 3) array,
one row per copy; both are pose arrays (x, y, theta). Each round every robot
refines its subgraph by LM with quadratic pulls (rho/2 ||x_sep - z + u||^2 in
local tangent coordinates) on its separator copies, z becomes the plain mean
of the copies plus their scaled duals, x_b + u_b (angles averaged
chordally), and the duals integrate the remaining disagreement x_b - z.
Because z is the mean of x_b + u_b, the duals of each separator sum to zero
after every update (the angle duals to first order, since angles are
averaged on the circle), so at a fixed point (x_b = z) the local optimality
conditions grad f_b = -rho u_b add up to sum_b grad f_b = 0: the result is a
stationary point of the summed local objectives, and each subgraph's
information enters through its own objective. The penalty is doubled (duals
halved) when the disagreement stalls.

Before the first round every block, separator copies included, is set to a
distributed two-stage chordal initialization (:func:`chordal_start`;
Carlone et al., ICRA 2015), so z starts at consensus and u at zero. It solves
over the union of the blocks' edges, which holds each edge once because a cut
edge is held by one block. Rotations first: r_j - Rot(theta_ij) r_i = 0 for
r = (cos theta, sin theta), weighted by each edge's theta-theta information;
theta is then the angle of r. Then translations: t_j - t_i = R_i t_ij,
weighted by R_i Omega_tt R_i^T. Both are least squares over
x_j - B x_i = d with real 2x2 blocks: each edge gives two rows
S (x_j - B x_i - d) with S^T S = W, on one sparse pattern, and one solver
serves both normal equations A^T A x = A^T S d. The gauge
is the lowest vertex id of each connected component of the union, held at its
estimate: the vertex central LM anchors by default. The blocks' local
anchors are not held, since they sit at mutually inconsistent
dead-reckoning poses (holding them left the 4x60 benchmark graph at 1.48 of
the central objective). The solve is block successive over-relaxation, the
scheme of DGS (Choudhary et al., IJRR 2017): each block updates the vertices
it owns from one factorization of its diagonal block per stage, with the
other blocks' latest values held. omega = 1.8 needs (81, 77) sweeps
(rotation, translation) on that graph where Gauss-Seidel (omega = 1) needs
(259, 321), and more than 1000 at 4x250. A stage stops at the first sweep
whose largest update is at most 1e-8 of max(1, |x|max), which leaves the
start within about 1e-7 of the central linear solve at 4x60; the sweep cap
is a guard only. The earlier start from the blocks' dead-reckoning estimates
led ADMM to another stationary point (1.49 of central LM at 4x60, 2.32 at
4x250) and is gone.

A block's edges, anchor and separator copies stay the same across rounds,
only the prior targets and weights change, so each block's
:class:`dpgo.refine.LMSystem` (free rows, elimination order, normal-equation
pattern and scatter indices) is built once, before the first round, and
every round's local solve reuses it. A round hands each block its priors as
arrays (:class:`dpgo.refine.Priors`): the copies' vertex ids, their rows of
the (C, 3) targets z[sep] - u and one weight sqrt(rho/2) I for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .geometry import Pose2, wrap_angle
from .graph import PoseGraph
from .partition import Partition
from .refine import LMConfig, LMSystem, Priors, lm_refine_full

_RIDGE = 1e-9
_SOR_OMEGA = 1.8
_SOR_TOL = 1e-8  # largest update of a sweep, relative to max(1, |x|max)
_SOR_MAX_SWEEPS = 1000  # a guard only: the tolerance ends every sweep loop measured so far

_RHO0 = 5.0  # the penalty of the first round
# the penalty doubles (duals halve) when the disagreement has not fallen below 0.7 of its value
# 10 rounds earlier: a simpler rule than residual balancing (Boyd et al. 2011, section 3.4.1)
_STALL_WINDOW = 10
_STALL_FACTOR = 0.7
_RHO_MAX = 1e8  # a guard: stalled rounds stop doubling the penalty once it reaches this
# inexact local solves suffice for ADMM (Boyd et al. 2011, section 3.4.4), and each round's
# solve starts from the last one's result
_LOCAL_LM = LMConfig(max_iters=10)


@dataclass(frozen=True)
class AdmmConfig:
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class AdmmResult:
    resolved: dict[int, Pose2]
    partition: Partition
    disagreement: list[float]
    converged: bool
    iterations: int
    start_sweeps: tuple[int, int]  # SOR sweeps of the chordal start: (rotation, translation)


def information_weighted_mean(poses, infos, groups) -> np.ndarray:
    """Weighted mean of the pose rows in each group; angles averaged chordally.

    ``poses`` is (C, 3) ordered (x, y, theta), ``infos`` (C, 3, 3) ordered
    (theta, x, y) and ``groups`` (C,) the group index of each row. Returns
    the (G, 3) means, G = max(groups) + 1; every group needs a row.
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


def _subgraph_anchor(sub: PoseGraph, sep_ids) -> int:
    non_sep = sub.vids[~np.isin(sub.vids, sep_ids)]
    return int(non_sep[0] if len(non_sep) else sub.vids[0])


def _wrap_theta(poses: np.ndarray) -> np.ndarray:
    poses[:, 2] = wrap_angle(poses[:, 2])
    return poses


def admm_consensus(p: Partition, cfg: AdmmConfig | None = None) -> AdmmResult:
    cfg = cfg or AdmmConfig()
    # lm_refine_full returns new graphs and nothing mutates them: shallow copies suffice
    part = Partition(list(p.subgraphs), dict(p.owner), dict(p.separators), list(p.edge_gids))
    start = chordal_start(part)
    part.subgraphs = [sub.with_estimates(start.poses[np.searchsorted(start.vids, sub.vids)]) for sub in part.subgraphs]

    # copy table: one row per (separator, holding block), separators in id order
    sep_ids = sorted(part.separators)
    anchors = [_subgraph_anchor(sub, sep_ids) for sub in part.subgraphs]
    copy_vid = np.array([vid for vid in sep_ids for _ in part.separators[vid]], dtype=np.int64)
    copy_block = np.array([b for vid in sep_ids for b in part.separators[vid]], dtype=np.intp)
    copy_sep = np.repeat(np.arange(len(sep_ids)), [len(part.separators[vid]) for vid in sep_ids])
    block_rows = [np.flatnonzero(copy_block == b) for b in range(part.n_blocks)]
    # LM returns each block's graph with its edge arrays shared, so one system serves every round
    systems = [LMSystem(sub, a, copy_vid[rows]) for sub, a, rows in zip(part.subgraphs, anchors, block_rows)]
    eye = np.broadcast_to(np.eye(3), (len(copy_vid), 3, 3))

    def copy_poses() -> np.ndarray:
        x = np.empty((len(copy_vid), 3))
        for sub, rows, system in zip(part.subgraphs, block_rows, systems):
            x[rows] = sub.estimates[system.rows[1:]]  # the copies' vertex rows; LM keeps a block's rows
        return x

    # every copy starts at the chordal pose: z at consensus, no dual
    z = start.poses[np.searchsorted(start.vids, sep_ids)].reshape(-1, 3)
    u = np.zeros((len(copy_vid), 3))

    rho = _RHO0
    history: list[float] = []
    best = None
    converged = False
    for rounds in range(1, cfg.max_iters + 1):
        sqrt_w = math.sqrt(rho / 2.0) * eye
        targets = _wrap_theta(z[copy_sep] - u)
        for b, (sub, rows) in enumerate(zip(part.subgraphs, block_rows)):
            priors = Priors(copy_vid[rows], targets[rows], sqrt_w[rows])
            res = lm_refine_full(sub, cfg=_LOCAL_LM, anchor=anchors[b], priors=priors, system=systems[b])
            part.subgraphs[b] = res.graph

        x = copy_poses()
        z = information_weighted_mean(_wrap_theta(x + u), eye, copy_sep)
        diff = _wrap_theta(x - z[copy_sep])
        u += diff
        disagreement = float(np.linalg.norm(diff, axis=1).max(initial=0.0))
        history.append(disagreement)
        if best is None or disagreement < best[0]:
            # z is rebound and the graphs are replaced each round, never mutated
            best = (disagreement, z, list(part.subgraphs))
        if disagreement < cfg.tol:
            converged = True
            break
        if (
            len(history) > _STALL_WINDOW
            and history[-1] > _STALL_FACTOR * history[-1 - _STALL_WINDOW]
            and rho < _RHO_MAX
        ):
            rho *= 2.0
            u *= 0.5

    if not converged:
        _, z, part.subgraphs = best
    resolved = {vid: Pose2(*pose) for vid, pose in zip(sep_ids, z.tolist())}
    return AdmmResult(resolved, part, history, converged, rounds, start.sweeps)
