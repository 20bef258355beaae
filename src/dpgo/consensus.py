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

import numpy as np

from .geometry import Pose2, wrap_angle
from .graph import PoseGraph
from .partition import Partition
from .refine import LMConfig, LMSystem, Priors, lm_refine_full

_RIDGE = 1e-9


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 5.0
    max_iters: int = 100
    tol: float = 1e-6
    local_max_iters: int = 10
    stall_window: int = 10
    stall_factor: float = 0.7
    rho_max: float = 1e8

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if not self.local_max_iters >= 1:
            raise ValueError("local_max_iters must be at least 1")
        if not self.stall_window >= 1:
            raise ValueError("stall_window must be at least 1")
        if not 0 < self.stall_factor <= 1:
            raise ValueError("stall_factor must be in (0, 1]")
        if not self.rho_max >= self.rho:
            raise ValueError("rho_max must be at least rho")


@dataclass
class AdmmResult:
    resolved: dict[int, Pose2]
    partition: Partition
    disagreement: list[float]
    converged: bool
    iterations: int


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
    local_cfg = LMConfig(max_iters=cfg.local_max_iters)

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

    z = information_weighted_mean(copy_poses(), eye, copy_sep)
    u = np.zeros((len(copy_vid), 3))

    rho = cfg.rho
    history: list[float] = []
    best = None
    converged = False
    for rounds in range(1, cfg.max_iters + 1):
        sqrt_w = math.sqrt(rho / 2.0) * eye
        targets = _wrap_theta(z[copy_sep] - u)
        for b, (sub, rows) in enumerate(zip(part.subgraphs, block_rows)):
            priors = Priors(copy_vid[rows], targets[rows], sqrt_w[rows])
            res = lm_refine_full(sub, cfg=local_cfg, anchor=anchors[b], priors=priors, system=systems[b])
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
            len(history) > cfg.stall_window
            and history[-1] > cfg.stall_factor * history[-1 - cfg.stall_window]
            and rho < cfg.rho_max
        ):
            rho *= 2.0
            u *= 0.5

    if not converged:
        _, z, part.subgraphs = best
    resolved = {vid: Pose2(*pose) for vid, pose in zip(sep_ids, z.tolist())}
    return AdmmResult(resolved, part, history, converged, rounds)
