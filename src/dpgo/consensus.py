"""Consensus over separator poses.

Scaled consensus ADMM (Boyd et al. 2011, section 7.1): each round every robot
refines its subgraph by LM with quadratic pulls (rho/2 ||x_sep - z + u||^2 in
local tangent coordinates) on its separator copies, the consensus variable z
becomes the plain mean of the copies plus their scaled duals, x_b + u_b (angles
averaged chordally), and the scaled duals integrate the remaining disagreement
x_b - z. Because z is the mean of x_b + u_b, the duals of each separator sum to
zero after every update (the angle duals to first order, since angles are
averaged on the circle), so at a fixed point (x_b = z) the local optimality
conditions grad f_b = -rho u_b add up to sum_b grad f_b = 0: the result is a
stationary point of the summed local objectives, and each subgraph's
information enters through its own objective. The penalty is doubled (duals
halved) when the disagreement stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2, wrap_angle
from .graph import PoseGraph, ResidualWeights
from .partition import Partition
from .refine import LMConfig, PriorFactor, lm_refine_full

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
        if self.rho <= 0:
            raise ValueError("rho must be positive")


@dataclass
class AdmmResult:
    resolved: dict[int, Pose2]
    partition: Partition
    disagreement: list[float]
    converged: bool
    iterations: int


def information_weighted_mean(poses, infos) -> Pose2:
    """Weighted mean of duplicate poses; angles averaged chordally.

    ``poses`` are Pose2, ``infos`` 3x3 matrices in (theta, x, y) ordering.
    """
    a = np.full((2, 2), 0.0)
    bt = np.zeros(2)
    sin_acc = cos_acc = 0.0
    for pose, info in zip(poses, infos):
        wt = np.asarray(info)[1:, 1:] + _RIDGE * np.eye(2)
        a += wt
        bt += wt @ np.array([pose.x, pose.y])
        w_th = float(np.asarray(info)[0, 0]) + _RIDGE
        sin_acc += w_th * math.sin(pose.theta)
        cos_acc += w_th * math.cos(pose.theta)
    t = np.linalg.solve(a, bt)
    return Pose2(t[0], t[1], math.atan2(sin_acc, cos_acc))


def _subgraph_anchor(sub: PoseGraph, separators) -> int:
    non_sep = [vid for vid in sorted(sub.vertices) if vid not in separators]
    return non_sep[0] if non_sep else sorted(sub.vertices)[0]


def _pose_minus(pose: Pose2, ref: Pose2) -> np.ndarray:
    return np.array([pose.x - ref.x, pose.y - ref.y, wrap_angle(pose.theta - ref.theta)])


def _pose_plus(pose: Pose2, delta) -> Pose2:
    return Pose2(pose.x + delta[0], pose.y + delta[1], pose.theta + delta[2])


def admm_consensus(
    p: Partition,
    weights: ResidualWeights | None = None,
    cfg: AdmmConfig | None = None,
) -> AdmmResult:
    w = weights or ResidualWeights()
    cfg = cfg or AdmmConfig()
    part = Partition(
        [s.copy() for s in p.subgraphs], dict(p.owner), dict(p.separators), [list(g) for g in p.edge_gids]
    )
    sep_holders = {vid: [b for b, _ in holders] for vid, holders in part.separators.items()}
    local_cfg = LMConfig(max_iters=cfg.local_max_iters)

    if not sep_holders:
        for b, sub in enumerate(part.subgraphs):
            res = lm_refine_full(sub, w, local_cfg, anchor=_subgraph_anchor(sub, set()))
            part.subgraphs[b] = res.graph
        return AdmmResult({}, part, [0.0], True, 1)

    sep_set = set(sep_holders)
    anchors = [_subgraph_anchor(sub, sep_set) for sub in part.subgraphs]

    z = {
        vid: information_weighted_mean(
            [part.subgraphs[b].vertices[vid].estimate for b in holders],
            [np.eye(3)] * len(holders),
        )
        for vid, holders in sep_holders.items()
    }
    # scaled duals, pose differences (dx, dy, dtheta)
    u = {(vid, b): np.zeros(3) for vid, holders in sep_holders.items() for b in holders}

    rho = cfg.rho
    history: list[float] = []
    best = None
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_iters + 1):
        sqrt_w = math.sqrt(rho / 2.0) * np.eye(3)
        for b, sub in enumerate(part.subgraphs):
            local_seps = [vid for vid in sorted(sub.vertices) if vid in sep_set]
            priors = tuple(
                PriorFactor(vid, _pose_plus(z[vid], -u[(vid, b)]).as_vector(), sqrt_w)
                for vid in local_seps
                if b in sep_holders[vid]
            )
            res = lm_refine_full(sub, w, local_cfg, anchor=anchors[b], priors=priors)
            part.subgraphs[b] = res.graph

        for vid, holders in sep_holders.items():
            z[vid] = information_weighted_mean(
                [_pose_plus(part.subgraphs[b].vertices[vid].estimate, u[(vid, b)]) for b in holders],
                [np.eye(3)] * len(holders),
            )
        disagreement = 0.0
        for vid, holders in sep_holders.items():
            for b in holders:
                diff = _pose_minus(part.subgraphs[b].vertices[vid].estimate, z[vid])
                u[(vid, b)] = u[(vid, b)] + diff
                disagreement = max(disagreement, float(np.linalg.norm(diff)))
        history.append(disagreement)
        if best is None or disagreement < best[0]:
            best = (
                disagreement,
                {vid: pose for vid, pose in z.items()},
                [s.copy() for s in part.subgraphs],
            )
        if disagreement < cfg.tol:
            converged = True
            break
        if (
            len(history) > cfg.stall_window
            and history[-1] > cfg.stall_factor * history[-1 - cfg.stall_window]
            and rho < cfg.rho_max
        ):
            rho *= 2.0
            for key in u:
                u[key] = u[key] * 0.5

    if not converged and best is not None:
        _, z, subs = best
        part.subgraphs = subs
    return AdmmResult(dict(z), part, history, converged, rounds)
