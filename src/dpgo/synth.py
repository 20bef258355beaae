"""Synthetic multi-robot pose-graph generation and outlier injection.

Ground-truth trajectories are Manhattan random walks (1 m steps, 90-degree
turns with probability 0.25). Robots start in adjacent regions so
inter-robot proximity occurs naturally. Measurements are ground-truth
relative transforms plus zero-mean Gaussian noise with a per-edge-class
standard deviation; initial estimates are dead-reckoned from the noisy
odometry, so they drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2, compose, relative, wrap_angle
from .graph import EdgeMeasurement, EdgeOrigin, GraphError, PoseGraph, adjacency, is_connected

PROXIMITY_RADIUS = 2.5  # meters between ground-truth positions
TURN_PROBABILITY = 0.25
STEP_LENGTH = 1.0
ROBOT_SPACING = 2.0
_SIGMA_FLOOR = 1e-6  # keeps information matrices finite in the noise-free limit


class InvalidSpec(GraphError):
    pass


class NoEligibleEdges(GraphError):
    pass


@dataclass(frozen=True)
class NoiseProfile:
    """Isotropic noise std-devs per edge class (meters / radians)."""

    sigma_odom: float
    sigma_intraloop: float
    sigma_inter: float

    def __post_init__(self):
        if min(self.sigma_odom, self.sigma_intraloop, self.sigma_inter) < 0:
            raise InvalidSpec("noise std-devs must be non-negative")

    def sigma_for(self, origin: EdgeOrigin) -> float:
        if origin == EdgeOrigin.ODOMETRY:
            return self.sigma_odom
        if origin == EdgeOrigin.INTRA_LOOP:
            return self.sigma_intraloop
        return self.sigma_inter


NOISE_PROFILES = {
    "v1": NoiseProfile(0.06, 0.10, 0.14),
    "v2": NoiseProfile(0.10, 0.14, 0.18),
    "v3": NoiseProfile(0.14, 0.18, 0.22),
}


@dataclass(frozen=True)
class GenSpec:
    n_robots: int
    poses_per_robot: int
    loop_ratio: float = 0.15
    profile: NoiseProfile = NOISE_PROFILES["v1"]
    seed: int = 0

    def __post_init__(self):
        if self.n_robots < 1:
            raise InvalidSpec("need at least one robot")
        if self.poses_per_robot < 2:
            raise InvalidSpec("need at least two poses per robot")
        if not 0.0 <= self.loop_ratio <= 1.0:
            raise InvalidSpec("loop_ratio must be in [0, 1]")


def _info_for(sigma: float) -> np.ndarray:
    s = max(sigma, _SIGMA_FLOOR)
    return np.diag([1.0 / s**2] * 3)


def _noisy_rel(rel: Pose2, sigma: float, rng) -> Pose2:
    noise = rng.normal(0.0, sigma, size=3) if sigma > 0 else np.zeros(3)
    return Pose2(rel.x + noise[0], rel.y + noise[1], wrap_angle(rel.theta + noise[2]))


def _walk(rng, n_steps: int, start: Pose2) -> list[Pose2]:
    poses = [start]
    heading = start.theta
    x, y = start.x, start.y
    for _ in range(n_steps):
        if rng.random() < TURN_PROBABILITY:
            heading = wrap_angle(heading + (math.pi / 2) * (1 if rng.random() < 0.5 else -1))
        x += STEP_LENGTH * math.cos(heading)
        y += STEP_LENGTH * math.sin(heading)
        poses.append(Pose2(x, y, heading))
    return poses


def generate(spec: GenSpec) -> PoseGraph:
    """Build a noisy multi-robot pose graph with full ground truth.

    Deterministic given the seed; retries trajectory placement (with a
    derived seed) until the graph is connected.
    """
    base = np.random.SeedSequence(spec.seed)
    for attempt, child in enumerate(base.spawn(50)):
        rng = np.random.default_rng(child)
        g = _generate_once(spec, rng)
        if g is not None:
            return g
    raise InvalidSpec("could not place connected trajectories after 50 attempts")


def _generate_once(spec: GenSpec, rng) -> PoseGraph | None:
    n, p = spec.n_robots, spec.poses_per_robot
    prof = spec.profile
    truths = [
        _walk(rng, p - 1, Pose2(ROBOT_SPACING * r, 0.0, 0.0)) for r in range(n)
    ]

    g = PoseGraph()
    for r in range(n):
        for t in range(p):
            g.add_vertex(r * p + t, robot=r, timestep=t, truth=truths[r][t])

    # odometry chains + dead-reckoned estimates
    for r in range(n):
        est = truths[r][0]
        g.vertices[r * p].estimate = est
        for t in range(p - 1):
            rel = relative(truths[r][t], truths[r][t + 1])
            noisy = _noisy_rel(rel, prof.sigma_odom, rng)
            g.add_edge(
                EdgeMeasurement(r * p + t, r * p + t + 1, noisy, _info_for(prof.sigma_odom), EdgeOrigin.ODOMETRY)
            )
            est = compose(est, noisy)
            g.vertices[r * p + t + 1].estimate = est

    # intra-robot loop closures among non-consecutive proximate pairs
    intra_pairs = []
    for r in range(n):
        pts = np.array([[q.x, q.y] for q in truths[r]])
        for s in range(p):
            d = np.hypot(pts[s + 2 :, 0] - pts[s, 0], pts[s + 2 :, 1] - pts[s, 1])
            for off in np.nonzero(d <= PROXIMITY_RADIUS)[0]:
                intra_pairs.append((r * p + s, r * p + s + 2 + int(off)))
    k_intra = int(np.rint(spec.loop_ratio * len(intra_pairs)))
    chosen = rng.choice(len(intra_pairs), size=k_intra, replace=False) if k_intra else []
    for idx in sorted(int(i) for i in np.atleast_1d(chosen)):
        i, j = intra_pairs[idx]
        rel = relative(g.vertices[i].truth, g.vertices[j].truth)
        g.add_edge(
            EdgeMeasurement(i, j, _noisy_rel(rel, prof.sigma_intraloop, rng), _info_for(prof.sigma_intraloop), EdgeOrigin.INTRA_LOOP)
        )

    # inter-robot edges among proximate cross-robot pairs
    inter_pairs = []
    for ra in range(n):
        pa = np.array([[q.x, q.y] for q in truths[ra]])
        for rb in range(ra + 1, n):
            pb = np.array([[q.x, q.y] for q in truths[rb]])
            d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
            for s, t in zip(*np.nonzero(d <= PROXIMITY_RADIUS)):
                inter_pairs.append((ra * p + int(s), rb * p + int(t)))
    k_inter = int(np.rint(spec.loop_ratio * len(inter_pairs)))
    chosen = rng.choice(len(inter_pairs), size=k_inter, replace=False) if k_inter else []
    chosen_set = {int(i) for i in np.atleast_1d(chosen)}

    # guarantee at least one edge per adjacent robot pair
    for r in range(n - 1):
        group = [
            (idx, (i, j))
            for idx, (i, j) in enumerate(inter_pairs)
            if i // p == r and j // p == r + 1
        ]
        if not group:
            return None  # robots never met; retry placement
        if not any(idx in chosen_set for idx, _ in group):
            best = min(
                group,
                key=lambda item: math.hypot(
                    g.vertices[item[1][0]].truth.x - g.vertices[item[1][1]].truth.x,
                    g.vertices[item[1][0]].truth.y - g.vertices[item[1][1]].truth.y,
                ),
            )
            chosen_set.add(best[0])

    for idx in sorted(chosen_set):
        i, j = inter_pairs[idx]
        gap = abs(g.vertices[i].timestep - g.vertices[j].timestep)
        origin = EdgeOrigin.INTER_ESTIMATE if gap <= 1 else EdgeOrigin.INTER_LOOP
        rel = relative(g.vertices[i].truth, g.vertices[j].truth)
        g.add_edge(
            EdgeMeasurement(i, j, _noisy_rel(rel, prof.sigma_inter, rng), _info_for(prof.sigma_inter), origin)
        )

    if not is_connected(adjacency(g)):
        return None
    return g


def inject_outliers(g: PoseGraph, fraction: float, seed: int) -> tuple[PoseGraph, frozenset[int]]:
    """Corrupt an exact share of the non-odometry edges.

    Corrupted edges get a rotation resampled uniformly on (-pi, pi] and a
    translation resampled from N(0, (0.5 * L_avg)^2 I), where L_avg is the
    mean translation magnitude over all edges. Returns the corrupted copy
    and the set of corrupted edge indices.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    eligible = [i for i, e in enumerate(g.edges) if e.origin != EdgeOrigin.ODOMETRY]
    if not eligible:
        raise NoEligibleEdges("graph has no loop-closure or inter-robot edges")
    k = int(np.rint(fraction * len(eligible)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chosen = sorted(int(i) for i in (rng.choice(len(eligible), size=k, replace=False) if k else []))
    l_avg = float(np.mean([math.hypot(e.rel.x, e.rel.y) for e in g.edges]))

    out = g.copy()
    corrupted = []
    for idx in chosen:
        gid = eligible[idx]
        e = out.edges[gid]
        theta = rng.uniform(-math.pi, math.pi)
        t = rng.normal(0.0, 0.5 * l_avg, size=2)
        out.edges[gid] = EdgeMeasurement(e.from_id, e.to_id, Pose2(t[0], t[1], theta), e.info, e.origin)
        corrupted.append(gid)
    return out, frozenset(corrupted)

