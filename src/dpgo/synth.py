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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose2, compose, relative, wrap_angle
from .graph import EdgeOrigin, GraphError, PoseGraph, adjacency, is_connected

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
        # written so that NaN fails every comparison
        if not all(0 <= s < math.inf for s in (self.sigma_odom, self.sigma_intraloop, self.sigma_inter)):
            raise InvalidSpec(f"noise std-devs must be non-negative and finite, got {self}")


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
        if not isinstance(self.profile, NoiseProfile):
            raise InvalidSpec(f"profile must be a NoiseProfile, got {self.profile!r}")
        for name, least in (("n_robots", 1), ("poses_per_robot", 2), ("seed", 0)):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Integral) and count >= least):
                raise InvalidSpec(f"{name} must be an integer of at least {least}, got {count!r}")
        if not 0.0 <= self.loop_ratio <= 1.0:
            raise InvalidSpec("loop_ratio must be in [0, 1]")


def _info_for(sigmas) -> np.ndarray:
    """(E, 3, 3) isotropic information matrices of the std-devs ``sigmas``."""
    return np.eye(3) / np.maximum(sigmas, _SIGMA_FLOOR)[:, None, None] ** 2


def _pose_array(poses) -> np.ndarray:
    return np.array([(p.x, p.y, p.theta) for p in poses]).reshape(-1, 3)


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
    walks = [
        _walk(rng, p - 1, Pose2(ROBOT_SPACING * r, 0.0, 0.0)) for r in range(n)
    ]
    truth = [pose for walk in walks for pose in walk]  # vertex r * p + t is robot r at timestep t
    estimates, ends, meas, sigmas, origins = [], [], [], [], []

    def measure(i, j, sigma, origin):
        ends.append((i, j))
        meas.append(_noisy_rel(relative(truth[i], truth[j]), sigma, rng))
        sigmas.append(sigma)
        origins.append(origin)

    # odometry chains + dead-reckoned estimates
    for r in range(n):
        est = walks[r][0]
        estimates.append(est)
        for t in range(p - 1):
            measure(r * p + t, r * p + t + 1, prof.sigma_odom, EdgeOrigin.ODOMETRY)
            est = compose(est, meas[-1])
            estimates.append(est)

    # intra-robot loop closures among non-consecutive proximate pairs
    intra_pairs = []
    for r in range(n):
        pts = np.array([[q.x, q.y] for q in walks[r]])
        for s in range(p):
            d = np.hypot(pts[s + 2 :, 0] - pts[s, 0], pts[s + 2 :, 1] - pts[s, 1])
            for off in np.nonzero(d <= PROXIMITY_RADIUS)[0]:
                intra_pairs.append((r * p + s, r * p + s + 2 + int(off)))
    k_intra = int(np.rint(spec.loop_ratio * len(intra_pairs)))
    chosen = rng.choice(len(intra_pairs), size=k_intra, replace=False) if k_intra else []
    for idx in sorted(int(i) for i in np.atleast_1d(chosen)):
        measure(*intra_pairs[idx], prof.sigma_intraloop, EdgeOrigin.INTRA_LOOP)

    # inter-robot edges among proximate cross-robot pairs
    inter_pairs = []
    for ra in range(n):
        pa = np.array([[q.x, q.y] for q in walks[ra]])
        for rb in range(ra + 1, n):
            pb = np.array([[q.x, q.y] for q in walks[rb]])
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
                    truth[item[1][0]].x - truth[item[1][1]].x,
                    truth[item[1][0]].y - truth[item[1][1]].y,
                ),
            )
            chosen_set.add(best[0])

    for idx in sorted(chosen_set):
        i, j = inter_pairs[idx]
        origin = EdgeOrigin.INTER_ESTIMATE if abs(i % p - j % p) <= 1 else EdgeOrigin.INTER_LOOP
        measure(i, j, prof.sigma_inter, origin)

    ends = np.array(ends)
    g = PoseGraph(
        np.arange(n * p), np.repeat(np.arange(n), p), np.tile(np.arange(p), n),
        _pose_array(estimates), _pose_array(truth),
        ends[:, 0], ends[:, 1], _pose_array(meas), _info_for(np.array(sigmas)), origins,
    )
    return g if is_connected(adjacency(g)) else None


def inject_outliers(g: PoseGraph, fraction: float, seed: int) -> tuple[PoseGraph, frozenset[int]]:
    """Corrupt an exact share of the non-odometry edges.

    Corrupted edges get a rotation resampled uniformly on (-pi, pi] and a
    translation resampled from N(0, (0.5 * L_avg)^2 I), where L_avg is the
    mean translation magnitude over all edges. Returns the corrupted copy
    and the set of corrupted edge indices.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    eligible = np.flatnonzero(g.origin != EdgeOrigin.ODOMETRY)
    if not eligible.size:
        raise NoEligibleEdges("graph has no loop-closure or inter-robot edges")
    k = int(np.rint(fraction * len(eligible)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chosen = sorted(int(i) for i in (rng.choice(len(eligible), size=k, replace=False) if k else []))
    l_avg = float(np.mean([math.hypot(x, y) for x, y in g.meas[:, :2].tolist()]))

    meas = g.meas.copy()
    for idx in chosen:
        theta = rng.uniform(-math.pi, math.pi)
        t = rng.normal(0.0, 0.5 * l_avg, size=2)
        meas[eligible[idx]] = (t[0], t[1], theta)
    return replace(g, meas=meas), frozenset(int(eligible[idx]) for idx in chosen)
