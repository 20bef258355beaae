import math

import numpy as np
import scipy.optimize

from dpgo.geometry import Pose2, relative, wrap_angle
from dpgo.graph import (
    EdgeMeasurement,
    EdgeOrigin,
    PoseGraph,
    ResidualWeights,
    edge_residual,
    objective,
)
from dpgo.refine import LMConfig, PriorFactor, lm_refine, lm_refine_full
from dpgo.synth import GenSpec, NOISE_PROFILES, generate

from conftest import rand_info, rand_pose


def three_pose_loop(noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    truth = [Pose2(0, 0, 0), Pose2(1, 0, 0.2), Pose2(1.2, 1.0, 1.5)]
    g = PoseGraph()
    for i, t in enumerate(truth):
        g.add_vertex(i, timestep=i, estimate=t, truth=t)
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        rel = relative(truth[i], truth[j])
        if noise:
            rel = Pose2(rel.x + rng.normal(0, noise), rel.y + rng.normal(0, noise), rel.theta + rng.normal(0, noise))
        origin = EdgeOrigin.ODOMETRY if j == i + 1 else EdgeOrigin.INTRA_LOOP
        g.add_edge(EdgeMeasurement(i, j, rel, np.eye(3), origin))
    return g


def test_noise_free_graph_stays_at_zero():
    g = three_pose_loop(noise=0.0)
    out, log = lm_refine(g)
    assert objective(out) < 1e-20
    assert not any(it.accepted for it in log)


def test_three_pose_toy_matches_dense_newton_oracle():
    g = three_pose_loop(noise=0.05, seed=1)
    # perturb one pose away from the optimum
    g.vertices[1].estimate = Pose2(1.4, 0.3, 0.5)

    # independent oracle: BFGS on the 6 free variables of a naive objective
    def naive_f(v):
        poses = [g.vertices[0].estimate, Pose2(v[0], v[1], v[2]), Pose2(v[3], v[4], v[5])]
        total = 0.0
        for e in g.edges:
            xp, xq = poses[e.from_id], poses[e.to_id]
            dth = wrap_angle(xq.theta - xp.theta - e.rel.theta)
            c, s = math.cos(xp.theta), math.sin(xp.theta)
            dx, dy = xq.x - xp.x, xq.y - xp.y
            tx = c * dx + s * dy - e.rel.x
            ty = -s * dx + c * dy - e.rel.y
            total += dth * dth + tx * tx + ty * ty
        return total

    x0 = np.array([1.4, 0.3, 0.5, 1.2, 1.0, 1.5])
    best = min(
        (
            scipy.optimize.minimize(naive_f, x0 + d, method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
            for d in (np.zeros(6), np.full(6, 0.05), np.full(6, -0.05))
        ),
        key=lambda r: r.fun,
    )
    out, _ = lm_refine(g, cfg=LMConfig(max_iters=100))
    assert abs(objective(out) - best.fun) < 1e-10


def test_objective_monotone_over_accepted_iterations():
    g = generate(GenSpec(n_robots=2, poses_per_robot=25, seed=2, profile=NOISE_PROFILES["v2"]))
    out, log = lm_refine(g, cfg=LMConfig(max_iters=75))
    f0 = objective(g)
    accepted = [it.objective for it in log if it.accepted]
    assert accepted, "expected at least one accepted step"
    assert all(b < a for a, b in zip([f0] + accepted[:-1], accepted))
    assert objective(out) <= 0.1 * f0


def test_anchor_vertex_bit_unchanged():
    g = generate(GenSpec(n_robots=1, poses_per_robot=20, seed=3, profile=NOISE_PROFILES["v2"]))
    anchor = sorted(g.vertices)[0]
    before = g.vertices[anchor].estimate
    out, _ = lm_refine(g)
    after = out.vertices[anchor].estimate
    assert (before.x, before.y, before.theta) == (after.x, after.y, after.theta)


def test_jacobians_match_finite_differences(rng):
    from dpgo.refine import _residuals_jacobians

    w = ResidualWeights(1.3, 0.7)
    for _ in range(5):
        xp, xq = rand_pose(rng), rand_pose(rng)
        meas = rand_pose(rng)
        x = np.array([xp.as_vector(), xq.as_vector()])
        e_from, e_to = np.array([0]), np.array([1])
        m = np.array([meas.as_vector()])
        r0, a, b = _residuals_jacobians(x, e_from, e_to, m, w)
        h = 1e-7
        for side, jac in ((0, a[0]), (1, b[0])):
            for k in range(3):
                xpert = x.copy()
                xpert[side, k] += h
                rp, _, _ = _residuals_jacobians(xpert, e_from, e_to, m, w)
                xpert[side, k] -= 2 * h
                rm, _, _ = _residuals_jacobians(xpert, e_from, e_to, m, w)
                fd = (rp[0] - rm[0]) / (2 * h)
                assert np.abs(fd - jac[:, k]).max() < 1e-5


def test_prior_factor_pulls_vertex_to_target():
    g = PoseGraph()
    g.add_vertex(0, estimate=Pose2(0, 0, 0))
    g.add_vertex(1, timestep=1, estimate=Pose2(1, 0, 0))
    g.add_edge(EdgeMeasurement(0, 1, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY))
    target = np.array([1.5, 0.4, 0.3])  # (x, y, theta)
    strong = 1e4 * np.eye(3)
    res = lm_refine_full(g, cfg=LMConfig(max_iters=50), priors=(PriorFactor(1, target, strong),))
    est = res.graph.vertices[1].estimate
    assert abs(est.theta - 0.3) < 1e-3
    assert abs(est.x - 1.5) < 1e-3
    assert abs(est.y - 0.4) < 1e-3


def test_weighted_objective_respected():
    g = three_pose_loop(noise=0.1, seed=4)
    w = ResidualWeights(2.0, 0.5)
    out, log = lm_refine(g, w, LMConfig(max_iters=50))
    assert objective(out, w) <= objective(g, w)
    accepted = [it.objective for it in log if it.accepted]
    assert accepted and abs(accepted[-1] - objective(out, w)) < 1e-9


def test_iteration_log_csv(tmp_path):
    g = three_pose_loop(noise=0.05, seed=5)
    g.vertices[2].estimate = Pose2(0.5, 0.5, 0.0)
    _, log = lm_refine(g)
    path = tmp_path / "lm.csv"
    from dpgo.refine import iteration_log_csv

    iteration_log_csv(log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,damping,step_norm,accepted"
    assert len(lines) == len(log) + 1
