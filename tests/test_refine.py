import math

import numpy as np
import pytest
import scipy.optimize

from dpgo.geometry import Pose2, relative, wrap_angle
from dpgo.graph import EdgeOrigin, GraphError, objective, se2_residuals
from dpgo import refine
from dpgo.refine import LMConfig, Priors, SingularNormalEquations, lm_refine, lm_refine_full
from dpgo.partition import partition
from dpgo.synth import GenSpec, NOISE_PROFILES, generate, inject_outliers

from conftest import edge, make_graph, rand_graph, rand_pose, vertex


def three_pose_loop(noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    truth = [Pose2(0, 0, 0), Pose2(1, 0, 0.2), Pose2(1.2, 1.0, 1.5)]
    vertices = [vertex(i, timestep=i, estimate=t, truth=t) for i, t in enumerate(truth)]
    edges = []
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        rel = relative(truth[i], truth[j])
        if noise:
            rel = Pose2(rel.x + rng.normal(0, noise), rel.y + rng.normal(0, noise), rel.theta + rng.normal(0, noise))
        origin = EdgeOrigin.ODOMETRY if j == i + 1 else EdgeOrigin.INTRA_LOOP
        edges.append(edge(i, j, rel, np.eye(3), origin))
    return make_graph(vertices, edges)


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
    from dpgo.refine import _jacobians

    for _ in range(5):
        xp, xq = rand_pose(rng), rand_pose(rng)
        meas = rand_pose(rng)
        x = np.array([xp.as_vector(), xq.as_vector()])
        e_from = np.array([0])
        m = np.array([meas.as_vector()])
        a, b = _jacobians(x, se2_residuals(x[:1], x[1:], m), e_from, m)
        h = 1e-7
        for side, jac in ((0, a[0]), (1, b[0])):
            for k in range(3):
                xpert = x.copy()
                xpert[side, k] += h
                rp = se2_residuals(xpert[:1], xpert[1:], m)
                xpert[side, k] -= 2 * h
                rm = se2_residuals(xpert[:1], xpert[1:], m)
                fd = (rp[0] - rm[0]) / (2 * h)
                assert np.abs(fd - jac[:, k]).max() < 1e-5


def dense_normal_equations_case(rng):
    """A small solve's normal equations next to its dense Jacobian and residual.

    Vertex 0 is the anchor and (0, 1) touches it; (1, 2) and (2, 1) are
    parallel; vertex 2 carries both of them and two priors; the prior on the
    anchor drops out. The dense Jacobian has no anchor columns and its
    columns are in vertex order.
    """
    from dpgo.refine import _NormalEquations, _jacobians, _residuals

    n = 5
    x = np.array([rand_pose(rng).as_vector() for _ in range(n)])
    e_from = np.array([0, 1, 2, 2, 3, 4])
    e_to = np.array([1, 2, 1, 3, 4, 1])
    meas = np.array([rand_pose(rng, 1.0).as_vector() for _ in e_from])
    p_rows = np.array([2, 2, 4, 0])
    prior = (p_rows, np.array([rand_pose(rng).as_vector() for _ in p_rows]), rng.normal(size=(len(p_rows), 3, 3)))
    neq = _NormalEquations(np.array([-1, 0, 1, 2, 3]), n - 1, e_from, e_to, p_rows)
    r, rp, _ = _residuals(x, e_from, e_to, meas, prior)
    h, g = neq.assemble(x, e_from, meas, r, rp, prior[2], np.einsum("pji,pjk->pik", prior[2], prior[2]))

    a, b = _jacobians(x, r, e_from, meas)
    jac = np.zeros((3 * (len(e_from) + len(p_rows)), 3 * n))
    for e, (p, q) in enumerate(zip(e_from, e_to)):
        jac[3 * e : 3 * e + 3, 3 * p : 3 * p + 3] += a[e]
        jac[3 * e : 3 * e + 3, 3 * q : 3 * q + 3] += b[e]
    for k, v in enumerate(p_rows):
        row = 3 * (len(e_from) + k)
        jac[row : row + 3, 3 * v : 3 * v + 3] = prior[2][k]
    res = np.concatenate([r.ravel(), rp.ravel()])
    return neq, h, g, jac[:, 3:], res


def test_normal_equations_match_dense_oracle(rng):
    neq, h, g, jac, res = dense_normal_equations_case(rng)
    assert sorted(neq.perm) == [0, 1, 2, 3]
    jac = jac[:, (3 * np.argsort(neq.perm)[:, None] + np.arange(3)).ravel()]  # free vertex k is block perm[k]

    h_mat = neq.damped(h, 0.0)
    assert h_mat.shape == (12, 12) and h_mat.indices.dtype == np.int32
    assert np.abs(h_mat.todense() - jac.T @ jac).max() < 1e-12
    assert np.abs(g - jac.T @ res).max() < 1e-12
    for c in range(neq.n):
        assert c in h_mat.indices[h_mat.indptr[c] : h_mat.indptr[c + 1]]
    assert np.abs((neq.damped(h, 0.5) - h_mat).todense() - 0.5 * np.eye(12)).max() < 1e-12


def test_damped_step_matches_dense_solve(rng):
    neq, h, g, jac, res = dense_normal_equations_case(rng)
    mu = 0.5
    step = neq.factor(h, mu).solve(-g).reshape(-1, 3)[neq.perm].ravel()  # back to vertex order
    dense = np.linalg.solve(jac.T @ jac + mu * np.eye(12), -jac.T @ res)
    assert np.abs(step - dense).max() < 1e-10


def test_block_order_fills_no_more_than_colamd():
    from dpgo.refine import _NormalEquations

    g, _ = inject_outliers(generate(GenSpec(n_robots=4, poses_per_robot=60, seed=7)), 0.1, 7)
    n = g.num_vertices
    neq = _NormalEquations(np.arange(n) - 1, n - 1, g.e_from, g.e_to, np.zeros(0, dtype=np.intp))  # vertex 0 anchored
    r = se2_residuals(g.estimates[g.e_from], g.estimates[g.e_to], g.meas)
    h, _ = neq.assemble(g.estimates, g.e_from, g.meas, r, np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
    ours = neq.factor(h, 1e-4)
    colamd = refine.spla.splu(neq.damped(h, 1e-4))
    assert ours.L.nnz + ours.U.nnz <= colamd.L.nnz + colamd.U.nnz



def test_one_system_serves_repeated_solves_bit_for_bit(rng):
    # a consensus block's sequence: new targets each round, one penalty doubling, then another start
    g = generate(GenSpec(n_robots=2, poses_per_robot=15, seed=3, profile=NOISE_PROFILES["v2"]))
    anchor, p_vids = int(g.vids[3]), [int(v) for v in g.vids[[0, 5, 9, 5, 3]]]
    system = refine.LMSystem(g, anchor, p_vids)
    cfg = LMConfig(max_iters=10)
    start = g
    for k, rho in enumerate([5.0, 5.0, 10.0, 10.0]):
        if k == 3:
            start = start.with_estimates(start.estimates + rng.normal(scale=0.2, size=start.estimates.shape))
        targets = start.estimates[start.rows_of(p_vids)] + rng.normal(scale=0.3, size=(len(p_vids), 3))
        priors = Priors(p_vids, targets, np.broadcast_to(math.sqrt(rho / 2.0) * np.eye(3), (len(p_vids), 3, 3)))
        fresh = lm_refine_full(start, cfg, anchor=anchor, priors=priors)
        cached = lm_refine_full(start, cfg, anchor=anchor, priors=priors, system=system)
        assert np.array_equal(cached.graph.estimates, fresh.graph.estimates)
        assert cached.iterates == fresh.iterates and cached.stop == fresh.stop
        assert any(it.accepted for it in cached.iterates)
        start = cached.graph


def test_system_built_for_another_solve_is_rejected():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=0))
    anchor, p_vids = int(g.vids[2]), [int(g.vids[4]), int(g.vids[7])]
    priors = Priors(p_vids, np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
    system = refine.LMSystem(g, anchor, p_vids)
    lm_refine_full(g, anchor=anchor, priors=priors, system=system)
    mismatched = [
        (g, {"anchor": int(g.vids[1]), "priors": priors}),
        (g, {"priors": priors}),  # the default anchor, the lowest id
        (g, {"anchor": anchor, "priors": Priors(p_vids[:1], np.zeros((1, 3)), np.eye(3)[None])}),
        (g, {"anchor": anchor, "priors": Priors(p_vids[::-1], priors.targets, priors.sqrt_weights)}),
        (g.copy(), {"anchor": anchor, "priors": priors}),
        (generate(GenSpec(n_robots=2, poses_per_robot=10, seed=1)), {"anchor": anchor, "priors": priors}),
    ]
    for other, kwargs in mismatched:
        with pytest.raises(GraphError, match="built for another graph"):
            lm_refine_full(other, system=system, **kwargs)


def test_lm_returns_at_rounding_floor_instead_of_raising(rng):
    # at mu0 = 1e20 every damped step is below the rounding of x, so no step lowers f
    g = rand_graph(rng, n_poses=8, n_loops=3)
    res = lm_refine_full(g, cfg=LMConfig(mu0=1e20))
    assert res.stop == "floor"
    assert not any(it.accepted for it in res.iterates)
    assert all(res.graph.vertices[v].estimate == g.vertices[v].estimate for v in g.vertices)
    assert math.isfinite(objective(res.graph))


def test_lm_raises_when_no_damped_system_is_solvable(monkeypatch):
    real_splu = refine.spla.splu

    def singular(*args, **kwargs):
        # the ordering factors the 2x2 block graph of the two free vertices; every damped system is 6x6
        if args[0].shape == (2, 2):
            return real_splu(*args, **kwargs)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(refine.spla, "splu", singular)
    with pytest.raises(SingularNormalEquations):
        lm_refine(three_pose_loop(noise=0.05, seed=1))


NAN = float("nan")


@pytest.mark.parametrize(
    "bad",
    [
        {"max_iters": -1},
        {"max_iters": NAN},
        {"mu0": 0.0},
        {"mu0": 1e32},
        {"mu0": NAN},
        {"ftol": -1.0},
        {"ftol": NAN},
    ],
    ids=["max_iters", "max_iters_nan", "mu0_zero", "mu0_at_damping_cap", "mu0_nan", "ftol_negative", "ftol_nan"],
)
def test_lm_config_rejects_malformed_field(bad):
    with pytest.raises(ValueError):
        LMConfig(**bad)


def test_lm_config_with_zero_iterations_returns_the_input():
    g = three_pose_loop(noise=0.05, seed=1)
    res = lm_refine_full(g, cfg=LMConfig(max_iters=0))
    assert res.stop == "max_iters" and not res.iterates
    assert all(res.graph.vertices[v].estimate == g.vertices[v].estimate for v in g.vertices)


def test_stop_reasons():
    assert lm_refine_full(three_pose_loop(noise=0.0)).stop == "gtol"
    g = three_pose_loop(noise=0.05, seed=1)
    g.vertices[1].estimate = Pose2(1.4, 0.3, 0.5)
    assert lm_refine_full(g, cfg=LMConfig(max_iters=2)).stop == "max_iters"
    assert lm_refine_full(g, cfg=LMConfig(max_iters=200)).stop in ("gtol", "ftol")


def test_default_ftol_stops_off_the_rounding_floor():
    # a consensus block's local solve: its separator copies pulled toward perturbed targets
    p = partition(generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0)), 4)
    sub, vids = p.subgraphs[0], sorted(v for v, blocks in p.separators.items() if 0 in blocks)
    targets = sub.estimates[sub.rows_of(vids)] + np.random.default_rng(0).normal(scale=0.1, size=(len(vids), 3))
    priors = Priors(vids, targets, np.broadcast_to(math.sqrt(2.5) * np.eye(3), (len(vids), 3, 3)))
    default = lm_refine_full(sub, priors=priors)
    floor = lm_refine_full(sub, LMConfig(ftol=1e-14), priors=priors)
    f_default, f_floor = ([it.objective for it in r.iterates if it.accepted][-1] for r in (default, floor))
    assert LMConfig().ftol == 1e-10 and default.stop == "ftol"
    assert len(default.iterates) <= len(floor.iterates)
    assert abs(f_default - f_floor) <= 1e-10 * f_floor


def test_prior_factor_pulls_vertex_to_target():
    g = make_graph(
        [vertex(0, estimate=Pose2(0, 0, 0)), vertex(1, timestep=1, estimate=Pose2(1, 0, 0))],
        [edge(0, 1, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY)],
    )
    target = np.array([1.5, 0.4, 0.3])  # (x, y, theta)
    strong = 1e4 * np.eye(3)
    res = lm_refine_full(g, cfg=LMConfig(max_iters=50), priors=Priors([1], target[None], strong[None]))
    est = res.graph.vertices[1].estimate
    assert abs(est.theta - 0.3) < 1e-3
    assert abs(est.x - 1.5) < 1e-3
    assert abs(est.y - 0.4) < 1e-3


def test_weighted_objective_respected():
    g = three_pose_loop(noise=0.1, seed=4)
    out, log = lm_refine(g, LMConfig(max_iters=50))
    assert objective(out) <= objective(g)
    accepted = [it.objective for it in log if it.accepted]
    assert accepted and abs(accepted[-1] - objective(out)) < 1e-9


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


def test_unknown_anchor_is_rejected():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=0))
    with pytest.raises(GraphError, match="anchor 999"):
        lm_refine_full(g, anchor=999)


def test_prior_on_unknown_vertex_is_rejected():
    g = generate(GenSpec(n_robots=2, poses_per_robot=10, seed=0))
    with pytest.raises(GraphError, match="prior vertex 999"):
        lm_refine_full(g, priors=Priors([999], np.zeros((1, 3)), np.eye(3)[None]))


def test_non_finite_prior_target_is_rejected():
    with pytest.raises(GraphError, match="prior targets on vertex 3"):
        Priors([3], [[0.0, math.nan, 0.0]], np.eye(3)[None])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_prior_weight_is_rejected_by_vertex(bad):
    weights = np.stack([np.eye(3)] * 3)
    weights[1, 2, 0] = bad
    with pytest.raises(GraphError, match="prior sqrt_weights on vertex 7 are not finite") as exc:
        Priors([2, 7, 9], np.zeros((3, 3)), weights)
    assert exc.value.position == ("prior", 1)


@pytest.mark.parametrize(
    "vertices, targets, sqrt_weights, match",
    [
        ([2, 7], np.zeros((2, 2)), np.zeros((2, 3, 3)), r"prior targets must have shape \(2, 3\), got \(2, 2\)"),
        ([2, 7], np.zeros((1, 3)), np.zeros((2, 3, 3)), r"prior targets must have shape \(2, 3\), got \(1, 3\)"),
        ([2, 7], np.zeros((2, 3)), np.eye(3), r"prior sqrt_weights must have shape \(2, 3, 3\), got \(3, 3\)"),
        ([2, 7], np.zeros((2, 3)), np.zeros((2, 3, 2)), r"prior sqrt_weights must have shape \(2, 3, 3\)"),
        ([[2, 7]], np.zeros((2, 3)), np.zeros((2, 3, 3)), r"prior vertex must have shape \(2,\), got \(1, 2\)"),
        ([2, 7.5], np.zeros((2, 3)), np.zeros((2, 3, 3)), "prior vertex 7.5 of prior row 1 is not an integer"),
    ],
    ids=["targets_width", "targets_rows", "weights_unstacked", "weights_width", "vertices_2d", "vertex_not_integer"],
)
def test_misshaped_prior_arrays_are_rejected(vertices, targets, sqrt_weights, match):
    with pytest.raises(GraphError, match=match):
        Priors(vertices, targets, sqrt_weights)


def test_priors_are_copied_at_construction():
    targets, weights = np.zeros((1, 3)), np.eye(3)[None].copy()
    priors = Priors(np.array([4]), targets, weights)
    targets[0, 0], weights[0, 0, 0] = math.nan, math.inf
    assert np.isfinite(priors.targets).all() and np.isfinite(priors.sqrt_weights).all()
