import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpgo import consensus, refine
from dpgo.consensus import _SOR_MAX_SWEEPS, admm_consensus, chordal_start, information_weighted_mean
from dpgo.geometry import Pose2, compose, relative, wrap_angle
from dpgo.graph import EdgeOrigin, objective
from dpgo.partition import Partition, merge, partition
from dpgo.refine import LMConfig, SingularNormalEquations, lm_refine_full
from dpgo.synth import GenSpec, NOISE_PROFILES, NoiseProfile, generate, inject_outliers

from conftest import edge, make_graph, vertex


def test_weighted_mean_closed_form():
    poses = [Pose2(0.0, 0.0, 0.0), Pose2(0.2, 0.0, 0.0)]
    infos = [np.diag([1.0, 4.0, 1.0]), np.diag([1.0, 1.0, 1.0])]
    got = Pose2(*information_weighted_mean([p.as_vector() for p in poses], infos, [0, 0])[0])
    assert abs(got.x - x_closed_form((4.0, 0.0), (1.0, 0.2))) < 1e-6
    assert abs(got.y) < 1e-12


def x_closed_form(a, b):
    (wa, xa), (wb, xb) = a, b
    return (wa * xa + wb * xb) / (wa + wb)


def test_weighted_mean_equal_weights_is_midpoint():
    got = Pose2(
        *information_weighted_mean([(0.0, 1.0, 0.1), (0.2, 3.0, 0.1)], [np.eye(3), np.eye(3)], [0, 0])[0]
    )
    assert abs(got.x - 0.1) < 1e-9
    assert abs(got.y - 2.0) < 1e-9


def test_angle_averaging_on_the_circle():
    # +-(pi - 0.1) must average near +-pi, never near zero
    poses = [(0, 0, math.pi - 0.1), (0, 0, -(math.pi - 0.1))]
    got = Pose2(*information_weighted_mean(poses, [np.eye(3), np.eye(3)], [0, 0])[0])
    assert abs(got.theta) > 3.0


def test_weighted_mean_groups_match_separate_calls():
    poses = [(0.0, 1.0, 0.1), (5.0, 0.0, -3.0), (0.2, 3.0, 0.1), (6.0, 1.0, 3.0)]
    infos = [np.diag([1.0, 2.0, 3.0]), np.eye(3), np.diag([2.0, 1.0, 1.0]), np.diag([4.0, 1.0, 2.0])]
    got = information_weighted_mean(poses, infos, [0, 1, 0, 1])
    assert got.shape == (2, 3)
    for g, rows in enumerate(([0, 2], [1, 3])):
        one = information_weighted_mean([poses[i] for i in rows], [infos[i] for i in rows], [0, 0])
        assert np.allclose(got[g], one[0], rtol=0.0, atol=1e-12)


def two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1, cycle=None):
    """Two anchored chains observing one shared vertex with different stiffness.

    ``cycle`` adds to robot 1's block an edge 1 -> 0 with that x offset, which
    closes the cycle 0 -> 10 <- 1 -> 0 and makes vertex 0 a separator too.
    """
    g0 = make_graph(
        [vertex(0, robot=0, estimate=Pose2(0, 0, 0)), vertex(10, robot=0, timestep=2, estimate=Pose2(p0, 0, 0))],
        [edge(0, 10, Pose2(p0, 0, 0), np.eye(3), EdgeOrigin.INTRA_LOOP) for _ in range(n0)],
    )
    v1 = [vertex(1, robot=1, estimate=Pose2(0, 0, 0)), vertex(10, robot=1, timestep=2, estimate=Pose2(p1, 0, 0))]
    e1 = [edge(1, 10, Pose2(p1, 0, 0), np.eye(3), EdgeOrigin.INTRA_LOOP) for _ in range(n1)]
    separators = {10: [0, 1]}
    if cycle is not None:
        v1.append(vertex(0, robot=0, estimate=Pose2(0, 0, 0)))
        e1.append(edge(1, 0, Pose2(cycle, 0, 0), np.eye(3), EdgeOrigin.INTER_LOOP))
        separators[0] = [0, 1]
    part = Partition(
        subgraphs=[g0, make_graph(v1, e1)],
        owner={0: 0, 1: 1, 10: 0},
        separators=separators,
        edge_gids=[list(range(n0)), list(range(n0, n0 + len(e1)))],
    )
    return part


@pytest.mark.parametrize(
    "bad",
    [{"ftol": float("nan")}, {"ftol": -1.0}, {"max_iters": float("nan")}],
    ids=["tol_nan", "tol_negative", "max_iters_nan"],
)
def test_config_rejects_malformed_field(bad):
    with pytest.raises(ValueError):
        LMConfig(**bad)


def test_config_accepts_boundary_values():
    # no tries at all: the result is the chordal start
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    part = partition(g, 3)
    res = admm_consensus(part, cfg=LMConfig(max_iters=0, ftol=0.0))
    assert (res.iterations, res.stop, res.converged) == (0, "max_iters", False)
    start = chordal_start(part)
    assert np.array_equal(merge(res.partition, res.resolved).estimates, start.poses)


def test_identical_duplicates_converge_immediately():
    part = two_robot_toy(p0=1.0, p1=1.0)
    res = admm_consensus(part)
    # the chordal start fits both chains exactly, so LM stops on the gradient before its first try
    assert res.converged and res.stop == "gtol"
    assert res.iterations == 0 and res.disagreement == [0.0]
    assert abs(res.resolved[10].x - 1.0) < 1e-9


def test_information_weighted_consensus_matches_closed_form():
    # a tree: the start holds vertex 0 only and puts vertex 1 at -0.4, where both chains agree on 0.8
    res = admm_consensus(two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1))
    assert res.converged
    assert abs(res.resolved[10].x - 0.8) < 1e-6
    # stiffness 4 vs 1; the cycle edge 1 -> 0 of offset -0.32 puts the optimum at vertex 1 = 0, where
    # the central optimum of vertex 10 is the 4:1 weighted average
    res = admm_consensus(two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1, cycle=-0.32))
    assert res.converged
    assert abs(res.resolved[10].x - (4 * 0.8 + 1 * 1.2) / 5.0) < 1e-6
    assert abs(res.resolved[10].y) < 1e-9
    assert abs(res.resolved[10].theta) < 1e-9


def test_no_separator_partition_just_solves_locally():
    g = generate(GenSpec(n_robots=1, poses_per_robot=15, seed=0, profile=NOISE_PROFILES["v2"]))
    part = partition(g, 1)
    res = admm_consensus(part)
    assert res.converged
    assert res.resolved == {}
    assert objective(res.partition.subgraphs[0]) <= objective(g)


def test_random_partitions_reach_tolerance_and_merge_agrees():
    for seed in range(3):
        g = generate(GenSpec(n_robots=2, poses_per_robot=15, seed=seed))
        part = partition(g, 2)
        res = admm_consensus(part)
        assert res.converged, f"seed {seed}: stop {res.stop}"
        merged = merge(res.partition, res.resolved)
        assert merged.num_vertices == g.num_vertices
        assert merged.num_edges == g.num_edges
        for vid in res.resolved:
            assert merged.vertices[vid].estimate == res.resolved[vid]


def test_accepted_tries_lower_the_summed_objective():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=5))
    part = partition(g, 3)
    res = admm_consensus(part)
    accepted = [it.objective for it in res.iterates if it.accepted]
    f0 = objective(g.with_estimates(chordal_start(part).poses))
    assert accepted and all(b < a for a, b in zip([f0] + accepted[:-1], accepted))


def test_disagreement_tail_is_monotone():
    # each separator has one value, so the disagreement is 0.0 on every try
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=5))
    res = admm_consensus(partition(g, 3), cfg=LMConfig(ftol=0.0))
    assert res.stop == "floor" and res.disagreement == [0.0] * res.iterations
    tail = res.disagreement[-10:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_admm_leaves_input_partition_unchanged():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    part = partition(g, 3)
    estimates = [{vid: v.estimate for vid, v in sub.vertices.items()} for sub in part.subgraphs]
    separators = {vid: list(blocks) for vid, blocks in part.separators.items()}
    subgraphs = list(part.subgraphs)
    admm_consensus(part, cfg=LMConfig(max_iters=4))
    assert all(a is b for a, b in zip(part.subgraphs, subgraphs))
    assert [{vid: v.estimate for vid, v in sub.vertices.items()} for sub in part.subgraphs] == estimates
    assert part.separators == separators


def test_unconverged_result_is_the_best_rounds_snapshot():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=6))
    part = partition(g, 3)
    res = admm_consensus(part, cfg=LMConfig(max_iters=2))
    assert (res.converged, res.stop, res.iterations) == (False, "max_iters", 2)
    # LM accepts only a lower objective, so its last accepted try is its best
    merged = merge(res.partition, res.resolved)
    best = min(it.objective for it in res.iterates if it.accepted)
    assert math.isclose(objective(merged), best, rel_tol=1e-12)
    assert best == res.iterates[-1].objective
    # every block holds the resolved pose of each of its separators
    for vid, blocks in res.partition.separators.items():
        for b in blocks:
            assert res.partition.subgraphs[b].vertices[vid].estimate == res.resolved[vid]


def test_four_blocks_converge_to_the_objective_of_the_floor_stop():
    # from the chordal start; with ftol 0 LM runs on to the rounding floor
    part = partition(generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0)), 4)
    res, floor = (admm_consensus(part, cfg=LMConfig(ftol=ftol)) for ftol in (1e-10, 0.0))
    assert res.converged and res.iterations == 6 and floor.stop == "floor"
    f, f_floor = (objective(merge(r.partition, r.resolved)) for r in (res, floor))
    assert abs(f / f_floor - 1.0) < 1e-12


@pytest.mark.parametrize("poses, tries", [(60, 6), (250, 10)])
def test_four_blocks_take_the_tries_of_central_lm(poses, tries):
    g = generate(GenSpec(n_robots=4, poses_per_robot=poses, seed=0))
    res = assert_equals_central_lm(partition(g, 4))
    assert res.converged and res.iterations == tries
    # central LM from dead reckoning, the benchmark's reference, ends at the same optimum
    f = objective(merge(res.partition, res.resolved))
    assert math.isclose(f, objective(lm_refine_full(g).graph), rel_tol=1e-9)


def test_seeded_run_is_pinned_bit_for_bit():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    res = admm_consensus(partition(g, 3))
    assert (res.iterations, res.stop, res.message_bytes) == (5, "ftol", 4800)
    assert objective(merge(res.partition, res.resolved)) == 0.4860948420000487
    assert [(it.objective, it.damping, it.accepted) for it in res.iterates] == [
        (0.48677680533184653, 0.0001, True),
        (0.48609610869098124, 3.3333333333333335e-05, True),
        (0.48609484717647894, 1.1111111111111112e-05, True),
        (0.4860948420265754, 3.7037037037037037e-06, True),
        (0.4860948420000487, 1.234567901234568e-06, True),
    ]


def rotations(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)


def central_chordal(g):
    """The two chordal stages as one sparse weighted least-squares solve each,
    vertex row 0 held at its estimate; returns the (N, 3) poses."""
    n, i, j = g.num_vertices, g.e_from, g.e_to

    def solve(b_mat, sqrt_w, d, held):
        # rows sqrt_w^T (x_j - B x_i - d) of a (2E, 2N) matrix, then the normal equations without vertex 0
        k = np.arange(2)
        blocks = np.concatenate([np.broadcast_to(np.eye(2), b_mat.shape), -b_mat], axis=2)  # (E, 2, 4)
        vals = sqrt_w.transpose(0, 2, 1) @ blocks
        rows = np.broadcast_to(2 * np.arange(len(i))[:, None, None] + k[None, :, None], vals.shape)
        cols = np.concatenate([2 * j[:, None] + k, 2 * i[:, None] + k], axis=1)
        cols = np.broadcast_to(cols[:, None, :], vals.shape)
        a = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(2 * len(i), 2 * n))
        rhs = (sqrt_w.transpose(0, 2, 1) @ d[:, :, None]).ravel() - a[:, :2] @ held
        a = a[:, 2:].tocsc()
        x = spla.spsolve((a.T @ a).tocsc(), a.T @ rhs)
        return np.concatenate([held, x]).reshape(n, 2)

    sqrt_w = np.sqrt(g.info[:, 0, 0])[:, None, None] * np.eye(2)
    theta0 = g.estimates[0, 2]
    r = solve(rotations(g.meas[:, 2]), sqrt_w, np.zeros((len(i), 2)), np.array([math.cos(theta0), math.sin(theta0)]))
    theta = np.arctan2(r[:, 1], r[:, 0])
    rot = rotations(theta[i])
    sqrt_w = rot @ np.linalg.cholesky(g.info[:, 1:, 1:])  # (R L)(R L)^T = R Omega_tt R^T
    d = (rot @ g.meas[:, :2, None])[:, :, 0]
    t = solve(np.broadcast_to(np.eye(2), rot.shape), sqrt_w, d, g.estimates[0, :2])
    return np.column_stack([t, theta])


def assert_poses_close(got, want, tol):
    assert np.abs(got[:, :2] - want[:, :2]).max() < tol
    assert np.abs(wrap_angle(got[:, 2] - want[:, 2])).max() < tol


def test_distributed_start_equals_the_central_linear_solve():
    g = generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0))
    start = chordal_start(partition(g, 4))
    assert np.array_equal(start.vids, g.vids)
    assert_poses_close(start.poses, central_chordal(g), 1e-6)


def test_start_recovers_the_truths_of_a_noise_free_graph():
    g = generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0, profile=NoiseProfile(0.0, 0.0, 0.0)))
    rng = np.random.default_rng(0)
    est = g.truths + rng.normal(0.0, 0.3, size=g.truths.shape)
    est[0] = g.truths[0]  # the held vertex
    start = chordal_start(partition(g.with_estimates(est), 4))
    assert_poses_close(start.poses, g.truths, 1e-6)


def test_start_stops_on_its_tolerance_well_below_the_sweep_cap():
    g = generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0))
    part = partition(g, 4)
    sweeps = chordal_start(part).sweeps
    assert all(0 < s < _SOR_MAX_SWEEPS // 5 for s in sweeps), sweeps
    assert admm_consensus(part, cfg=LMConfig(max_iters=1)).start_sweeps == sweeps


def two_component_partition():
    """Two robots that never meet: two blocks, no separator, one component
    each; vertices 0 and 3 sit at their poses in ``HELD``."""
    def block(r):
        vids = [3 * r, 3 * r + 1, 3 * r + 2]
        odometry, loop = EdgeOrigin.ODOMETRY, EdgeOrigin.INTRA_LOOP
        pairs = [(vids[0], vids[1], odometry), (vids[1], vids[2], odometry), (vids[0], vids[2], loop)]
        return make_graph(
            [vertex(v, robot=r, timestep=v - 3 * r, estimate=HELD.get(v, Pose2(0, 0, 0))) for v in vids],
            [edge(a, b, relative(TRUTHS[a], TRUTHS[b]), np.eye(3), origin) for a, b, origin in pairs],
        )

    return Partition([block(0), block(1)], {v: v // 3 for v in range(6)}, {}, [[0, 1, 2], [3, 4, 5]])


TRUTHS = [Pose2(0, 0, 0), Pose2(1, 0, 0.5), Pose2(1.5, 1, 1.2), Pose2(5, 5, -1), Pose2(6, 4, -0.5), Pose2(7, 4, 0)]
HELD = {0: Pose2(2, -1, 0.3), 3: Pose2(-4, 1, 2.5)}


def test_start_holds_the_lowest_vertex_of_each_component():
    part = two_component_partition()
    start = chordal_start(part)
    for first in HELD:
        assert start.poses[first].tolist() == HELD[first].as_vector().tolist()
        for v in (first + 1, first + 2):
            want = compose(HELD[first], relative(TRUTHS[first], TRUTHS[v]))
            assert_poses_close(start.poses[[v]], want.as_vector()[None], 1e-6)
    # LM holds vertex 0 only, as central LM does, and still ends where central LM ends
    res = assert_equals_central_lm(part)
    assert res.converged and res.resolved == {}


def assert_equals_central_lm(part):
    """Consensus over ``part`` takes the tries of central LM from the same
    chordal start and ends at its objective and poses; returns its result."""
    res = admm_consensus(part)
    merged = merge(res.partition, res.resolved)
    central = lm_refine_full(merged.with_estimates(chordal_start(part).poses))
    assert (res.iterations, res.stop) == (len(central.iterates), central.stop)
    assert math.isclose(objective(merged), objective(central.graph), rel_tol=1e-9, abs_tol=1e-20)
    assert_poses_close(merged.estimates, central.graph.estimates, 1e-9)
    return res


SEPARATOR_CASES = [
    (1, 8, 0, 1),  # one block, no separator
    (4, 8, 0, 4),  # a separator held by three or more blocks
    (3, 20, 2, 3),  # the global anchor is a separator
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    robots=st.integers(1, 4),
    poses=st.integers(8, 20),
    seed=st.integers(0, 2**16),
    blocks=st.integers(1, 4),
    outliers=st.booleans(),
)
@example(*SEPARATOR_CASES[0], False)
@example(*SEPARATOR_CASES[1], False)
@example(*SEPARATOR_CASES[2], False)
@example(4, 20, 1, 4, True)  # outliers
def test_consensus_is_central_lm_from_the_chordal_start(robots, poses, seed, blocks, outliers):
    g = generate(GenSpec(n_robots=robots, poses_per_robot=poses, seed=seed))
    if outliers:
        g, _ = inject_outliers(g, 0.1, seed)
    part = partition(g, blocks)
    res = assert_equals_central_lm(part)
    assert set(res.resolved) == set(part.separators)
    assert res.disagreement == [0.0] * res.iterations


def test_examples_cover_the_separator_cases():
    def separators(robots, poses, seed, blocks):
        g = generate(GenSpec(n_robots=robots, poses_per_robot=poses, seed=seed))
        return int(g.vids[0]), partition(g, blocks).separators

    assert separators(*SEPARATOR_CASES[0])[1] == {}
    assert max(map(len, separators(*SEPARATOR_CASES[1])[1].values())) >= 3
    anchor, held = separators(*SEPARATOR_CASES[2])
    assert anchor in held


def test_gradient_and_step_are_central_lms():
    # at a point off the optimum, per vertex row: the gradient LM tests and the damped step of one try
    g = generate(GenSpec(n_robots=4, poses_per_robot=12, seed=1))
    part = partition(g, 4)
    x = chordal_start(part).poses + np.random.default_rng(0).normal(scale=0.05, size=(g.num_vertices, 3))
    central = refine.LMSystem(g, int(g.vids[0]))
    blocks = consensus._Blocks(part, g.vids)
    assert sorted(blocks.free) == sorted(central.free)
    (grad_c, solve_c), (grad_b, solve_b) = (s.linearize(x, s.evaluate(x)[0]) for s in (central, blocks))
    assert math.isclose(central.evaluate(x)[1], blocks.evaluate(x)[1], rel_tol=1e-12)

    def by_row(free, values):
        return values.reshape(-1, 3)[np.argsort(free)]

    assert np.abs(by_row(blocks.free, grad_b) - by_row(central.free, grad_c)).max() < 1e-12 * np.abs(grad_c).max()
    for mu in (1e-4, 1.0):
        step = by_row(central.free, solve_c(mu))
        assert np.abs(by_row(blocks.free, solve_b(mu)) - step).max() < 1e-10 * np.abs(step).max()


def test_message_bytes_are_the_largest_blocks_reduced_system():
    g = generate(GenSpec(n_robots=4, poses_per_robot=20, seed=3))
    part = partition(g, 4)
    res = admm_consensus(part, cfg=LMConfig(max_iters=1))
    held = [sum(b in holders for vid, holders in part.separators.items() if vid != g.vids[0]) for b in range(4)]
    # a dense (3s, 3s) Schur complement and a 3s reduced gradient of float64 for s separators
    assert res.message_bytes == max(8 * (9 * s * s + 3 * s) for s in held)


def test_failed_cholesky_is_a_rejected_try(monkeypatch):
    part = partition(generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2)), 3)
    want = admm_consensus(part)
    real = scipy.linalg.cho_factor
    calls = []

    def fails_twice(*args, **kwargs):
        calls.append(1)
        if len(calls) <= 2:
            raise np.linalg.LinAlgError("not positive definite")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", fails_twice)
    res = admm_consensus(part)
    assert [it.accepted for it in res.iterates[:3]] == [False, False, True]
    assert [it.damping for it in res.iterates[:3]] == [1e-4, 1e-3, 1e-2]
    assert res.converged
    assert math.isclose(res.iterates[-1].objective, want.iterates[-1].objective, rel_tol=1e-9)


def test_unsolvable_reduced_system_raises(monkeypatch):
    part = partition(generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2)), 3)

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", fails)
    with pytest.raises(SingularNormalEquations):
        admm_consensus(part)
