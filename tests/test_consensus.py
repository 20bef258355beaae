import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpgo.consensus import _SOR_MAX_SWEEPS, AdmmConfig, admm_consensus, chordal_start, information_weighted_mean
from dpgo.geometry import Pose2, compose, relative, wrap_angle
from dpgo.graph import EdgeOrigin, objective
from dpgo.partition import Partition, merge, partition
from dpgo.synth import GenSpec, NOISE_PROFILES, NoiseProfile, generate

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


def test_config_rejects_zero_rounds():
    with pytest.raises(ValueError):
        AdmmConfig(max_iters=0)


@pytest.mark.parametrize(
    "bad",
    [{"tol": float("nan")}, {"tol": -1.0}, {"max_iters": float("nan")}],
    ids=["tol_nan", "tol_negative", "max_iters_nan"],
)
def test_config_rejects_malformed_field(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**bad)


def test_config_accepts_boundary_values():
    AdmmConfig(max_iters=1, tol=0.0)


def test_identical_duplicates_converge_immediately():
    part = two_robot_toy(p0=1.0, p1=1.0)
    res = admm_consensus(part)
    assert res.converged
    assert res.iterations == 1
    assert abs(res.resolved[10].x - 1.0) < 1e-9


def test_information_weighted_consensus_matches_closed_form():
    cfg = AdmmConfig(max_iters=200, tol=1e-8)
    # a tree: the start holds vertex 0 only and puts vertex 1 at -0.4, where both chains agree on 0.8
    res = admm_consensus(two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1), cfg=cfg)
    assert res.converged
    assert abs(res.resolved[10].x - 0.8) < 1e-6
    # stiffness 4 vs 1; the cycle edge 1 -> 0 of offset -0.32 puts the optimum at vertex 1 = 0, where
    # the central optimum of vertex 10 is the 4:1 weighted average
    res = admm_consensus(two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1, cycle=-0.32), cfg=cfg)
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
        res = admm_consensus(part, cfg=AdmmConfig(max_iters=150))
        assert res.disagreement[-1] < 1e-6 or res.converged
        assert res.converged, f"seed {seed}: disagreement {res.disagreement[-1]:.2e}"
        merged = merge(res.partition, res.resolved)
        assert merged.num_vertices == g.num_vertices
        assert merged.num_edges == g.num_edges
        for vid in res.resolved:
            assert merged.vertices[vid].estimate == res.resolved[vid]


def test_disagreement_tail_is_monotone():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=5))
    part = partition(g, 3)
    res = admm_consensus(part, cfg=AdmmConfig(max_iters=150))
    tail = res.disagreement[-10:]
    assert all(b <= a * 1.5 for a, b in zip(tail, tail[1:])), tail
    assert res.disagreement[-1] <= res.disagreement[0]


def test_admm_leaves_input_partition_unchanged():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    part = partition(g, 3)
    estimates = [{vid: v.estimate for vid, v in sub.vertices.items()} for sub in part.subgraphs]
    separators = {vid: list(blocks) for vid, blocks in part.separators.items()}
    subgraphs = list(part.subgraphs)
    admm_consensus(part, cfg=AdmmConfig(max_iters=4))
    assert all(a is b for a, b in zip(part.subgraphs, subgraphs))
    assert [{vid: v.estimate for vid, v in sub.vertices.items()} for sub in part.subgraphs] == estimates
    assert part.separators == separators


def test_unconverged_result_is_the_best_rounds_snapshot():
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=6))
    part = partition(g, 3)
    res = admm_consensus(part, cfg=AdmmConfig(max_iters=4))
    assert not res.converged
    assert res.iterations == 4
    # the disagreement rises in round 4: the snapshot must be taken from an earlier round
    assert int(np.argmin(res.disagreement)) == 2
    spread = 0.0
    for vid, blocks in res.partition.separators.items():
        z = res.resolved[vid]
        for b in blocks:
            x = res.partition.subgraphs[b].vertices[vid].estimate
            diff = (x.x - z.x, x.y - z.y, wrap_angle(x.theta - z.theta))
            spread = max(spread, math.hypot(*diff))
    assert abs(spread - min(res.disagreement)) < 1e-12


def test_four_blocks_converge_to_the_objective_of_the_floor_stop():
    # from the chordal start; 7.044486279755645 is the merged objective at LMConfig's default ftol of 1e-10
    g = generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0))
    res = admm_consensus(partition(g, 4))
    assert res.converged and res.iterations == 72
    assert abs(objective(merge(res.partition, res.resolved)) / 7.044486279755645 - 1.0) < 1e-8


def test_seeded_run_is_pinned_bit_for_bit():
    # recorded from the chordal start at LMConfig's default ftol of 1e-10 (CHANGES.md lists the values
    # recorded earlier); the penalty doubles after rounds 41 and 53
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    res = admm_consensus(partition(g, 3), cfg=AdmmConfig(max_iters=55))
    assert (res.iterations, res.converged) == (55, False)
    assert objective(merge(res.partition, res.resolved)) == 0.506250854420046
    assert res.disagreement == [
        0.04597293222030386, 0.016356540038491796, 0.004369073444250189, 0.003913332661224703, 0.003070447518624516,
        0.0022093077998935127, 0.0015455418592985734, 0.0010896280905030068, 0.0007926717199662871,
        0.0006016775306816132, 0.00047609538854316623, 0.0003893886637414179, 0.00033726746840578647,
        0.0003108338766455723, 0.00028680843172314025, 0.00026536492019647986, 0.0002463806122447587,
        0.000229579480648856, 0.0002146473291074127, 0.00020129552622455868, 0.00018928453694976865,
        0.00017842446640473715, 0.00016856604957568553, 0.0001595899621228114, 0.0001513979312233931,
        0.00014390648844924854, 0.00013704299586716793, 0.00013074323983546855, 0.00012494996238451378,
        0.00011961189882740992, 0.00011468307366493925, 0.00011012223159980678, 0.00010589234978360138,
        0.00010196020939730278, 9.829601645034327e-05, 9.487306497182199e-05, 9.166743642672706e-05,
        8.865772972106392e-05, 8.582481699526152e-05, 8.315162145118636e-05, 8.062291442071233e-05,
        3.164193602376551e-05, 2.12456632975297e-05, 1.8532223312050415e-05, 1.773458167244576e-05,
        1.7478240453705444e-05, 1.7369223426564775e-05, 1.7283449125297557e-05, 1.718360734673801e-05,
        1.7061800037881024e-05, 1.691963338542977e-05, 1.6761157819806995e-05, 1.659047846531882e-05,
        5.540480934013601e-06, 4.230036089923657e-06,
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
    assert admm_consensus(part, cfg=AdmmConfig(max_iters=1)).start_sweeps == sweeps


def test_start_holds_the_lowest_vertex_of_each_component():
    # two robots that never meet: two blocks, no separator, one component each
    truths = [Pose2(0, 0, 0), Pose2(1, 0, 0.5), Pose2(1.5, 1, 1.2), Pose2(5, 5, -1), Pose2(6, 4, -0.5), Pose2(7, 4, 0)]
    held = {0: Pose2(2, -1, 0.3), 3: Pose2(-4, 1, 2.5)}

    def block(r):
        vids = [3 * r, 3 * r + 1, 3 * r + 2]
        odometry, loop = EdgeOrigin.ODOMETRY, EdgeOrigin.INTRA_LOOP
        pairs = [(vids[0], vids[1], odometry), (vids[1], vids[2], odometry), (vids[0], vids[2], loop)]
        return make_graph(
            [vertex(v, robot=r, timestep=v - 3 * r, estimate=held.get(v, Pose2(0, 0, 0))) for v in vids],
            [edge(a, b, relative(truths[a], truths[b]), np.eye(3), origin) for a, b, origin in pairs],
        )

    part = Partition([block(0), block(1)], {v: v // 3 for v in range(6)}, {}, [[0, 1, 2], [3, 4, 5]])
    start = chordal_start(part)
    for first in held:
        assert start.poses[first].tolist() == held[first].as_vector().tolist()
        for v in (first + 1, first + 2):
            want = compose(held[first], relative(truths[first], truths[v]))
            assert_poses_close(start.poses[[v]], want.as_vector()[None], 1e-6)
    res = admm_consensus(part)
    assert res.converged and res.resolved == {}
