import math

import numpy as np
import pytest

from dpgo.consensus import AdmmConfig, admm_consensus, information_weighted_mean
from dpgo.geometry import Pose2, wrap_angle
from dpgo.graph import EdgeOrigin, objective
from dpgo.partition import Partition, merge, partition
from dpgo.synth import GenSpec, NOISE_PROFILES, generate

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


def two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1):
    """Two anchored chains observing one shared vertex with different stiffness."""
    g0 = make_graph(
        [vertex(0, robot=0, estimate=Pose2(0, 0, 0)), vertex(10, robot=0, timestep=2, estimate=Pose2(p0, 0, 0))],
        [edge(0, 10, Pose2(p0, 0, 0), np.eye(3), EdgeOrigin.INTRA_LOOP) for _ in range(n0)],
    )
    g1 = make_graph(
        [vertex(1, robot=1, estimate=Pose2(0, 0, 0)), vertex(10, robot=1, timestep=2, estimate=Pose2(p1, 0, 0))],
        [edge(1, 10, Pose2(p1, 0, 0), np.eye(3), EdgeOrigin.INTRA_LOOP) for _ in range(n1)],
    )
    part = Partition(
        subgraphs=[g0, g1],
        owner={0: 0, 1: 1, 10: 0},
        separators={10: [0, 1]},
        edge_gids=[list(range(n0)), list(range(n0, n0 + n1))],
    )
    return part


def test_config_rejects_zero_rounds():
    with pytest.raises(ValueError):
        AdmmConfig(max_iters=0)


@pytest.mark.parametrize(
    "bad",
    [
        {"local_max_iters": 0},
        {"stall_window": 0},
        {"stall_factor": 0.0},
        {"stall_factor": 1.5},
        {"stall_factor": float("nan")},
        {"rho": 10.0, "rho_max": 5.0},
        {"rho": float("nan")},
        {"rho": float("inf")},
        {"rho": 0.0},
        {"tol": float("nan")},
        {"tol": -1.0},
        {"rho_max": float("nan")},
        {"max_iters": float("nan")},
        {"local_max_iters": float("nan")},
        {"stall_window": float("nan")},
    ],
    ids=[
        "local_max_iters", "stall_window", "stall_factor_zero", "stall_factor_above_one", "stall_factor_nan", "rho_max",
        "rho_nan", "rho_inf", "rho_zero", "tol_nan", "tol_negative", "rho_max_nan", "max_iters_nan",
        "local_max_iters_nan", "stall_window_nan",
    ],
)
def test_config_rejects_malformed_field(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**bad)


def test_config_accepts_boundary_values():
    AdmmConfig(local_max_iters=1, stall_window=1, stall_factor=1.0, rho=2.0, rho_max=2.0, tol=0.0)


def test_identical_duplicates_converge_immediately():
    part = two_robot_toy(p0=1.0, p1=1.0)
    res = admm_consensus(part)
    assert res.converged
    assert res.iterations == 1
    assert abs(res.resolved[10].x - 1.0) < 1e-9


def test_information_weighted_consensus_matches_closed_form():
    # stiffness 4 vs 1 -> fixed point at the 4:1 weighted average
    part = two_robot_toy(p0=0.8, p1=1.2, n0=4, n1=1)
    res = admm_consensus(part, cfg=AdmmConfig(max_iters=200, tol=1e-8))
    assert res.converged
    want = (4 * 0.8 + 1 * 1.2) / 5.0
    assert abs(res.resolved[10].x - want) < 1e-6
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
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    part = partition(g, 3)
    res = admm_consensus(part, cfg=AdmmConfig(max_iters=4))
    assert not res.converged
    assert res.iterations == 4
    # the best round is not the last one, so the snapshot must be taken from an earlier round
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
    # 10.41838243923122 is the merged objective with local LM stopping at ftol 1e-14, on the rounding floor
    g = generate(GenSpec(n_robots=4, poses_per_robot=60, seed=0))
    res = admm_consensus(partition(g, 4))
    assert res.converged and res.iterations == 91
    assert abs(objective(merge(res.partition, res.resolved)) / 10.41838243923122 - 1.0) < 1e-8


def test_seeded_run_is_pinned_bit_for_bit():
    # recorded at LMConfig's default ftol of 1e-10 (CHANGES.md lists the values recorded at 1e-14);
    # the penalty doubles after round 51
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    res = admm_consensus(partition(g, 3), cfg=AdmmConfig(max_iters=55))
    assert (res.iterations, res.converged) == (55, False)
    assert objective(merge(res.partition, res.resolved)) == 0.49689661672554175
    assert res.disagreement == [
        0.06298276036261086, 0.020008542670650505, 0.007827002795938409, 0.007985173871789404,
        0.008498776588501053, 0.007252849437978857, 0.005698202013237873, 0.004366574078121417,
        0.0033745661144789457, 0.002673719458959427, 0.002176221610843626, 0.0018093496482287246,
        0.0015265927681643347, 0.0013007105959231457, 0.0011153276309972425, 0.0009600022828856415,
        0.0008278294238963352, 0.0007142266981752719, 0.0006160720893951113, 0.000531110747311684,
        0.00046887513038005555, 0.00044327564866107275, 0.0004190467639643685, 0.00039617073478957895,
        0.00037463142917937346, 0.0003544055283399193, 0.00033545916362439347, 0.00031774793478634545,
        0.0003012186598876222, 0.00028581175621884944, 0.00027146362255197823, 0.0002581087228777295,
        0.00024568127118540544, 0.00023411652121235545, 0.00022335171009184844, 0.0002133267173463274,
        0.00020398449800155735, 0.00019527134044356942, 0.00018713699047825553, 0.00017953467482364818,
        0.00017242105041859925, 0.00016575610036733004, 0.00015950299284991654, 0.0001536279157429139,
        0.00014809989677170093, 0.00014289061669240226, 0.00013797422110600302, 0.00013332713505029146,
        0.00012892788332400968, 0.00012475691854723937, 0.00012079645833821134, 4.6404042865090294e-05,
        3.163572788079829e-05, 2.8010394868486556e-05, 2.6918927280119035e-05,
    ]
