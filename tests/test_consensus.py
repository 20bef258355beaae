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
    ],
    ids=["local_max_iters", "stall_window", "stall_factor_zero", "stall_factor_above_one", "stall_factor_nan", "rho_max"],
)
def test_config_rejects_malformed_field(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**bad)


def test_config_accepts_boundary_values():
    AdmmConfig(local_max_iters=1, stall_window=1, stall_factor=1.0, rho=2.0, rho_max=2.0)


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


def test_seeded_run_is_pinned_bit_for_bit():
    # recorded with a fresh LM system built for every local solve; the penalty doubles after round 51
    g = generate(GenSpec(n_robots=3, poses_per_robot=12, seed=2))
    res = admm_consensus(partition(g, 3), cfg=AdmmConfig(max_iters=55))
    assert (res.iterations, res.converged) == (55, False)
    assert objective(merge(res.partition, res.resolved)) == 0.4968966165100138
    assert res.disagreement == [
        0.06298276045639407, 0.020008532552475904, 0.007827002771128478, 0.007985180621278754,
        0.00849875714639032, 0.007252858364651642, 0.005698211735986618, 0.004366579972247833,
        0.003374568721742646, 0.0026737202198887254, 0.0021762214719486203, 0.0018093491181293611,
        0.0015265920900040188, 0.0013007099863620736, 0.0011153313825566626, 0.0009600021094725717,
        0.0008278287724243412, 0.0007142259073223887, 0.0006160711363454645, 0.0005311096832026382,
        0.0004688750292964541, 0.00044327550163717356, 0.00041904662045382163, 0.00039617065538173336,
        0.00037463134661424734, 0.00035440548206059746, 0.00033545914911937606, 0.0003177479449167328,
        0.0003012186889097419, 0.00028581179941714963, 0.00027146367591181523, 0.00025810878828476326,
        0.00024568133155675865, 0.00023411658205618543, 0.0002233517747548004, 0.0002133267820594752,
        0.00020398456053977653, 0.0001952713996456288, 0.00018713704571954667, 0.00017953472585781322,
        0.00017242109898258726, 0.00016575614145689812, 0.00015950303032089553, 0.00015362794993012443,
        0.00014809992491981061, 0.0001428906423062532, 0.00013797424561310144, 0.00013332715713378432,
        0.00012892790247050757, 0.00012475693469799834, 0.00012079647162474814, 4.640403573543823e-05,
        3.163492738098232e-05, 2.8010383205608522e-05, 2.6918976459721405e-05,
    ]
