import math

import numpy as np
import pytest

from dpgo.graph import EdgeOrigin, localization_error, objective
from dpgo.synth import (
    GenSpec,
    InvalidSpec,
    NOISE_PROFILES,
    NoEligibleEdges,
    NoiseProfile,
    generate,
    inject_outliers,
)


def test_generate_vertex_and_odometry_counts():
    g = generate(GenSpec(n_robots=3, poses_per_robot=60, loop_ratio=0.15, seed=0))
    assert g.num_vertices == 180
    odo = [e for e in g.edges if e.origin == EdgeOrigin.ODOMETRY]
    assert len(odo) == 3 * 59
    per_robot = {r: 0 for r in range(3)}
    for e in odo:
        per_robot[g.vertices[e.from_id].robot] += 1
    assert all(v == 59 for v in per_robot.values())


def test_zero_loop_ratio_gives_no_intraloop_edges():
    g = generate(GenSpec(n_robots=2, poses_per_robot=30, loop_ratio=0.0, seed=1))
    assert all(e.origin != EdgeOrigin.INTRA_LOOP for e in g.edges)
    # connectivity still guaranteed through at least one inter-robot edge
    assert any(
        e.origin in (EdgeOrigin.INTER_ESTIMATE, EdgeOrigin.INTER_LOOP) for e in g.edges
    )


def test_noise_free_limit():
    spec = GenSpec(
        n_robots=2, poses_per_robot=20, loop_ratio=0.2, profile=NoiseProfile(0, 0, 0), seed=2
    )
    g = generate(spec)
    for v in g.vertices.values():
        assert np.abs(v.estimate.as_vector() - v.truth.as_vector()).max() < 1e-12
    assert objective(g) < 1e-18
    assert localization_error(g) < 1e-12


def test_same_seed_is_bit_identical():
    spec = GenSpec(n_robots=3, poses_per_robot=25, seed=7)
    a, b = generate(spec), generate(spec)
    assert list(a.vertices) == list(b.vertices)
    for vid in a.vertices:
        assert a.vertices[vid].estimate == b.vertices[vid].estimate
        assert a.vertices[vid].truth == b.vertices[vid].truth
    assert len(a.edges) == len(b.edges)
    for e, f in zip(a.edges, b.edges):
        assert (e.from_id, e.to_id, e.origin) == (f.from_id, f.to_id, f.origin)
        assert e.rel == f.rel


def test_generated_graph_is_connected():
    for seed in range(5):
        g = generate(GenSpec(n_robots=4, poses_per_robot=20, seed=seed))
        parent = {vid: vid for vid in g.vertices}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in g.edges:
            parent[find(e.from_id)] = find(e.to_id)
        assert len({find(v) for v in g.vertices}) == 1


def test_inter_robot_labels_follow_timestep_gap():
    g = generate(GenSpec(n_robots=3, poses_per_robot=40, seed=11))
    for e in g.edges:
        u, v = g.vertices[e.from_id], g.vertices[e.to_id]
        if u.robot != v.robot:
            gap = abs(u.timestep - v.timestep)
            want = EdgeOrigin.INTER_ESTIMATE if gap <= 1 else EdgeOrigin.INTER_LOOP
            assert e.origin == want


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        GenSpec(n_robots=0, poses_per_robot=10)
    with pytest.raises(InvalidSpec):
        GenSpec(n_robots=1, poses_per_robot=1)
    with pytest.raises(InvalidSpec):
        GenSpec(n_robots=1, poses_per_robot=10, loop_ratio=1.5)
    with pytest.raises(InvalidSpec):
        NoiseProfile(-0.1, 0.1, 0.1)
    # non-finite std-devs and non-integral counts are rejected here, not later inside generate
    for sigmas in ((math.nan, 0.1, 0.1), (0.1, math.nan, 0.1), (0.1, 0.1, math.inf)):
        with pytest.raises(InvalidSpec, match="finite"):
            NoiseProfile(*sigmas)
    for counts in ((math.nan, 10), (2.5, 10), (2, math.nan), (2, 10.0)):
        with pytest.raises(InvalidSpec, match="integer"):
            GenSpec(*counts)
    for seed in (math.nan, -1, 1.5):
        with pytest.raises(InvalidSpec, match="seed"):
            GenSpec(2, 10, seed=seed)
    with pytest.raises(InvalidSpec, match="NoiseProfile"):
        GenSpec(2, 10, profile="v1")
    with pytest.raises(InvalidSpec):
        GenSpec(n_robots=1, poses_per_robot=10, loop_ratio=math.nan)
    assert GenSpec(np.int64(1), np.int64(2), profile=NoiseProfile(0.0, 0.0, 0.0)).n_robots == 1


def test_inject_outliers_zero_fraction():
    g = generate(GenSpec(n_robots=2, poses_per_robot=20, seed=3))
    out, labels = inject_outliers(g, 0.0, seed=0)
    assert labels == frozenset()
    for e, f in zip(g.edges, out.edges):
        assert e.rel == f.rel


def test_inject_outliers_exact_count_and_labels():
    g = generate(GenSpec(n_robots=3, poses_per_robot=30, seed=4))
    eligible = [i for i, e in enumerate(g.edges) if e.origin != EdgeOrigin.ODOMETRY]
    out, labels = inject_outliers(g, 0.10, seed=9)
    assert len(labels) == int(np.rint(0.10 * len(eligible)))
    for gid in labels:
        assert out.edges[gid].origin != EdgeOrigin.ODOMETRY
        assert out.edges[gid].rel != g.edges[gid].rel
    for gid, (e, f) in enumerate(zip(g.edges, out.edges)):
        if gid not in labels:
            assert e.rel == f.rel


def test_inject_outliers_never_touches_odometry():
    g = generate(GenSpec(n_robots=2, poses_per_robot=25, seed=5))
    out, labels = inject_outliers(g, 1.0, seed=1)
    assert all(out.edges[gid].origin != EdgeOrigin.ODOMETRY for gid in labels)
    n_eligible = sum(1 for e in g.edges if e.origin != EdgeOrigin.ODOMETRY)
    assert len(labels) == n_eligible


def test_inject_outliers_requires_eligible_edges():
    g = generate(GenSpec(n_robots=1, poses_per_robot=5, loop_ratio=0.0, seed=6))
    with pytest.raises(NoEligibleEdges):
        inject_outliers(g, 0.5, seed=0)


def test_outliers_increase_objective_monte_carlo():
    # With corrupted measurements the objective should essentially always grow.
    wins = 0
    for seed in range(20):
        g = generate(GenSpec(n_robots=2, poses_per_robot=20, seed=seed))
        before = objective(g)
        out, labels = inject_outliers(g, 0.2, seed=seed)
        assert labels
        if objective(out) > before:
            wins += 1
    assert wins >= 19
