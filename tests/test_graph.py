import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgo.geometry import Pose2, compose, relative, wrap_angle
from dpgo.graph import (
    EdgeMeasurement,
    EdgeOrigin,
    GraphError,
    MissingGroundTruth,
    NonPSDInformation,
    PoseGraph,
    ResidualWeights,
    edge_residual,
    localization_error,
    objective,
    se2_residuals,
    truth_relative,
)

from conftest import rand_graph, rand_info, rand_pose


# Independent oracle: evaluate the per-edge residual with dense matrices.
def naive_residual(edge, xp, xq):
    rp = xp.rotation()
    dtheta = wrap_angle(xq.theta - xp.theta - edge.rel.theta)
    dt = rp.T @ (np.array([xq.x, xq.y]) - np.array([xp.x, xp.y])) - np.array(
        [edge.rel.x, edge.rel.y]
    )
    return np.array([dtheta, dt[0], dt[1]])


def naive_objective(g, w):
    total = 0.0
    for e in g.edges:
        r = naive_residual(e, g.vertices[e.from_id].estimate, g.vertices[e.to_id].estimate)
        total += w.w_rot**2 * r[0] ** 2 + w.w_trans**2 * (r[1] ** 2 + r[2] ** 2)
    return total


def naive_localization_error(g):
    total = 0.0
    for e in g.edges:
        tp, tq = g.vertices[e.from_id].truth, g.vertices[e.to_id].truth
        rel = compose(
            Pose2(
                -(math.cos(tp.theta) * tp.x + math.sin(tp.theta) * tp.y),
                math.sin(tp.theta) * tp.x - math.cos(tp.theta) * tp.y,
                -tp.theta,
            ),
            tq,
        )
        r = np.array(
            [wrap_angle(e.rel.theta - rel.theta), e.rel.x - rel.x, e.rel.y - rel.y]
        )
        total += r @ np.asarray(e.info) @ r
    return total


def test_edge_residual_zero_for_exact_measurement():
    e = EdgeMeasurement(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3))
    r = edge_residual(e, Pose2(0, 0, 0), Pose2(1.0, 0.0, 0.0))
    assert np.abs(r).max() == 0.0


def test_edge_residual_consistent_random_edge():
    rng = np.random.default_rng(0)
    for _ in range(50):
        xp, xq = rand_pose(rng), rand_pose(rng)
        e = EdgeMeasurement(0, 1, relative(xp, xq), np.eye(3))
        assert np.abs(edge_residual(e, xp, xq)).max() < 1e-12


def test_edge_residual_matches_dense_oracle():
    rng = np.random.default_rng(1)
    cases = [(rand_pose(rng), rand_pose(rng), rand_pose(rng)) for _ in range(100)]
    # the rotation wraps across +-pi: measured pi - 0.05 against a true -pi + 0.05
    cases.append((Pose2(0, 0, 0), Pose2(0, 0, -math.pi + 0.05), Pose2(0, 0, math.pi - 0.05)))
    for xp, xq, rel in cases:
        e = EdgeMeasurement(0, 1, rel, rand_info(rng))
        assert np.abs(edge_residual(e, xp, xq) - naive_residual(e, xp, xq)).max() < 1e-12
    assert abs(edge_residual(e, xp, xq)[0] - 0.1) < 1e-12


_coord = st.floats(-50.0, 50.0)
_pose = st.builds(Pose2, _coord, _coord, st.floats(-math.pi, math.pi))


def _kernel(xp, xq, meas):
    return se2_residuals(*(np.array([p.as_vector()]) for p in (xp, xq, meas)))[0]


@settings(max_examples=200, deadline=None, database=None)
@given(xp=_pose, xq=_pose, meas=_pose, motion=_pose)
def test_se2_residuals_zero_when_exact_and_invariant_under_rigid_motion(xp, xq, meas, motion):
    assert np.abs(_kernel(xp, xq, relative(xp, xq))).max() < 1e-9
    r0 = _kernel(xp, xq, meas)
    r1 = _kernel(compose(motion, xp), compose(motion, xq), meas)
    assert abs(wrap_angle(r1[0] - r0[0])) < 1e-9
    assert np.abs(r1[1:] - r0[1:]).max() < 1e-9


def test_objective_zero_when_consistent():
    rng = np.random.default_rng(2)
    g = PoseGraph()
    for i in range(5):
        g.add_vertex(i, timestep=i, estimate=rand_pose(rng))
    for i in range(4):
        rel = relative(g.vertices[i].estimate, g.vertices[i + 1].estimate)
        g.add_edge(EdgeMeasurement(i, i + 1, rel, np.eye(3), EdgeOrigin.ODOMETRY))
    assert objective(g) < 1e-24


def test_objective_single_edge_value():
    g = PoseGraph()
    g.add_vertex(0, estimate=Pose2(0, 0, 0))
    g.add_vertex(1, timestep=1, estimate=Pose2(0, 0, 0.1))
    g.add_edge(EdgeMeasurement(0, 1, Pose2(0, 0, 0), np.eye(3)))
    assert abs(objective(g) - 0.01) < 1e-15


def test_objective_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rand_graph(rng, n_poses=20)
        w = ResidualWeights(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        got, want = objective(g, w), naive_objective(g, w)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_objective_gauge_invariance():
    rng = np.random.default_rng(4)
    g = rand_graph(rng, n_poses=15)
    base = objective(g)
    shift = rand_pose(rng)
    g2 = g.copy()
    for v in g2.vertices.values():
        v.estimate = compose(shift, v.estimate)
    assert abs(objective(g2) - base) <= 1e-9 * max(1.0, base)


def test_localization_error_zero_for_truth_measurements():
    rng = np.random.default_rng(5)
    g = rand_graph(rng, n_poses=8)
    for i, e in enumerate(g.edges):
        g.edges[i] = EdgeMeasurement(e.from_id, e.to_id, truth_relative(g, e), e.info, e.origin)
    assert localization_error(g) < 1e-18


def test_localization_error_single_edge_value():
    g = PoseGraph()
    g.add_vertex(0, truth=Pose2(0, 0, 0), estimate=Pose2(0, 0, 0))
    g.add_vertex(1, timestep=1, truth=Pose2(1, 0, 0), estimate=Pose2(1, 0, 0))
    g.add_edge(EdgeMeasurement(0, 1, Pose2(1.1, 0, 0), np.eye(3)))
    assert abs(localization_error(g) - 0.01) < 1e-12


def test_localization_error_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = rand_graph(rng, n_poses=20)
        got, want = localization_error(g), naive_localization_error(g)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_localization_error_requires_truth():
    rng = np.random.default_rng(7)
    g = rand_graph(rng, n_poses=5, with_truth=False)
    with pytest.raises(MissingGroundTruth):
        localization_error(g)


def test_measurement_discrepancy_wraps_angle():
    # measured pi - 0.05 against a true -pi + 0.05: the discrepancy is 0.1, not 2 pi - 0.1
    truth_rel, meas = Pose2(0, 0, -math.pi + 0.05), Pose2(0, 0, math.pi - 0.05)
    r = _kernel(Pose2(0, 0, 0), truth_rel, meas)
    assert abs(r[0] - 0.1) < 1e-12
    g = PoseGraph()
    g.add_vertex(0, truth=Pose2(0, 0, 0))
    g.add_vertex(1, timestep=1, truth=truth_rel)
    g.add_edge(EdgeMeasurement(0, 1, meas, np.eye(3)))
    assert abs(localization_error(g) - 0.01) < 1e-12


def test_edge_validation():
    with pytest.raises(GraphError):
        EdgeMeasurement(0, 0, Pose2(0, 0, 0), np.eye(3))
    with pytest.raises(NonPSDInformation):
        EdgeMeasurement(0, 1, Pose2(0, 0, 0), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonPSDInformation):
        m = np.eye(3)
        m[0, 1] = 0.5  # asymmetric
        EdgeMeasurement(0, 1, Pose2(0, 0, 0), m)


def test_non_finite_input_is_rejected():
    with pytest.raises(GraphError, match="non-finite measurement"):
        EdgeMeasurement(0, 1, Pose2(math.nan, 0, 0), np.eye(3))
    info = np.eye(3)
    info[1, 1] = math.nan
    with pytest.raises(GraphError, match="non-finite information") as exc:
        EdgeMeasurement(0, 1, Pose2(0, 0, 0), info)
    assert not isinstance(exc.value, NonPSDInformation)
    g = PoseGraph()
    with pytest.raises(GraphError, match="non-finite estimate"):
        g.add_vertex(0, estimate=Pose2(0, math.inf, 0))
    with pytest.raises(GraphError, match="non-finite truth"):
        g.add_vertex(1, truth=Pose2(0, 0, math.nan))
    assert g.num_vertices == 0


def test_with_rel_shares_info_and_rejects_non_finite(rng):
    e = EdgeMeasurement(3, 7, rand_pose(rng), rand_info(rng), EdgeOrigin.INTER_LOOP)
    rel = rand_pose(rng)
    moved = e.with_rel(rel)
    assert moved.rel == rel
    assert moved.info is e.info and not moved.info.flags.writeable
    assert (moved.from_id, moved.to_id, moved.origin) == (3, 7, EdgeOrigin.INTER_LOOP)
    assert e.rel != rel  # the original edge is untouched
    for bad in (Pose2(math.nan, 0, 0), Pose2(0, math.inf, 0), Pose2(0, 0, math.nan)):
        with pytest.raises(GraphError, match="non-finite measurement"):
            e.with_rel(bad)


def test_graph_validation():
    g = PoseGraph()
    g.add_vertex(0)
    with pytest.raises(GraphError):
        g.add_edge(EdgeMeasurement(0, 1, Pose2(0, 0, 0), np.eye(3)))
    g.add_vertex(1, timestep=5)
    with pytest.raises(GraphError):  # odometry must connect consecutive timesteps
        g.add_edge(EdgeMeasurement(0, 1, Pose2(0, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY))
    with pytest.raises(GraphError):
        g.add_vertex(0)
    with pytest.raises(GraphError):
        g.add_vertex(2, timestep=-1)


def test_weights_validation():
    with pytest.raises(GraphError):
        ResidualWeights(0.0, 1.0)
