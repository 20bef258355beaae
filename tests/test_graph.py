import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgo.geometry import Pose2, compose, relative, wrap_angle
from dpgo.graph import (
    EDGE_FIELDS,
    VERTEX_FIELDS,
    EdgeOrigin,
    GraphError,
    MissingGroundTruth,
    NonPSDInformation,
    PoseGraph,
    localization_error,
    objective,
    se2_residuals,
)

from conftest import edge, make_graph, rand_graph, rand_pose, vertex


# Independent oracle: evaluate the per-edge residual with dense matrices.
def naive_residual(rel, xp, xq):
    rp = xp.rotation()
    dtheta = wrap_angle(xq.theta - xp.theta - rel.theta)
    dt = rp.T @ (np.array([xq.x, xq.y]) - np.array([xp.x, xp.y])) - np.array(
        [rel.x, rel.y]
    )
    return np.array([dtheta, dt[0], dt[1]])


def naive_objective(g):
    total = 0.0
    for e in g.edges:
        r = naive_residual(e.rel, g.vertices[e.from_id].estimate, g.vertices[e.to_id].estimate)
        total += r[0] ** 2 + (r[1] ** 2 + r[2] ** 2)
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


def _kernel(xp, xq, meas):
    return se2_residuals(*(np.array([p.as_vector()]) for p in (xp, xq, meas)))[0]


def test_edge_residual_zero_for_exact_measurement():
    r = _kernel(Pose2(0, 0, 0), Pose2(1.0, 0.0, 0.0), Pose2(1.0, 0.0, 0.0))
    assert np.abs(r).max() == 0.0


def test_edge_residual_consistent_random_edge():
    rng = np.random.default_rng(0)
    for _ in range(50):
        xp, xq = rand_pose(rng), rand_pose(rng)
        assert np.abs(_kernel(xp, xq, relative(xp, xq))).max() < 1e-12


def test_edge_residual_matches_dense_oracle():
    rng = np.random.default_rng(1)
    cases = [(rand_pose(rng), rand_pose(rng), rand_pose(rng)) for _ in range(100)]
    # the rotation wraps across +-pi: measured pi - 0.05 against a true -pi + 0.05
    cases.append((Pose2(0, 0, 0), Pose2(0, 0, -math.pi + 0.05), Pose2(0, 0, math.pi - 0.05)))
    for xp, xq, rel in cases:
        assert np.abs(_kernel(xp, xq, rel) - naive_residual(rel, xp, xq)).max() < 1e-12
    assert abs(_kernel(xp, xq, rel)[0] - 0.1) < 1e-12


_coord = st.floats(-50.0, 50.0)
_pose = st.builds(Pose2, _coord, _coord, st.floats(-math.pi, math.pi))


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
    vertices = [vertex(i, timestep=i, estimate=rand_pose(rng)) for i in range(5)]
    rels = [relative(vertices[i][3], vertices[i + 1][3]) for i in range(4)]
    g = make_graph(vertices, [edge(i, i + 1, rels[i], np.eye(3), EdgeOrigin.ODOMETRY) for i in range(4)])
    assert objective(g) < 1e-24


def test_objective_single_edge_value():
    g = make_graph(
        [vertex(0, estimate=Pose2(0, 0, 0)), vertex(1, timestep=1, estimate=Pose2(0, 0, 0.1))],
        [edge(0, 1, Pose2(0, 0, 0), np.eye(3))],
    )
    assert abs(objective(g) - 0.01) < 1e-15


def test_objective_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rand_graph(rng, n_poses=20)
        got, want = objective(g), naive_objective(g)
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
    rels = [relative(g.vertices[e.from_id].truth, g.vertices[e.to_id].truth) for e in g.edges]
    g = replace(g, meas=[r.as_vector() for r in rels])
    assert localization_error(g) < 1e-18


def test_localization_error_single_edge_value():
    g = make_graph(
        [
            vertex(0, truth=Pose2(0, 0, 0), estimate=Pose2(0, 0, 0)),
            vertex(1, timestep=1, truth=Pose2(1, 0, 0), estimate=Pose2(1, 0, 0)),
        ],
        [edge(0, 1, Pose2(1.1, 0, 0), np.eye(3))],
    )
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
    g = make_graph(
        [vertex(0, truth=Pose2(0, 0, 0)), vertex(1, timestep=1, truth=truth_rel)], [edge(0, 1, meas, np.eye(3))]
    )
    assert abs(localization_error(g) - 0.01) < 1e-12


def one_edge(rel=Pose2(0, 0, 0), info=np.eye(3), i=0, j=1, origin=EdgeOrigin.INTRA_LOOP, timestep_j=1):
    return make_graph([vertex(0), vertex(1, timestep=timestep_j)], [edge(i, j, rel, info, origin)])


def test_edge_validation():
    with pytest.raises(GraphError):
        one_edge(j=0)
    with pytest.raises(NonPSDInformation):
        one_edge(info=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonPSDInformation):
        m = np.eye(3)
        m[0, 1] = 0.5  # asymmetric
        one_edge(info=m)


def test_non_finite_input_is_rejected():
    with pytest.raises(GraphError, match="non-finite measurement"):
        one_edge(rel=Pose2(math.nan, 0, 0))
    info = np.eye(3)
    info[1, 1] = math.nan
    with pytest.raises(GraphError, match="non-finite information") as exc:
        one_edge(info=info)
    assert not isinstance(exc.value, NonPSDInformation)
    with pytest.raises(GraphError, match="non-finite estimate"):
        make_graph([vertex(0, estimate=Pose2(0, math.inf, 0))])
    with pytest.raises(GraphError, match="non-finite truth"):
        make_graph([vertex(1, truth=Pose2(0, 0, math.nan))])


def test_graph_validation():
    with pytest.raises(GraphError):
        make_graph([vertex(0)], [edge(0, 1, Pose2(0, 0, 0), np.eye(3))])
    with pytest.raises(GraphError):  # odometry must connect consecutive timesteps
        one_edge(origin=EdgeOrigin.ODOMETRY, timestep_j=5)
    with pytest.raises(GraphError):
        make_graph([vertex(0), vertex(0)])
    with pytest.raises(GraphError):
        make_graph([vertex(2, timestep=-1)])


def test_copy_owns_its_poses_and_edge_arrays_are_read_only(rng):
    g = rand_graph(rng, n_poses=6)
    h = g.copy()
    h.vertices[2].estimate = Pose2(9.0, 9.0, 0.0)
    h.vertices[3].truth = None
    assert h.vertices[2].estimate == Pose2(9.0, 9.0, 0.0) and h.vertices[3].truth is None
    assert g.vertices[2].estimate != h.vertices[2].estimate and g.vertices[3].truth is not None
    assert not (g.meas.flags.writeable or g.info.flags.writeable or g.e_from.flags.writeable)



def test_with_estimates_validates_only_the_new_array(rng):
    g = rand_graph(rng, n_poses=6)
    before = {f: getattr(g, f).copy() for f in VERTEX_FIELDS + EDGE_FIELDS}
    x = np.array([rand_pose(rng).as_vector() for _ in range(6)])
    x[4, 2] = 3 * math.pi + 0.25
    h = g.with_estimates(x)
    assert np.array_equal(h.estimates[:, :2], x[:, :2])
    assert h.estimates[4, 2] == wrap_angle(x[4, 2]) and abs(h.estimates[4, 2] - (math.pi + 0.25 - 2 * math.pi)) < 1e-12
    assert np.array_equal(h.estimates[:4, 2], x[:4, 2])
    x[0, 0] = 99.0  # the array is copied
    assert h.estimates[0, 0] != 99.0
    for f in ("vids", "robot", "timestep") + EDGE_FIELDS + ("e_from", "e_to"):
        assert getattr(h, f) is getattr(g, f) and not getattr(h, f).flags.writeable, f
    h.estimates[1] = (7.0, 7.0, 0.0)
    h.truths[2] = math.nan
    for f, value in before.items():
        assert np.array_equal(getattr(g, f), value, equal_nan=True), f

    with pytest.raises(GraphError, match=r"estimates must have shape \(6, 3\)"):
        g.with_estimates(np.zeros((5, 3)))
    with pytest.raises(GraphError, match=r"estimates must have shape \(6, 3\)"):
        g.with_estimates(np.zeros(18))
    x = g.estimates.copy()
    x[3, 1] = math.inf
    with pytest.raises(GraphError, match="non-finite estimate .* on vertex 3") as exc:
        g.with_estimates(x)
    assert exc.value.position == ("vertex", 3)


def test_rejection_names_the_input_row():
    with pytest.raises(GraphError, match="negative timestep on vertex 3") as exc:
        make_graph([vertex(5), vertex(3, timestep=-1)])
    assert exc.value.position == ("vertex", 1)
    with pytest.raises(GraphError, match="unknown vertex 7") as exc:
        make_graph(
            [vertex(0), vertex(1)], [edge(0, 1, Pose2(1, 0, 0), np.eye(3)), edge(7, 1, Pose2(1, 0, 0), np.eye(3))]
        )
    assert exc.value.position == ("edge", 1)


@pytest.mark.parametrize(
    "name, kind",
    [("vids", "vertex"), ("robot", "vertex"), ("timestep", "vertex"), ("from_ids", "edge"), ("to_ids", "edge"),
     ("origin", "edge")],
)
def test_non_integral_id_columns_are_rejected_by_row(name, kind):
    edges = [edge(i, i + 1, Pose2(1, 0, 0), np.eye(3)) for i in (0, 1)]
    g = make_graph([vertex(i, timestep=i) for i in range(3)], edges)
    columns = {f: getattr(g, f).tolist() for f in VERTEX_FIELDS + EDGE_FIELDS}
    good = columns[name]
    for bad in (good[1] + 0.7, math.nan, -math.inf):
        columns[name] = [bad if k == 1 else v for k, v in enumerate(good)]
        with pytest.raises(GraphError, match=name) as exc:
            PoseGraph(**columns)
        assert exc.value.position == (kind, 1)
    for same in ([float(v) for v in good], [np.int32(v) for v in good]):
        columns[name] = same
        assert getattr(PoseGraph(**columns), name).tolist() == good
