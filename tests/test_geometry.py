import math

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpgo.geometry import (
    Pose2,
    compose,
    inverse,
    relative,
    rotation_matrix,
    se2_exp,
    wrap_angle,
)

from conftest import rand_pose


def test_compose_identity():
    p = Pose2(3.0, 4.0, 0.5)
    q = compose(Pose2(0.0, 0.0, 0.0), p)
    assert (q.x, q.y, q.theta) == (3.0, 4.0, 0.5)


def test_compose_axis_aligned_rotation():
    q = compose(Pose2(1.0, 0.0, math.pi / 2), Pose2(1.0, 0.0, 0.0))
    assert abs(q.x - 1.0) < 1e-15
    assert abs(q.y - 1.0) < 1e-15
    assert abs(q.theta - math.pi / 2) < 1e-15


def test_compose_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rand_pose(rng), rand_pose(rng)
        got = compose(a, b).as_matrix()
        want = a.as_matrix() @ b.as_matrix()
        assert np.abs(got - want).max() < 1e-12


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rand_pose(rng)
        q = compose(p, inverse(p))
        assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.theta) < 1e-12


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-15
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi  # interval is half-open at -pi


@settings(max_examples=500, deadline=None, database=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(0.0)
@example(-0.0)
@example(math.pi)
@example(-math.pi)
@example(math.nextafter(math.pi, 4.0))
@example(math.nextafter(-math.pi, -4.0))
@example(-4 * math.pi)
@example(1e300)
@example(-math.inf)
def test_scalar_wrap_angle_matches_array_path_bitwise(theta):
    with np.errstate(invalid="ignore"):  # +-inf: fmod is invalid on both paths
        want = wrap_angle(np.array([theta]))[0]
    for got in (wrap_angle(theta), wrap_angle(np.float64(theta))):
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert np.float64(got).view(np.uint64) == want.view(np.uint64)


# The SO(2) rotation logarithm is the wrapped angle: wrap_angle is the log map.


def test_rotation_log_matches_matrix_logarithm_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        theta = rng.uniform(-4 * math.pi, 4 * math.pi)
        m = scipy.linalg.logm(rotation_matrix(theta))
        oracle = float(m[1, 0])
        assert abs(wrap_angle(theta) - oracle) < 1e-10


def test_rotation_log_of_exp_roundtrip():
    for theta in np.linspace(-math.pi + 1e-9, math.pi, 50):
        assert abs(wrap_angle(theta) - theta) < 1e-12


def test_se2_exp_matches_matrix_exponential_of_the_hat():
    rng = np.random.default_rng(10)
    for _ in range(200):
        vx, vy, omega = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi + 0.01, math.pi)
        hat = np.array([[0.0, -omega, vx], [omega, 0.0, vy], [0.0, 0.0, 0.0]])
        got = se2_exp([vx, vy, omega]).as_matrix()
        assert np.abs(got - scipy.linalg.expm(hat)).max() < 1e-12


def test_se2_exp_small_angle():
    p = se2_exp([0.1, -0.2, 0.0])
    assert (p.x, p.y, p.theta) == (0.1, -0.2, 0.0)


def test_relative_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rand_pose(rng), rand_pose(rng)
        c = compose(a, relative(a, b))
        assert abs(c.x - b.x) < 1e-12 and abs(c.y - b.y) < 1e-12
        assert abs(wrap_angle(c.theta - b.theta)) < 1e-12
