"""SE(2) primitives: planar poses, angle wrapping, exp/log maps.

Conventions used throughout the package:

* angles live in ``(-pi, pi]``; :func:`wrap_angle` is the one wrap, applied
  after every operation;
* pose arrays are ordered ``(x, y, theta)``: vertex states, measurements,
  twists, environment and encoder arrays and
  :meth:`Pose2.as_vector`;
* residual and information arrays are ordered ``(theta, x, y)``: the edge
  residual of :func:`dpgo.graph.se2_residuals` is ``(dtheta, dx, dy)`` and
  information matrices follow it (g2o files order them ``(x, y, theta)``;
  :mod:`dpgo.g2o_io` permutes at the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or ndarray) to the half-open interval (-pi, pi]."""
    if isinstance(theta, float):
        # float % and np.mod both take fmod and fix its sign alike: bit-identical
        wrapped = float(theta) % TWO_PI
        return wrapped - TWO_PI if wrapped > math.pi else wrapped
    wrapped = np.mod(theta, TWO_PI)
    wrapped = np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Pose2:
    """Planar rigid-body transform (x, y, theta); theta normalized on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    def rotation(self) -> np.ndarray:
        return rotation_matrix(self.theta)

    def as_matrix(self) -> np.ndarray:
        """3x3 homogeneous matrix."""
        m = np.eye(3)
        m[:2, :2] = self.rotation()
        m[0, 2] = self.x
        m[1, 2] = self.y
        return m

    def as_vector(self) -> np.ndarray:
        """(x, y, theta) as a flat array."""
        return np.array([self.x, self.y, self.theta])


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Group composition a * b."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def inverse(p: Pose2) -> Pose2:
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), s * p.x - c * p.y, -p.theta)


def relative(a: Pose2, b: Pose2) -> Pose2:
    """Transform of b expressed in the frame of a, i.e. a^-1 * b."""
    return compose(inverse(a), b)


def _exp_coeffs(omega: float) -> tuple[float, float]:
    # A = sin(w)/w, B = (1 - cos(w))/w with series fallbacks near zero.
    if abs(omega) < 1e-9:
        return 1.0 - omega * omega / 6.0, omega / 2.0
    return math.sin(omega) / omega, (1.0 - math.cos(omega)) / omega


def se2_exp(twist) -> Pose2:
    """Exponential map from a twist (dx, dy, dtheta) to a Pose2."""
    vx, vy, omega = float(twist[0]), float(twist[1]), float(twist[2])
    a, b = _exp_coeffs(omega)
    return Pose2(a * vx - b * vy, b * vx + a * vy, omega)

