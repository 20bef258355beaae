import math

import numpy as np
import pytest

from dpgo.geometry import Pose2
from dpgo.graph import EdgeOrigin, PoseGraph


def vertex(vid, robot=0, timestep=0, estimate=None, truth=None):
    """A vertex row for :func:`make_graph`."""
    return vid, robot, timestep, estimate or Pose2(0, 0, 0), truth


def edge(from_id, to_id, rel, info, origin=EdgeOrigin.INTRA_LOOP):
    """An edge row for :func:`make_graph`."""
    return from_id, to_id, rel, info, origin


def make_graph(vertices, edges=()):
    """A PoseGraph of :func:`vertex` and :func:`edge` rows."""

    def poses(ps):
        return [(math.nan,) * 3 if p is None else (p.x, p.y, p.theta) for p in ps]

    vids, robot, timestep, estimates, truths = zip(*vertices) if vertices else ((),) * 5
    from_ids, to_ids, rels, info, origin = zip(*edges) if edges else ((),) * 5
    return PoseGraph(
        vids, robot, timestep, poses(estimates), poses(truths), from_ids, to_ids, poses(rels), info, origin
    )


def rand_pose(rng, scale=5.0):
    return Pose2(
        rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-math.pi, math.pi)
    )


def rand_info(rng):
    a = rng.normal(size=(3, 3))
    return a @ a.T + 0.5 * np.eye(3)


def rand_graph(rng, n_poses=20, n_loops=8, with_truth=True):
    """Random connected graph: an odometry chain plus random loop closures."""
    vertices = [
        vertex(
            i,
            robot=0,
            timestep=i,
            estimate=rand_pose(rng),
            truth=rand_pose(rng) if with_truth else None,
        )
        for i in range(n_poses)
    ]
    edges = [
        edge(i, i + 1, rand_pose(rng, 1.0), rand_info(rng), EdgeOrigin.ODOMETRY) for i in range(n_poses - 1)
    ]
    for _ in range(n_loops):
        i = int(rng.integers(0, n_poses - 2))
        j = int(rng.integers(i + 2, n_poses))
        edges.append(edge(i, j, rand_pose(rng, 1.0), rand_info(rng), EdgeOrigin.INTRA_LOOP))
    return make_graph(vertices, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
