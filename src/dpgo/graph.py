"""Pose-graph data model, the SE(2) edge residual, global objective, and
localization error.

:func:`se2_residuals` is the one place that evaluates edge residuals; LM, the
objective, the localization error, the environment's reward terms and the
encoder's gate cue all call it. Residuals are ordered ``(dtheta, dx, dy)``
and information matrices follow that ordering; pose arrays are
``(x, y, theta)`` (see :mod:`dpgo.geometry`).
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .geometry import Pose2, relative, wrap_angle


class GraphError(Exception):
    pass


class MissingGroundTruth(GraphError):
    pass


class NonPSDInformation(GraphError):
    pass


def _is_finite(p: Pose2) -> bool:
    return math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.theta)


class EdgeOrigin(IntEnum):
    ODOMETRY = 0
    INTRA_LOOP = 1
    INTER_ESTIMATE = 2
    INTER_LOOP = 3


@dataclass(frozen=True, eq=False)
class EdgeMeasurement:
    """Directed relative-pose measurement with a 3x3 information matrix."""

    from_id: int
    to_id: int
    rel: Pose2
    info: np.ndarray
    origin: EdgeOrigin = EdgeOrigin.INTRA_LOOP

    def __post_init__(self):
        if self.from_id == self.to_id:
            raise GraphError(f"self edge on vertex {self.from_id}")
        if not _is_finite(self.rel):
            raise GraphError(f"edge {self.from_id}->{self.to_id}: non-finite measurement {self.rel}")
        info = np.asarray(self.info, dtype=float)
        if info.shape != (3, 3):
            raise GraphError(f"information matrix must be 3x3, got {info.shape}")
        if not np.isfinite(info).all():
            raise GraphError(
                f"edge {self.from_id}->{self.to_id}: non-finite information matrix {info.tolist()}"
            )
        if not np.allclose(info, info.T, atol=1e-9 * max(1.0, float(np.abs(info).max()))):
            raise NonPSDInformation("information matrix is not symmetric")
        if np.linalg.eigvalsh(info).min() <= 0:
            raise NonPSDInformation("information matrix has a non-positive eigenvalue")
        info = 0.5 * (info + info.T)
        info.setflags(write=False)
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "origin", EdgeOrigin(self.origin))

    def with_rel(self, rel: Pose2) -> EdgeMeasurement:
        """Copy carrying measurement ``rel``; shares this edge's validated, read-only ``info``."""
        if not _is_finite(rel):
            raise GraphError(f"edge {self.from_id}->{self.to_id}: non-finite measurement {rel}")
        out = copy.copy(self)
        object.__setattr__(out, "rel", rel)
        return out


@dataclass
class Vertex:
    robot: int
    timestep: int
    estimate: Pose2
    truth: Pose2 | None = None


@dataclass
class PoseGraph:
    """Directed pose graph; a plain value type (copy freely, mutate locally)."""

    vertices: dict[int, Vertex] = field(default_factory=dict)
    edges: list[EdgeMeasurement] = field(default_factory=list)

    def add_vertex(self, vid, robot=0, timestep=0, estimate=None, truth=None):
        if vid in self.vertices:
            raise GraphError(f"duplicate vertex id {vid}")
        if timestep < 0:
            raise GraphError(f"negative timestep on vertex {vid}")
        estimate = estimate or Pose2(0, 0, 0)
        for name, pose in (("estimate", estimate), ("truth", truth)):
            if pose is not None and not _is_finite(pose):
                raise GraphError(f"non-finite {name} {pose} on vertex {vid}")
        self.vertices[vid] = Vertex(robot, timestep, estimate, truth)

    def add_edge(self, edge: EdgeMeasurement):
        for vid in (edge.from_id, edge.to_id):
            if vid not in self.vertices:
                raise GraphError(f"edge references unknown vertex {vid}")
        if edge.origin == EdgeOrigin.ODOMETRY:
            u, v = self.vertices[edge.from_id], self.vertices[edge.to_id]
            if u.robot != v.robot or abs(u.timestep - v.timestep) != 1:
                raise GraphError(
                    f"odometry edge {edge.from_id}->{edge.to_id} does not connect "
                    "consecutive timesteps of one robot"
                )
        self.edges.append(edge)

    def copy(self) -> "PoseGraph":
        g = PoseGraph()
        g.vertices = {
            vid: Vertex(v.robot, v.timestep, v.estimate, v.truth)
            for vid, v in self.vertices.items()
        }
        g.edges = list(self.edges)
        return g

    def has_full_ground_truth(self) -> bool:
        return all(v.truth is not None for v in self.vertices.values())

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ResidualWeights:
    """Relative weighting of rotational vs translational residual terms."""

    w_rot: float = 1.0
    w_trans: float = 1.0

    def __post_init__(self):
        if self.w_rot <= 0 or self.w_trans <= 0:
            raise GraphError("residual weights must be positive")


class GraphArrays(NamedTuple):
    """Dense view of a graph, pose arrays ordered (x, y, theta)."""

    vids: list[int]  # sorted vertex ids
    estimates: np.ndarray  # (N, 3)
    truths: np.ndarray  # (N, 3), NaN rows where a vertex has no ground truth
    edges: list[EdgeMeasurement]
    e_from: np.ndarray  # (E,) row of each edge's source vertex
    e_to: np.ndarray  # (E,) row of each edge's target vertex
    meas: np.ndarray  # (E, 3) measurements


def _pose_rows(poses) -> np.ndarray:
    return np.array([(math.nan,) * 3 if p is None else (p.x, p.y, p.theta) for p in poses]).reshape(-1, 3)


def graph_arrays(g: PoseGraph, edge_order=None) -> GraphArrays:
    """Arrays of ``g``'s vertices and edges.

    Edges are sorted by the keys ``edge_order[i]`` when given (e.g. global
    edge ids), else kept in list order.
    """
    vids = sorted(g.vertices)
    index = {vid: i for i, vid in enumerate(vids)}
    vertices = [g.vertices[v] for v in vids]
    edges = g.edges
    if edge_order is not None:
        edges = [edges[i] for i in sorted(range(len(edges)), key=lambda i: edge_order[i])]
    return GraphArrays(
        vids,
        _pose_rows(v.estimate for v in vertices),
        _pose_rows(v.truth for v in vertices),
        edges,
        np.array([index[e.from_id] for e in edges], dtype=np.intp),
        np.array([index[e.to_id] for e in edges], dtype=np.intp),
        _pose_rows(e.rel for e in edges),
    )


def se2_residuals(xp: np.ndarray, xq: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """Residuals (E, 3) ordered (dtheta, dx, dy) of edges p -> q.

    ``xp``, ``xq`` and ``meas`` are (E, 3) pose arrays. The rotational part is
    the wrapped angle theta_q - theta_p - theta_meas; the translational part
    is R_p^T (t_q - t_p) - t_meas.
    """
    c, s = np.cos(xp[:, 2]), np.sin(xp[:, 2])
    dx = xq[:, 0] - xp[:, 0]
    dy = xq[:, 1] - xp[:, 1]
    dtheta = wrap_angle(xq[:, 2] - xp[:, 2] - meas[:, 2])
    return np.stack([dtheta, c * dx + s * dy - meas[:, 0], -s * dx + c * dy - meas[:, 1]], axis=1)


def edge_residual(edge: EdgeMeasurement, xp: Pose2, xq: Pose2) -> np.ndarray:
    """Residual (dtheta, dx, dy) of one edge given endpoint estimates xp, xq."""
    return se2_residuals(*(np.array([(p.x, p.y, p.theta)]) for p in (xp, xq, edge.rel)))[0]


def objective(g: PoseGraph, weights: ResidualWeights | None = None) -> float:
    """Global least-squares objective over all edges (non-negative)."""
    w = weights or ResidualWeights()
    a = graph_arrays(g)
    r = se2_residuals(a.estimates[a.e_from], a.estimates[a.e_to], a.meas)
    return float(w.w_rot**2 * (r[:, 0] ** 2).sum() + w.w_trans**2 * (r[:, 1:] ** 2).sum())


def truth_relative(g: PoseGraph, edge: EdgeMeasurement) -> Pose2:
    """Ground-truth relative transform of an edge."""
    tp = g.vertices[edge.from_id].truth
    tq = g.vertices[edge.to_id].truth
    if tp is None or tq is None:
        raise MissingGroundTruth(
            f"edge {edge.from_id}->{edge.to_id} has an endpoint without ground truth"
        )
    return relative(tp, tq)


def localization_error(g: PoseGraph) -> float:
    """Information-weighted chi^2 between edge measurements and ground truth.

    The residual at the ground-truth poses is the negated measurement-vs-truth
    discrepancy, so its information quadratic is the same.
    """
    a = graph_arrays(g)
    tp, tq = a.truths[a.e_from], a.truths[a.e_to]
    missing = np.isnan(tp[:, 0]) | np.isnan(tq[:, 0])
    if missing.any():
        e = a.edges[int(np.argmax(missing))]
        raise MissingGroundTruth(f"edge {e.from_id}->{e.to_id} has an endpoint without ground truth")
    r = se2_residuals(tp, tq, a.meas)
    info = np.array([e.info for e in a.edges]).reshape(-1, 3, 3)
    return float(np.einsum("ei,eij,ej->", r, info, r))


def adjacency(g: PoseGraph) -> dict[int, dict[int, float]]:
    """Undirected adjacency; weights count the edges between two vertices."""
    adj: dict[int, dict[int, float]] = {vid: {} for vid in g.vertices}
    for e in g.edges:
        adj[e.from_id][e.to_id] = adj[e.from_id].get(e.to_id, 0.0) + 1.0
        adj[e.to_id][e.from_id] = adj[e.to_id].get(e.from_id, 0.0) + 1.0
    return adj


def components(members, adj) -> list[list[int]]:
    """Connected components of the subgraph induced by ``members``."""
    members = set(members)
    comps, seen = [], set()
    for root in sorted(members):
        if root in seen:
            continue
        comp, queue = [], deque([root])
        while queue:
            u = queue.popleft()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            for v in adj[u]:
                if v in members and v not in seen:
                    queue.append(v)
        comps.append(comp)
    return comps


def is_connected(adj, nodes=None) -> bool:
    return len(components(adj if nodes is None else nodes, adj)) <= 1
