"""Pose-graph data model, the SE(2) edge residual, global objective, and
localization error.

A :class:`PoseGraph` is a struct of arrays. Vertex rows are in increasing
id order: ``vids``, ``robot``, ``timestep`` (N,), ``estimates`` and
``truths`` (N, 3), a NaN truth row meaning no ground truth. Edge rows keep
the order given: ``from_ids``, ``to_ids`` (E,) vertex ids and ``e_from``,
``e_to`` (E,) their rows, ``meas`` (E, 3), ``info`` (E, 3, 3) and
``origin`` (E,) :class:`EdgeOrigin` codes.

The constructor is the one validation, one batched pass over all rows where
data enters; derived graphs (copies, partition blocks, merge, pruning,
outliers, the environment's export) go through it too, mostly by
:func:`dataclasses.replace`. It wraps the theta columns, keeps the symmetric
part of each information matrix and makes every array but ``estimates`` and
``truths`` read-only. An error names the offending vertex or edge, and its
``position`` holds the row's kind and input index, so a loader can name the
line. :meth:`PoseGraph.with_estimates` is the one narrow path around it: it
validates only the estimate array it replaces and shares every read-only
array. LM returns its graph through it, so the edge arrays stay the same
objects from solve to solve.

Every stage reads the arrays. ``vertices`` (id -> a view whose ``estimate``
and ``truth`` read and write the rows) and ``edges`` (read-only
:class:`Edge` records) serve code that handles one pose at a time by id:
the frozen benchmark in ``perfbench/`` reads graphs that way, and so do the
tests. No numeric path reads them.

:func:`adjacency` (a symmetric CSR matrix over vertex rows counting parallel
edges) is the one undirected view of the edges, which the partitioner reads.

:func:`se2_residuals` is the one place that evaluates edge residuals; LM, the
objective, the localization error, the environment's reward terms and the
encoder's gate cue all call it. Residuals are ordered ``(dtheta, dx, dy)``
and information matrices follow that ordering; pose arrays are
``(x, y, theta)`` (see :mod:`dpgo.geometry`).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .geometry import Pose2, wrap_angle


class GraphError(Exception):
    position: tuple[str, int] | None = None  # ("vertex" or "edge", input index) of a rejected row


class MissingGroundTruth(GraphError):
    pass


class NonPSDInformation(GraphError):
    pass


class EdgeOrigin(IntEnum):
    ODOMETRY = 0
    INTRA_LOOP = 1
    INTER_ESTIMATE = 2
    INTER_LOOP = 3


VERTEX_FIELDS = ("vids", "robot", "timestep", "estimates", "truths")
EDGE_FIELDS = ("from_ids", "to_ids", "meas", "info", "origin")


def _reject(bad, kind: str, message, cls=GraphError) -> None:
    """Raise ``cls(message(k))`` for the first input row k where ``bad`` holds."""
    hits = np.flatnonzero(bad)
    if hits.size:
        exc = cls(message(int(hits[0])))
        exc.position = (kind, int(hits[0]))
        raise exc


def _column(values, dtype, shape, name) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.size == 0:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise GraphError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _ids(values, shape, name, kind) -> np.ndarray:
    """An int64 column; a non-finite or non-integral entry is rejected by its input row."""
    arr = _column(values, None, shape, name)
    if arr.dtype.kind not in "iub":
        real = arr.astype(float)
        bad = ~(np.abs(real) < 2.0**63) | (np.trunc(real) != real)
        _reject(bad, kind, lambda k: f"{name} {real[k]} of {kind} row {k} is not an integer")
    return arr.astype(np.int64)


def _pose(poses: np.ndarray, k: int) -> Pose2:
    return Pose2(*poses[k].tolist())


@dataclass(frozen=True, eq=False)
class PoseGraph:
    """Directed pose graph of vertex and edge arrays; see the module docstring."""

    vids: np.ndarray
    robot: np.ndarray
    timestep: np.ndarray
    estimates: np.ndarray
    truths: np.ndarray
    from_ids: np.ndarray
    to_ids: np.ndarray
    meas: np.ndarray
    info: np.ndarray
    origin: np.ndarray
    e_from: np.ndarray = field(init=False, repr=False)
    e_to: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = np.size(self.vids), np.size(self.from_ids)
        vids = _ids(self.vids, (n,), "vids", "vertex")
        robot = _ids(self.robot, (n,), "robot", "vertex")
        timestep = _ids(self.timestep, (n,), "timestep", "vertex")
        est = _column(self.estimates, float, (n, 3), "estimates")
        truth = _column(self.truths, float, (n, 3), "truths")
        src = _ids(self.from_ids, (m,), "from_ids", "edge")
        dst = _ids(self.to_ids, (m,), "to_ids", "edge")
        meas = _column(self.meas, float, (m, 3), "meas")
        info = _column(self.info, float, (m, 3, 3), "info")
        origin = _ids(self.origin, (m,), "origin", "edge")

        order = np.argsort(vids, kind="stable")
        bad = np.zeros(n, dtype=bool)
        bad[order[1:]] = vids[order[1:]] == vids[order[:-1]]
        _reject(bad, "vertex", lambda i: f"duplicate vertex id {vids[i]}")
        _reject(timestep < 0, "vertex", lambda i: f"negative timestep on vertex {vids[i]}")
        bad = ~np.isfinite(est).all(axis=1)
        _reject(bad, "vertex", lambda i: f"non-finite estimate {_pose(est, i)} on vertex {vids[i]}")
        bad = ~np.isfinite(truth).all(axis=1) & ~np.isnan(truth).all(axis=1)
        _reject(bad, "vertex", lambda i: f"non-finite truth {_pose(truth, i)} on vertex {vids[i]}")

        def edge(k):
            return f"edge {src[k]}->{dst[k]}"

        _reject(src == dst, "edge", lambda k: f"self edge on vertex {src[k]}")
        bad = ~np.isfinite(meas).all(axis=1)
        _reject(bad, "edge", lambda k: f"{edge(k)}: non-finite measurement {_pose(meas, k)}")
        bad = ~np.isfinite(info).all(axis=(1, 2))
        _reject(bad, "edge", lambda k: f"{edge(k)}: non-finite information matrix {info[k].tolist()}")
        # per edge, np.allclose(info, info.T, atol=1e-9 * max(1, |info|max))
        info_t = info.transpose(0, 2, 1)
        atol = 1e-9 * np.maximum(1.0, np.abs(info).max(axis=(1, 2), initial=0.0))
        bad = ~(np.abs(info - info_t) <= atol[:, None, None] + 1e-5 * np.abs(info_t)).all(axis=(1, 2))
        _reject(bad, "edge", lambda k: "information matrix is not symmetric", NonPSDInformation)
        bad = np.linalg.eigvalsh(info).min(axis=1, initial=math.inf) <= 0
        _reject(bad, "edge", lambda k: "information matrix has a non-positive eigenvalue", NonPSDInformation)
        bad = (origin < 0) | (origin >= len(EdgeOrigin))  # the codes are 0, 1, ...
        _reject(bad, "edge", lambda k: f"{edge(k)}: unknown origin code {origin[k]}")

        vids, robot, timestep, est, truth = (a[order] for a in (vids, robot, timestep, est, truth))
        object.__setattr__(self, "vids", vids)  # rows_of reads it
        e_from, e_to = self.rows_of(src), self.rows_of(dst)
        bad = (e_from < 0) | (e_to < 0)
        _reject(bad, "edge", lambda k: f"edge references unknown vertex {src[k] if e_from[k] < 0 else dst[k]}")
        consecutive = (robot[e_from] == robot[e_to]) & (np.abs(timestep[e_from] - timestep[e_to]) == 1)
        bad = (origin == EdgeOrigin.ODOMETRY) & ~consecutive
        _reject(bad, "edge", lambda k: f"odometry {edge(k)} does not connect consecutive timesteps of one robot")

        for poses in (est, truth, meas):
            poses[:, 2] = wrap_angle(poses[:, 2])
        arrays = dict(
            vids=vids, robot=robot, timestep=timestep, estimates=est, truths=truth, from_ids=src, to_ids=dst,
            meas=meas, info=0.5 * (info + info_t), origin=origin, e_from=e_from, e_to=e_to,
        )
        for name, value in arrays.items():
            value.setflags(write=name in ("estimates", "truths"))
            object.__setattr__(self, name, value)

    def rows_of(self, ids) -> np.ndarray:
        """The row of each vertex id in ``ids``; -1 where an id is no vertex."""
        ids = np.asarray(ids, dtype=np.int64)
        if not len(self.vids):
            return np.full(ids.shape, -1)
        rows = np.minimum(np.searchsorted(self.vids, ids), len(self.vids) - 1)
        return np.where(self.vids[rows] == ids, rows, -1)

    def subgraph(self, rows, edges) -> PoseGraph:
        """The graph of the vertex rows and edges that the numpy indices ``rows`` and ``edges`` select."""
        return PoseGraph(
            **{f: getattr(self, f)[rows] for f in VERTEX_FIELDS}, **{f: getattr(self, f)[edges] for f in EDGE_FIELDS}
        )

    def copy(self) -> PoseGraph:
        return replace(self)

    def with_estimates(self, estimates) -> PoseGraph:
        """This graph with its ``estimates`` replaced by a copy of the (N, 3)
        array ``estimates``, in vertex row order.

        Only that array is validated: its shape, finite rows (an error names
        the vertex and sets ``position`` to its row) and the wrapped theta
        column. Every read-only array is shared, since the constructor
        validated it once; ``truths`` is copied, as it stays writable.
        """
        est = _column(estimates, float, (self.num_vertices, 3), "estimates")
        bad = ~np.isfinite(est).all(axis=1)
        _reject(bad, "vertex", lambda i: f"non-finite estimate {_pose(est, i)} on vertex {self.vids[i]}")
        est[:, 2] = wrap_angle(est[:, 2])
        out = copy.copy(self)  # copies the attribute dict; __post_init__ does not run
        object.__setattr__(out, "estimates", est)
        object.__setattr__(out, "truths", self.truths.copy())
        return out

    @property
    def num_vertices(self) -> int:
        return len(self.vids)

    @property
    def num_edges(self) -> int:
        return len(self.meas)

    @property
    def vertices(self) -> Mapping:
        return _Vertices(self)

    @property
    def edges(self) -> Sequence:
        return _Edges(self)


class Edge(NamedTuple):
    """One edge of a graph, read from its arrays."""

    from_id: int
    to_id: int
    rel: Pose2
    info: np.ndarray  # read-only (3, 3)
    origin: EdgeOrigin


class _Vertex:
    """One vertex of a graph; ``estimate`` and ``truth`` read and write its rows."""

    __slots__ = ("_g", "_row", "robot", "timestep")

    def __init__(self, g: PoseGraph, row: int):
        self._g, self._row = g, row
        self.robot, self.timestep = int(g.robot[row]), int(g.timestep[row])

    @property
    def estimate(self) -> Pose2:
        return _pose(self._g.estimates, self._row)

    @estimate.setter
    def estimate(self, pose: Pose2):
        self._g.estimates[self._row] = (pose.x, pose.y, pose.theta)

    @property
    def truth(self) -> Pose2 | None:
        t = self._g.truths[self._row].tolist()
        return None if math.isnan(t[0]) else Pose2(*t)

    @truth.setter
    def truth(self, pose: Pose2 | None):
        self._g.truths[self._row] = math.nan if pose is None else (pose.x, pose.y, pose.theta)


class _Vertices(Mapping):
    def __init__(self, g: PoseGraph):
        self._g = g

    def __len__(self):
        return self._g.num_vertices

    def __iter__(self):
        return iter(self._g.vids.tolist())

    def __getitem__(self, vid):
        row = int(self._g.rows_of(vid))
        if row < 0:
            raise KeyError(vid)
        return _Vertex(self._g, row)


class _Edges(Sequence):
    def __init__(self, g: PoseGraph):
        self._g = g

    def __len__(self):
        return self._g.num_edges

    def __getitem__(self, k):
        g = self._g
        return Edge(int(g.from_ids[k]), int(g.to_ids[k]), _pose(g.meas, k), g.info[k], EdgeOrigin(int(g.origin[k])))


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


def objective(g: PoseGraph) -> float:
    """Global least-squares objective over all edges (non-negative)."""
    r = se2_residuals(g.estimates[g.e_from], g.estimates[g.e_to], g.meas)
    return float((r[:, 0] ** 2).sum() + (r[:, 1:] ** 2).sum())


def localization_error(g: PoseGraph) -> float:
    """Information-weighted chi^2 between edge measurements and ground truth.

    The residual at the ground-truth poses is the negated measurement-vs-truth
    discrepancy, so its information quadratic is the same.
    """
    tp, tq = g.truths[g.e_from], g.truths[g.e_to]
    missing = np.isnan(tp[:, 0]) | np.isnan(tq[:, 0])
    if missing.any():
        k = int(np.argmax(missing))
        raise MissingGroundTruth(f"edge {g.from_ids[k]}->{g.to_ids[k]} has an endpoint without ground truth")
    r = se2_residuals(tp, tq, g.meas)
    return float(np.einsum("ei,eij,ej->", r, g.info, r))


def adjacency(g: PoseGraph) -> sp.csr_matrix:
    """Symmetric CSR matrix over vertex rows; entry (u, v) counts the edges
    between rows u and v. Its indices are sorted; it has no diagonal."""
    rows, cols = np.concatenate([g.e_from, g.e_to]), np.concatenate([g.e_to, g.e_from])
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.num_vertices, g.num_vertices))
    adj.sum_duplicates()
    return adj


def is_connected(adj: sp.csr_matrix) -> bool:
    return csgraph.connected_components(adj, directed=False)[0] <= 1
