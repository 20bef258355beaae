"""g2o text-format I/O for planar pose graphs.

Grammar handled:

    VERTEX_SE2 id x y theta
    EDGE_SE2 i j dx dy dtheta q11 q12 q13 q22 q23 q33

The six q-values are the upper triangle of the information matrix in the
file's (x, y, theta) ordering; internally we store (theta, x, y).

Extension comments (ignored by standard readers, round-trip our extra fields):

    # ORIGIN <code>                 before an edge; 0=odom 1=intraloop
                                    2=interestimate 3=interloop
    # VERTEX_META <robot> <timestep>   before a vertex
    # VERTEX_TRUTH <x> <y> <theta>     before a vertex

Absent an ORIGIN tag, edges between consecutive timesteps of one robot are
labeled odometry and everything else intra-robot loop closure.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Pose2
from .graph import EdgeMeasurement, EdgeOrigin, GraphError, NonPSDInformation, PoseGraph

# internal (theta, x, y) index -> file (x, y, theta) index
_TO_FILE = [2, 0, 1]


class ParseError(GraphError):
    pass


def _info_to_internal(m_file: np.ndarray) -> np.ndarray:
    return m_file[np.ix_(_TO_FILE, _TO_FILE)]


def _info_to_file(m_int: np.ndarray) -> np.ndarray:
    m = np.empty((3, 3))
    m[np.ix_(_TO_FILE, _TO_FILE)] = m_int
    return m


def load_g2o(path) -> PoseGraph:
    g = PoseGraph()
    pending_origin = None
    pending_meta = None
    pending_truth = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "#":
                if len(tokens) >= 3 and tokens[1] == "ORIGIN":
                    pending_origin = _parse_int(tokens[2], lineno)
                elif len(tokens) >= 4 and tokens[1] == "VERTEX_META":
                    pending_meta = (_parse_int(tokens[2], lineno), _parse_int(tokens[3], lineno))
                elif len(tokens) >= 5 and tokens[1] == "VERTEX_TRUTH":
                    pending_truth = Pose2(*(_parse_float(t, lineno) for t in tokens[2:5]))
                continue
            if tokens[0] == "VERTEX_SE2":
                if len(tokens) != 5:
                    raise ParseError(f"line {lineno}: VERTEX_SE2 expects 4 fields")
                vid = _parse_int(tokens[1], lineno)
                x, y, th = (_parse_float(t, lineno) for t in tokens[2:5])
                robot, timestep = pending_meta if pending_meta else (0, vid)
                try:
                    g.add_vertex(vid, robot, timestep, Pose2(x, y, th), pending_truth)
                except GraphError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
                pending_meta = pending_truth = None
            elif tokens[0] == "EDGE_SE2":
                if len(tokens) != 12:
                    raise ParseError(f"line {lineno}: EDGE_SE2 expects 11 fields")
                i, j = _parse_int(tokens[1], lineno), _parse_int(tokens[2], lineno)
                dx, dy, dth = (_parse_float(t, lineno) for t in tokens[3:6])
                q = [_parse_float(t, lineno) for t in tokens[6:12]]
                m_file = np.array(
                    [[q[0], q[1], q[2]], [q[1], q[3], q[4]], [q[2], q[4], q[5]]]
                )
                origin = (
                    EdgeOrigin(pending_origin)
                    if pending_origin is not None
                    else _origin_heuristic(g, i, j, lineno)
                )
                pending_origin = None
                try:
                    edge = EdgeMeasurement(i, j, Pose2(dx, dy, dth), _info_to_internal(m_file), origin)
                    g.add_edge(edge)
                except NonPSDInformation as exc:
                    raise NonPSDInformation(f"line {lineno}: {exc}") from exc
                except GraphError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
            else:
                raise ParseError(f"line {lineno}: unknown record {tokens[0]!r}")
    if not g.vertices:
        raise ParseError("no VERTEX_SE2 records found")
    return g


def _origin_heuristic(g: PoseGraph, i: int, j: int, lineno: int) -> EdgeOrigin:
    try:
        u, v = g.vertices[i], g.vertices[j]
    except KeyError as exc:
        raise ParseError(f"line {lineno}: edge references unknown vertex {exc}") from exc
    if u.robot == v.robot and abs(u.timestep - v.timestep) == 1:
        return EdgeOrigin.ODOMETRY
    return EdgeOrigin.INTRA_LOOP


def save_g2o(g: PoseGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for vid in sorted(g.vertices):
            v = g.vertices[vid]
            fh.write(f"# VERTEX_META {v.robot} {v.timestep}\n")
            if v.truth is not None:
                fh.write(f"# VERTEX_TRUTH {v.truth.x!r} {v.truth.y!r} {v.truth.theta!r}\n")
            e = v.estimate
            fh.write(f"VERTEX_SE2 {vid} {e.x!r} {e.y!r} {e.theta!r}\n")
        for edge in g.edges:
            m = _info_to_file(np.asarray(edge.info))
            q = [float(m[0, 0]), float(m[0, 1]), float(m[0, 2]), float(m[1, 1]), float(m[1, 2]), float(m[2, 2])]
            fh.write(f"# ORIGIN {int(edge.origin)}\n")
            fh.write(
                f"EDGE_SE2 {edge.from_id} {edge.to_id} "
                f"{edge.rel.x!r} {edge.rel.y!r} {edge.rel.theta!r} "
                + " ".join(repr(val) for val in q)
                + "\n"
            )


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: expected integer, got {token!r}") from exc


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: expected number, got {token!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: expected a finite number, got {token!r}")
    return value
