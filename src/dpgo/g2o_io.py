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

from .graph import EdgeOrigin, GraphError, NonPSDInformation, PoseGraph

_TO_FILE = [2, 0, 1]  # internal (theta, x, y) index -> file (x, y, theta) index
_FROM_FILE = np.argsort(_TO_FILE)
_UPPER = np.triu_indices(3)  # the order of the six q-values


class ParseError(GraphError):
    pass


def load_g2o(path) -> PoseGraph:
    """Read a graph: the records are collected, then the graph is built and
    validated once, and a rejected record is reported by its line."""
    vertices, edges, lines = [], [], {"vertex": [], "edge": []}
    pending_origin = None
    pending_meta = None
    pending_truth = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "#":
                if len(tokens) >= 3 and tokens[1] == "ORIGIN":
                    pending_origin = _parse_int(tokens[2], lineno)
                elif len(tokens) >= 4 and tokens[1] == "VERTEX_META":
                    pending_meta = (_parse_int(tokens[2], lineno), _parse_int(tokens[3], lineno))
                elif len(tokens) >= 5 and tokens[1] == "VERTEX_TRUTH":
                    pending_truth = [_parse_float(t, lineno) for t in tokens[2:5]]
                continue
            if tokens[0] == "VERTEX_SE2":
                if len(tokens) != 5:
                    raise ParseError(f"line {lineno}: VERTEX_SE2 expects 4 fields")
                vid = _parse_int(tokens[1], lineno)
                robot, timestep = pending_meta if pending_meta else (0, vid)
                est = [_parse_float(t, lineno) for t in tokens[2:5]]
                vertices.append((vid, robot, timestep, est, pending_truth or [math.nan] * 3))
                lines["vertex"].append(lineno)
                pending_meta = pending_truth = None
            elif tokens[0] == "EDGE_SE2":
                if len(tokens) != 12:
                    raise ParseError(f"line {lineno}: EDGE_SE2 expects 11 fields")
                i, j = (_parse_int(t, lineno) for t in tokens[1:3])
                values = [_parse_float(t, lineno) for t in tokens[3:12]]
                edges.append([i, j, values[:3], values[3:], pending_origin])
                lines["edge"].append(lineno)
                pending_origin = None
            else:
                raise ParseError(f"line {lineno}: unknown record {tokens[0]!r}")
    if not vertices:
        raise ParseError("no VERTEX_SE2 records found")

    # untagged edges: consecutive timesteps of one robot are odometry, the rest intra-robot loops
    meta = {vid: (robot, timestep) for vid, robot, timestep, _, _ in vertices}
    for e in edges:
        if e[4] is None:
            u, v = meta.get(e[0]), meta.get(e[1])
            odometry = u is not None and v is not None and u[0] == v[0] and abs(u[1] - v[1]) == 1
            e[4] = EdgeOrigin.ODOMETRY if odometry else EdgeOrigin.INTRA_LOOP
    from_ids, to_ids, meas, qs, origins = zip(*edges) if edges else ((),) * 5
    m_file = np.empty((len(edges), 3, 3))
    m_file[:, _UPPER[0], _UPPER[1]] = m_file[:, _UPPER[1], _UPPER[0]] = np.reshape(qs, (-1, 6))
    try:
        return PoseGraph(*zip(*vertices), from_ids, to_ids, meas, m_file[:, _TO_FILE][:, :, _TO_FILE], origins)
    except GraphError as exc:
        if exc.position is None:
            raise
        kind, k = exc.position
        cls = NonPSDInformation if isinstance(exc, NonPSDInformation) else ParseError
        raise cls(f"line {lines[kind][k]}: {exc}") from exc


def save_g2o(g: PoseGraph, path) -> None:
    q = g.info[:, _FROM_FILE[_UPPER[0]], _FROM_FILE[_UPPER[1]]]
    with open(path, "w", encoding="utf-8") as fh:
        for vid, robot, timestep, est, truth in zip(
            g.vids.tolist(), g.robot.tolist(), g.timestep.tolist(), g.estimates.tolist(), g.truths.tolist()
        ):
            fh.write(f"# VERTEX_META {robot} {timestep}\n")
            if not math.isnan(truth[0]):
                fh.write(f"# VERTEX_TRUTH {truth[0]!r} {truth[1]!r} {truth[2]!r}\n")
            fh.write(f"VERTEX_SE2 {vid} {est[0]!r} {est[1]!r} {est[2]!r}\n")
        for i, j, rel, qe, origin in zip(
            g.from_ids.tolist(), g.to_ids.tolist(), g.meas.tolist(), q.tolist(), g.origin.tolist()
        ):
            fh.write(f"# ORIGIN {origin}\n")
            fh.write(f"EDGE_SE2 {i} {j} " + " ".join(repr(val) for val in rel + qe) + "\n")


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
