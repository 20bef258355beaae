"""Balanced k-way pose-graph partitioning with separator duplication.

Multilevel scheme (Karypis & Kumar, SIAM J. Sci. Comput. 1998) on the one
symmetric CSR adjacency over vertex rows of :func:`dpgo.graph.adjacency`,
whose entries count parallel edges: coarsen by heavy-edge matching, greedily
split the coarsest graph in breadth-first order, then uncoarsen with boundary
Kernighan-Lin refinement that minimizes the cut weight under a vertex-count
balance cap. Repair passes keep every block internally connected. A level is a
CSR matrix, a vertex-weight array and the array mapping its rows to the
coarser level's; an assignment is an array of block ids over rows.

Edge ownership: a cut edge is assigned to the block owning its ``from``
endpoint. Both endpoints of a cut edge are duplicated into the other
endpoint's block and recorded as separators.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .geometry import Pose2, wrap_angle  # noqa: F401  perfbench counts wrap_angle calls per importing module
from .graph import EDGE_FIELDS, VERTEX_FIELDS, GraphError, PoseGraph, adjacency, is_connected


class DisconnectedInput(GraphError):
    pass


class UnresolvedSeparator(GraphError):
    pass


@dataclass
class Partition:
    subgraphs: list[PoseGraph]
    owner: dict[int, int]
    # separator vertex id -> sorted indices of the blocks holding a copy of
    # it; subgraphs reuse the global vertex numbering.
    separators: dict[int, list[int]]
    # per subgraph, the global edge index of each local edge (same order, increasing)
    edge_gids: list[np.ndarray] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.subgraphs)


def _coarsen(adj, weights):
    """One level of heavy-edge matching. Returns the coarse row of each row,
    the coarse adjacency ``P^T A P`` without its diagonal (P maps rows to
    coarse rows) and the coarse vertex weights.

    Rows are visited in order; an unmatched row pairs with its first unmatched
    neighbour of largest weight. A pair's coarse row follows its smaller row.
    """
    ptr, idx, val = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
    mate = list(range(len(weights)))
    for u in range(len(mate)):
        if mate[u] != u:
            continue
        best, best_w = u, -1.0
        for k in range(ptr[u], ptr[u + 1]):
            if mate[idx[k]] == idx[k] and val[k] > best_w:
                best, best_w = idx[k], val[k]
        mate[u], mate[best] = best, u
    _, mapping = np.unique(np.minimum(np.arange(len(mate)), mate), return_inverse=True)
    nc = int(mapping.max()) + 1
    a = adj.tocoo()
    r, c = mapping[a.row], mapping[a.col]
    off = r != c
    coarse = sp.csr_matrix((a.data[off], (r[off], c[off])), shape=(nc, nc))
    coarse.sum_duplicates()
    return mapping, coarse, np.bincount(mapping, weights, nc)


def _initial_split(adj, weights, n):
    """Fill blocks 0, 1, ... with rows in breadth-first order from row 0."""
    target = weights.sum() / n
    assign = np.zeros(len(weights), dtype=np.intp)
    block, acc = 0, 0.0
    for u in csgraph.breadth_first_order(adj, 0, directed=True, return_predecessors=False).tolist():
        if block < n - 1 and acc + weights[u] > target and acc > 0:
            block += 1
            acc = 0.0
        assign[u] = block
        acc += weights[u]
    return assign


def _refine(assign, adj, weights, n, cap, passes=6):
    """Boundary moves that reduce cut weight subject to the balance cap."""
    sizes = np.bincount(assign, weights, n).tolist()
    assign, w = assign.tolist(), weights.tolist()
    ptr, idx, val = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
    for _ in range(passes):
        moved = 0
        for u, bu in enumerate(assign):
            if sizes[bu] - w[u] <= 0:
                continue  # never empty a block
            conn = {}
            for k in range(ptr[u], ptr[u + 1]):
                conn[assign[idx[k]]] = conn.get(assign[idx[k]], 0.0) + val[k]
            best_b, best_gain = bu, 0.0
            for b, cw in sorted(conn.items()):
                gain = cw - conn.get(bu, 0.0)
                if b != bu and sizes[b] + w[u] <= cap and gain > best_gain:
                    best_b, best_gain = b, gain
            if best_b != bu:
                sizes[bu] -= w[u]
                sizes[best_b] += w[u]
                assign[u] = best_b
                moved += 1
        if moved == 0:
            break
    return np.array(assign, dtype=np.intp)


def _cut_weights(adj, assign, rows, b, n) -> np.ndarray:
    """(len(rows), n): the weight of the edges from each of ``rows`` into
    each block other than ``b``, in one pass over their CSR rows."""
    start, lens = adj.indptr[rows], np.diff(adj.indptr)[rows]
    pos = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - start, lens)
    blk = assign[adj.indices[pos]]
    out = blk != b
    key = np.repeat(np.arange(len(rows)), lens)[out] * n + blk[out]
    return np.bincount(key, adj.data[pos][out], len(rows) * n).reshape(len(rows), n)


def _repair_connectivity(assign, adj, n):
    """Move each orphan component, largest first, into the neighbouring block
    with most edges to it, in place."""
    for _ in range(n * 4):
        changed = False
        for b in range(n):
            members = np.flatnonzero(assign == b)
            _, labels = csgraph.connected_components(adj[members][:, members], directed=False)
            # labels number the components in the order of their smallest row,
            # which the stable sort keeps among components of equal size
            for comp in np.argsort(-np.bincount(labels), kind="stable")[1:]:
                rows = members[labels == comp]
                assign[rows] = _cut_weights(adj, assign, rows, b, n).sum(axis=0).argmax()
                changed = True
        if not changed:
            return


def _movable(members, nbrs) -> set:
    """The members whose removal leaves the rest of ``members`` connected or
    empty, from one pass of Tarjan's articulation points (iterative DFS) over
    the subgraph they induce. ``nbrs[u]`` lists the neighbour rows of row u.

    In one component, those are the vertices that are no articulation point.
    With two components, only a singleton component's vertex can leave; with
    more, none can.
    """
    inside = set(members)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    cut = set()
    n_comps, singletons = 0, set()
    for root in members:
        if root in disc:
            continue
        start = len(disc)
        disc[root] = low[root] = start
        root_children = 0
        stack = [(root, None, iter(nbrs[root]))]
        while stack:
            u, parent, it = stack[-1]
            for v in it:
                if v not in inside or v == u or v == parent:
                    continue
                if v in disc:
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                else:
                    disc[v] = low[v] = len(disc)
                    stack.append((v, u, iter(nbrs[v])))
                    break
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent is not None:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    elif low[u] >= disc[parent]:
                        cut.add(parent)
        if root_children > 1:
            cut.add(root)
        n_comps += 1
        if len(disc) == start + 1:
            singletons.add(root)
    if n_comps == 1:
        return inside - cut
    return singletons if n_comps == 2 else set()


def _rebalance_connected(assign, adj, n, cap):
    """Shrink oversized blocks, in place, by moving boundary vertices whose
    removal keeps the source block connected: by most edges to their target
    block (the smallest id among the best), then by row."""
    sizes = np.bincount(assign, minlength=n)
    idx = adj.indices.tolist()
    nbrs = [idx[a:b] for a, b in zip(adj.indptr[:-1].tolist(), adj.indptr[1:].tolist())]
    for _ in range(len(assign)):
        b = int(sizes.argmax())
        if sizes[b] <= cap:
            return
        members = np.flatnonzero(assign == b)
        cut = _cut_weights(adj, assign, members, b, n)
        target = cut.argmax(axis=1)
        weight = cut[np.arange(len(members)), target]
        cands = np.flatnonzero((weight > 0) & (sizes[target] < cap))
        movable = _movable(members.tolist(), nbrs)
        k = next((k for k in cands[np.argsort(-weight[cands], kind="stable")] if members[k] in movable), None)
        if k is None:
            return
        assign[members[k]] = target[k]
        sizes[b] -= 1
        sizes[target[k]] += 1


def balance_cap(num_vertices: int, n: int, balance_tol: float) -> int:
    return max(int(math.floor((1.0 + balance_tol) * math.ceil(num_vertices / n))), math.ceil(num_vertices / n))


def partition(g: PoseGraph, n: int, balance_tol: float = 0.15) -> Partition:
    """Split g into n blocks; duplicates separator vertices across blocks."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > g.num_vertices:
        raise ValueError("more blocks than vertices")
    adj = adjacency(g)
    if not is_connected(adj):
        raise DisconnectedInput("input pose graph is not connected")

    cap = balance_cap(g.num_vertices, n, balance_tol)
    levels = []  # (adjacency, vertex weights, mapping to the next coarser level's rows)
    cur, weights = adj, np.ones(g.num_vertices)
    while cur.shape[0] > max(20, 4 * n):
        mapping, coarse, coarse_weights = _coarsen(cur, weights)
        if coarse.shape[0] >= cur.shape[0]:
            break
        levels.append((cur, weights, mapping))
        cur, weights = coarse, coarse_weights
    assign = _refine(_initial_split(cur, weights, n), cur, weights, n, cap)
    for fine, fine_weights, mapping in reversed(levels):
        assign = _refine(assign[mapping], fine, fine_weights, n, cap)
    _repair_connectivity(assign, adj, n)
    _rebalance_connected(assign, adj, n, cap)
    return _build_partition(g, assign, n)


def _build_partition(g: PoseGraph, owner: np.ndarray, n: int) -> Partition:
    b_from, b_to = owner[g.e_from], owner[g.e_to]
    cut = b_from != b_to
    # holds[v, b]: block b has a copy of vertex row v
    holds = np.zeros((g.num_vertices, n), dtype=bool)
    holds[np.arange(g.num_vertices), owner] = True
    for rows in (g.e_from[cut], g.e_to[cut]):
        holds[rows, b_from[cut]] = holds[rows, b_to[cut]] = True
    edge_gids = [np.flatnonzero(b_from == b) for b in range(n)]
    subgraphs = [g.subgraph(holds[:, b], gids) for b, gids in enumerate(edge_gids)]
    separators = {
        int(g.vids[v]): np.flatnonzero(holds[v]).tolist() for v in np.flatnonzero(holds.sum(axis=1) > 1)
    }
    return Partition(subgraphs, dict(zip(g.vids.tolist(), owner.tolist())), separators, edge_gids)


def merge(p: Partition, resolved: dict[int, Pose2]) -> PoseGraph:
    """Collapse duplicated vertices and reassemble the global graph.

    Separator vertices take the resolved pose; owned vertices keep their
    owner's estimate. Edges are restored in global index order.
    """
    for vid in p.separators:
        if vid not in resolved:
            raise UnresolvedSeparator(f"separator vertex {vid} has no resolved pose")

    owned = [np.array([p.owner[v] == b for v in sub.vids.tolist()], dtype=bool) for b, sub in enumerate(p.subgraphs)]
    vertices = {f: np.concatenate([getattr(s, f)[own] for s, own in zip(p.subgraphs, owned)]) for f in VERTEX_FIELDS}
    sep = np.flatnonzero(np.isin(vertices["vids"], list(p.separators)))
    poses = [resolved[vid].as_vector() for vid in vertices["vids"][sep].tolist()]
    vertices["estimates"][sep] = np.reshape(poses, (-1, 3))
    order = np.argsort(np.concatenate([np.asarray(gids, dtype=np.intp) for gids in p.edge_gids]), kind="stable")
    edges = {f: np.concatenate([getattr(sub, f) for sub in p.subgraphs])[order] for f in EDGE_FIELDS}
    return PoseGraph(**vertices, **edges)


def partition_manifest(p: Partition) -> dict:
    """JSON-serializable description (block membership + separator list)."""
    return {
        "n_blocks": p.n_blocks,
        "owner": {str(vid): b for vid, b in sorted(p.owner.items())},
        "separators": {str(vid): list(blocks) for vid, blocks in sorted(p.separators.items())},
        "edges_per_block": [len(gids) for gids in p.edge_gids],
    }
