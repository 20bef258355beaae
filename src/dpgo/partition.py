"""Balanced k-way pose-graph partitioning with separator duplication.

Multilevel scheme: coarsen by heavy-edge matching, greedily split the
coarsest graph, then uncoarsen with boundary Kernighan-Lin refinement that
minimizes the number of cut edges under a vertex-count balance cap. A repair
pass keeps every block internally connected.

Edge ownership: a cut edge is assigned to the block owning its ``from``
endpoint. Both endpoints of a cut edge are duplicated into the other
endpoint's block and recorded as separators.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2, wrap_angle  # noqa: F401  perfbench counts wrap_angle calls per importing module
from .graph import EDGE_FIELDS, VERTEX_FIELDS, GraphError, PoseGraph, adjacency, components, is_connected


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


def _heavy_edge_matching(nodes, adj, weights):
    matched = {}
    for u in sorted(nodes):
        if u in matched:
            continue
        best, best_w = None, -1.0
        for v, w in sorted(adj[u].items()):
            if v in matched or v == u:
                continue
            if w > best_w:
                best, best_w = v, w
        if best is not None:
            matched[u] = best
            matched[best] = u
    return matched


def _coarsen(nodes, adj, weights):
    matched = _heavy_edge_matching(nodes, adj, weights)
    mapping = {}
    coarse_weights = {}
    for u in sorted(nodes):
        if u in mapping:
            continue
        partner = matched.get(u)
        cid = len(coarse_weights)
        mapping[u] = cid
        coarse_weights[cid] = weights[u]
        if partner is not None and partner not in mapping:
            mapping[partner] = cid
            coarse_weights[cid] += weights[partner]
    coarse_adj: dict[int, dict[int, float]] = {c: {} for c in coarse_weights}
    for u in nodes:
        cu = mapping[u]
        for v, w in adj[u].items():
            cv = mapping[v]
            if cu != cv:
                coarse_adj[cu][cv] = coarse_adj[cu].get(cv, 0.0) + w
    return mapping, list(coarse_weights), coarse_adj, coarse_weights


def _bfs_order(nodes, adj):
    order, seen = [], set()
    for root in sorted(nodes):
        if root in seen:
            continue
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if u in seen:
                continue
            seen.add(u)
            order.append(u)
            for v in sorted(adj[u]):
                if v not in seen:
                    queue.append(v)
    return order


def _initial_split(nodes, adj, weights, n, cap):
    order = _bfs_order(nodes, adj)
    total = sum(weights[u] for u in nodes)
    target = total / n
    assign = {}
    block, acc = 0, 0.0
    for u in order:
        if block < n - 1 and acc + weights[u] > target and acc > 0:
            block += 1
            acc = 0.0
        assign[u] = block
        acc += weights[u]
    return assign


def _block_sizes(assign, weights, n):
    sizes = [0.0] * n
    for u, b in assign.items():
        sizes[b] += weights[u]
    return sizes


def _refine(assign, adj, weights, n, cap, passes=6):
    """Boundary moves that reduce cut weight subject to the balance cap."""
    sizes = _block_sizes(assign, weights, n)
    for _ in range(passes):
        moved = 0
        for u in sorted(assign):
            bu = assign[u]
            if sizes[bu] - weights[u] <= 0:
                continue  # never empty a block
            conn = defaultdict(float)
            for v, w in adj[u].items():
                conn[assign[v]] += w
            best_b, best_gain = bu, 0.0
            for b, w in sorted(conn.items()):
                if b == bu or sizes[b] + weights[u] > cap:
                    continue
                gain = w - conn.get(bu, 0.0)
                if gain > best_gain:
                    best_b, best_gain = b, gain
            if best_b != bu:
                sizes[bu] -= weights[u]
                sizes[best_b] += weights[u]
                assign[u] = best_b
                moved += 1
        if moved == 0:
            break
    return assign


def _repair_connectivity(assign, adj, n):
    """Merge orphan components into the neighboring block with most cut edges."""
    for _ in range(n * 4):
        changed = False
        for b in range(n):
            members = sorted(u for u, blk in assign.items() if blk == b)
            if not members:
                continue
            comps = components(members, adj)
            if len(comps) <= 1:
                continue
            comps.sort(key=len, reverse=True)
            for comp in comps[1:]:
                counts = defaultdict(float)
                for u in comp:
                    for v, w in adj[u].items():
                        if assign[v] != b:
                            counts[assign[v]] += w
                target = max(sorted(counts), key=lambda k: counts[k]) if counts else b
                if target != b:
                    for u in comp:
                        assign[u] = target
                    changed = True
        if not changed:
            return assign
    return assign


def _movable(members, adj) -> set:
    """The members whose removal leaves the rest of ``members`` connected or
    empty, from one pass of Tarjan's articulation points (iterative DFS) over
    the subgraph they induce.

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
        stack = [(root, None, iter(adj[root]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if v not in inside or v == u or v == parent:
                    continue
                if v in disc:
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                else:
                    disc[v] = low[v] = len(disc)
                    stack.append((v, u, iter(adj[v])))
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


def _rebalance_connected(assign, adj, weights, n, cap):
    """Shrink oversized blocks by moving boundary vertices whose removal keeps
    the source block connected."""
    sizes = _block_sizes(assign, weights, n)
    for _ in range(len(assign)):
        over = [b for b in range(n) if sizes[b] > cap]
        if not over:
            return assign
        b = max(over, key=lambda k: sizes[k])
        members = sorted(u for u, blk in assign.items() if blk == b)
        moved = False
        candidates = []
        for u in members:
            conn = defaultdict(float)
            for v, w in adj[u].items():
                if assign[v] != b:
                    conn[assign[v]] += w
            if conn:
                tb = max(sorted(conn), key=lambda k: conn[k])
                candidates.append((-(conn[tb]), u, tb))
        movable = _movable(members, adj)
        for _, u, tb in sorted(candidates):
            if sizes[tb] + weights[u] > cap or u not in movable:
                continue
            assign[u] = tb
            sizes[b] -= weights[u]
            sizes[tb] += weights[u]
            moved = True
            break
        if not moved:
            return assign
    return assign


def balance_cap(num_vertices: int, n: int, balance_tol: float) -> int:
    return max(int(math.floor((1.0 + balance_tol) * math.ceil(num_vertices / n))), math.ceil(num_vertices / n))


def partition(g: PoseGraph, n: int, balance_tol: float = 0.15) -> Partition:
    """Split g into n blocks; duplicates separator vertices across blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > g.num_vertices:
        raise ValueError("more blocks than vertices")
    adj = adjacency(g)
    if not is_connected(adj):
        raise DisconnectedInput("input pose graph is not connected")

    vids = g.vids.tolist()
    if n == 1:
        assign = {vid: 0 for vid in vids}
    else:
        weights = {vid: 1.0 for vid in vids}
        levels = [(vids, adj, weights, None)]
        nodes, cur_adj, cur_w = levels[0][0], adj, weights
        while len(nodes) > max(20, 4 * n):
            mapping, cnodes, cadj, cw = _coarsen(nodes, cur_adj, cur_w)
            if len(cnodes) >= len(nodes):
                break
            levels.append((cnodes, cadj, cw, mapping))
            nodes, cur_adj, cur_w = cnodes, cadj, cw
        cap = balance_cap(g.num_vertices, n, balance_tol)
        assign = _initial_split(nodes, cur_adj, cur_w, n, cap)
        assign = _refine(assign, cur_adj, cur_w, n, cap)
        for lvl in range(len(levels) - 1, 0, -1):
            mapping = levels[lvl][3]
            fine_nodes, fine_adj, fine_w, _ = levels[lvl - 1]
            assign = {u: assign[mapping[u]] for u in fine_nodes}
            assign = _refine(assign, fine_adj, fine_w, n, cap)
        assign = _repair_connectivity(assign, adj, n)
        assign = _rebalance_connected(assign, adj, {vid: 1.0 for vid in vids}, n, cap)

    return _build_partition(g, assign, n)


def _build_partition(g: PoseGraph, assign: dict[int, int], n: int) -> Partition:
    owner = np.array([assign[vid] for vid in g.vids.tolist()], dtype=np.intp)
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
    return Partition(subgraphs, dict(assign), separators, edge_gids)


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
