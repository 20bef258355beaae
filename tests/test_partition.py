import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from dpgo.consensus import information_weighted_mean
from dpgo.geometry import Pose2
from dpgo.graph import EDGE_FIELDS, EdgeOrigin, adjacency, objective
from dpgo.partition import (
    DisconnectedInput,
    UnresolvedSeparator,
    _movable,
    balance_cap,
    merge,
    partition,
    partition_manifest,
)
from dpgo.synth import GenSpec, NOISE_PROFILES, generate

from conftest import edge, make_graph, rand_graph, vertex


def same_edge(a, b):
    return (a.from_id, a.to_id, a.rel, a.origin) == (b.from_id, b.to_id, b.rel, b.origin) and np.array_equal(
        a.info, b.info
    )


def recount(g, p):
    """Oracle: recount every invariant of a partition from scratch."""
    # every global edge appears in exactly one subgraph, under its from-owner
    placed = [0] * g.num_edges
    for b, gids in enumerate(p.edge_gids):
        assert len(gids) == len(p.subgraphs[b].edges)
        for gid, e in zip(gids, p.subgraphs[b].edges):
            assert same_edge(e, g.edges[gid])
            assert p.owner[e.from_id] == b
            placed[gid] += 1
    assert all(c == 1 for c in placed)
    # union of subgraph edges equals the global edge set
    assert sum(len(s.edges) for s in p.subgraphs) == g.num_edges
    # cut-edge endpoints are duplicated into both blocks and listed
    for e in g.edges:
        bu, bv = p.owner[e.from_id], p.owner[e.to_id]
        if bu != bv:
            for vid in (e.from_id, e.to_id):
                holders = set(p.separators[vid])
                assert {bu, bv} <= holders
                for b in holders:
                    assert vid in p.subgraphs[b].vertices
    # ownership covers every vertex exactly once
    assert set(p.owner) == set(g.vertices)


def separator_means(p):
    """Plain mean of each separator's copies (identity information)."""
    sep_ids = sorted(p.separators)
    groups = [s for s, vid in enumerate(sep_ids) for _ in p.separators[vid]]
    poses = [p.subgraphs[b].vertices[vid].estimate.as_vector() for vid in sep_ids for b in p.separators[vid]]
    means = information_weighted_mean(poses, [np.eye(3)] * len(poses), groups)
    return {vid: Pose2(*m) for vid, m in zip(sep_ids, means.tolist())}


def test_single_block_is_identity(rng):
    g = rand_graph(rng, n_poses=12)
    p = partition(g, 1)
    assert p.n_blocks == 1
    assert p.separators == {}
    assert len(p.subgraphs[0].edges) == g.num_edges
    assert set(p.subgraphs[0].vertices) == set(g.vertices)


def test_two_robot_chain_separators():
    vertices = [vertex(i, robot=i // 3, timestep=i % 3, estimate=Pose2(i, 0, 0)) for i in range(6)]
    edges = [edge(i, i + 1, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY) for i in (0, 1)]
    edges += [edge(i, i + 1, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY) for i in (3, 4)]
    edges.append(edge(2, 3, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.INTER_ESTIMATE))
    g = make_graph(vertices, edges)
    p = partition(g, 2, balance_tol=0.0)
    assert sorted(len(s.vertices) for s in p.subgraphs) == [4, 4]  # 3 owned + 1 duplicate
    assert set(p.separators) == {2, 3}
    recount(g, p)


def test_partition_balance_and_recount():
    g = generate(GenSpec(n_robots=2, poses_per_robot=50, seed=3, profile=NOISE_PROFILES["v1"]))
    assert g.num_vertices == 100
    p = partition(g, 4, balance_tol=0.2)
    sizes = [sum(1 for vid in g.vertices if p.owner[vid] == b) for b in range(4)]
    assert max(sizes) <= 30  # floor(1.2 * ceil(100/4))
    assert balance_cap(100, 4, 0.2) == 30
    recount(g, p)


def test_partition_blocks_internally_connected():
    g = generate(GenSpec(n_robots=3, poses_per_robot=30, seed=5))
    p = partition(g, 3)
    for b, sub in enumerate(p.subgraphs):
        owned = [vid for vid in sub.vertices if p.owner[vid] == b]
        adj = {vid: set() for vid in owned}
        for e in g.edges:
            if e.from_id in adj and e.to_id in adj:
                adj[e.from_id].add(e.to_id)
                adj[e.to_id].add(e.from_id)
        seen, stack = set(), [owned[0]]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
        assert seen == set(owned), f"block {b} not internally connected"


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14),
            st.sets(st.integers(0, n - 1), min_size=1),
            st.just(n),
        )
    )
)
def test_movable_matches_bfs_rule(case):
    edges, members, n = case
    rows, cols = (list(t) for t in zip(*edges)) if edges else ([], [])
    adj = sp.csr_matrix((np.ones(2 * len(edges)), (rows + cols, cols + rows)), shape=(n, n))
    adj.sum_duplicates()
    members = sorted(members)
    want = set()
    for u in members:
        rest = [v for v in members if v != u]
        if not rest or csgraph.connected_components(adj[rest][:, rest], directed=False)[0] == 1:
            want.add(u)
    nbrs = [adj.indices[adj.indptr[u] : adj.indptr[u + 1]].tolist() for u in range(n)]
    assert _movable(members, nbrs) == want


def owner_rows(g, p):
    return np.array([p.owner[vid] for vid in g.vids.tolist()], dtype=np.int64)


graphs = st.one_of(
    st.builds(
        lambda seed, n_poses, n_loops: rand_graph(np.random.default_rng(seed), n_poses, n_loops),
        st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(0, 30),
    ),
    st.builds(
        lambda r, p, s: generate(GenSpec(r, p, seed=s)), st.integers(1, 4), st.integers(2, 12), st.integers(0, 999)
    ),
)


@settings(max_examples=80, deadline=None, database=None)
@given(graphs, st.data())
def test_partition_and_merge_properties(g, data):
    n = data.draw(st.integers(1, min(6, g.num_vertices)), label="n")
    p = partition(g, n, balance_tol=data.draw(st.floats(0.0, 0.5), label="balance_tol"))
    recount(g, p)
    adj, owner = adjacency(g), owner_rows(g, p)
    for b in range(n):
        rows = np.flatnonzero(owner == b)
        assert csgraph.connected_components(adj[rows][:, rows], directed=False)[0] <= 1
    resolved = separator_means(p) if p.separators else {}
    m = merge(p, resolved)
    assert np.array_equal(m.vids, g.vids)
    assert all(np.array_equal(getattr(m, f), getattr(g, f)) for f in EDGE_FIELDS)
    for vid in g.vids.tolist():
        assert m.vertices[vid].estimate == resolved.get(vid, g.vertices[vid].estimate)


@pytest.mark.parametrize(
    "robots, poses, owned, held, n_separators, n_cut, digest",
    [
        (4, 60, [69, 62, 40, 69], [98, 93, 59, 80], 89, 71, "f824561335c0711c"),
        (4, 100, [114, 98, 114, 74], [165, 140, 208, 83], 167, 191, "442aeb8b9374ea58"),
        (8, 250, [287, 287, 287, 111, 287, 282, 248, 211], [386, 407, 402, 166, 305, 299, 315, 215], 430, 427,
         "32cf2891aec519a7"),
    ],
)
def test_benchmark_graph_partitions_are_pinned(robots, poses, owned, held, n_separators, n_cut, digest):
    # the benchmark's graphs: any change of assignment changes these numbers
    g = generate(GenSpec(robots, poses, seed=0))
    p = partition(g, robots)
    owner = owner_rows(g, p)
    assert np.bincount(owner, minlength=robots).tolist() == owned
    assert [s.num_vertices for s in p.subgraphs] == held
    assert len(p.separators) == n_separators
    assert int((owner[g.e_from] != owner[g.e_to]).sum()) == n_cut
    assert hashlib.sha256(owner.tobytes()).hexdigest()[:16] == digest


def test_disconnected_input_raises():
    g = make_graph(
        [vertex(i, timestep=i) for i in range(4)],
        [edge(0, 1, Pose2(1, 0, 0), np.eye(3)), edge(2, 3, Pose2(1, 0, 0), np.eye(3))],
    )
    with pytest.raises(DisconnectedInput):
        partition(g, 2)


def test_merge_roundtrip_identity(rng):
    g = rand_graph(rng, n_poses=10)
    p = partition(g, 1)
    m = merge(p, {})
    assert set(m.vertices) == set(g.vertices)
    for vid in g.vertices:
        assert m.vertices[vid].estimate == g.vertices[vid].estimate
    assert len(m.edges) == len(g.edges)
    assert all(same_edge(a, b) for a, b in zip(m.edges, g.edges))


def test_merge_requires_resolved_separators(rng):
    g = rand_graph(rng, n_poses=16)
    p = partition(g, 2)
    if not p.separators:
        pytest.skip("partition produced no separators")
    with pytest.raises(UnresolvedSeparator):
        merge(p, {})


def test_merge_preserves_counts_and_uses_resolved(rng):
    g = rand_graph(rng, n_poses=24, n_loops=10)
    p = partition(g, 3)
    resolved = separator_means(p)
    m = merge(p, resolved)
    assert m.num_vertices == g.num_vertices
    assert m.num_edges == g.num_edges
    for vid, pose in resolved.items():
        assert m.vertices[vid].estimate == pose


def test_merge_objective_matches_blockwise_oracle(rng):
    # F(merged) equals the blockwise sums plus cut-edge terms when every
    # duplicate carries the same (resolved) estimate.
    g = rand_graph(rng, n_poses=30, n_loops=12)
    p = partition(g, 3)
    resolved = separator_means(p)
    for vid, pose in resolved.items():
        for b in p.separators[vid]:
            p.subgraphs[b].vertices[vid].estimate = pose
    merged = merge(p, resolved)
    blockwise = sum(objective(sub) for sub in p.subgraphs)
    assert abs(objective(merged) - blockwise) <= 1e-9 * max(1.0, blockwise)


def test_manifest_is_json_ready(rng):
    g = rand_graph(rng, n_poses=12)
    p = partition(g, 2)
    man = partition_manifest(p)
    assert man["n_blocks"] == 2
    assert sum(man["edges_per_block"]) == g.num_edges
    import json

    json.dumps(man)
