import math
import tracemalloc

import numpy as np
import pytest

from dpgo.env import Action, PoseGraphEnv
from dpgo.geometry import Pose2
from dpgo.graph import Edge, EdgeOrigin, se2_residuals
from dpgo.nn import autodiff as ad
from dpgo.nn.encoder import (
    EDGE_DIM,
    NODE_DIM,
    EncoderConfig,
    GateConfig,
    edge_attribute_matrix,
    encoder_forward,
    gate_forward,
    init_encoder_params,
    init_gru_params,
    initial_memory,
    l1_gate_penalty,
    make_batch,
    memory_update,
    prune,
)
from dpgo.synth import GenSpec, generate

from conftest import edge, make_graph, rand_graph, vertex
from gradcheck import fd_gradcheck

TINY = EncoderConfig(hidden=6, n_layers=5, edge_hidden=5, gate_hidden=4)


def small_graph(rng, n=5, loops=3):
    return rand_graph(rng, n_poses=n, n_loops=loops)


def batch_of(g):
    return make_batch([g], [g.meas])


# -- edge attributes ----------------------------------------------------------


def edge_attributes(edge, timestep_gap: int) -> np.ndarray:
    """11-vector: origin one-hot (4), log information diagonal (3),
    timestep separation (1), translation magnitude (1), sin/cos of the
    measured angle (2)."""
    out = np.zeros(EDGE_DIM)
    out[int(edge.origin)] = 1.0
    out[4:7] = np.log(np.diag(np.asarray(edge.info)))
    out[7] = abs(int(timestep_gap))
    out[8] = math.hypot(edge.rel.x, edge.rel.y)
    out[9] = math.sin(edge.rel.theta)
    out[10] = math.cos(edge.rel.theta)
    return out


def test_edge_attributes_odometry_example():
    e = Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3), EdgeOrigin.ODOMETRY)
    a = edge_attributes(e, timestep_gap=1)
    assert np.allclose(a, [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1])


def test_edge_attributes_pi_angle():
    e = Edge(0, 1, Pose2(0.0, 0.0, math.pi), np.eye(3), EdgeOrigin.INTRA_LOOP)
    a = edge_attributes(e, 3)
    assert abs(a[9]) < 1e-12 and abs(a[10] + 1.0) < 1e-12


def test_edge_attributes_log_info_oracle():
    e = Edge(0, 1, Pose2(0, 0, 0), np.diag([4.0, 4.0, 4.0]), EdgeOrigin.INTER_LOOP)
    a = edge_attributes(e, 2)
    assert np.allclose(a[4:7], [math.log(4.0)] * 3)
    assert a[3] == 1.0  # inter-loop one-hot slot


def test_attribute_matrix_matches_single_edge(rng):
    g = small_graph(rng)
    attr = edge_attribute_matrix(g, g.meas)
    for row, e in zip(attr, g.edges):
        gap = abs(g.vertices[e.from_id].timestep - g.vertices[e.to_id].timestep)
        assert np.allclose(row, edge_attributes(e, gap))
    assert np.allclose(attr[:, 9] ** 2 + attr[:, 10] ** 2, 1.0, atol=1e-9)


# -- gates --------------------------------------------------------------------


def rand_gate_params(rng, d_msg=6, hidden=4):
    cfg = EncoderConfig(hidden=d_msg, n_layers=1, gate_hidden=hidden)
    return init_encoder_params(cfg, rng), cfg


def test_gate_stretch_clip_fixed_points(rng):
    # drive u to 0 / 0.5 / 1 through the logit and check the stretch-clip stage
    params, cfg = rand_gate_params(rng)
    e = 3
    msg = ad.constant(np.zeros((e, 6)))
    res, li = np.zeros((e, 3)), np.zeros((e, 3))
    # logit -> +-inf saturates u; alpha = 0 with deterministic eps gives u = 0.5
    for key in ("enc.gate.w1", "enc.gate.b1", "enc.gate.w2"):
        params[key].data[:] = 0.0
    for target, want in [(-1e9, 0.0), (0.0, 0.5), (1e9, 1.0)]:
        params["enc.gate.b2"].data[:] = target
        z, logit = gate_forward(params, cfg.gate, msg, res, li, np.zeros(e))
        if want in (0.0, 1.0):
            assert np.all(z.data == want)
        else:
            assert np.abs(z.data - want).max() <= 1e-15  # one rounding of the affine map


def test_gate_range_random(rng):
    params, cfg = rand_gate_params(rng)
    e = 2000
    msg = ad.constant(rng.standard_normal((e, 6)))
    z, _ = gate_forward(
        params, cfg.gate, msg, rng.standard_normal((e, 3)), rng.standard_normal((e, 3)),
        rng.integers(0, 2, e).astype(float), noise=rng.uniform(0, 1, e),
        temperature=float(rng.uniform(0.1, 2.0)),
    )
    assert z.data.min() >= 0.0 and z.data.max() <= 1.0


def test_gate_hard_concrete_limit(rng):
    params, cfg = rand_gate_params(rng)
    for key in ("enc.gate.w1", "enc.gate.b1", "enc.gate.w2"):
        params[key].data[:] = 0.0
    for alpha in (-5.0, -1.1, 1.1, 5.0):
        params["enc.gate.b2"].data[:] = alpha
        z, _ = gate_forward(
            params, cfg.gate, ad.constant(np.zeros((1, 6))), np.zeros((1, 3)),
            np.zeros((1, 3)), np.zeros(1), temperature=1e-3,
        )
        assert z.data[0, 0] in (0.0, 1.0)
        assert z.data[0, 0] == (1.0 if alpha > 0 else 0.0)


def test_gate_temperature_limit_with_noise(rng):
    params, cfg = rand_gate_params(rng)
    for key in ("enc.gate.w1", "enc.gate.b1", "enc.gate.w2"):
        params[key].data[:] = 0.0
    params["enc.gate.b2"].data[:] = 0.8
    eps = np.array([0.05, 0.9])  # logit(eps) = -2.94, +2.20
    z, _ = gate_forward(
        params, cfg.gate, ad.constant(np.zeros((2, 6))), np.zeros((2, 3)),
        np.zeros((2, 3)), np.zeros(2), noise=eps, temperature=1e-4,
    )
    assert z.data[0, 0] == 0.0  # 0.8 + logit(0.05) < 0
    assert z.data[1, 0] == 1.0  # 0.8 + logit(0.9) > 0


def test_interloop_bias_shifts_logit(rng):
    params, cfg = rand_gate_params(rng)
    msg = ad.constant(np.zeros((2, 6)))
    res, li = np.zeros((2, 3)), np.zeros((2, 3))
    _, logit = gate_forward(params, cfg.gate, msg, res, li, np.array([0.0, 1.0]))
    assert abs((logit.data[1, 0] - logit.data[0, 0]) - cfg.gate.interloop_bias) < 1e-12


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(stretch_lo=0.1)
    with pytest.raises(ValueError):
        GateConfig(temperature=0.0)


# -- forward pass vs naive oracle ----------------------------------------------


def naive_forward(params, cfg, g, meas, gates):
    """Independent per-edge/per-node loop implementation over the graph ``g``."""

    def mlp_edge(l, a):
        h = np.tanh(params[f"enc.ecc{l}.edge_w1"].data @ a + params[f"enc.ecc{l}.edge_b1"].data)
        return params[f"enc.ecc{l}.edge_w2"].data @ h + params[f"enc.ecc{l}.edge_b2"].data

    attr = edge_attribute_matrix(g, meas)
    h = np.zeros((g.num_vertices, NODE_DIM))
    for p, (x, y, theta) in enumerate(g.estimates):
        h[p, :4] = x, y, math.sin(theta), math.cos(theta)
    dims = cfg.layer_dims
    for l in range(cfg.n_layers):
        d_in, d_out = dims[l], dims[l + 1]
        msgs = [[] for _ in range(g.num_vertices)]
        for e in range(g.num_edges):
            w = mlp_edge(l, attr[e]).reshape(d_out, d_in)
            m = gates[e] * (w @ h[g.e_to[e]])
            msgs[g.e_from[e]].append(m)
        h_next = np.zeros((g.num_vertices, d_out))
        for p in range(g.num_vertices):
            mbar = np.mean(msgs[p], axis=0) if msgs[p] else np.zeros(d_out)
            pre = params[f"enc.ecc{l}.self_w"].data @ np.concatenate([h[p], mbar])
            h_next[p] = 1.0 / (1.0 + np.exp(-(pre + params[f"enc.ecc{l}.self_b"].data)))
        h = h_next
    return h, h.mean(axis=0)


def test_ecc_forward_matches_naive_oracle(rng):
    g = small_graph(rng, n=5, loops=4)
    params = init_encoder_params(TINY, rng)
    params["enc.gate.b2"].data[:] = 0.0  # some gates strictly between 0 and 1 scale their messages
    h, latent, gates, _ = encoder_forward(params, TINY, batch_of(g), gate_noise=rng.uniform(size=g.num_edges))
    assert ((0.0 < gates.data) & (gates.data < 1.0)).sum() >= g.num_edges // 2
    h_o, lat_o = naive_forward(params, TINY, g, g.meas, gates.data[:, 0])
    assert np.abs(h.data - h_o).max() < 1e-10
    assert np.abs(latent.data[0] - lat_o).max() < 1e-10


def test_all_zero_gates_use_only_self_path(rng):
    g = small_graph(rng)
    params = init_encoder_params(TINY, rng)
    params["enc.gate.b2"].data[:] = -1e9
    h, latent_zero, gates, _ = encoder_forward(params, TINY, batch_of(g))
    assert np.all(gates.data == 0.0)
    h_o, lat_o = naive_forward(params, TINY, g, g.meas, gates.data[:, 0])
    assert np.abs(h.data - h_o).max() < 1e-10
    # rewiring the measurements must not matter when every message is masked
    meas2 = g.meas + rng.normal(0, 1, g.meas.shape)
    _, latent_zero2, gates2, _ = encoder_forward(params, TINY, make_batch([g], [meas2]))
    assert np.all(gates2.data == 0.0)
    assert np.abs(latent_zero.data - latent_zero2.data).max() < 1e-12


def test_batch_of_three_graphs_matches_single_forwards(rng):
    graphs = [small_graph(rng, n=n, loops=k) for n, k in ((5, 2), (8, 6), (4, 1))]
    params = init_encoder_params(TINY, rng)
    batch = make_batch(graphs, [g.meas for g in graphs])
    noise = rng.uniform(size=sum(g.num_edges for g in graphs))
    h, latent, gates, _ = encoder_forward(params, TINY, batch, gate_noise=noise)
    assert latent.data.shape == (3, TINY.hidden)
    node0 = edge0 = 0
    for k, g in enumerate(graphs):
        nodes, edges = slice(node0, node0 + g.num_vertices), slice(edge0, edge0 + g.num_edges)
        h1, latent1, gates1, _ = encoder_forward(params, TINY, batch_of(g), gate_noise=noise[edges])
        assert np.abs(h.data[nodes] - h1.data).max() < 1e-12
        assert np.abs(latent.data[k] - latent1.data[0]).max() < 1e-12
        assert np.abs(gates.data[edges] - gates1.data).max() < 1e-12
        node0, edge0 = nodes.stop, edges.stop


def test_env_blocks_feed_the_encoder(rng):
    env = PoseGraphEnv(generate(GenSpec(n_robots=3, poses_per_robot=6, seed=2)), 3)
    obs = env.reset()
    for _ in range(3):
        actions = [Action(int(np.flatnonzero(o.mask)[0]), rng.uniform(-0.1, 0.1, 3)) for o in obs]
        obs, _, _, _ = env.step(actions)
    assert all(o.snapshot is sub for o, sub in zip(obs, env.part.subgraphs))
    params = init_encoder_params(TINY, rng)
    batch = make_batch([o.snapshot for o in obs], [o.meas for o in obs])
    h, latent, gates, _ = encoder_forward(params, TINY, batch, gate_noise=rng.uniform(size=batch.attr.shape[0]))
    node0 = edge0 = 0
    for k, o in enumerate(obs):
        g = o.snapshot
        assert not np.array_equal(o.meas, g.meas)  # the corrections are read, not the block's originals
        h_o, lat_o = naive_forward(params, TINY, g, o.meas, gates.data[edge0:edge0 + g.num_edges, 0])
        assert np.abs(h.data[node0:node0 + g.num_vertices] - h_o).max() < 1e-10
        assert np.abs(latent.data[k] - lat_o).max() < 1e-10
        node0, edge0 = node0 + g.num_vertices, edge0 + g.num_edges


def test_single_node_graph(rng):
    g = make_graph([vertex(0, estimate=Pose2(1.0, -2.0, 0.3))])
    batch = batch_of(g)
    params = init_encoder_params(TINY, rng)
    h, latent, gates, _ = encoder_forward(params, TINY, batch)
    assert h.data.shape == (1, TINY.hidden)
    assert np.allclose(latent.data[0], h.data[0])


def test_make_batch_rejects_empty_or_mismatched_input(rng):
    g = small_graph(rng)
    with pytest.raises(ValueError, match="at least one graph"):
        make_batch([], [])
    with pytest.raises(ValueError, match="2 graphs but 1 measurement"):
        make_batch([g, g], [g.meas])
    with pytest.raises(ValueError, match="1 graphs but 2 measurement"):
        make_batch([g], [g.meas, g.meas])


def test_isolated_vertex_gets_zero_message(rng):
    # last pose of a chain has no outgoing edge -> zero aggregated message
    g = make_graph(
        [vertex(i, timestep=i, estimate=Pose2(i, 0, 0)) for i in range(3)],
        [edge(0, 1, Pose2(1, 0, 0), np.eye(3), EdgeOrigin.ODOMETRY)],
    )
    agg = batch_of(g).agg
    assert agg.shape == (3, 1)
    assert agg[2].nnz == 0 and agg[1].nnz == 0


def test_edge_residuals_match_graph_edge_residual(rng):
    g = rand_graph(rng, n_poses=12, n_loops=8)
    meas = g.meas + rng.normal(0.0, 0.3, size=g.meas.shape)
    got = make_batch([g], [meas]).res
    assert got.shape == (len(g.edges), 3)
    for row, e in enumerate(g.edges):
        ends = (g.vertices[e.from_id].estimate, g.vertices[e.to_id].estimate, Pose2(*meas[row]))
        want = se2_residuals(*(np.array([p.as_vector()]) for p in ends))[0]
        assert np.abs(got[row] - want).max() < 1e-12


def test_permutation_equivariance(rng):
    g = small_graph(rng, n=7, loops=5)
    params = init_encoder_params(TINY, rng)
    h1, l1, _, _ = encoder_forward(params, TINY, batch_of(g))

    perm = rng.permutation(7)  # relabel vertex i -> perm[i]
    vertices = []
    for i in range(7):
        v = g.vertices[i]
        vertices.append(vertex(int(perm[i]), v.robot, v.timestep, v.estimate, v.truth))
    g2 = make_graph(
        vertices, [edge(int(perm[e.from_id]), int(perm[e.to_id]), e.rel, e.info, e.origin) for e in g.edges]
    )
    h2, l2, _, _ = encoder_forward(params, TINY, batch_of(g2))
    # row of vertex perm[i] in g2 equals row of vertex i in g
    for i in range(7):
        row2 = int(g2.rows_of(int(perm[i])))
        assert np.abs(h2.data[row2] - h1.data[i]).max() < 1e-10
    assert np.abs(l1.data - l2.data).max() < 1e-10


def test_full_encoder_gradients_match_fd(rng):
    g = small_graph(rng, n=6, loops=4)
    cfg = EncoderConfig(hidden=4, n_layers=5, edge_hidden=3, gate_hidden=3)
    batch = batch_of(g)
    params = init_encoder_params(cfg, rng)
    # keep every gate strictly inside (0, 1): at the clip boundary the
    # straight-through backward intentionally differs from the (zero) local
    # derivative, so the check probes the differentiable region only
    params["enc.gate.b2"].data[:] = 0.0
    params["enc.gate.w2"].data *= 0.3
    noise = rng.uniform(0.4, 0.6, g.num_edges)
    probe = ad.constant(rng.standard_normal((1, cfg.hidden)))

    def loss():
        _, latent, gates, _ = encoder_forward(params, cfg, batch, gate_noise=noise)
        return ad.add(ad.sum_(ad.mul(latent, probe)), l1_gate_penalty(gates, 1e-2))

    fd_gradcheck(params, loss, rng, coords_per_tensor=6)


def test_forward_backward_never_builds_per_edge_weight_matrices(rng):
    g = rand_graph(rng, n_poses=60, n_loops=60)
    cfg = EncoderConfig(hidden=64, n_layers=3, edge_hidden=4, gate_hidden=4)
    batch = batch_of(g)
    params = init_encoder_params(cfg, rng)
    one_weight_tensor = g.num_edges * cfg.hidden * cfg.hidden * 8  # (E, 64, 64) float64
    tracemalloc.start()
    try:
        _, latent, gates, _ = encoder_forward(params, cfg, batch, gate_noise=rng.uniform(size=g.num_edges))
        ad.add(ad.sum_(latent), l1_gate_penalty(gates, 1e-3)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak < one_weight_tensor, f"peak {peak} B vs one (E, 64, 64) tensor {one_weight_tensor} B"


# -- penalties / pruning --------------------------------------------------------


def test_l1_gate_penalty_values(rng):
    assert l1_gate_penalty(ad.constant(np.zeros((4, 1))), 1.0).data == 0.0
    assert abs(l1_gate_penalty(ad.constant(np.array([[0.5], [0.5]])), 1.0).data - 1.0) < 1e-15
    z = rng.uniform(0, 1, (17, 1))
    got = l1_gate_penalty(ad.constant(z), 0.3).data
    assert abs(got - 0.3 * np.abs(z).sum()) < 1e-12


def test_prune_thresholds(rng):
    g = small_graph(rng, n=6, loops=4)
    z = rng.uniform(0.1, 0.9, len(g.edges))
    assert len(prune(g, z, 0.0).edges) == len(g.edges)
    pruned_all = prune(g, z, 1.0 + 1e-9)
    assert all(e.origin == EdgeOrigin.ODOMETRY for e in pruned_all.edges)
    mid = prune(g, z, 0.5)
    mid_keys = {(f.from_id, f.to_id, f.rel) for f in mid.edges}
    for e, zi in zip(g.edges, z):
        kept = (e.from_id, e.to_id, e.rel) in mid_keys
        assert kept == (e.origin == EdgeOrigin.ODOMETRY or zi >= 0.5)


# -- GRU memory ------------------------------------------------------------------


def test_memory_stays_bounded(rng):
    params = init_gru_params(2, 5, 7, rng)
    mem = np.zeros((1, 2, 7))
    top, mem = memory_update(params, 2, 7, ad.constant(np.zeros((1, 5))), mem)
    assert np.all(np.abs(top.data) < 1.0)


def test_memory_converges_to_fixed_point(rng):
    params = init_gru_params(2, 5, 7, rng)
    x = ad.constant(rng.standard_normal((1, 5)))
    mem = np.zeros((1, 2, 7))
    prev = None
    for _ in range(300):
        _, mem = memory_update(params, 2, 7, x, mem)
        if prev is not None and np.abs(mem - prev).max() < 1e-12:
            break
        prev = mem.copy()
    assert np.abs(mem - prev).max() < 1e-10


def test_memory_gradients_match_fd(rng):
    params = init_gru_params(2, 4, 5, rng)
    mem = rng.uniform(-0.5, 0.5, (3, 2, 5))
    x_np = rng.standard_normal((3, 4))
    probe = ad.constant(rng.standard_normal((3, 5)))

    def loss():
        top, _ = memory_update(params, 2, 5, ad.constant(x_np), mem)
        return ad.sum_(ad.mul(top, probe))

    fd_gradcheck(params, loss, rng)


def test_initial_memory_shape():
    assert initial_memory(3, 8).shape == (3, 8)
    assert np.all(initial_memory(3, 8) == 0)
