"""Edge-conditioned message passing with adaptive edge gating and GRU memory.

Per layer, a small MLP conditions a weight matrix on each edge's 11-d
attribute vector, and that matrix projects the target node's embedding into
a directed message (edge-conditioned convolution, Simonovsky & Komodakis
2017). The per-edge matrix stays implicit: its last linear map is folded
into the message, so ``autodiff.ecc_messages`` computes all messages as one
product of the edge-hidden (x) target-embedding outer products with the
weights, and no (E, d_out, d_in) array is ever built. Messages are scaled
by a per-edge gate in [0, 1] (a stretched-and-clipped relaxed Bernoulli
computed after the first layer's messages and shared by the remaining
layers), aggregated with a degree-normalized mean at the source node, fused
with the self embedding through a sigmoid, and mean-pooled into a graph
latent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from ..graph import EdgeOrigin, PoseGraph, se2_residuals
from . import autodiff as ad
from .autodiff import Tensor, constant

EDGE_DIM = 11
NODE_DIM = 8


@dataclass(frozen=True)
class GateConfig:
    stretch_lo: float = -0.1
    stretch_hi: float = 1.1
    temperature: float = 1.0
    final_temperature: float = 0.2
    interloop_bias: float = 1.0
    l1_weight: float = 1e-3
    inference_threshold: float = 0.5

    def __post_init__(self):
        if not (self.stretch_lo < 0.0 < 1.0 < self.stretch_hi):
            raise ValueError("stretch interval must satisfy a < 0 < 1 < b")
        if self.temperature <= 0:
            raise ValueError("gate temperature must be positive")


@dataclass(frozen=True)
class EncoderConfig:
    hidden: int = 128
    n_layers: int = 5
    edge_hidden: int = 64
    gate_hidden: int = 32
    shared_gates: bool = True  # one gate per edge, computed after layer 1
    gate: GateConfig = field(default_factory=GateConfig)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (NODE_DIM,) + (self.hidden,) * self.n_layers


def init_encoder_params(cfg: EncoderConfig, rng, prefix="enc") -> dict[str, Tensor]:
    p = {}
    dims = cfg.layer_dims
    for l in range(cfg.n_layers):
        d_in, d_out = dims[l], dims[l + 1]
        p[f"{prefix}.ecc{l}.edge_w1"] = ad.parameter(ad.glorot(rng, cfg.edge_hidden, EDGE_DIM))
        p[f"{prefix}.ecc{l}.edge_b1"] = ad.parameter(np.zeros(cfg.edge_hidden))
        p[f"{prefix}.ecc{l}.edge_w2"] = ad.parameter(ad.glorot(rng, d_out * d_in, cfg.edge_hidden))
        p[f"{prefix}.ecc{l}.edge_b2"] = ad.parameter(np.zeros(d_out * d_in))
        p[f"{prefix}.ecc{l}.self_w"] = ad.parameter(ad.glorot(rng, d_out, d_in + d_out))
        p[f"{prefix}.ecc{l}.self_b"] = ad.parameter(np.zeros(d_out))
    gate_in = dims[1] + 6
    p[f"{prefix}.gate.w1"] = ad.parameter(ad.glorot(rng, cfg.gate_hidden, gate_in))
    p[f"{prefix}.gate.b1"] = ad.parameter(np.zeros(cfg.gate_hidden))
    p[f"{prefix}.gate.w2"] = ad.parameter(ad.glorot(rng, 1, cfg.gate_hidden))
    # start trusting every edge: positive logit bias keeps gates open early on
    p[f"{prefix}.gate.b2"] = ad.parameter(np.full(1, 2.0))
    return p


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


@dataclass
class GraphSnapshot:
    """Static per-subgraph arrays; measurements and masks vary per step."""

    vertex_ids: list[int]
    node_xyt: np.ndarray  # (N, 3) estimates as (x, y, theta)
    node_feat: np.ndarray  # (N, NODE_DIM)
    edge_from: np.ndarray  # (E,) local node index of the source
    edge_to: np.ndarray  # (E,) local node index of the target
    origins: np.ndarray  # (E,) int codes
    loginfo: np.ndarray  # (E, 3) log of the information diagonal
    gaps: np.ndarray  # (E,) timestep separations
    meas0: np.ndarray  # (E, 3) initial measurements as (x, y, theta)
    agg: sp.csr_matrix  # (N, E) mean over out-edges at the source node

    @property
    def n_nodes(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_from)


def snapshot_from_graph(g: PoseGraph, edge_order=None) -> GraphSnapshot:
    """Freeze a subgraph into dense arrays.

    ``edge_order`` fixes the canonical edge ordering (e.g. global edge ids);
    aggregation sums in this order, making forward passes bit-reproducible
    under input permutations.
    """
    order = np.arange(g.num_edges) if edge_order is None else np.argsort(edge_order, kind="stable")
    node_xyt, e_from, e_to = g.estimates.copy(), g.e_from[order], g.e_to[order]
    node_feat = np.zeros((g.num_vertices, NODE_DIM))
    node_feat[:, 0] = node_xyt[:, 0]
    node_feat[:, 1] = node_xyt[:, 1]
    node_feat[:, 2] = np.sin(node_xyt[:, 2])
    node_feat[:, 3] = np.cos(node_xyt[:, 2])

    origins = g.origin[order].astype(np.intp)
    loginfo = np.log(g.info[order].diagonal(axis1=1, axis2=2))
    gaps = np.abs(g.timestep[e_from] - g.timestep[e_to]).astype(float)

    n, m = g.num_vertices, g.num_edges
    deg = np.zeros(n)
    np.add.at(deg, e_from, 1.0)
    vals = 1.0 / deg[e_from] if m else np.zeros(0)
    agg = sp.csr_matrix((vals, (e_from, np.arange(m))), shape=(n, m))
    return GraphSnapshot(g.vids.tolist(), node_xyt, node_feat, e_from, e_to, origins, loginfo, gaps, g.meas[order], agg)


def edge_residuals(snapshot: GraphSnapshot, meas: np.ndarray) -> np.ndarray:
    """(E, 3) residuals (dtheta, dx, dy) of measurements vs node estimates."""
    xyt = snapshot.node_xyt
    return se2_residuals(xyt[snapshot.edge_from], xyt[snapshot.edge_to], meas)


def edge_attribute_matrix(snapshot: GraphSnapshot, meas: np.ndarray) -> np.ndarray:
    attr = np.zeros((snapshot.n_edges, EDGE_DIM))
    attr[np.arange(snapshot.n_edges), snapshot.origins] = 1.0
    attr[:, 4:7] = snapshot.loginfo
    attr[:, 7] = snapshot.gaps
    attr[:, 8] = np.hypot(meas[:, 0], meas[:, 1])
    attr[:, 9] = np.sin(meas[:, 2])
    attr[:, 10] = np.cos(meas[:, 2])
    return attr


@dataclass
class GraphBatch:
    """Several snapshots packed block-diagonally into one graph."""

    node_feat: np.ndarray
    edge_to: np.ndarray  # into the packed node array
    attr: np.ndarray
    res: np.ndarray
    loginfo: np.ndarray
    interloop: np.ndarray  # (E,) 1.0 where origin is an inter-robot loop closure
    agg: sp.csr_matrix  # (sum N, sum E)
    pool: sp.csr_matrix  # (G, sum N) node mean per graph
    edge_pool: sp.csr_matrix  # (G, sum E) edge sum per graph
    edge_slices: list[tuple[int, int]]
    n_graphs: int


def make_batch(snapshots, meas_list) -> GraphBatch:
    """Pack snapshots, each with its current (E, 3) measurements, into one batch."""
    if not snapshots:
        raise ValueError("make_batch needs at least one snapshot")
    if len(snapshots) != len(meas_list):
        raise ValueError(
            f"got {len(snapshots)} snapshots but {len(meas_list)} measurement arrays"
        )
    node_feats, attrs, ress, loginfos, inters = [], [], [], [], []
    aggs, edge_to = [], []
    node_off = 0
    edge_slices = []
    edge_off = 0
    for snap, meas in zip(snapshots, meas_list):
        node_feats.append(snap.node_feat)
        attrs.append(edge_attribute_matrix(snap, meas))
        ress.append(edge_residuals(snap, meas))
        loginfos.append(snap.loginfo)
        inters.append((snap.origins == int(EdgeOrigin.INTER_LOOP)).astype(float))
        aggs.append(snap.agg)
        edge_to.append(snap.edge_to + node_off)
        edge_slices.append((edge_off, edge_off + snap.n_edges))
        node_off += snap.n_nodes
        edge_off += snap.n_edges

    g = len(snapshots)
    node_feat = np.concatenate(node_feats, axis=0)
    agg = sp.block_diag(aggs, format="csr")
    n_nodes = [s.n_nodes for s in snapshots]
    rows = np.repeat(np.arange(g), n_nodes)
    pool_vals = np.concatenate([np.full(k, 1.0 / k) for k in n_nodes])
    pool = sp.csr_matrix((pool_vals, (rows, np.arange(node_feat.shape[0]))), shape=(g, node_feat.shape[0]))
    n_edges = [s.n_edges for s in snapshots]
    erows = np.repeat(np.arange(g), n_edges)
    total_e = int(sum(n_edges))
    edge_pool = sp.csr_matrix((np.ones(total_e), (erows, np.arange(total_e))), shape=(g, total_e))
    return GraphBatch(
        node_feat,
        np.concatenate(edge_to),
        np.concatenate(attrs, axis=0),
        np.concatenate(ress, axis=0),
        np.concatenate(loginfos, axis=0),
        np.concatenate(inters),
        agg,
        pool,
        edge_pool,
        edge_slices,
        g,
    )


def gate_forward(params, gate_cfg: GateConfig, messages, residuals, loginfo, interloop,
                 noise=None, temperature=None, prefix="enc"):
    """Per-edge gate in [0, 1] from the directed message and consistency cues.

    ``noise`` is the uniform sample of the relaxed Bernoulli; ``None`` means
    deterministic evaluation (the median, eps = 0.5). Returns (z, logit).
    """
    tau = gate_cfg.temperature if temperature is None else temperature
    s = ad.concat([messages, constant(residuals), constant(loginfo)], axis=1)
    hidden = ad.tanh(ad.linear(s, params[f"{prefix}.gate.w1"], params[f"{prefix}.gate.b1"]))
    logit = ad.linear(hidden, params[f"{prefix}.gate.w2"], params[f"{prefix}.gate.b2"])
    logit = ad.add(logit, constant(gate_cfg.interloop_bias * np.asarray(interloop)[:, None]))
    if noise is None:
        shifted = logit
    else:
        eps = np.clip(np.asarray(noise), 1e-12, 1.0 - 1e-12)[:, None]
        shifted = ad.add(logit, constant(np.log(eps) - np.log1p(-eps)))
    u = ad.sigmoid(ad.mul(shifted, 1.0 / tau))
    span = gate_cfg.stretch_hi - gate_cfg.stretch_lo
    z = ad.clip_straight_through(ad.add(ad.mul(u, span), gate_cfg.stretch_lo), 0.0, 1.0)
    return z, logit


def encoder_forward(params, cfg: EncoderConfig, batch: GraphBatch, *,
                    gate_noise=None, gate_temp=None, gates_override=None, prefix="enc"):
    """Run all layers; returns (node embeddings, graph latents, gates, logits)."""
    h = constant(batch.node_feat)
    gates = None
    logits = None
    if gates_override is not None:
        z = np.asarray(gates_override, dtype=float).reshape(-1, 1)
        gates = constant(z)
    attr = constant(batch.attr)
    dims = cfg.layer_dims
    for l in range(cfg.n_layers):
        d_out = dims[l + 1]
        e_hidden = ad.tanh(
            ad.linear(attr, params[f"{prefix}.ecc{l}.edge_w1"], params[f"{prefix}.ecc{l}.edge_b1"])
        )
        m = ad.ecc_messages(
            e_hidden, ad.gather_rows(h, batch.edge_to),
            params[f"{prefix}.ecc{l}.edge_w2"], params[f"{prefix}.ecc{l}.edge_b2"], d_out,
        )
        if gates is None and (l == 0 or not cfg.shared_gates):
            gates, logits = gate_forward(
                params, cfg.gate, m, batch.res, batch.loginfo, batch.interloop,
                noise=gate_noise, temperature=gate_temp, prefix=prefix,
            )
        masked = ad.mul(m, gates)
        agg = ad.sparse_matmul(batch.agg, masked)
        h = ad.sigmoid(
            ad.linear(ad.concat([h, agg], axis=1), params[f"{prefix}.ecc{l}.self_w"], params[f"{prefix}.ecc{l}.self_b"])
        )
    latent = ad.sparse_matmul(batch.pool, h)
    return h, latent, gates, logits


def ecc_forward(params, cfg: EncoderConfig, batch: GraphBatch, gates, prefix="enc"):
    """Message passing with externally supplied per-edge gate values."""
    h, latent, _, _ = encoder_forward(params, cfg, batch, gates_override=gates, prefix=prefix)
    return h, latent


def l1_gate_penalty(gates, weight: float):
    """weight * sum |z|; added to the actor loss to encourage sparsity."""
    return ad.mul(ad.sum_(ad.abs_(gates)), weight)


def prune(g: PoseGraph, gates, threshold: float) -> PoseGraph:
    """Drop non-odometry edges whose gate falls below the threshold."""
    gates = np.asarray(gates, dtype=float).reshape(-1)
    if gates.shape[0] != g.num_edges:
        raise ValueError("need one gate value per edge")
    return g.subgraph(slice(None), (g.origin == EdgeOrigin.ODOMETRY) | (gates >= threshold))


# -- GRU memory stack ---------------------------------------------------------


def init_gru_params(n_layers: int, input_dim: int, hidden_dim: int, rng, prefix="gru") -> dict:
    p = {}
    d_in = input_dim
    for k in range(n_layers):
        p[f"{prefix}{k}.w_ih"] = ad.parameter(ad.glorot(rng, 3 * hidden_dim, d_in))
        p[f"{prefix}{k}.b_ih"] = ad.parameter(np.zeros(3 * hidden_dim))
        p[f"{prefix}{k}.w_hh"] = ad.parameter(ad.glorot(rng, 3 * hidden_dim, hidden_dim))
        p[f"{prefix}{k}.b_hh"] = ad.parameter(np.zeros(3 * hidden_dim))
        d_in = hidden_dim
    return p


def initial_memory(n_layers: int, hidden_dim: int) -> np.ndarray:
    return np.zeros((n_layers, hidden_dim))


def gru_cell(params, key: str, x, h, hidden_dim: int):
    gx = ad.linear(x, params[f"{key}.w_ih"], params[f"{key}.b_ih"])
    gh = ad.linear(h, params[f"{key}.w_hh"], params[f"{key}.b_hh"])
    r = ad.sigmoid(ad.add(ad.narrow(gx, 1, 0, hidden_dim), ad.narrow(gh, 1, 0, hidden_dim)))
    z = ad.sigmoid(ad.add(ad.narrow(gx, 1, hidden_dim, hidden_dim), ad.narrow(gh, 1, hidden_dim, hidden_dim)))
    n = ad.tanh(
        ad.add(
            ad.narrow(gx, 1, 2 * hidden_dim, hidden_dim),
            ad.mul(r, ad.narrow(gh, 1, 2 * hidden_dim, hidden_dim)),
        )
    )
    return ad.add(n, ad.mul(z, ad.sub(h, n)))


def memory_update(params, n_layers: int, hidden_dim: int, x, memory, prefix="gru"):
    """Advance the stacked GRU memory.

    ``memory`` is (G, K, hidden) numpy (replayable state). Returns the top
    hidden tensor and the refreshed memory as numpy.
    """
    memory = np.asarray(memory, dtype=float)
    inp = x
    new_layers = []
    for k in range(n_layers):
        h = constant(memory[:, k, :])
        out = gru_cell(params, f"{prefix}{k}", inp, h, hidden_dim)
        new_layers.append(out)
        inp = out
    new_mem = np.stack([t.data for t in new_layers], axis=1)
    return inp, new_mem
