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

The encoder reads :class:`~dpgo.graph.PoseGraph` blocks (in the
environment, each robot's partition block) with their current
measurements: node features from ``estimates``, edge attributes from
``origin``, ``info``, the endpoints' ``timestep`` and the measurements, and
the gate's residual cue from one :func:`~dpgo.graph.se2_residuals` call.
Edges are read in the block's row order; :func:`make_batch` packs several
blocks block-diagonally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def edge_attribute_matrix(g: PoseGraph, meas: np.ndarray) -> np.ndarray:
    """(E, EDGE_DIM) rows of ``g``'s edges with measurements ``meas``: origin
    one-hot (4), log information diagonal (3), timestep separation (1),
    translation magnitude (1), sin/cos of the measured angle (2)."""
    attr = np.zeros((g.num_edges, EDGE_DIM))
    attr[np.arange(g.num_edges), g.origin] = 1.0
    attr[:, 4:7] = np.log(g.info.diagonal(axis1=1, axis2=2))
    attr[:, 7] = np.abs(g.timestep[g.e_from] - g.timestep[g.e_to])
    attr[:, 8] = np.hypot(meas[:, 0], meas[:, 1])
    attr[:, 9] = np.sin(meas[:, 2])
    attr[:, 10] = np.cos(meas[:, 2])
    return attr


@dataclass
class GraphBatch:
    """Several graphs packed block-diagonally into one graph."""

    node_feat: np.ndarray  # (sum N, NODE_DIM)
    edge_to: np.ndarray  # (sum E,) into the packed node array
    attr: np.ndarray  # (sum E, EDGE_DIM), see edge_attribute_matrix
    res: np.ndarray  # (sum E, 3) edge residuals (dtheta, dx, dy) at the estimates
    agg: sp.csr_matrix  # (sum N, sum E) mean over out-edges at the source node
    pool: sp.csr_matrix  # (G, sum N) node mean per graph


def make_batch(graphs, meas_list) -> GraphBatch:
    """Pack ``PoseGraph`` blocks, each with its current (E, 3) measurements, into one batch."""
    if not graphs:
        raise ValueError("make_batch needs at least one graph")
    if len(graphs) != len(meas_list):
        raise ValueError(f"got {len(graphs)} graphs but {len(meas_list)} measurement arrays")
    sizes = np.array([g.num_vertices for g in graphs])
    offsets = np.cumsum(sizes) - sizes
    xyt = np.concatenate([g.estimates for g in graphs])
    e_from = np.concatenate([g.e_from + off for g, off in zip(graphs, offsets)])
    e_to = np.concatenate([g.e_to + off for g, off in zip(graphs, offsets)])
    meas = np.concatenate(meas_list)
    n, m = len(xyt), len(e_from)

    node_feat = np.zeros((n, NODE_DIM))
    node_feat[:, :2] = xyt[:, :2]
    node_feat[:, 2] = np.sin(xyt[:, 2])
    node_feat[:, 3] = np.cos(xyt[:, 2])
    agg = sp.csr_matrix((1.0 / np.bincount(e_from)[e_from], (e_from, np.arange(m))), shape=(n, m))
    pool_rows = np.repeat(np.arange(len(graphs)), sizes)
    pool = sp.csr_matrix((np.repeat(1.0 / sizes, sizes), (pool_rows, np.arange(n))), shape=(len(graphs), n))
    return GraphBatch(
        node_feat,
        e_to,
        np.concatenate([edge_attribute_matrix(g, q) for g, q in zip(graphs, meas_list)]),
        se2_residuals(xyt[e_from], xyt[e_to], meas),
        agg,
        pool,
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
                    gate_noise=None, gate_temp=None, prefix="enc"):
    """Run all layers; returns (node embeddings, graph latents, gates, logits)."""
    h = constant(batch.node_feat)
    attr = constant(batch.attr)
    gates = logits = None
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
        if gates is None:  # from the first layer's messages, shared by every layer
            gates, logits = gate_forward(
                params, cfg.gate, m, batch.res, batch.attr[:, 4:7], batch.attr[:, int(EdgeOrigin.INTER_LOOP)],
                noise=gate_noise, temperature=gate_temp, prefix=prefix,
            )
        masked = ad.mul(m, gates)
        agg = ad.sparse_matmul(batch.agg, masked)
        h = ad.sigmoid(
            ad.linear(ad.concat([h, agg], axis=1), params[f"{prefix}.ecc{l}.self_w"], params[f"{prefix}.ecc{l}.self_b"])
        )
    latent = ad.sparse_matmul(batch.pool, h)
    return h, latent, gates, logits


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
