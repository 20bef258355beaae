"""Tape-based reverse-mode autodiff over numpy arrays.

Deliberately small: only the operators this project's networks need
(affine maps, fused edge-conditioned messages ``ecc_messages`` with a
hand-written backward, row gather and aggregation by a constant sparse
matrix, elementwise add/sub/mul and sigmoid/tanh/exp/log/abs,
concatenation, narrowing, sums, a masked log-softmax, and a clip with a
straight-through backward). Everything runs in float64.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (pure numpy forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, parents=(), bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Reverse sweep from this tensor (scalar unless a seed is given)."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen and (p._parents or p.requires_grad):
                        stack.append((p, False))
        self._accum(seed)
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)
            if not node.requires_grad:
                node.grad = None  # free intermediate grads eagerly

def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _tracked(*tensors):
    return _GRAD_ENABLED and any(
        t.requires_grad or t._parents for t in tensors if isinstance(t, Tensor)
    )


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, bwd):
    if not _tracked(*parents):
        return Tensor(data)
    return Tensor(data, parents=parents, bwd=bwd)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data + b.data, (a, b), None)
    if out._parents:
        def bwd(g):
            a._accum(_unbroadcast(g, a.data.shape))
            b._accum(_unbroadcast(g, b.data.shape))
        out._bwd = bwd
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data - b.data, (a, b), None)
    if out._parents:
        def bwd(g):
            a._accum(_unbroadcast(g, a.data.shape))
            b._accum(-_unbroadcast(g, b.data.shape))
        out._bwd = bwd
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data * b.data, (a, b), None)
    if out._parents:
        def bwd(g):
            a._accum(_unbroadcast(g * b.data, a.data.shape))
            b._accum(_unbroadcast(g * a.data, b.data.shape))
        out._bwd = bwd
    return out


def linear(x, w, bias=None):
    """x @ w.T (+ bias). w is (out, in); x is (..., in)."""
    x, w = as_tensor(x), as_tensor(w)
    data = x.data @ w.data.T
    if bias is not None:
        bias = as_tensor(bias)
        data = data + bias.data
        parents = (x, w, bias)
    else:
        parents = (x, w)
    out = _make(data, parents, None)
    if out._parents:
        def bwd(g):
            x._accum(g @ w.data)
            gw = g.reshape(-1, g.shape[-1]).T @ x.data.reshape(-1, x.data.shape[-1])
            w._accum(gw)
            if bias is not None:
                bias._accum(g.reshape(-1, g.shape[-1]).sum(axis=0))
        out._bwd = bwd
    return out


def ecc_messages(z, h_to, w2, b2, d_out):
    """Edge-conditioned messages without materializing per-edge weights.

    Edge e's weight matrix is ``reshape(w2 @ z[e] + b2, (d_out, d_in))`` and
    its message is that matrix times ``h_to[e]``. Because row ``o*d_in + i``
    of ``w2`` holds ``W[o, i, :]``, the messages of all edges are one GEMM
    over the outer products ``h_to[e] (x) z[e]`` plus ``h_to @ B.T``:
    z is (E, K), h_to is (E, d_in), w2 is (d_out*d_in, K), b2 is
    (d_out*d_in,); the result is (E, d_out). The backward recomputes the
    outer products instead of keeping them on the tape.
    """
    z, h_to, w2, b2 = as_tensor(z), as_tensor(h_to), as_tensor(w2), as_tensor(b2)
    n_e, k = z.data.shape
    d_in = h_to.data.shape[1]
    w = w2.data.reshape(d_out, d_in * k)
    b = b2.data.reshape(d_out, d_in)

    def outer():
        return (h_to.data[:, :, None] * z.data[:, None, :]).reshape(n_e, d_in * k)

    out = _make(outer() @ w.T + h_to.data @ b.T, (z, h_to, w2, b2), None)
    if out._parents:
        def bwd(g):
            w2._accum((g.T @ outer()).reshape(w2.data.shape))
            b2._accum((g.T @ h_to.data).reshape(b2.data.shape))
            go = (g @ w).reshape(n_e, d_in, k)
            z._accum(np.einsum("eik,ei->ek", go, h_to.data))
            h_to._accum(np.einsum("eik,ek->ei", go, z.data) + g @ b)
        out._bwd = bwd
    return out


def gather_rows(x, idx):
    """Row gather x[idx]; backward scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    out = _make(x.data[idx], (x,), None)
    if out._parents:
        def bwd(g):
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accum(gx)
        out._bwd = bwd
    return out


def sparse_matmul(s, x):
    """s @ x with a constant scipy sparse matrix s; backward uses s.T."""
    x = as_tensor(x)
    st = s.T.tocsr()
    out = _make(s @ x.data, (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(st @ g)
    return out


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), None)
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                t._accum(piece)
        out._bwd = bwd
    return out


def narrow(x, axis, start, length):
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = _make(x.data[sl], (x,), None)
    if out._parents:
        def bwd(g):
            gx = np.zeros_like(x.data)
            gx[sl] = g
            x._accum(gx)
        out._bwd = bwd
    return out


def sum_(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), None)
    if out._parents:
        def bwd(g):
            if axis is None:
                x._accum(np.broadcast_to(g, x.data.shape))
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                x._accum(np.broadcast_to(ge, x.data.shape))
        out._bwd = bwd
    return out


def sigmoid(x):
    x = as_tensor(x)
    y = np.empty_like(x.data)
    pos = x.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = _make(y, (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g * y * (1.0 - y))
    return out


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = _make(y, (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g * (1.0 - y * y))
    return out


def exp(x):
    x = as_tensor(x)
    y = np.exp(x.data)
    out = _make(y, (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g * y)
    return out


def log(x):
    x = as_tensor(x)
    out = _make(np.log(x.data), (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g / x.data)
    return out


def abs_(x):
    x = as_tensor(x)
    out = _make(np.abs(x.data), (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g * np.sign(x.data))
    return out


def clip_straight_through(x, lo, hi):
    """Forward clip; backward passes the gradient through unchanged."""
    x = as_tensor(x)
    out = _make(np.clip(x.data, lo, hi), (x,), None)
    if out._parents:
        out._bwd = lambda g: x._accum(g)
    return out


def masked_log_softmax(scores, mask):
    """Log-softmax over the last axis with a {0,1} validity mask.

    Masked entries receive a -1e9 logit; their probability underflows to
    exactly zero and no gradient flows through them.
    """
    scores = as_tensor(scores)
    mask = np.asarray(mask, dtype=np.float64)
    bias = constant((1.0 - mask) * -1e9)
    shifted = add(scores, bias)
    m = constant(shifted.data.max(axis=-1, keepdims=True))
    centered = sub(shifted, m)
    lse = log(sum_(exp(centered), axis=-1, keepdims=True))
    return sub(centered, lse)


# -- parameter utilities ----------------------------------------------------


def glorot(rng, fan_out, fan_in, gain=1.0) -> np.ndarray:
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))
