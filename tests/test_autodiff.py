import numpy as np
import scipy.sparse as sp

from dpgo.nn import autodiff as ad

from gradcheck import fd_gradcheck


def _params(rng, **shapes):
    return {k: ad.parameter(rng.standard_normal(s)) for k, s in shapes.items()}


def test_add_mul_broadcast_grads(rng):
    p = _params(rng, a=(4, 3), b=(3,), c=(4, 1))

    def loss():
        return ad.sum_(ad.mul(ad.add(p["a"], p["b"]), p["c"]))

    fd_gradcheck(p, loss, rng)


def test_linear_and_matmul_grads(rng):
    p = _params(rng, x=(5, 4), w=(3, 4), b=(3,), m=(2, 3))

    def loss():
        y = ad.linear(ad.linear(p["x"], p["w"], p["b"]), p["m"])
        return ad.sum_(ad.mul(y, y))

    fd_gradcheck(p, loss, rng)


# edges, edge-hidden width, input and output widths: all different
E, K, D_IN, D_OUT = 7, 5, 3, 4


def test_ecc_messages_grads(rng):
    p = _params(rng, z=(E, K), h=(E, D_IN), w2=(D_OUT * D_IN, K), b2=(D_OUT * D_IN,))

    def loss():
        return ad.sum_(ad.tanh(ad.ecc_messages(p["z"], p["h"], p["w2"], p["b2"], D_OUT)))

    fd_gradcheck(p, loss, rng)


def test_ecc_messages_matches_dense_oracle(rng):
    z, h = rng.standard_normal((E, K)), rng.standard_normal((E, D_IN))
    w2, b2 = rng.standard_normal((D_OUT * D_IN, K)), rng.standard_normal(D_OUT * D_IN)
    got = ad.ecc_messages(z, h, w2, b2, D_OUT).data
    assert got.shape == (E, D_OUT)
    for e in range(E):
        want = (w2 @ z[e] + b2).reshape(D_OUT, D_IN) @ h[e]
        assert np.abs(got[e] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_gather_and_sparse_grads(rng):
    idx = np.array([0, 2, 2, 1, 3])
    s = sp.csr_matrix(rng.random((3, 5)))
    p = _params(rng, x=(4, 3))

    def loss():
        rows = ad.gather_rows(p["x"], idx)
        return ad.sum_(ad.sigmoid(ad.sparse_matmul(s, rows)))

    fd_gradcheck(p, loss, rng)


def test_elementwise_grads(rng):
    p = {"x": ad.parameter(rng.uniform(0.2, 2.0, size=(4, 4)))}

    def loss():
        x = p["x"]
        return ad.sum_(
            ad.add(
                ad.add(ad.log(x), ad.exp(ad.mul(x, -0.3))),
                ad.add(ad.tanh(x), ad.abs_(ad.sub(x, 1.0))),
            )
        )

    fd_gradcheck(p, loss, rng)


def test_concat_narrow_sum_grads(rng):
    p = _params(rng, a=(3, 2), b=(3, 4))

    def loss():
        c = ad.concat([p["a"], p["b"]], axis=1)
        left = ad.narrow(c, 1, 0, 3)
        return ad.sum_(ad.mul(ad.sum_(ad.mul(left, left), axis=0, keepdims=True), 1.0 / 9))

    fd_gradcheck(p, loss, rng)


def test_clip_straight_through_passes_gradient():
    x = ad.parameter(np.array([-0.5, 0.5, 1.5]))
    y = ad.sum_(ad.clip_straight_through(x, 0.0, 1.0))
    assert np.array_equal(y.data, 0.0 + 0.5 + 1.0)
    y.backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_masked_log_softmax_probabilities(rng):
    scores = ad.parameter(rng.standard_normal((2, 5)))
    mask = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 0, 0]], dtype=float)
    ls = ad.masked_log_softmax(scores, mask)
    probs = np.exp(ls.data) * mask
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(np.exp(ls.data)[mask == 0] < 1e-300)  # masked entries underflow to 0
    # single valid entry -> probability one, log-prob zero
    assert abs(ls.data[1, 0]) < 1e-12


def test_masked_log_softmax_grads(rng):
    mask = np.array([[1, 1, 0, 1], [1, 1, 1, 0]], dtype=float)
    p = _params(rng, s=(2, 4))

    def loss():
        ls = ad.masked_log_softmax(p["s"], mask)
        return ad.sum_(ad.mul(ls, ad.constant(mask)))

    fd_gradcheck(p, loss, rng)


def test_no_grad_builds_no_tape(rng):
    x = ad.parameter(rng.standard_normal(3))
    with ad.no_grad():
        y = ad.sum_(ad.mul(x, x))
    assert y._parents == ()
    assert y._bwd is None


def test_diamond_graph_accumulates():
    x = ad.parameter(np.array([2.0]))
    a = ad.mul(x, 3.0)
    b = ad.mul(x, 4.0)
    ad.sum_(ad.add(a, b)).backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    try:
        ad.add(x, 1.0).backward()
        raised = False
    except ValueError:
        raised = True
    assert raised
