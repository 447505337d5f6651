"""The numpy kernels against closed forms and at extreme arguments."""
import tracemalloc

import numpy as np
import pytest

from vampcf import kernels, metrics, training
from vampcf.data import split
from vampcf.errors import ConfigError, ShapeError
from vampcf.model import ModelConfig, init_params
from vampcf.synthetic import archetype_interactions
from vampcf.training import TrainConfig
from perfbench.spans import KERNELS, Tracer

RNG = np.random.default_rng(123)


def test_every_traced_kernel_is_callable():
    for name in KERNELS:
        assert callable(getattr(kernels, name)), name


def test_tracer_installs_and_uninstalls():
    # The traced benchmark wraps names on vampcf's modules by attribute;
    # install() raises AttributeError if a refactor dropped one of them.
    # A traced evaluate and a traced one-epoch train must then run through
    # the wrappers, whose hooks read the batch's data, rows and shape.
    ds = split(archetype_interactions(n_users=60, n_items=30, n_archetypes=2,
                                      seed=1, min_items=6, max_items=10),
               n_heldout_users=8, seed=1)
    mc = ModelConfig(n_items=ds.n_items, prior="vamp", hierarchy="two_level",
                     hidden=8, d_z1=4, d_z2=4, n_pseudo=3)
    params = init_params(mc, np.random.default_rng(0))
    tc = TrainConfig(batch_size=16, max_epochs=1, seed=0, eval_metric="ndcg@10")
    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        tracer.enabled = True
        metrics.evaluate(ds.test_users, params, ks=[5, 10])
        training.train(ds, mc, tc)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert len(patched) > len(KERNELS)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    names = {s[1] for s in tracer.spans}
    for name in ("metrics.evaluate", "model.score_items", "training.train",
                 "model.elbo", "training.adam_step", "training.validation",
                 "model.vamp_log_density", "model.init_params"):
        assert name in names, name
    c = tracer.counts
    assert c["steps_completed"] == c["steps_attempted"] == 3
    assert c["elbo_rows"] == len(ds.train_users)
    assert 0 < c["input_nnz"] <= c["input_size"]


def test_sigmoid_matches_closed_form():
    x = np.linspace(-30.0, 30.0, 6001).reshape(1, -1)
    np.testing.assert_allclose(kernels.sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                               rtol=0.0, atol=1e-15)


def test_sigmoid_extreme_arguments():
    x = np.array([[-800.0, -40.0, 0.0, 40.0, 800.0]])
    y = kernels.sigmoid(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[0, 2], 0.5, atol=1e-15)
    assert y[0, 0] == 0.0 and y[0, 4] == 1.0


def test_softplus_extreme_arguments():
    x = np.array([[-800.0, 0.0, 800.0]])
    y = kernels.softplus(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[0, 1], np.log(2.0), atol=1e-15)
    np.testing.assert_allclose(y[0, 2], 800.0, atol=1e-12)


def test_softplus_bwd_is_sigmoid_times_upstream():
    x = RNG.uniform(-30.0, 30.0, size=(5, 9))
    g = RNG.standard_normal(x.shape)
    np.testing.assert_allclose(kernels.softplus_bwd(x, g), g / (1.0 + np.exp(-x)),
                               rtol=1e-13, atol=1e-15)


def test_l2_normalize_zero_row_has_unit_inverse():
    x = RNG.standard_normal((6, 4))
    x[2] = 0.0
    y, inv = kernels.l2_normalize_rows(x)
    assert inv[2, 0] == 1.0 and np.all(y[2] == 0.0)
    np.testing.assert_allclose(np.linalg.norm(np.delete(y, 2, axis=0), axis=1), 1.0,
                               rtol=1e-14)


def _row_kernel_inputs():
    """Rows with an all-zero row, entries of +-700 and ordinary values, and
    an upstream gradient both full and broadcast from one column, as the
    backward of a row sum passes it."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 3.0, size=(5, 9))
    x[1] = 0.0
    x[2, [0, 4]] = 700.0, -700.0
    x[3, :] = -700.0
    x[4, 5] = 700.0
    g = rng.standard_normal(x.shape)
    g[1] = 0.0
    g_col = np.broadcast_to(rng.standard_normal((5, 1)), x.shape)
    return x, g, g_col


# The whole-array expressions each row kernel replaced with a single result
# buffer; they must agree bit for bit.
def _old_log_softmax_rows(x):
    m = np.max(x, axis=1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def _old_logsumexp_rows(x):
    m = np.max(x, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))


def _old_l2_normalize_rows_bwd(y, inv, g):
    dot = np.sum(g * y, axis=1, keepdims=True)
    return inv * (g - y * dot)


@pytest.mark.parametrize("upstream", ["full", "broadcast"])
def test_row_kernels_match_their_whole_array_expressions(upstream):
    x, g, g_col = _row_kernel_inputs()
    g = g if upstream == "full" else g_col
    y = kernels.log_softmax_rows(x)
    assert np.array_equal(y, _old_log_softmax_rows(x))
    lse = kernels.logsumexp_rows(x)
    assert np.array_equal(lse, _old_logsumexp_rows(x))
    assert np.array_equal(kernels.logsumexp_rows_bwd(x, lse, g[:, :1]),
                          np.exp(x - lse) * g[:, :1])
    assert np.array_equal(kernels.log_softmax_rows_bwd(y, g),
                          g - np.exp(y) * np.sum(g, axis=1, keepdims=True))
    _, inv = kernels.l2_normalize_rows(x)
    assert np.array_equal(kernels.l2_normalize_rows_bwd(x, inv, g),
                          _old_l2_normalize_rows_bwd(x, inv, g))
    s = kernels.sigmoid(x)
    assert np.array_equal(kernels.sigmoid_bwd(s, g), g * s * (1.0 - s))
    assert np.array_equal(kernels.sigmoid_bwd(x, g), g * x * (1.0 - x))
    t = np.tanh(x)
    assert np.array_equal(kernels.tanh_bwd(t, g), g * (1.0 - t * t))
    assert np.array_equal(kernels.tanh_bwd(x, g), g * (1.0 - x * x))


def test_row_kernels_leave_their_inputs_alone():
    x, g, _ = _row_kernel_inputs()
    x0, g0 = x.copy(), g.copy()
    y = kernels.log_softmax_rows(x)
    lse = kernels.logsumexp_rows(x)
    kernels.logsumexp_rows_bwd(x, lse, g[:, :1])
    kernels.log_softmax_rows_bwd(y, g)
    kernels.l2_normalize_rows_bwd(x, lse, g)
    kernels.sigmoid_bwd(x, g)
    kernels.tanh_bwd(x, g)
    assert np.array_equal(x, x0) and np.array_equal(g, g0)


def test_adam_update_matches_textbook_formula():
    shape = (4, 3)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = RNG.standard_normal(shape)
    m = np.zeros(shape)
    v = np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    for t in range(1, 6):
        g = RNG.standard_normal(shape)
        kernels.adam_update(p, g, m, v, t, lr, b1, b2, eps)
        m_ref = b1 * m_ref + (1.0 - b1) * g
        v_ref = b2 * v_ref + (1.0 - b2) * g ** 2
        m_hat = m_ref / (1.0 - b1 ** t)
        v_hat = v_ref / (1.0 - b2 ** t)
        p_ref = p_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(p, p_ref, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(m, m_ref, rtol=1e-13)
    np.testing.assert_allclose(v, v_ref, rtol=1e-13)


def adam_whole_array(p, g, m, v, t, lr, beta1, beta2, eps):
    """The whole-array update that the blocked kernel must match bit for bit."""
    tmp = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    np.divide(v, 1.0 - beta2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, tmp, out=tmp)
    tmp *= lr / (1.0 - beta1 ** t)
    p -= tmp


@pytest.mark.parametrize("shape", [
    (1, kernels.ADAM_BLOCK - 1), (1, kernels.ADAM_BLOCK),
    (1, kernels.ADAM_BLOCK + 1), (1, 1), (3, kernels.ADAM_BLOCK // 2 + 7)])
def test_blocked_adam_is_bit_identical_to_whole_array(shape):
    rng = np.random.default_rng(7)
    p = rng.standard_normal(shape)
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    for t in range(1, 6):
        g = rng.standard_normal(shape)
        kernels.adam_update(p, g, m, v, t, 1e-3, 0.9, 0.999, 1e-8)
        adam_whole_array(p_ref, g, m_ref, v_ref, t, 1e-3, 0.9, 0.999, 1e-8)
    assert np.array_equal(p, p_ref)
    assert np.array_equal(m, m_ref)
    assert np.array_equal(v, v_ref)


def test_adam_reads_a_gradient_of_any_layout():
    shape = (70, 900)
    rng = np.random.default_rng(8)
    p = rng.standard_normal(shape)
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    g_t = rng.standard_normal(shape[::-1]).T   # a transposed, F-ordered view
    kernels.adam_update(p, g_t, m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
    adam_whole_array(p_ref, np.ascontiguousarray(g_t), m_ref, v_ref, 1,
                     1e-3, 0.9, 0.999, 1e-8)
    assert np.array_equal(p, p_ref)
    assert np.array_equal(m, m_ref)
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("which", ["p", "m", "v"])
def test_adam_rejects_a_state_array_that_is_not_c_contiguous(which):
    # reshape(-1) of such an array is a copy, so its update would be lost.
    arrays = {"p": np.ones((4, 6)), "m": np.zeros((4, 6)), "v": np.zeros((4, 6))}
    arrays[which] = np.zeros((6, 4)).T
    before = {n: a.copy() for n, a in arrays.items()}
    with pytest.raises(ConfigError, match=f"{which} must be C-contiguous"):
        kernels.adam_update(arrays["p"], np.ones((4, 6)), arrays["m"],
                            arrays["v"], 1, 1e-3, 0.9, 0.999, 1e-8)
    for n, a in arrays.items():
        assert np.array_equal(a, before[n]), n


def test_adam_rejects_a_gradient_of_another_shape():
    p, m, v = np.ones((4, 6)), np.zeros((4, 6)), np.zeros((4, 6))
    with pytest.raises(ShapeError, match="shapes differ"):
        kernels.adam_update(p, np.ones((6, 4)), m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
    assert np.array_equal(p, np.ones((4, 6)))


def test_adam_update_holds_no_gradient_sized_scratch():
    # A whole-array update allocates one scratch array the size of the
    # gradient (9.2 MB here); the blocked one needs a single block.
    shape = (2000, 600)
    rng = np.random.default_rng(9)
    p, g = rng.standard_normal(shape), rng.standard_normal(shape)
    m, v = np.zeros(shape), np.zeros(shape)
    tracemalloc.start()
    try:
        kernels.adam_update(p, g, m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2**20:.2f} MB"
