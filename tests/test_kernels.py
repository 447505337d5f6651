"""The numpy kernels against closed forms and at extreme arguments."""
import numpy as np

from vampcf import kernels, metrics, training
from vampcf.data import split
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
