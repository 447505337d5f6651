"""Oracles for the model machinery: layers, densities, divergences, ELBO.

Expected values fall in three buckets: hand-derived closed forms, independent
numpy re-implementations (Monte Carlo, trapezoid integration, per-component
mixture sums), and exact structural identities. Nothing is compared against
the implementation's own output.
"""
import copy
import math

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf import model as M
from vampcf.data import CSRMatrix
from vampcf.errors import ConfigError, ShapeError
from vampcf.gridcheck import (TOLERANCE, check_cell, grid_cells, run_grid,
                              tiny_config)

LOG_2PI = math.log(2.0 * math.pi)


def mat(a):
    return ad.constant(np.asarray(a, dtype=np.float64))


def csr(a):
    return CSRMatrix.from_dense(np.asarray(a, dtype=np.float64))


def tiny_cfg(**kw):
    base = dict(n_items=6, hidden=5, depth=1, d_z1=3, d_z2=3, n_pseudo=2,
                prior="standard", hierarchy="flat", likelihood="multinomial",
                gated=True)
    base.update(kw)
    return M.ModelConfig(**base)


def zero_params(cfg, seed=0):
    params = M.init_params(cfg, np.random.default_rng(seed))
    for p in params.named_parameters().values():
        p.data[:] = 0.0
    return params


def normal_logpdf(z, mean, log_var):
    """Independent diagonal-Gaussian log-density, summed over the last axis."""
    z, mean, log_var = np.asarray(z), np.asarray(mean), np.asarray(log_var)
    return -0.5 * np.sum(LOG_2PI + log_var + (z - mean) ** 2 / np.exp(log_var),
                         axis=-1)


def random_binary(rng, n, m):
    x = (rng.random((n, m)) < 0.4).astype(np.float64)
    for r in range(n):
        if x[r].sum() == 0:
            x[r, rng.integers(m)] = 1.0
    return x


class TestModelConfig:
    def test_two_level_requires_vamp(self):
        with pytest.raises(ConfigError):
            tiny_cfg(hierarchy="two_level", prior="standard")

    def test_unknown_prior_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(prior="mixture")

    def test_vamp_needs_pseudo_inputs(self):
        with pytest.raises(ConfigError):
            tiny_cfg(prior="vamp", n_pseudo=0)

    @pytest.mark.parametrize("kw", [{"depth": 1.5}, {"hidden": True},
                                    {"n_items": "6"}, {"gated": "no"},
                                    {"gated": 1}])
    def test_mistyped_field_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            tiny_cfg(**kw)

    def test_numpy_integer_size_is_stored_as_int(self):
        cfg = tiny_cfg(n_items=np.int64(6))
        assert type(cfg.n_items) is int

    def test_named_parameters_ordering_stable(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        a = M.init_params(cfg, np.random.default_rng(1))
        b = M.init_params(cfg, np.random.default_rng(2))
        assert list(a.named_parameters()) == list(b.named_parameters())

    def test_ungated_has_no_gate_parameters(self):
        cfg = tiny_cfg(gated=False)
        params = M.init_params(cfg, np.random.default_rng(0))
        names = params.named_parameters()
        assert not any(n.endswith((".V", ".c")) for n in names)
        assert names["encoder_z2.0.W"].shape == (cfg.n_items, cfg.hidden)
        assert names["decoder.0.b"].shape == (1, cfg.hidden)

    def test_gated_layers_and_heads_hold_two_column_blocks(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        names = M.init_params(cfg, np.random.default_rng(0)).named_parameters()
        h, d1, d2 = cfg.hidden, cfg.d_z1, cfg.d_z2
        assert names["encoder_z2.0.W"].shape == (cfg.n_items, 2 * h)
        assert names["encoder_z1.0.W"].shape == (cfg.n_items + d2, 2 * h)
        assert names["encoder_z1.0.b"].shape == (1, 2 * h)
        assert names["head_z2.W"].shape == (h, 2 * d2)
        assert names["head_z1.b"].shape == (1, 2 * d1)
        assert names["head_out.W"].shape == (h, cfg.n_items)
        assert all(n == "pseudo_inputs" or n.endswith((".W", ".b")) for n in names)

    def test_standard_prior_has_no_pseudo_inputs(self):
        params = M.init_params(tiny_cfg(prior="standard"), np.random.default_rng(0))
        assert params.pseudo_inputs is None
        assert "pseudo_inputs" not in params.named_parameters()

    @pytest.mark.parametrize("gated", [True, False])
    def test_fused_init_blocks_are_consecutive_glorot_draws(self, gated):
        """Each column block is the Glorot draw the separate W/V (or
        mean/log_var) tensors took, in the same order."""
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level", gated=gated,
                       n_items=7, hidden=5, d_z1=3, d_z2=4)
        params = M.init_params(cfg, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        gate = 2 if gated else 1

        def draws(fan_in, fan_out, blocks):
            std = math.sqrt(2.0 / (fan_in + fan_out))
            return [rng.normal(0.0, std, size=(fan_in, fan_out)) for _ in range(blocks)]

        h = cfg.hidden
        expected = [
            ("encoder_z2.0.W", draws(cfg.n_items, h, gate)),
            ("head_z2.W", draws(h, cfg.d_z2, 2)),
            ("decoder.0.W", draws(cfg.d_z1 + cfg.d_z2, h, gate)),
            ("head_out.W", draws(h, cfg.n_items, 1)),
            ("encoder_z1.0.W", draws(cfg.n_items + cfg.d_z2, h, gate)),
            ("head_z1.W", draws(h, cfg.d_z1, 2)),
            ("prior_z1.0.W", draws(cfg.d_z2, h, gate)),
            ("prior_z1_head.W", draws(h, cfg.d_z1, 2)),
        ]
        named = params.named_parameters()
        for name, blocks in expected:
            width = blocks[0].shape[1]
            for k, block in enumerate(blocks):
                got = named[name].data[:, k * width:(k + 1) * width]
                assert np.array_equal(got, block), (name, k)
        for name, m in named.items():
            if name.endswith(".b"):
                assert not m.data.any(), name


def gated_params(W, V, b, c):
    """A gated layer's fused ``[W|V]`` weight and ``[b|c]`` bias."""
    return M.LinearParams(W=mat(np.hstack([W, V])), b=mat(np.hstack([b, c])))


class TestGatedLayer:
    def test_scalar_half_gate(self):
        p = gated_params([[1.0]], [[0.0]], [[0.0]], [[0.0]])
        out = M.gated_layer(mat([[1.0]]), p, True)
        assert out.data == pytest.approx(0.5, abs=1e-15)

    def test_saturated_gate_is_linear_path(self):
        rng = np.random.default_rng(3)
        x = mat(rng.normal(size=(4, 5)))
        W, b = rng.normal(size=(5, 7)), rng.normal(size=(1, 7))
        p = gated_params(W, np.zeros((5, 7)), b, np.full((1, 7), 50.0))
        linear = x.data @ W + b
        assert np.max(np.abs(M.gated_layer(x, p, True).data - linear)) < 1e-8

    def test_suppressed_gate_kills_output(self):
        rng = np.random.default_rng(4)
        x = mat(rng.normal(size=(4, 5)))
        W, b = rng.normal(size=(5, 7)), rng.normal(size=(1, 7))
        p = gated_params(W, np.zeros((5, 7)), b, np.full((1, 7), -50.0))
        linear = np.abs(x.data @ W + b)
        assert np.all(np.abs(M.gated_layer(x, p, True).data) <= 1e-8 * linear)

    def test_zero_input_gives_gated_bias(self):
        rng = np.random.default_rng(5)
        b, c = rng.normal(size=(1, 7)), rng.normal(size=(1, 7))
        p = gated_params(rng.normal(size=(5, 7)), rng.normal(size=(5, 7)), b, c)
        out = M.gated_layer(mat(np.zeros((1, 5))), p, True)
        expected = b / (1.0 + np.exp(-c))
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_ungated_is_tanh(self):
        rng = np.random.default_rng(6)
        x, W, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 7)), rng.normal(size=(1, 7))
        p = M.LinearParams(W=mat(W), b=mat(b))
        assert np.allclose(M.gated_layer(mat(x), p, False).data, np.tanh(x @ W + b))

    def test_shape_mismatch_rejected(self):
        p = gated_params(np.zeros((5, 7)), np.zeros((5, 7)), np.zeros((1, 7)), np.zeros((1, 7)))
        with pytest.raises(ShapeError):
            M.gated_layer(mat(np.zeros((1, 4))), p, True)


class TestEncoders:
    def test_zero_weights_give_standard_normal(self):
        params = zero_params(tiny_cfg())
        g = M.encode_z2(mat([[1, 0, 1, 0, 0, 1]]), params)
        assert np.all(g.mean.data == 0.0)
        assert np.all(g.log_var.data == 0.0)

    def test_eval_mode_deterministic(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(7))
        x = mat([[1, 1, 0, 0, 1, 0]])
        a, b = M.encode_z2(x, params), M.encode_z2(x, params)
        assert np.array_equal(a.mean.data, b.mean.data)
        assert np.array_equal(a.log_var.data, b.log_var.data)

    def test_scale_invariance_from_normalization(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(8))
        x = np.array([[1.0, 0, 1, 0, 1, 1]])
        a = M.encode_z2(mat(x), params)
        b = M.encode_z2(mat(3.0 * x), params)
        assert np.allclose(a.mean.data, b.mean.data, rtol=1e-12)
        assert np.allclose(a.log_var.data, b.log_var.data, rtol=1e-12)

    def test_training_dropout_rescales_survivors(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(9))
        x = np.ones((1, 6))
        h = M.prepare_input(mat(x), dropout_rate=0.5,
                            rng=np.random.default_rng(10))
        normalized = 1.0 / math.sqrt(6.0)
        for v in h.data.ravel():
            assert v == pytest.approx(0.0, abs=0) or \
                v == pytest.approx(2.0 * normalized, rel=1e-12)

    def test_dropout_requires_rng(self):
        with pytest.raises(ConfigError):
            M.prepare_input(mat(np.ones((1, 6))), dropout_rate=0.5)

    def test_hierarchy_ops_rejected_on_flat(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(0))
        z2 = mat(np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            M.encode_z1(mat(np.zeros((1, 6))), z2, params)
        with pytest.raises(ConfigError):
            M.prior_z1(z2, params)

    def test_two_level_zero_weights_standard_normal(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        params = zero_params(cfg)
        x = mat([[1, 0, 0, 1, 0, 0]])
        z2 = M.sample(M.encode_z2(x, params), np.random.default_rng(1))
        g1 = M.encode_z1(x, z2, params)
        p1 = M.prior_z1(z2, params)
        for g in (g1, p1):
            assert g.mean.shape == (1, cfg.d_z1)
            assert np.all(g.mean.data == 0.0)
            assert np.all(g.log_var.data == 0.0)


class TestSample:
    def test_reparameterization_identity(self):
        rng = np.random.default_rng(11)
        g = M.GaussianParams(mean=mat(rng.normal(size=(4, 3))),
                             log_var=mat(rng.uniform(-2, 2, size=(4, 3))))
        noise = copy.deepcopy(rng).standard_normal((4, 3))
        s = M.sample(g, rng)
        expected = g.mean.data + np.exp(0.5 * g.log_var.data) * noise
        assert np.array_equal(s.data, expected)

    def test_seeded_rng_reproducible(self):
        g = M.GaussianParams(mean=mat(np.zeros((2, 3))), log_var=mat(np.zeros((2, 3))))
        a = M.sample(g, np.random.default_rng(42))
        b = M.sample(g, np.random.default_rng(42))
        assert np.array_equal(a.data, b.data)

    def test_clamped_log_var_shrinks_noise(self):
        g = M.GaussianParams(mean=mat(np.ones((1, 4))),
                             log_var=mat(np.full((1, 4), -10.0)))
        noise = np.random.default_rng(10).standard_normal((1, 4))
        s = M.sample(g, np.random.default_rng(10))
        assert np.allclose(s.data - 1.0, math.exp(-5.0) * noise)

    def test_monte_carlo_mean(self):
        n = 100_000
        g = M.GaussianParams(mean=mat(np.ones((n, 1))), log_var=mat(np.zeros((n, 1))))
        s = M.sample(g, np.random.default_rng(12))
        assert abs(s.data.mean() - 1.0) < 0.02


class TestLikelihoods:
    def test_multinomial_uniform_logits(self):
        got = M.log_likelihood(mat(np.zeros((1, 4))), csr([[1, 0, 1, 0]]),
                               "multinomial").item()
        assert got == pytest.approx(2.0 * math.log(0.25), abs=1e-9)
        assert round(got, 6) == -2.772589

    def test_multinomial_hand_normalized(self):
        logits = mat([[math.log(3.0), 0.0, 0.0, 0.0]])
        got = M.log_likelihood(logits, csr([[1, 0, 1, 0]]), "multinomial").item()
        assert got == pytest.approx(math.log(0.5) + math.log(1.0 / 6.0), abs=1e-9)
        assert round(got, 6) == -2.484907

    def test_multinomial_nonpositive(self):
        rng = np.random.default_rng(13)
        logits = mat(rng.normal(size=(20, 9)))
        x = csr(random_binary(rng, 20, 9))
        assert np.all(M.log_likelihood(logits, x, "multinomial").data <= 0.0)
        empty = M.log_likelihood(mat(np.zeros((1, 9))), csr(np.zeros((1, 9))),
                                 "multinomial")
        assert empty.item() == 0.0

    def test_multinomial_shift_invariance(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(8, 12))
        x = csr(random_binary(rng, 8, 12))
        a = M.log_likelihood(mat(logits), x, "multinomial").data
        b = M.log_likelihood(mat(logits + 7.0), x, "multinomial").data
        assert np.max(np.abs(a - b)) < 1e-10

    def test_bernoulli_zero_logits(self):
        for x in ([[1, 0, 1, 0]], [[0, 0, 0, 0]]):
            got = M.log_likelihood(mat(np.zeros((1, 4))), csr(x), "bernoulli").item()
            assert got == pytest.approx(4.0 * math.log(0.5), abs=1e-9)
            assert round(got, 6) == -2.772589

    def test_bernoulli_confident_hit_costs_nothing(self):
        logits = mat([[50.0]])
        got = M.log_likelihood(logits, csr([[1.0]]), "bernoulli").item()
        assert abs(got) < 1e-12

    def test_bernoulli_nonpositive(self):
        rng = np.random.default_rng(15)
        logits = mat(rng.normal(size=(20, 9)))
        x = csr(random_binary(rng, 20, 9))
        assert np.all(M.log_likelihood(logits, x, "bernoulli").data <= 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            M.log_likelihood(mat(np.zeros((1, 4))), csr(np.zeros((1, 5))),
                             "multinomial")


class TestKLDivergence:
    def test_equality_is_exactly_zero(self):
        rng = np.random.default_rng(16)
        g = M.GaussianParams(mean=mat(rng.normal(size=(5, 4))),
                             log_var=mat(rng.uniform(-1, 1, size=(5, 4))))
        assert np.all(M.kl_diag_gauss(g, g).data == 0.0)

    def test_unit_shift_closed_form(self):
        q = M.GaussianParams(mean=mat([[1.0]]), log_var=mat([[0.0]]))
        p = M.GaussianParams(mean=mat([[0.0]]), log_var=mat([[0.0]]))
        assert M.kl_diag_gauss(q, p).item() == pytest.approx(0.5, abs=1e-12)

    def test_unit_shift_against_monte_carlo(self):
        # independent oracle: 10^6-draw estimate of E_q[log q - log p]
        rng = np.random.default_rng(17)
        z = 1.0 + rng.standard_normal((1_000_000, 1))
        draws = normal_logpdf(z, 1.0, 0.0) - normal_logpdf(z, 0.0, 0.0)
        mc = draws.mean()
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(mc - 0.5) < 0.01
        assert abs(mc - 0.5) < 3.0 * se

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(18)
        shape = (10_000, 3)
        q = M.GaussianParams(mean=mat(rng.normal(size=shape)),
                             log_var=mat(rng.uniform(-2, 2, size=shape)))
        p = M.GaussianParams(mean=mat(rng.normal(size=shape)),
                             log_var=mat(rng.uniform(-2, 2, size=shape)))
        assert np.all(M.kl_diag_gauss(q, p).data >= 0.0)

    def test_standard_prior_kl_matches_closed_form(self):
        # KL(q || N(0, I)) = 0.5 * sum(exp(lv) + mu^2 - 1 - lv) per row,
        # averaged over the batch, for the posterior elbo encodes.
        cfg = tiny_cfg(prior="standard")
        params = M.init_params(cfg, np.random.default_rng(19))
        x = csr(random_binary(np.random.default_rng(190), 6, 6))
        q = M.encode_z2(x, params)
        mu, lv = q.mean.data, q.log_var.data
        expected = np.mean(0.5 * np.sum(np.exp(lv) + mu ** 2 - 1.0 - lv, axis=1))
        got = M.elbo(x, params, 1.0, np.random.default_rng(191)).kl_z2_ce.item()
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        q = M.GaussianParams(mean=mat(np.zeros((1, 3))), log_var=mat(np.zeros((1, 3))))
        p = M.GaussianParams(mean=mat(np.zeros((1, 4))), log_var=mat(np.zeros((1, 4))))
        with pytest.raises(ShapeError):
            M.kl_diag_gauss(q, p)


class TestVampDensity:
    def test_standard_normal_component_at_origin(self):
        cfg = tiny_cfg(prior="vamp", n_pseudo=1, d_z2=2)
        params = zero_params(cfg)
        got = M.vamp_log_density(mat(np.zeros((1, 2))), params).item()
        assert got == pytest.approx(-LOG_2PI, abs=1e-9)
        assert round(got, 6) == -1.837877

    def test_duplicate_components_collapse(self):
        cfg1 = tiny_cfg(prior="vamp", n_pseudo=1)
        cfg2 = tiny_cfg(prior="vamp", n_pseudo=2)
        p1 = M.init_params(cfg1, np.random.default_rng(20))
        p2 = M.init_params(cfg2, np.random.default_rng(20))
        row = np.random.default_rng(21).random((1, 6))
        p1.pseudo_inputs.data[:] = row
        p2.pseudo_inputs.data[:] = np.vstack([row, row])
        # duplicate the single encoder so both models share weights
        for (na, a), (nb, b) in zip(p1.named_parameters().items(),
                                    p2.named_parameters().items()):
            if na != "pseudo_inputs":
                assert na == nb
                b.data[:] = a.data
        z = mat(np.random.default_rng(22).normal(size=(5, 3)))
        assert np.allclose(M.vamp_log_density(z, p1).data,
                           M.vamp_log_density(z, p2).data, atol=1e-12)

    def test_component_order_invariance(self):
        cfg = tiny_cfg(prior="vamp", n_pseudo=3)
        params = M.init_params(cfg, np.random.default_rng(23))
        z = mat(np.random.default_rng(24).normal(size=(4, 3)))
        a = M.vamp_log_density(z, params).data.copy()
        params.pseudo_inputs.data[:] = params.pseudo_inputs.data[::-1]
        b = M.vamp_log_density(z, params).data
        assert np.allclose(a, b, atol=1e-12)

    def test_density_integrates_to_one(self):
        # 1-D mixture; trapezoid rule over [-30, 30] at step 1e-3
        cfg = tiny_cfg(prior="vamp", n_pseudo=3, d_z2=1, n_items=5, hidden=4)
        params = M.init_params(cfg, np.random.default_rng(25))
        params.pseudo_inputs.data[:] = np.random.default_rng(26).random((3, 5))
        grid = np.linspace(-30.0, 30.0, 60_001).reshape(-1, 1)
        log_density = M.vamp_log_density(mat(grid), params).data.ravel()
        total = np.trapezoid(np.exp(log_density), dx=1e-3)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_k_equals_n_gives_aggregated_posterior(self):
        rng = np.random.default_rng(27)
        x_train = random_binary(rng, 8, 6)
        cfg = tiny_cfg(prior="vamp", n_pseudo=8)
        params = M.init_params(cfg, rng)
        params.pseudo_inputs.data[:] = x_train
        z = rng.normal(size=(5, 3))
        got = M.vamp_log_density(mat(z), params).data.ravel()
        # oracle: explicit per-user mixture of posterior densities
        comp = M.encode_z2(mat(x_train), params)
        per_comp = np.stack([
            normal_logpdf(z, comp.mean.data[k], comp.log_var.data[k])
            for k in range(8)])
        expected = np.logaddexp.reduce(per_comp, axis=0) - math.log(8)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_standard_prior_model_rejected(self):
        params = M.init_params(tiny_cfg(prior="standard"), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            M.vamp_log_density(mat(np.zeros((1, 3))), params)


class TestMonteCarloKLConsistency:
    def test_single_component_estimator_matches_closed_form(self):
        cfg = tiny_cfg(prior="vamp", n_pseudo=1)
        params = M.init_params(cfg, np.random.default_rng(28))
        x = mat(random_binary(np.random.default_rng(29), 1, 6))
        q = M.encode_z2(x, params)
        comp = M.encode_z2(params.pseudo_inputs, params)
        closed = M.kl_diag_gauss(q, comp).item()

        # K=1 vamp density collapses to the component Gaussian
        z_spot = np.random.default_rng(30).normal(size=(3, 3))
        vd = M.vamp_log_density(mat(z_spot), params).data.ravel()
        direct = normal_logpdf(z_spot, comp.mean.data[0], comp.log_var.data[0])
        assert np.max(np.abs(vd - direct)) < 1e-12

        rng = np.random.default_rng(31)
        eps = rng.standard_normal((100_000, 3))
        z = q.mean.data + np.exp(0.5 * q.log_var.data) * eps
        draws = normal_logpdf(z, q.mean.data[0], q.log_var.data[0]) \
            - normal_logpdf(z, comp.mean.data[0], comp.log_var.data[0])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - closed) < 3.0 * se


class TestElbo:
    def test_zero_weight_flat_standard(self):
        params = zero_params(tiny_cfg())
        x = random_binary(np.random.default_rng(32), 3, 6)
        res = M.elbo(mat(x), params, beta=1.0, rng=np.random.default_rng(33))
        expected_recon = (x.sum(axis=1) * math.log(1.0 / 6.0)).mean()
        assert res.recon.item() == pytest.approx(expected_recon, rel=1e-12)
        assert res.kl_z1.item() == 0.0
        assert res.kl_z2_ce.item() == 0.0
        assert res.elbo.item() == pytest.approx(expected_recon, rel=1e-12)

    def test_beta_zero_equals_recon(self):
        cfg = tiny_cfg(prior="vamp")
        params = M.init_params(cfg, np.random.default_rng(34))
        x = mat(random_binary(np.random.default_rng(35), 4, 6))
        res = M.elbo(x, params, beta=0.0, rng=np.random.default_rng(36))
        assert res.elbo.item() == res.recon.item()

    def test_components_recombine_linearly(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        params = M.init_params(cfg, np.random.default_rng(37))
        x = mat(random_binary(np.random.default_rng(38), 4, 6))
        res = M.elbo(x, params, beta=0.5, rng=np.random.default_rng(39))
        combined = res.recon.item() - 0.5 * (res.kl_z1.item() + res.kl_z2_ce.item())
        assert res.elbo.item() == pytest.approx(combined, rel=1e-12)
        assert res.kl_z1.item() >= 0.0

    def test_beta_out_of_range_rejected(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(0))
        x = mat(np.ones((1, 6)))
        for beta in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                M.elbo(x, params, beta=beta, rng=np.random.default_rng(0))

    def test_copies_of_one_generator_agree_bit_for_bit(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        params = M.init_params(cfg, np.random.default_rng(41))
        x = csr(random_binary(np.random.default_rng(42), 2, 6))
        rng = np.random.default_rng(43)
        a = M.elbo(x, params, 0.7, copy.deepcopy(rng), dropout_rate=0.5)
        b = M.elbo(x, params, 0.7, copy.deepcopy(rng), dropout_rate=0.5)
        for term in ("elbo", "recon", "kl_z1", "kl_z2_ce"):
            assert getattr(a, term).item() == getattr(b, term).item(), term

    def test_check_cell_objective_is_repeatable(self, monkeypatch):
        values = []

        def evaluate_thrice(objective, params):
            values.extend(objective().item() for _ in range(3))
            return 0.0

        monkeypatch.setattr(ad, "grad_check", evaluate_thrice)
        check_cell({"prior": "vamp", "hierarchy": "two_level", "gated": True,
                    "likelihood": "bernoulli"}, seed=0)
        assert len(values) == 3 and values[0] == values[1] == values[2]

    def test_dropout_follows_dropout_rate_alone(self, monkeypatch):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        params = M.init_params(cfg, np.random.default_rng(90))
        x = random_binary(np.random.default_rng(91), 5, 6)
        csr = CSRMatrix.from_dense(x)
        dropped = M.elbo(csr, params, 0.5, rng=np.random.default_rng(94),
                         dropout_rate=0.5).elbo.item()

        def past_dropout():
            # The dropout takes one uniform per stored value before the
            # latent draws; a generator past them replays the latent draws.
            rng = np.random.default_rng(94)
            return rng, rng.random(csr.indices.size) >= 0.5

        rng, _ = past_dropout()
        kept = M.elbo(csr, params, 0.5, rng=rng).elbo.item()
        assert dropped != kept
        # The training input: survivors of the normalized row rescaled by
        # 1 / (1 - rate).
        rng, keep = past_dropout()
        scale = 2.0 / np.sqrt(x.sum(axis=1))[csr.row_ids()]
        real = M.prepare_input
        monkeypatch.setattr(M, "prepare_input", lambda h, *a, **k: csr.with_data(
            keep * scale) if h is csr else real(h, *a, **k))
        by_hand = M.elbo(csr, params, 0.5, rng=rng).elbo.item()
        assert dropped == pytest.approx(by_hand, rel=1e-12)

    @pytest.mark.parametrize("cell", [
        {"prior": "vamp", "hierarchy": "flat", "gated": True,
         "likelihood": "multinomial"},
        {"prior": "vamp", "hierarchy": "two_level", "gated": False,
         "likelihood": "bernoulli"},
    ])
    def test_gradient_spot_check(self, cell):
        assert check_cell(cell, seed=0) < 1e-4

    @pytest.mark.parametrize("gated", [True, False], ids=["gated", "tanh"])
    def test_depth_two_gradient_check(self, gated):
        # A second trunk layer per network adds accumulation paths: the
        # pseudo-inputs and the batch share every encoder layer.
        cell = {"prior": "vamp", "hierarchy": "two_level", "gated": gated,
                "likelihood": "multinomial", "depth": 2}
        assert tiny_config(**cell).depth == 2
        assert check_cell(cell, seed=0) < TOLERANCE

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            run_grid(seed=-1)

    def test_grid_has_twelve_cells(self):
        names = [name for name, _ in grid_cells()]
        assert len(names) == 12
        assert len(set(names)) == 12
        assert not any("two_level-standard" in n for n in names)

    def test_corrupted_cell_fails_check(self):
        cell = {"prior": "standard", "hierarchy": "flat", "gated": True,
                "likelihood": "multinomial"}
        assert check_cell(cell, seed=0, corrupt=True) > 1e-4

    # Backward steps one elbo call with dropout records per grid cell: one per
    # primitive applied to a trainable operand. A change here changes what a
    # training step computes.
    # Either likelihood is one primitive, so the two likelihoods of a cell
    # record the same number of steps, and so is each layer's product plus
    # bias (``linear``).
    TAPE_OPS = {
        "flat-standard-gated-multinomial": 36,
        "flat-standard-gated-bernoulli": 36,
        "flat-standard-ungated-multinomial": 32,
        "flat-standard-ungated-bernoulli": 32,
        "flat-vamp-gated-multinomial": 66,
        "flat-vamp-gated-bernoulli": 66,
        "flat-vamp-ungated-multinomial": 60,
        "flat-vamp-ungated-bernoulli": 60,
        "two_level-vamp-gated-multinomial": 98,
        "two_level-vamp-gated-bernoulli": 98,
        "two_level-vamp-ungated-multinomial": 88,
        "two_level-vamp-ungated-bernoulli": 88,
    }

    @pytest.mark.parametrize("name,cell", grid_cells(),
                             ids=[n for n, _ in grid_cells()])
    def test_tape_length_per_grid_cell(self, name, cell):
        cfg = tiny_config(**cell)
        rng = np.random.default_rng(0)
        x = (rng.random((4, cfg.n_items)) < 0.25).astype(np.float64)
        x[:, 0] = 1.0
        batch = csr(x)
        params = M.init_params(cfg, rng, train_matrix=batch)
        with ad.Tape() as tape:
            M.elbo(batch, params, 0.5, rng=rng, dropout_rate=0.5)
        assert len(tape) == self.TAPE_OPS[name]

    @pytest.mark.parametrize("name,cell", grid_cells(),
                             ids=[n for n, _ in grid_cells()])
    def test_training_step_never_densifies_the_batch(self, name, cell, monkeypatch):
        cfg = tiny_config(**cell)
        rng = np.random.default_rng(1)
        x = (rng.random((5, cfg.n_items)) < 0.3).astype(np.float64)
        x[0] = 0.0
        batch = csr(x)
        params = M.init_params(cfg, rng, train_matrix=batch)

        def refuse(self):
            raise AssertionError("a CSR batch was densified")

        monkeypatch.setattr(CSRMatrix, "toarray", refuse)
        with ad.Tape() as tape:
            out = M.elbo(batch, params, 0.5, rng=rng, dropout_rate=0.5)
            tape.backward(ad.scale(out.elbo, -1.0))
        assert params.head_out.W.grad is not None
        assert params.encoder_z2[0].W.grad is not None


class TestElboDecomposition:
    def test_zero_weight_flat_standard_terms(self):
        params = zero_params(tiny_cfg())
        x = random_binary(np.random.default_rng(44), 16, 6)
        dec = M.elbo_decomposition(mat(x), params, n_mc=200,
                                   rng=np.random.default_rng(45))
        d = 3
        expected_entropy = 0.5 * d * (1.0 + LOG_2PI)
        assert dec.posterior_entropy == pytest.approx(expected_entropy, abs=1e-12)
        # zero decoder ignores z, so recon is exact
        expected_recon = (x.sum(axis=1) * math.log(1.0 / 6.0)).mean()
        assert dec.recon == pytest.approx(expected_recon, rel=1e-12)
        # cross-entropy to N(0,I) equals its differential entropy in expectation
        assert abs(dec.cross_entropy_prior - expected_entropy) < \
            max(3.0 * dec.cross_entropy_se, 0.05)

    def test_entropy_minus_cross_entropy_is_negative_kl(self):
        cfg = tiny_cfg(prior="vamp")
        params = M.init_params(cfg, np.random.default_rng(46))
        x = random_binary(np.random.default_rng(47), 12, 6)
        n_mc = 400
        dec = M.elbo_decomposition(mat(x), params, n_mc=n_mc,
                                   rng=np.random.default_rng(48))
        rng = np.random.default_rng(49)
        kls = np.array([
            M.elbo(mat(x), params, beta=1.0, rng=rng).kl_z2_ce.item()
            for _ in range(n_mc)])
        kl_se = kls.std(ddof=1) / math.sqrt(n_mc)
        gap = dec.posterior_entropy - dec.cross_entropy_prior
        budget = 3.0 * math.sqrt(kl_se ** 2 + dec.cross_entropy_se ** 2)
        assert abs(gap - (-kls.mean())) <= budget

    @pytest.mark.parametrize("hierarchy", ["flat", "two_level"])
    def test_matches_per_draw_recomputation(self, hierarchy):
        # The straightforward estimator: re-encode everything, prior
        # components included, for every Monte Carlo draw.
        cfg = tiny_cfg(prior="vamp", hierarchy=hierarchy, n_pseudo=4)
        params = M.init_params(cfg, np.random.default_rng(60))
        x = mat(random_binary(np.random.default_rng(61), 7, 6))
        n_mc = 25
        dec = M.elbo_decomposition(x, params, n_mc=n_mc,
                                   rng=np.random.default_rng(62))
        rng = np.random.default_rng(62)
        g2 = M.encode_z2(x, params)
        recon, ce = [], []
        for _ in range(n_mc):
            z2 = M.sample(g2, rng)
            if cfg.two_level:
                z1 = M.sample(M.encode_z1(x, z2, params), rng)
                logits = M.decode(z1, z2, params)
            else:
                logits = M.decode(z2, None, params)
            recon.append(M.log_likelihood(logits, csr(x.data), "multinomial").data.mean())
            ce.append(-M.vamp_log_density(z2, params).data.mean())
        recon, ce = np.array(recon), np.array(ce)
        entropy = np.mean(0.5 * np.sum(g2.log_var.data + 1.0 + LOG_2PI, axis=1))
        assert dec.n_mc == n_mc
        assert dec.posterior_entropy == pytest.approx(entropy, abs=1e-12)
        assert dec.recon == pytest.approx(recon.mean(), abs=1e-12)
        assert dec.cross_entropy_prior == pytest.approx(ce.mean(), abs=1e-12)
        assert dec.recon_se == pytest.approx(
            recon.std(ddof=1) / math.sqrt(n_mc), abs=1e-12)
        assert dec.cross_entropy_se == pytest.approx(
            ce.std(ddof=1) / math.sqrt(n_mc), abs=1e-12)

    def test_prior_components_encoded_once(self, monkeypatch):
        cfg = tiny_cfg(prior="vamp", n_pseudo=3)
        params = M.init_params(cfg, np.random.default_rng(63))
        x = mat(random_binary(np.random.default_rng(64), 4, 6))
        pseudo_rows = []
        real = M.encode_z2

        def counting(x_in, *args, **kwargs):
            if x_in is params.pseudo_inputs:
                pseudo_rows.append(x_in.rows)
            return real(x_in, *args, **kwargs)

        monkeypatch.setattr(M, "encode_z2", counting)
        M.elbo_decomposition(x, params, n_mc=10, rng=np.random.default_rng(65))
        assert pseudo_rows == [3]

    def test_empty_batch_rejected(self):
        params = M.init_params(tiny_cfg(), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            M.elbo_decomposition(ad.Matrix(np.zeros((0, 6))), params, n_mc=2,
                                 rng=np.random.default_rng(0))


class TestFoldIn:
    def test_deterministic_and_flat_alias(self):
        params = M.init_params(tiny_cfg(prior="vamp"), np.random.default_rng(50))
        x = mat(random_binary(np.random.default_rng(51), 3, 6))
        z1a, z2a = M.fold_in_latents(x, params)
        z1b, z2b = M.fold_in_latents(x, params)
        assert np.array_equal(z1a.data, z1b.data)
        assert np.array_equal(z2a.data, z2b.data)
        assert np.array_equal(z1a.data, z2a.data)

    def test_zero_weights_give_zero_latents(self):
        params = zero_params(tiny_cfg())
        z1, z2 = M.fold_in_latents(mat([[1, 0, 0, 1, 1, 0]]), params)
        assert np.all(z1.data == 0.0) and np.all(z2.data == 0.0)

    def test_two_level_shapes(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level", d_z1=2, d_z2=4)
        params = M.init_params(cfg, np.random.default_rng(52))
        x = mat(random_binary(np.random.default_rng(53), 5, 6))
        z1, z2 = M.fold_in_latents(x, params)
        assert z1.shape == (5, 2) and z2.shape == (5, 4)

    def test_scores_bit_identical_across_calls(self):
        cfg = tiny_cfg(prior="vamp", hierarchy="two_level")
        params = M.init_params(cfg, np.random.default_rng(54))
        x = mat(random_binary(np.random.default_rng(55), 4, 6))
        a = M.score_items(x, params).data
        b = M.score_items(x, params).data
        assert np.array_equal(a, b)


class TestSparseInput:
    """Interaction batches run as CSR; the dense route of a learnable input
    (the pseudo-inputs' path) is the reference."""

    @pytest.mark.parametrize("hierarchy", ["flat", "two_level"])
    def test_csr_and_dense_batches_score_bit_for_bit(self, hierarchy):
        cfg = tiny_cfg(prior="vamp", hierarchy=hierarchy, n_items=30)
        params = M.init_params(cfg, np.random.default_rng(80))
        x = random_binary(np.random.default_rng(81), 6, 30)
        x[3] = 0.0
        csr = CSRMatrix.from_dense(x)
        a = M.score_items(csr, params).data
        b = M.score_items(mat(x), params).data
        assert np.array_equal(a, b)
        dense_route = M.score_items(ad.Matrix(x, requires_grad=True), params).data
        np.testing.assert_allclose(a, dense_route, rtol=0, atol=1e-12)

    def test_prepare_input_scales_and_drops_only_stored_values(self):
        x = random_binary(np.random.default_rng(82), 5, 12)
        csr = CSRMatrix.from_dense(x)
        h = M.prepare_input(csr, dropout_rate=0.5, rng=np.random.default_rng(83))
        assert np.array_equal(h.indices, csr.indices)
        assert np.array_equal(h.indptr, csr.indptr)
        # One uniform per stored value, in storage order.
        keep = np.random.default_rng(83).random(csr.indices.size) >= 0.5
        scale = 2.0 / np.sqrt(x.sum(axis=1))[csr.row_ids()]
        np.testing.assert_allclose(h.data, keep * scale, rtol=1e-15, atol=0)
        ev = M.prepare_input(csr)
        np.testing.assert_allclose(
            ev.toarray(), x / np.linalg.norm(x, axis=1, keepdims=True), rtol=1e-15)

    def test_learnable_dense_input_takes_no_dropout(self):
        x = ad.Matrix(np.ones((2, 6)), requires_grad=True)
        with pytest.raises(ConfigError):
            M.prepare_input(x, dropout_rate=0.5, rng=np.random.default_rng(0))
        h = M.prepare_input(x)
        np.testing.assert_allclose(h.data, np.full((2, 6), 1.0 / math.sqrt(6.0)),
                                   rtol=1e-15)
