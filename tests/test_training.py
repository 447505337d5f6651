"""Trainer oracles: schedule values, optimizer arithmetic, stopping rules,
determinism, and the single-batch overfit ceiling."""
import math
import re
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf import kernels, training
from vampcf.autodiff import Matrix, Tape
from vampcf.checkpoint import load_checkpoint, save_checkpoint
from vampcf.data import CSRMatrix, DatasetSplit, InteractionVector
from vampcf.data import split as make_split
from vampcf.errors import ConfigError, DataError, NumericalError
from vampcf.model import (ModelConfig, ElboResult, elbo, init_params,
                          log_likelihood)
from vampcf.synthetic import archetype_interactions
from vampcf.training import (OptimizerState, TrainConfig, adam_step, beta_at,
                             parse_metric, train)


def tiny_split(seed=0):
    data = archetype_interactions(n_users=80, n_items=40, n_archetypes=2,
                                  seed=seed, min_items=8, max_items=15)
    return make_split(data, n_heldout_users=10, fold_in_fraction=0.8, seed=seed)


def tiny_model_cfg(**kw):
    base = dict(n_items=40, prior="vamp", hierarchy="flat",
                likelihood="multinomial", gated=True, depth=1, hidden=24,
                d_z1=8, d_z2=8, n_pseudo=5)
    base.update(kw)
    return ModelConfig(**base)


def tiny_train_cfg(**kw):
    base = dict(batch_size=32, max_epochs=3, learning_rate=1e-3, beta_cap=0.2,
                anneal_steps=None, dropout_rate=0.5, patience=5, seed=0,
                eval_metric="ndcg@10")
    base.update(kw)
    return TrainConfig(**base)


class TestBetaSchedule:
    def test_linear_interpolation(self):
        cfg = TrainConfig(beta_cap=0.2, anneal_steps=100)
        assert beta_at(50, cfg) == pytest.approx(0.1, abs=1e-15)

    def test_saturates_at_cap(self):
        cfg = TrainConfig(beta_cap=0.2, anneal_steps=100)
        for step in (100, 101, 100_000):
            assert beta_at(step, cfg) == 0.2

    def test_starts_at_zero(self):
        cfg = TrainConfig(beta_cap=0.2, anneal_steps=100)
        assert beta_at(0, cfg) == 0.0

    def test_unresolved_schedule_rejected(self):
        with pytest.raises(ConfigError):
            beta_at(1, TrainConfig(anneal_steps=None))

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError):
            beta_at(-1, TrainConfig(anneal_steps=10))


class TestTrainConfig:
    def test_beta_cap_range_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta_cap=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(beta_cap=-0.01)

    def test_anneal_steps_must_be_positive_if_given(self):
        with pytest.raises(ConfigError):
            TrainConfig(anneal_steps=0)

    def test_metric_spelling_enforced(self):
        for bad in ("auc@10", "ndcg", "ndcg@0", "ndcg@x"):
            with pytest.raises(ConfigError):
                TrainConfig(eval_metric=bad)
        assert parse_metric("Recall@50") == ("recall", 50)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        cfg = tiny_model_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        before = {n: p.data.copy() for n, p in params.named_parameters().items()}
        for p in params.named_parameters().values():
            p.grad = np.ones_like(p.data)
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3)
        for n, p in params.named_parameters().items():
            delta = p.data - before[n]
            assert np.allclose(delta, -1e-3, rtol=1e-6)

    def test_zero_gradient_zero_state_is_identity(self):
        params = init_params(tiny_model_cfg(), np.random.default_rng(1))
        before = {n: p.data.copy() for n, p in params.named_parameters().items()}
        for p in params.named_parameters().values():
            p.grad = np.zeros_like(p.data)
        adam_step(params, OptimizerState.for_params(params), lr=1e-3)
        for n, p in params.named_parameters().items():
            assert np.array_equal(p.data, before[n])

    def test_nonfinite_gradient_names_parameter_and_step(self):
        params = init_params(tiny_model_cfg(), np.random.default_rng(2))
        state = OptimizerState.for_params(params)
        for p in params.named_parameters().values():
            p.grad = np.zeros_like(p.data)
        params.head_out.W.grad = np.full_like(params.head_out.W.data, np.nan)
        with pytest.raises(NumericalError) as err:
            adam_step(params, state, lr=1e-3)
        assert "head_out.W" in str(err.value)
        assert "step 1" in str(err.value)

    def test_nonfinite_gradient_leaves_every_tensor_untouched(self):
        """The bad gradient is in the last tensor: none before it moves."""
        params = init_params(tiny_model_cfg(), np.random.default_rng(3))
        state = OptimizerState.for_params(params)
        named = params.named_parameters()
        for p in named.values():
            p.grad = np.ones_like(p.data)
        adam_step(params, state, lr=1e-3)
        before = {n: p.data.copy() for n, p in named.items()}
        m_before = {n: a.copy() for n, a in state.m.items()}
        v_before = {n: a.copy() for n, a in state.v.items()}
        last = list(named)[-1]
        named[last].grad = np.full_like(named[last].data, np.nan)
        with pytest.raises(NumericalError, match=f"{last}.*step 2"):
            adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for n, p in named.items():
            assert np.array_equal(p.data, before[n]), n
            assert np.array_equal(state.m[n], m_before[n]), n
            assert np.array_equal(state.v[n], v_before[n]), n


    @staticmethod
    def big_params():
        """A small tensor and one of ADAM_BLOCK + 1 elements, so that the
        last entry of the large gradient lies past the first block."""
        rng = np.random.default_rng(4)
        named = {"small": Matrix(rng.standard_normal((3, 5))),
                 "big": Matrix(rng.standard_normal((1, kernels.ADAM_BLOCK + 1)))}
        return SimpleNamespace(named_parameters=lambda: named), named

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_last_element_raises_and_moves_nothing(self, bad):
        params, named = self.big_params()
        state = OptimizerState.for_params(params)
        for p in named.values():
            p.grad = np.ones_like(p.data)
        adam_step(params, state, lr=1e-3)
        before = {n: p.data.copy() for n, p in named.items()}
        m_before = {n: a.copy() for n, a in state.m.items()}
        v_before = {n: a.copy() for n, a in state.v.items()}
        named["big"].grad = np.ones_like(named["big"].data)
        named["big"].grad[0, -1] = bad
        with pytest.raises(NumericalError, match=re.escape(
                "non-finite gradient in big at optimizer step 2")):
            adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for n, p in named.items():
            assert np.array_equal(p.data, before[n]), n
            assert np.array_equal(state.m[n], m_before[n]), n
            assert np.array_equal(state.v[n], v_before[n]), n

    def test_finite_gradient_whose_square_overflows_raises_and_moves_nothing(self):
        # 1e200 ** 2 is inf: stepping would set v to inf and the tensor
        # would never learn again.
        params, named = self.big_params()
        state = OptimizerState.for_params(params)
        for p in named.values():
            p.grad = np.ones_like(p.data)
        adam_step(params, state, lr=1e-3)
        before = {n: p.data.copy() for n, p in named.items()}
        v_before = {n: a.copy() for n, a in state.v.items()}
        named["big"].grad = np.ones_like(named["big"].data)
        named["big"].grad[0, -1] = -1e200
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=re.escape(
                    "gradient entry 1e+200 in big at optimizer step 2 "
                    "overflows when squared")):
                adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for n, p in named.items():
            assert np.array_equal(p.data, before[n]), n
            assert np.array_equal(state.v[n], v_before[n]), n

    def test_finite_squares_whose_sum_overflows_still_step(self):
        params, named = self.big_params()
        state = OptimizerState.for_params(params)
        for p in named.values():
            p.grad = np.full_like(p.data, 1e154)
        with np.errstate(over="ignore"):
            norm = adam_step(params, state, lr=1e-3)
        assert state.step == 1
        size = sum(p.data.size for p in named.values())
        assert norm == pytest.approx(1e154 * math.sqrt(size), rel=1e-12)
        assert np.all(state.m["big"] == 1e154 * (1.0 - 0.9))
        assert np.all(np.isfinite(state.v["big"]))

    @staticmethod
    def factored_params(x, g, seed=8):
        """A small tensor with an array gradient of ones and a weight ``w``
        whose gradient ``linear`` left as the factors ``x`` and ``g``."""
        rng = np.random.default_rng(seed)
        w = Matrix(rng.standard_normal((x.shape[1], g.shape[1])), requires_grad=True)
        named = {"small": Matrix(rng.standard_normal((3, 5))), "w": w}
        TestAdam.set_factored_grads(named, x, g)
        return SimpleNamespace(named_parameters=lambda: named), named

    @staticmethod
    def set_factored_grads(named, x, g):
        w = named["w"]
        named["small"].grad = np.ones((3, 5))
        w.grad = None
        with Tape() as tape:
            out = ad.linear(Matrix(x), w, Matrix(np.zeros((1, g.shape[1]))))
            tape.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        assert w._factored_grad() is not None

    @staticmethod
    def snapshot(named, state):
        return [{n: a.copy() for n, a in d.items()} for d in
                ({n: p.data for n, p in named.items()}, state.m, state.v)]

    @staticmethod
    def factors(seed=9):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((4, 30)), rng.standard_normal((4, 7))

    def test_factored_gradient_steps_as_its_array_would(self, monkeypatch):
        """Formed in blocks of 3 rows, the step moves the weight and its
        moments exactly as the whole array does, and the norm is the sum
        of the blocks' squares."""
        monkeypatch.setattr(ad, "GRAD_BLOCK", 3 * 7)
        x, g = self.factors()
        params, named = self.factored_params(x, g)
        twin, twin_named = self.factored_params(x, g)
        twin_named["w"].grad = x.T @ g
        states = [OptimizerState.for_params(p) for p in (params, twin)]
        norms = [adam_step(p, st, lr=1e-3) for p, st in zip((params, twin), states)]
        assert norms[0] == pytest.approx(norms[1], rel=1e-14)
        for a, b in zip(self.snapshot(named, states[0]),
                        self.snapshot(twin_named, states[1])):
            for n in a:
                assert np.array_equal(a[n], b[n]), n

    @pytest.mark.parametrize("factor", ["x", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_factor_raises_and_moves_nothing(self, factor, bad):
        x, g = self.factors()
        params, named = self.factored_params(x, g)
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3)
        before = self.snapshot(named, state)
        {"x": x, "g": g}[factor][-1, -1] = bad
        with np.errstate(invalid="ignore"):
            self.set_factored_grads(named, x, g)
            with pytest.raises(NumericalError, match=re.escape(
                    "non-finite gradient in w at optimizer step 2")):
                adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for a, b in zip(before, self.snapshot(named, state)):
            for n in a:
                assert np.array_equal(a[n], b[n]), n

    def test_factored_bound_overflow_falls_back_to_the_exact_check(self):
        # max|x| * max|g| is 1e200, but x's 1e200 meets g's 1e-100 row.
        x, g = np.ones((4, 30)), np.ones((4, 7))
        x[0, 0], g[0] = 1e200, 1e-100
        params, named = self.factored_params(x, g)
        twin, twin_named = self.factored_params(x, g)
        twin_named["w"].grad = x.T @ g
        assert np.abs(twin_named["w"].grad).max() == pytest.approx(1e100)
        states = [OptimizerState.for_params(p) for p in (params, twin)]
        norms = [adam_step(p, st, lr=1e-3) for p, st in zip((params, twin), states)]
        assert norms[0] == norms[1]
        for a, b in zip(self.snapshot(named, states[0]),
                        self.snapshot(twin_named, states[1])):
            for n in a:
                assert np.array_equal(a[n], b[n]), n

    def test_factored_gradient_whose_square_overflows_raises(self):
        x, g = np.ones((4, 30)), np.ones((4, 7))
        params, named = self.factored_params(x, g)
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3)
        before = self.snapshot(named, state)
        x[0, 0] = -1e200
        self.set_factored_grads(named, x, g)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=re.escape(
                    "gradient entry 1e+200 in w at optimizer step 2 "
                    "overflows when squared")):
                adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for a, b in zip(before, self.snapshot(named, state)):
            for n in a:
                assert np.array_equal(a[n], b[n]), n

    def test_scaled_norm_reads_factored_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "GRAD_BLOCK", 3 * 7)
        x, g = self.factors()
        params, named = self.factored_params(x, g)
        named["small"].grad = np.full((3, 5), 1e154)
        with np.errstate(over="ignore"):
            norm = adam_step(params, OptimizerState.for_params(params), lr=1e-3)
        wg = (x.T @ g) / 1e154
        assert norm == pytest.approx(1e154 * math.sqrt(15 + np.sum(wg * wg)),
                                     rel=1e-12)

    def test_a_factor_that_is_a_parameter_is_read_before_it_moves(self):
        """``x`` is itself a parameter, updated before ``w`` in name order:
        w's gradient must still be the product with x as it was."""
        rng = np.random.default_rng(10)
        x, g = self.factors()
        xp = Matrix(x.copy(), requires_grad=True)
        w = Matrix(rng.standard_normal((30, 7)), requires_grad=True)
        named = {"x": xp, "w": w}
        w0 = w.data.copy()
        with Tape() as tape:
            out = ad.linear(xp, w, Matrix(np.zeros((1, 7))))
            tape.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        state = OptimizerState.for_params(SimpleNamespace(named_parameters=lambda: named))
        adam_step(SimpleNamespace(named_parameters=lambda: named), state, lr=1e-3)
        twin = Matrix(w0, requires_grad=True)
        twin.grad = x.T @ g
        twin_state = OptimizerState.for_params(
            SimpleNamespace(named_parameters=lambda: {"w": twin}))
        adam_step(SimpleNamespace(named_parameters=lambda: {"w": twin}),
                  twin_state, lr=1e-3)
        assert np.array_equal(w.data, twin.data)

    def test_returns_global_gradient_norm(self):
        params = init_params(tiny_model_cfg(), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        named = params.named_parameters()
        for p in named.values():
            p.grad = rng.standard_normal(p.data.shape)
        flat = np.concatenate([p.grad.ravel() for p in named.values()])
        norm = adam_step(params, OptimizerState.for_params(params), lr=1e-3)
        assert norm == pytest.approx(np.linalg.norm(flat), rel=1e-12)


def scripted_metric(monkeypatch, values):
    """Make validation return ``values`` in turn; an exception among them
    is raised at that epoch instead."""
    values = iter(values)

    def spy(users, params, **kw):
        v = next(values)
        if isinstance(v, BaseException):
            raise v
        return SimpleNamespace(row=lambda metric, k: SimpleNamespace(mean=v))

    monkeypatch.setattr(training, "evaluate", spy)


def fail_after(monkeypatch, calls):
    """Make every ELBO after the first ``calls`` infinite."""
    seen = {"n": 0}
    real = training.elbo

    def flaky(*args, **kwargs):
        seen["n"] += 1
        res = real(*args, **kwargs)
        if seen["n"] <= calls:
            return res
        return ElboResult(elbo=ad.constant(np.array([[math.inf]])),
                          recon=res.recon, kl_z1=res.kl_z1,
                          kl_z2_ce=res.kl_z2_ce)

    monkeypatch.setattr(training, "elbo", flaky)


class TestTrainLoop:
    def test_log_has_one_record_per_epoch(self):
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
        assert [r["epoch"] for r in result.log] == list(range(len(result.log)))
        for r in result.log:
            assert set(r) == {"epoch", "mean_elbo", "mean_recon", "mean_kl_z1",
                              "mean_kl_z2", "beta", "val_metric",
                              "mean_grad_norm", "wall_seconds"}
            assert r["beta"] <= 0.2
            assert math.isfinite(r["mean_grad_norm"]) and r["mean_grad_norm"] > 0.0

    def test_best_metric_is_max_over_epochs(self):
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
        assert result.best_metric == max(r["val_metric"] for r in result.log)
        assert result.log[result.best_epoch]["val_metric"] == result.best_metric

    def test_patience_zero_runs_exactly_one_epoch(self):
        result = train(tiny_split(), tiny_model_cfg(),
                       tiny_train_cfg(max_epochs=10, patience=0))
        assert result.epochs_run == 1
        assert result.stopped == "early_stopping"

    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        runs = []
        for run in range(2):
            result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(str(path), result.params,
                            extra={"best_epoch": result.best_epoch})
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        a = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(seed=0))
        b = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(seed=1))
        assert not np.array_equal(a.params.head_out.W.data,
                                  b.params.head_out.W.data)

    def test_checkpoint_roundtrip(self, tmp_path):
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.params, extra={"note": "roundtrip"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "roundtrip"}
        for (na, a), (nb, b) in zip(result.params.named_parameters().items(),
                                    loaded.named_parameters().items()):
            assert na == nb
            assert np.array_equal(a.data, b.data)

    def test_model_split_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            train(tiny_split(), tiny_model_cfg(n_items=99), tiny_train_cfg())

    def test_nonfinite_loss_aborts_retaining_best(self, monkeypatch):
        fail_after(monkeypatch, 7)
        result = train(tiny_split(), tiny_model_cfg(),
                       tiny_train_cfg(max_epochs=10))
        # 2 steps per epoch (60 train users, batch 32): dies in epoch 3
        assert result.stopped.startswith("numerical")
        assert result.epochs_run >= 1
        assert result.best_epoch >= 0
        for p in result.params.named_parameters().values():
            assert np.all(np.isfinite(p.data))

    def test_snapshot_holds_the_best_epochs_parameters(self):
        # At this learning rate validation peaks at epoch 2 of 6: the
        # snapshot file is written at epochs 0, 1 and 2 and read back at
        # the end. The cut run ends on its best epoch and returns its live
        # parameters, which the snapshot must equal bit for bit.
        cfg = dict(learning_rate=0.03, max_epochs=6, patience=10)
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(**cfg))
        assert 0 < result.best_epoch < result.epochs_run - 1
        cfg["max_epochs"] = result.best_epoch + 1
        cut = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(**cfg))
        assert cut.best_epoch == result.best_epoch
        best = result.params.named_parameters()
        for name, m in cut.params.named_parameters().items():
            assert np.array_equal(best[name].data, m.data), name

    def test_validation_sees_no_parameter_gradients(self, monkeypatch):
        # Each step drops its gradients right after the Adam update.
        held = []
        real = training.evaluate

        def spy(users, params, **kw):
            held.append([n for n, p in params.named_parameters().items()
                         if p.grad is not None])
            return real(users, params, **kw)

        monkeypatch.setattr(training, "evaluate", spy)
        train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(max_epochs=2))
        assert held == [[], []]

    def test_progress_receives_the_log_records_in_order(self):
        seen = []
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(),
                       progress=seen.append)
        assert result.epochs_run > 1
        assert seen == result.log
        assert [r["epoch"] for r in seen] == list(range(result.epochs_run))


class TestSnapshot:
    """The best epoch's parameters live in a private temporary directory,
    gone on every way out of ``train``."""

    @pytest.fixture
    def temp_dir(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        saves = []
        real = training.save_checkpoint

        def counted(path, params, extra=None):
            saves.append(path)
            return real(path, params, extra)

        monkeypatch.setattr(training, "save_checkpoint", counted)
        return tmp_path, saves

    @pytest.mark.parametrize("how", ["max_epochs", "early_stopping",
                                     "numerical", "exception"])
    def test_nothing_is_left_in_the_temp_directory(self, temp_dir,
                                                   monkeypatch, how):
        tmp, saves = temp_dir
        cfg = tiny_train_cfg(max_epochs=3)
        if how == "early_stopping":
            scripted_metric(monkeypatch, [0.5, 0.4, 0.3])
            cfg = tiny_train_cfg(max_epochs=3, patience=1)
        elif how == "numerical":
            fail_after(monkeypatch, 3)  # 2 steps per epoch: dies in epoch 1
        elif how == "exception":
            scripted_metric(monkeypatch, [0.5, KeyboardInterrupt()])
        if how == "exception":
            with pytest.raises(KeyboardInterrupt):
                train(tiny_split(), tiny_model_cfg(), cfg)
        else:
            result = train(tiny_split(), tiny_model_cfg(), cfg)
            assert result.stopped.startswith(how)
        assert saves, "no snapshot was written"
        assert list(tmp.iterdir()) == []

    def test_failed_snapshot_write_propagates(self, temp_dir, monkeypatch):
        tmp, _ = temp_dir

        def full(path, params, extra=None):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(training, "save_checkpoint", full)
        with pytest.raises(OSError, match="No space left"):
            train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
        assert list(tmp.iterdir()) == []

    @pytest.mark.parametrize("how", ["nan_metric", "numerical_in_epoch_0"])
    def test_no_improvement_returns_the_initial_parameters(
            self, temp_dir, monkeypatch, how):
        if how == "nan_metric":
            scripted_metric(monkeypatch, [math.nan] * 3)
        else:
            fail_after(monkeypatch, 1)
        ds, mc, cfg = tiny_split(), tiny_model_cfg(), tiny_train_cfg(seed=4)
        result = train(ds, mc, cfg)
        assert result.best_epoch == -1 and result.best_metric == -math.inf
        assert temp_dir[1] == []
        start = init_params(mc, np.random.default_rng(4),
                            train_matrix=CSRMatrix.from_vectors(ds.train_users,
                                                                ds.n_items))
        got = result.params.named_parameters()
        for name, m in start.named_parameters().items():
            assert np.array_equal(got[name].data, m.data), name


class TestSingleBatchOverfit:
    def overfit(self, likelihood, steps=500, lr=1e-2):
        rng = np.random.default_rng(0)
        x_np = (rng.random((8, 30)) < 0.3).astype(np.float64)
        for r in range(8):
            if x_np[r].sum() == 0:
                x_np[r, 0] = 1.0
        x = CSRMatrix.from_dense(x_np)
        cfg = ModelConfig(n_items=30, hidden=32, d_z1=8, d_z2=8,
                          prior="standard", hierarchy="flat",
                          likelihood=likelihood, gated=True, n_pseudo=1)
        model_rng = np.random.default_rng(1)
        params = init_params(cfg, model_rng)
        state = OptimizerState.for_params(params)
        for _ in range(steps):
            params.zero_grad()
            with Tape() as tape:
                res = elbo(x, params, beta=0.0, rng=model_rng)
                tape.backward(ad.scale(res.elbo, -1.0))
            adam_step(params, state, lr)
        return res.recon.item(), x, x_np

    def test_multinomial_reaches_saturated_ceiling(self):
        recon, x, x_np = self.overfit("multinomial")
        ceiling = log_likelihood(Matrix(50.0 * x_np), x, "multinomial").data.mean()
        assert ceiling < 0.0
        # within 2% of the best achievable by a rank-items-first assignment
        assert recon >= 1.02 * ceiling

    def test_bernoulli_reaches_near_zero(self):
        # the saturated Bernoulli ceiling is ~0 (-M*2e-22), so a relative
        # margin is vacuous; require near-perfect reconstruction outright
        recon, x, x_np = self.overfit("bernoulli")
        ceiling = log_likelihood(Matrix(50.0 * (2.0 * x_np - 1.0)), x,
                                 "bernoulli").data.mean()
        assert abs(ceiling) < 1e-12
        assert recon > -0.01


def random_split(n_users, n_items):
    """``n_users`` training users with 20 random items each, and 20
    validation users with 8 fold-in and 4 heldout items."""
    rng = np.random.default_rng(0)

    def items(n):
        return rng.choice(n_items, n, replace=False)

    def fold():
        fold_in, heldout = np.split(items(12), [8])
        return InteractionVector(np.sort(fold_in)), InteractionVector(np.sort(heldout))

    return DatasetSplit(vocab=[str(i) for i in range(n_items)],
                        train_users=[InteractionVector(np.sort(items(20)))
                                     for _ in range(n_users)],
                        validation_users=[fold() for _ in range(20)],
                        test_users=[], seed=0)


def test_train_holds_no_users_by_items_matrix():
    # A tall, narrow split: the dense users x items float64 matrix would be
    # 640 MB. Training reads CSR batches, so what remains is a few
    # batch x items arrays of the decoder side (about 10 MB each here).
    n_users, n_items = 4000, 20000
    ds = random_split(n_users, n_items)
    mc = ModelConfig(n_items=n_items, prior="standard", hierarchy="flat",
                     gated=False, hidden=8, d_z1=8, d_z2=8)
    tc = tiny_train_cfg(batch_size=64, max_epochs=1)
    tracemalloc.start()
    try:
        result = train(ds, mc, tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.epochs_run == 1
    dense_bytes = n_users * n_items * 8
    assert peak < dense_bytes / 4, f"peak {peak / 2**20:.0f} MB"


def test_train_peak_is_a_few_copies_of_the_parameters():
    # Wide layers and a small batch, so that parameter-sized arrays
    # dominate. What train() must hold: the parameters, Adam's two moments,
    # and one step's tape while it runs. Each step frees its tape and
    # gradients before validation, the weight gradients are formed one
    # row block at a time inside the update, and the best epoch's
    # parameters are kept in a file, not in memory, so the peak stays near
    # four copies (4.17x here; 4.26x with whole weight gradients, 5.26x
    # with a snapshot buffer in memory as well).
    ratio = _train_peak_ratio(prior="standard", hierarchy="flat", gated=False)
    assert ratio < 4.25, f"peak {ratio:.2f}x parameters"


@pytest.mark.parametrize("hierarchy,bound", [("two_level", 4.1), ("flat", 4.6)])
def test_vamp_train_peak_holds_no_first_layer_gradient(hierarchy, bound):
    # The Vamp prior encodes its pseudo-inputs through the first layer too,
    # so that weight gets two products per step: the batch's and the
    # pseudo-inputs'. Both stay factors until the update forms their sum a
    # row block at a time, so no first-layer-sized gradient is alive:
    # two-level 4.00x, flat 4.52x here, against 4.45x and 4.74x when the
    # second was added into the first's array and 5.77x and 6.28x when the
    # sum was a third array. K = 50, the README quickstart's, keeps the
    # pseudo-input step's own arrays below that peak; at K = 1000 they set
    # it.
    ratio = _train_peak_ratio(prior="vamp", hierarchy=hierarchy, gated=True,
                              n_pseudo=50)
    assert ratio < bound, f"peak {ratio:.2f}x parameters"


def test_a_step_holds_a_weight_block_not_the_weight_gradients():
    # The first-layer and output weights are 8000 x 300 here, three row
    # blocks each, and hold nearly all the parameter bytes. Whole, their
    # two gradients would be alive together at the update, 3P + 2W over
    # the step; formed a block at a time inside it, the step's peak stays
    # under the parameters, both moments and one weight-sized array.
    mc = ModelConfig(n_items=8000, prior="standard", hierarchy="flat",
                     gated=False, hidden=300, d_z1=8, d_z2=8)
    rng = np.random.default_rng(11)
    x = CSRMatrix.from_dense((rng.random((16, 8000)) < 0.01).astype(float))
    tracemalloc.start()
    try:
        params = init_params(mc, rng)
        state = OptimizerState.for_params(params)
        with Tape() as tape:
            res = elbo(x, params, 0.2, rng=rng, dropout_rate=0.5)
            tape.backward(ad.scale(res.elbo, -1.0))
        adam_step(params, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    named = params.named_parameters()
    weight = named["encoder_z2.0.W"]
    assert weight.data.size > 2 * ad.GRAD_BLOCK
    param_bytes = sum(p.data.nbytes for p in named.values())
    assert peak < 3 * param_bytes + weight.data.nbytes, \
        f"peak {peak / param_bytes:.2f}x parameters"


def _train_peak_ratio(**cell):
    """Traced peak of a two-epoch train() over the parameter bytes."""
    ds = random_split(32, 1000)
    mc = ModelConfig(n_items=1000, hidden=400, d_z1=8, d_z2=8, **cell)
    tc = TrainConfig(batch_size=8, max_epochs=2, eval_metric="ndcg@10")
    tracemalloc.start()
    try:
        result = train(ds, mc, tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.epochs_run == 2
    param_bytes = sum(p.data.nbytes for p in
                      result.params.named_parameters().values())
    return peak / param_bytes
