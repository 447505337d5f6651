"""Trainer oracles: schedule values, optimizer arithmetic, stopping rules,
determinism, and the single-batch overfit ceiling."""
import math
import tracemalloc

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf import training
from vampcf.autodiff import Matrix, Tape
from vampcf.checkpoint import load_checkpoint, save_checkpoint
from vampcf.data import DatasetSplit, InteractionVector
from vampcf.data import split as make_split
from vampcf.errors import ConfigError, DataError, NumericalError
from vampcf.model import (ModelConfig, ElboResult, elbo, init_params,
                          log_lik_bernoulli, log_lik_multinomial)
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


class TestTrainLoop:
    def test_log_has_one_record_per_epoch(self):
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg())
        assert [r["epoch"] for r in result.log] == list(range(len(result.log)))
        for r in result.log:
            assert set(r) == {"epoch", "mean_elbo", "mean_recon", "mean_kl_z1",
                              "mean_kl_z2", "beta", "val_metric", "wall_seconds"}
            assert r["beta"] <= 0.2

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
        calls = {"n": 0}
        real = training.elbo

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:
                res = real(*args, **kwargs)
                return ElboResult(elbo=ad.constant(np.array([[math.inf]])),
                                  recon=res.recon, kl_z1=res.kl_z1,
                                  kl_z2_ce=res.kl_z2_ce)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "elbo", flaky)
        result = train(tiny_split(), tiny_model_cfg(),
                       tiny_train_cfg(max_epochs=10))
        # 2 steps per epoch (60 train users, batch 32): dies in epoch 3
        assert result.stopped.startswith("numerical")
        assert result.epochs_run >= 1
        assert result.best_epoch >= 0
        for p in result.params.named_parameters().values():
            assert np.all(np.isfinite(p.data))

    def test_log_file_is_json_lines(self, tmp_path):
        import json
        path = tmp_path / "train.jsonl"
        result = train(tiny_split(), tiny_model_cfg(), tiny_train_cfg(),
                       log_path=str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == result.epochs_run
        for i, line in enumerate(lines):
            assert json.loads(line)["epoch"] == i


class TestSingleBatchOverfit:
    def overfit(self, likelihood, steps=500, lr=1e-2):
        rng = np.random.default_rng(0)
        x_np = (rng.random((8, 30)) < 0.3).astype(np.float64)
        for r in range(8):
            if x_np[r].sum() == 0:
                x_np[r, 0] = 1.0
        x = Matrix(x_np)
        cfg = ModelConfig(n_items=30, hidden=32, d_z1=8, d_z2=8,
                          prior="standard", hierarchy="flat",
                          likelihood=likelihood, gated=True, n_pseudo=1)
        model_rng = np.random.default_rng(1)
        params = init_params(cfg, model_rng)
        state = OptimizerState.for_params(params)
        for _ in range(steps):
            params.zero_grad()
            with Tape() as tape:
                res = elbo(x, params, beta=0.0, rng=model_rng, mode="eval")
                tape.backward(ad.scale(res.elbo, -1.0))
            adam_step(params, state, lr)
        return res.recon.item(), x, x_np

    def test_multinomial_reaches_saturated_ceiling(self):
        recon, x, x_np = self.overfit("multinomial")
        ceiling = log_lik_multinomial(Matrix(50.0 * x_np), x).data.mean()
        assert ceiling < 0.0
        # within 2% of the best achievable by a rank-items-first assignment
        assert recon >= 1.02 * ceiling

    def test_bernoulli_reaches_near_zero(self):
        # the saturated Bernoulli ceiling is ~0 (-M*2e-22), so a relative
        # margin is vacuous; require near-perfect reconstruction outright
        recon, x, x_np = self.overfit("bernoulli")
        ceiling = log_lik_bernoulli(Matrix(50.0 * (2.0 * x_np - 1.0)), x).data.mean()
        assert abs(ceiling) < 1e-12
        assert recon > -0.01


def test_train_holds_no_users_by_items_matrix():
    # A tall, narrow split: the dense users x items float64 matrix would be
    # 640 MB. Training reads CSR batches, so what remains is a few
    # batch x items arrays of the decoder side (about 10 MB each here).
    n_users, n_items = 4000, 20000
    rng = np.random.default_rng(0)

    def items(n):
        return rng.choice(n_items, n, replace=False)

    def fold(u):
        fold_in, heldout = np.split(items(12), [8])
        return (InteractionVector(u, np.sort(fold_in)),
                InteractionVector(u, np.sort(heldout)))

    ds = DatasetSplit(vocab=[str(i) for i in range(n_items)],
                      train_users=[InteractionVector(u, np.sort(items(20)))
                                   for u in range(n_users)],
                      validation_users=[fold(u) for u in range(20)],
                      test_users=[], seed=0)
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
