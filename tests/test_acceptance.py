"""Acceptance suite: nine numbered end-to-end checks, one verdict line each.

The verdict lines print unbuffered (outside pytest's capture) so a plain
``pytest tests/test_acceptance.py -v`` shows them inline. Checks 6 and 7
train real models on the synthetic archetype dataset and compare against
the popularity baseline on heldout users; check 7 is reported but never
fails the build, matching its soft, noise-dominated nature at this scale.
"""
import math
import os
import time

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf.autodiff import Matrix, Tape
from vampcf.cli import main
from vampcf.data import CSRMatrix, InteractionVector, split
from vampcf.gridcheck import TOLERANCE, grid_cells, run_grid
from vampcf.metrics import evaluate, ndcg_at_k, popularity_baseline, recall_at_k
from vampcf.model import (GaussianParams, ModelConfig, elbo,
                          elbo_decomposition, encode_z2, init_params,
                          kl_diag_gauss, log_likelihood, vamp_log_density)
from vampcf.synthetic import archetype_interactions, write_ratings_csv
from vampcf.training import OptimizerState, TrainConfig, adam_step, train

BENCH = dict(hidden=128, d_z1=32, d_z2=32, n_pseudo=50)
BENCH_TRAIN = dict(batch_size=128, max_epochs=30, beta_cap=0.2, patience=5,
                   eval_metric="ndcg@10")


def verdict(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def bench_split():
    data = archetype_interactions(n_users=1200, n_items=300, n_archetypes=3,
                                  seed=0)
    ds = split(data, n_heldout_users=120, seed=0)
    pop = popularity_baseline(ds.train_users, ds.n_items)
    pop_ndcg = evaluate(ds.test_users, pop, ks=[10]).row("ndcg", 10).mean
    return ds, pop_ndcg


def test_1_gradient_check_full_grid(capsys):
    t0 = time.perf_counter()
    results = run_grid(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120
    verdict(capsys, f"[1] gradient grid: {'PASS' if ok else 'FAIL'}  "
            f"{len(results)} cells, max rel err {worst:.2e} "
            f"(tol {TOLERANCE:g}), {elapsed:.1f}s (budget 120s)")
    assert all(r.passed for r in results), \
        [r.name for r in results if not r.passed]
    assert elapsed < 120


def brute_rank(scores, mask):
    order = sorted((i for i in range(len(scores)) if i not in mask),
                   key=lambda i: (-scores[i], i))
    return order


def brute_ndcg(scores, heldout, mask, k):
    top = brute_rank(scores, mask)[:k]
    dcg = sum(1.0 / math.log2(r + 2) for r, i in enumerate(top) if i in heldout)
    ideal = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(heldout))))
    return dcg / ideal


def brute_recall(scores, heldout, mask, k):
    top = brute_rank(scores, mask)[:k]
    hits = sum(1 for i in top if i in heldout)
    return hits / min(k, len(heldout))


def test_2_metric_oracle_equivalence(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(5, 21))
        k = int(rng.integers(1, 11))
        # half-integer scores force plenty of ties
        scores = rng.integers(0, 4, size=m) / 2.0
        owned = rng.permutation(m)
        n_mask = int(rng.integers(0, m - 1))
        n_held = int(rng.integers(1, m - n_mask))
        mask = set(owned[:n_mask].tolist())
        heldout = set(owned[n_mask:n_mask + n_held].tolist())
        # The same instance through the batched evaluation path.
        report = evaluate([(InteractionVector(sorted(mask)),
                            InteractionVector(sorted(heldout)))],
                          scores, ks=[k], keep_per_user=True)
        batched = {metric: v for _, metric, _, v in report.per_user}
        worst = max(
            worst,
            abs(ndcg_at_k(scores, heldout, mask, k)
                - brute_ndcg(scores, heldout, mask, k)),
            abs(recall_at_k(scores, heldout, mask, k)
                - brute_recall(scores, heldout, mask, k)),
            abs(batched["ndcg"] - brute_ndcg(scores, heldout, mask, k)),
            abs(batched["recall"] - brute_recall(scores, heldout, mask, k)))
    ok = worst < 1e-12
    verdict(capsys, f"[2] metric oracle: {'PASS' if ok else 'FAIL'}  "
            f"1000 instances, per-user and batched, max diff {worst:.2e} "
            f"(tol 1e-12)")
    assert worst < 1e-12


def test_3_kl_and_prior_identities(capsys):
    rng = np.random.default_rng(0)

    # nonnegativity on random pairs; zero at equality
    q = GaussianParams(Matrix(rng.normal(size=(10000, 4))),
                       Matrix(rng.uniform(-3, 3, size=(10000, 4))))
    p = GaussianParams(Matrix(rng.normal(size=(10000, 4))),
                       Matrix(rng.uniform(-3, 3, size=(10000, 4))))
    kls = kl_diag_gauss(q, p).data
    min_kl = float(kls.min())
    eq_kl = float(np.abs(kl_diag_gauss(q, q).data).max())

    # closed form and Monte Carlo for KL(N(1,1) || N(0,1)) = 1/2
    one = GaussianParams(Matrix(np.ones((1, 1))), Matrix(np.zeros((1, 1))))
    std = GaussianParams(Matrix(np.zeros((1, 1))), Matrix(np.zeros((1, 1))))
    closed = kl_diag_gauss(one, std).item()
    z = rng.normal(loc=1.0, scale=1.0, size=1_000_000)
    mc = np.mean(-0.5 * (z - 1.0) ** 2 + 0.5 * z ** 2)

    # mixture prior normalizes on 1-D latents
    grid = np.linspace(-30.0, 30.0, 120001).reshape(-1, 1)
    int_errs = []
    for seed in range(3):
        r2 = np.random.default_rng(seed)
        cfg = ModelConfig(n_items=8, prior="vamp", hierarchy="flat",
                          gated=bool(seed % 2), hidden=6, d_z1=1, d_z2=1,
                          n_pseudo=3)
        params = init_params(cfg, r2)
        log_pdf = vamp_log_density(Matrix(grid), params).data[:, 0]
        int_errs.append(abs(np.trapezoid(np.exp(log_pdf), grid[:, 0]) - 1.0))
    int_err = max(int_errs)

    # one pseudo-input per training row reproduces the aggregated posterior
    r3 = np.random.default_rng(7)
    x = (r3.random((6, 10)) < 0.4).astype(float)
    x[x.sum(axis=1) == 0, 0] = 1.0
    cfg = ModelConfig(n_items=10, prior="vamp", hierarchy="flat", hidden=5,
                      d_z1=3, d_z2=3, n_pseudo=6)
    params = init_params(cfg, r3)
    params.pseudo_inputs.data[:] = x
    g = encode_z2(Matrix(x), params)
    zs = r3.normal(size=(40, 3))
    got = vamp_log_density(Matrix(zs), params).data[:, 0]
    comp = np.empty((40, 6))
    for n in range(6):
        mu, lv = g.mean.data[n], g.log_var.data[n]
        comp[:, n] = -0.5 * np.sum(
            lv + math.log(2 * math.pi) + (zs - mu) ** 2 / np.exp(lv), axis=1)
    oracle = np.logaddexp.reduce(comp, axis=1) - math.log(6)
    agg_err = float(np.abs(got - oracle).max())

    ok = (min_kl > -1e-12 and eq_kl < 1e-12 and abs(closed - 0.5) < 1e-12
          and abs(mc - 0.5) < 0.01 and int_err < 1e-4 and agg_err < 1e-12)
    verdict(capsys, f"[3] divergence identities: {'PASS' if ok else 'FAIL'}  "
            f"min KL {min_kl:.1e}, closed {closed:.12f}, mc {mc:.4f}, "
            f"integral err {int_err:.1e}, aggregated-posterior err {agg_err:.1e}")
    assert min_kl > -1e-12 and eq_kl < 1e-12
    assert abs(closed - 0.5) < 1e-12
    assert abs(mc - 0.5) < 0.01
    assert int_err < 1e-4
    assert agg_err < 1e-12


def test_4_likelihood_spot_values(capsys):
    x = CSRMatrix.from_dense(np.array([[1.0, 0.0, 1.0, 0.0]]))
    uniform = log_likelihood(Matrix(np.zeros((1, 4))), x, "multinomial").item()
    skewed = log_likelihood(
        Matrix(np.array([[math.log(3.0), 0.0, 0.0, 0.0]])), x, "multinomial").item()
    exact_uniform = 2.0 * math.log(1.0 / 4.0)
    exact_skewed = math.log(0.5) + math.log(1.0 / 6.0)
    ok = (abs(uniform - exact_uniform) < 1e-9
          and abs(skewed - exact_skewed) < 1e-9
          and round(uniform, 6) == -2.772589 and round(skewed, 6) == -2.484907)
    verdict(capsys, f"[4] likelihood spot values: {'PASS' if ok else 'FAIL'}  "
            f"uniform {uniform:.6f} (want -2.772589), "
            f"skewed {skewed:.6f} (want -2.484907), tol 1e-9")
    assert abs(uniform - exact_uniform) < 1e-9
    assert round(uniform, 6) == -2.772589
    assert abs(skewed - exact_skewed) < 1e-9
    assert round(skewed, 6) == -2.484907


def test_5_single_batch_overfit(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    x = (rng.random((8, 30)) < 0.3).astype(float)
    x[x.sum(axis=1) == 0, 0] = 1.0
    counts = x.sum(axis=1)
    # best achievable multinomial term: probability x_i / n_u on consumed items
    ceiling = float(np.mean(-counts * np.log(counts)))

    cfg = ModelConfig(n_items=30, prior="standard", hierarchy="flat",
                      gated=True, likelihood="multinomial", hidden=32,
                      d_z1=8, d_z2=8, n_pseudo=1)
    params = init_params(cfg, rng, train_matrix=CSRMatrix.from_dense(x))
    state = OptimizerState.for_params(params)
    xm = Matrix(x)
    recon = -math.inf
    for _ in range(500):
        params.zero_grad()
        with Tape() as tape:
            res = elbo(xm, params, beta=0.0, rng=rng)
            tape.backward(ad.scale(res.elbo, -1.0))
        adam_step(params, state, lr=1e-2)
        recon = res.recon.item()
    elapsed = time.perf_counter() - t0
    # both sides are negative: within 2 percent means recon >= 1.02 * ceiling
    ok = recon >= 1.02 * ceiling and elapsed < 60
    verdict(capsys, f"[5] single-batch overfit: {'PASS' if ok else 'FAIL'}  "
            f"recon {recon:.4f} vs ceiling {ceiling:.4f} "
            f"(ratio {recon / ceiling:.4f}, need <= 1.02), "
            f"{elapsed:.1f}s (budget 60s)")
    assert recon >= 1.02 * ceiling
    assert elapsed < 60


def test_6_end_to_end_beats_popularity(capsys, bench_split):
    ds, pop_ndcg = bench_split
    lines, failures = [], []
    for name, kw in grid_cells():
        mc = ModelConfig(n_items=ds.n_items, **BENCH, **kw)
        tc = TrainConfig(seed=0, **BENCH_TRAIN)
        t0 = time.perf_counter()
        res = train(ds, mc, tc)
        elapsed = time.perf_counter() - t0
        test = evaluate(ds.test_users, res.params, ks=[10]).row("ndcg", 10).mean
        ratio = test / pop_ndcg
        lines.append(f"      {name:40s} ndcg@10 {test:.4f} ({ratio:.2f}x) "
                     f"{res.epochs_run:2d} epochs {elapsed:5.1f}s")
        if ratio < 1.2 or elapsed >= 600:
            failures.append(name)
    ok = not failures
    verdict(capsys, f"[6] end-to-end learning: {'PASS' if ok else 'FAIL'}  "
            f"popularity ndcg@10 {pop_ndcg:.4f}, bar {1.2 * pop_ndcg:.4f} "
            f"(+20%), budget 600s/cell\n" + "\n".join(lines))
    assert not failures, failures


def test_7_relative_ordering_ten_seeds(capsys):
    models = {
        "multi_vae": dict(prior="standard", hierarchy="flat", gated=False),
        "vamp": dict(prior="vamp", hierarchy="flat", gated=False),
        "h_vamp_gated": dict(prior="vamp", hierarchy="two_level", gated=True),
    }
    data = archetype_interactions(n_users=1200, n_items=300, n_archetypes=3,
                                  seed=0)
    scores = {name: [] for name in models}
    for seed in range(10):
        ds = split(data, n_heldout_users=120, seed=seed)
        for name, kw in models.items():
            mc = ModelConfig(n_items=ds.n_items, likelihood="multinomial",
                             **BENCH, **kw)
            tc = TrainConfig(seed=seed, **BENCH_TRAIN)
            res = train(ds, mc, tc)
            test = evaluate(ds.test_users, res.params,
                            ks=[10]).row("ndcg", 10).mean
            scores[name].append(test)
    means = {name: float(np.mean(v)) for name, v in scores.items()}
    violations = []
    if means["vamp"] < means["multi_vae"]:
        violations.append("vamp < multi_vae")
    if means["h_vamp_gated"] < means["multi_vae"]:
        violations.append("h_vamp_gated < multi_vae")
    status = "PASS" if not violations else "SOFT-FAIL (reported, not gated)"
    detail = "  ".join(f"{n} {m:.4f}" for n, m in means.items())
    line = f"[7] ten-seed ordering: {status}  {detail}"
    if violations:
        per_seed = {n: [round(v, 4) for v in vals] for n, vals in scores.items()}
        line += f"\n      violations: {violations}\n      per-seed: {per_seed}"
    verdict(capsys, line)
    # soft check: orderings at this scale sit within seed noise, so the
    # result is reported above rather than asserted


def test_8_determinism_full_pipeline(capsys, tmp_path):
    data = archetype_interactions(n_users=120, n_items=60, n_archetypes=2,
                                  seed=3, min_items=8, max_items=15)
    ratings = tmp_path / "ratings.csv"
    write_ratings_csv(data, str(ratings))

    def pipeline(tag):
        root = tmp_path / tag
        assert main(["prepare", "--ratings", str(ratings), "--heldout-users",
                     "15", "--seed", "7", "--out", str(root / "split")]) == 0
        assert main(["train", "--data", str(root / "split"), "--out",
                     str(root / "run"), "--quiet",
                     "--set", "model.hidden=16", "--set", "model.d_z1=4",
                     "--set", "model.d_z2=4", "--set", "model.k=3",
                     "--set", "train.max_epochs=3", "--set",
                     "train.batch_size=32", "--set",
                     "train.eval_metric=ndcg@10"]) == 0
        assert main(["eval", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(root / "split"), "--ks", "5,10",
                     "--out", str(root / "run")]) == 0
        out = {}
        for name in ("run/model.ckpt", "run/metrics_test.json",
                     "run/metrics_test.txt"):
            with open(root / name, "rb") as f:
                out[name] = f.read()
        return out

    a, b = pipeline("a"), pipeline("b")
    same = [name for name in a if a[name] == b[name]]
    ok = len(same) == len(a)
    verdict(capsys, f"[8] determinism: {'PASS' if ok else 'FAIL'}  "
            f"{len(same)}/{len(a)} artifacts byte-identical across two "
            f"prepare/train/eval runs")
    assert a == b


def test_9_decomposition_matches_objective(capsys):
    rng = np.random.default_rng(0)
    worst_z = 0.0
    for _ in range(50):
        prior = ["standard", "vamp"][int(rng.integers(2))]
        cfg = ModelConfig(
            n_items=int(rng.integers(6, 14)), prior=prior, hierarchy="flat",
            gated=bool(rng.integers(2)),
            likelihood=["multinomial", "bernoulli"][int(rng.integers(2))],
            hidden=int(rng.integers(4, 10)), d_z1=3, d_z2=3,
            n_pseudo=int(rng.integers(1, 4)))
        x = (rng.random((3, cfg.n_items)) < 0.4).astype(float)
        x[x.sum(axis=1) == 0, 0] = 1.0
        params = init_params(cfg, rng, train_matrix=CSRMatrix.from_dense(x))
        xm = Matrix(x)
        dec = elbo_decomposition(xm, params, n_mc=200, rng=rng)
        lhs = dec.posterior_entropy - dec.cross_entropy_prior
        if prior == "standard":
            kl, se_kl = elbo(xm, params, 0.0, rng=rng).kl_z2_ce.item(), 0.0
        else:
            draws = np.array([elbo(xm, params, 0.0, rng=rng).kl_z2_ce.item()
                              for _ in range(200)])
            kl, se_kl = draws.mean(), draws.std(ddof=1) / math.sqrt(200)
        se = math.sqrt(dec.cross_entropy_se ** 2 + se_kl ** 2)
        worst_z = max(worst_z, abs(lhs + kl) / se)
    ok = worst_z <= 3.0
    verdict(capsys, f"[9] decomposition consistency: {'PASS' if ok else 'FAIL'}  "
            f"50 flat models, worst |z| {worst_z:.2f} (limit 3 MC standard "
            f"errors)")
    assert worst_z <= 3.0
