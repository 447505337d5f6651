"""The benchmark's workloads: seeded inputs, measured calls, output checks.

Every workload uses the paper's sizes (hidden 600, latent 200, K = 1000
pseudo-inputs, batch 256) on data from
``vampcf.synthetic.archetype_interactions`` with the run's seed. The
program only sees the generated ratings file and what it derives from
it. Each run sets up several times, half before and half after the
measured calls (``setup_s`` is their median), and in between repeats the
workload's measured call until the run's seconds are spent and reports
the median repetition. Epoch counts are fixed so that one
training call takes long enough to average out the machine's
second-to-second speed changes.
"""
import hashlib
import math
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from vampcf import checkpoint, data, metrics, model, synthetic, training

KS = (20, 50, 100)
SIZES = {"hidden": 600, "d_z1": 200, "d_z2": 200, "n_pseudo": 1000}
BATCH = 256
ORACLE_USERS = 64
BASELINE_SECONDS = 2.0
TOL = 1e-12
MB = 2.0 ** 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train": training.train(); "eval": load + evaluate
    model: dict          # prior / hierarchy / gated
    n_items: int
    n_archetypes: int
    min_items: int
    max_items: int
    n_train: int
    n_heldout: int       # validation users and, as many again, test users
    epochs: int = 1
    learning_rate: float = 1e-3
    # Set-ups per run. A train-* set-up takes about a second, so its median
    # needs many of them to hold still; an eval-* one writes 608 MB.
    setups: int = 9

    @property
    def items_generated(self):
        """The generator needs a multiple of the archetype count."""
        return self.n_items - self.n_items % self.n_archetypes


H_VAMP_GATED = {"prior": "vamp", "hierarchy": "two_level", "gated": True}
MULTI_VAE = {"prior": "standard", "hierarchy": "flat", "gated": False}

WORKLOADS = {w.name: w for w in (
    Workload("train-hvamp-4k", "train", H_VAMP_GATED, n_items=4000,
             n_archetypes=8, min_items=50, max_items=110, n_train=2000,
             n_heldout=200, epochs=2),
    # Two epochs are 16 steps; at the default learning rate they leave
    # multi_vae within 2-6% of popularity's NDCG@100 on some seeds, at
    # twice that rate about 2x above it, at the same cost per step.
    Workload("train-multvae-20k", "train", MULTI_VAE, n_items=20108,
             n_archetypes=4, min_items=40, max_items=100, n_train=2000,
             n_heldout=200, epochs=2, learning_rate=2e-3),
    # 1,500 validation plus 1,500 test users give the 3,000 evaluated users.
    Workload("eval-hvamp-20k", "eval", H_VAMP_GATED, n_items=20108,
             n_archetypes=4, min_items=40, max_items=100, n_train=2000,
             n_heldout=1500, setups=4),
)}


class Outcome:
    """Attempted and failed operations plus the named output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def count(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok, detail=""):
        ok = bool(ok)
        self.count(1, 0 if ok else 1)
        if not ok or name not in self.checks:
            self.checks[name] = {"ok": ok, "detail": detail}


def _digest(params):
    h = hashlib.blake2b()
    for p in params.named_parameters().values():
        h.update(memoryview(np.ascontiguousarray(p.data)).cast("B"))
    return h.hexdigest()


def _param_bytes(params):
    return sum(p.data.nbytes for p in params.named_parameters().values())


def model_config(w, n_items):
    return model.ModelConfig(n_items=n_items, **w.model, **SIZES)


def setup(w, seed, workdir):
    """Generate, write and ingest the ratings, split them; on eval also
    initialise and save the checkpoint. Returns the state the measured
    calls use; the caller times this whole function."""
    raw = synthetic.archetype_interactions(
        n_users=w.n_train + 2 * w.n_heldout, n_items=w.items_generated,
        n_archetypes=w.n_archetypes, seed=seed, min_items=w.min_items,
        max_items=w.max_items)
    ratings = os.path.join(workdir, "ratings.csv")
    synthetic.write_ratings_csv(raw, ratings)
    ds = data.split(data.ingest(ratings), w.n_heldout, seed=seed)
    state = {"split": ds, "ckpt": None}
    if w.kind == "eval":
        params = model.init_params(model_config(w, ds.n_items),
                                   np.random.default_rng(seed))
        state["ckpt"] = checkpoint.save_checkpoint(
            os.path.join(workdir, "model.ckpt"), params)
        state["params"] = params
    return state


def shapes(w, ds):
    """Every realised input size of a run."""
    n = ds.n_items
    train_nnz = sum(u.n_items for u in ds.train_users)
    heldout = ds.validation_users + ds.test_users
    fold_nnz = sum(fi.n_items for fi, _ in heldout)
    # The first layer sees training rows on train-*, fold-in rows on eval-*.
    nnz, rows = (train_nnz, len(ds.train_users)) if w.kind == "train" \
        else (fold_nnz, len(heldout))
    return {
        "n_items_generated": w.items_generated,
        "n_items": n,
        "n_train_users": len(ds.train_users),
        "n_validation_users": len(ds.validation_users),
        "n_test_users": len(ds.test_users),
        "train_interactions": train_nnz,
        "train_density": train_nnz / (len(ds.train_users) * n),
        "heldout_fold_in_interactions": fold_nnz,
        "first_layer_nnz_frac": nnz / (rows * n),
        "discarded": dict(ds.diagnostics),
    }


def oracle_check(outcome, label, users, scorer, scores_fn, n_items, seed):
    """evaluate() on a seeded sample of users must match the per-user
    ndcg_at_k / recall_at_k oracle on the same scores to 1e-12."""
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(len(users), size=min(ORACLE_USERS, len(users)),
                              replace=False))
    sample = [users[i] for i in pick]
    report = metrics.evaluate(sample, scorer, ks=KS, n_items=n_items,
                              keep_per_user=True)
    scores = scores_fn(sample)
    worst = 0.0
    oracle = {"ndcg": metrics.ndcg_at_k, "recall": metrics.recall_at_k}
    for u, metric, k, value in report.per_user:
        fi, ho = sample[u]
        ref = oracle[metric](scores[u], ho.item_indices, fi.item_indices, k)
        worst = max(worst, abs(value - ref))
    for row in report.rows:
        vals = [v for _, m, k, v in report.per_user if m == row.metric and k == row.k]
        worst = max(worst, abs(row.mean - float(np.mean(vals))))
    outcome.check(f"oracle_{label}", worst <= TOL,
                  f"max abs difference {worst:.3g} over {len(sample)} users")


def _evaluate(outcome, users, scorer, label):
    """Timed evaluate(); a call that raises fails every user in it."""
    t0 = time.perf_counter()
    try:
        report = metrics.evaluate(users, scorer, ks=KS)
    except Exception as e:  # noqa: BLE001 - counted and reported as a failure
        outcome.count(len(users), len(users))
        outcome.check(f"{label}_evaluate_raised", False, repr(e))
        return None, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    outcome.count(len(users))
    ok = report.n_users == len(users) and report.n_skipped == 0 and all(
        math.isfinite(r.mean) and 0.0 <= r.mean <= 1.0 for r in report.rows)
    outcome.check(f"{label}_report_valid", ok,
                  f"{report.n_users} users, {report.n_skipped} skipped")
    return report, dt


class _Bench:
    """State shared by both kinds: the split, its heldout users and the
    popularity scores, whose evaluation is ranking only."""

    def __init__(self, w, seed, state, outcome):
        self.w, self.seed, self.outcome = w, seed, outcome
        self.ds = state["split"]
        self.users = self.ds.validation_users + self.ds.test_users
        self.pop = metrics.popularity_baseline(self.ds.train_users, self.ds.n_items)
        self.baseline_rates = []

    def baseline(self, seconds):
        """Time popularity-scored evaluate() on the heldout users until
        ``seconds`` are spent, at least once."""
        spent = 0.0
        while spent < seconds or not spent:
            report, dt = _evaluate(self.outcome, self.users, self.pop, "baseline")
            if report is not None:
                self.baseline_rates.append(len(self.users) / dt)
            spent += dt

    def _scores(self, params):
        n = self.ds.n_items
        return lambda sample: model.score_items(
            data.to_dense_batch([fi for fi, _ in sample], n), params).data

    def _check_popularity_oracle(self, users):
        oracle_check(self.outcome, "popularity", users, self.pop,
                     lambda sample: np.tile(self.pop, (len(sample), 1)),
                     self.ds.n_items, self.seed)


class TrainWorkload(_Bench):
    """One repetition is one training.train() call of ``epochs`` epochs."""

    def __init__(self, w, seed, state, outcome):
        super().__init__(w, seed, state, outcome)
        self.mc = model_config(w, self.ds.n_items)
        self.tc = training.TrainConfig(batch_size=BATCH, max_epochs=w.epochs,
                                       learning_rate=w.learning_rate,
                                       patience=w.epochs, seed=seed,
                                       eval_metric="ndcg@100")
        self.steps_per_epoch = math.ceil(len(self.ds.train_users) / BATCH)
        self.first_log = None
        self.result = None

    def rep(self):
        o, steps = self.outcome, self.w.epochs * self.steps_per_epoch
        t0 = time.perf_counter()
        try:
            res = training.train(self.ds, self.mc, self.tc)
        except Exception as e:  # noqa: BLE001 - counted and reported as a failure
            o.count(steps, steps)
            o.check("train_raised", False, repr(e))
            return None
        dt = time.perf_counter() - t0
        # Only whole epochs are logged; a stopped epoch's steps all fail.
        completed = len(res.log) * self.steps_per_epoch \
            if res.stopped == "max_epochs" else 0
        o.count(steps, steps - completed)
        o.check("stopped_max_epochs", res.stopped == "max_epochs", res.stopped)
        o.check("log_finite", len(res.log) == self.w.epochs and all(
            math.isfinite(v) for r in res.log for v in r.values()),
            f"{len(res.log)} records")
        log = [{k: v for k, v in r.items() if k != "wall_seconds"} for r in res.log]
        if self.first_log is None:
            self.first_log = log
        o.check("train_deterministic", log == self.first_log,
                "repeated train() calls give the same log")
        self.result = res
        return len(self.ds.train_users) * self.w.epochs / dt

    def finish(self):
        """Quality guard and oracle checks on the test users."""
        ds, o = self.ds, self.outcome
        if self.result is None:
            return {}
        params = self.result.params
        out = {}
        for label, scorer in (("model", params), ("popularity", self.pop)):
            report, _ = _evaluate(o, ds.test_users, scorer, label)
            if report is not None:
                out[f"{label}_ndcg_100"] = report.row("ndcg", 100).mean
        ndcg, ref = out.get("model_ndcg_100"), out.get("popularity_ndcg_100")
        if ndcg is not None and ref is not None:
            o.check("beats_popularity", ndcg > ref,
                    f"NDCG@100 {ndcg:.5f} vs popularity {ref:.5f}")
        oracle_check(o, "model", ds.test_users, params, self._scores(params),
                     ds.n_items, self.seed)
        self._check_popularity_oracle(ds.test_users)
        return out

    def computed(self):
        pbytes = _param_bytes(self.result.params) if self.result else 0
        return {"model.param_mb": pbytes / MB,
                "training.optimizer_mb": 2 * pbytes / MB,
                "training.dense_mb":
                    len(self.ds.train_users) * self.ds.n_items * 8 / MB,
                "checkpoint.mb": 0.0}


class EvalWorkload(_Bench):
    """One repetition loads the checkpoint and evaluates the model on every
    heldout user, as ``vampcf eval`` does."""

    def __init__(self, w, seed, state, outcome):
        super().__init__(w, seed, state, outcome)
        self.path = state["ckpt"]
        self.saved_digest = _digest(state.pop("params"))
        self.first = None
        self.param_bytes = 0

    def rep(self):
        o = self.outcome
        t0 = time.perf_counter()
        try:
            params, _ = checkpoint.load_checkpoint(self.path)
            report = metrics.evaluate(self.users, params, ks=KS)
        except Exception as e:  # noqa: BLE001 - counted and reported as a failure
            o.count(len(self.users), len(self.users))
            o.check("eval_raised", False, repr(e))
            return None
        dt = time.perf_counter() - t0
        o.count(len(self.users))
        if self.first is None:
            self.first = report
            o.check("checkpoint_round_trip", _digest(params) == self.saved_digest,
                    "loaded parameters are bit-identical to the saved ones")
            self.param_bytes = _param_bytes(params)
            oracle_check(o, "model", self.users, params, self._scores(params),
                         self.ds.n_items, self.seed)
        o.check("eval_deterministic", report.to_dict() == self.first.to_dict(),
                "repeated evaluations give the same report")
        return len(self.users) / dt

    def finish(self):
        self._check_popularity_oracle(self.users)
        if self.first is None:
            return {}
        return {"model_ndcg_100": self.first.row("ndcg", 100).mean}

    def computed(self):
        return {"model.param_mb": self.param_bytes / MB,
                "training.optimizer_mb": 0.0, "training.dense_mb": 0.0,
                "checkpoint.mb": os.path.getsize(self.path) / MB}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
