"""Minibatch training: KL warm-up, adaptive-moment updates, early stopping.

Each epoch shuffles the training users with the run's rng, walks
minibatches of the negated objective, then scores the validation users
with the ranking metric named in the config. The best-scoring parameter
snapshot is kept; training stops when the metric has not improved for
``patience`` consecutive epochs, at ``max_epochs``, or on the first
non-finite loss or gradient (best snapshot retained).
"""
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tape
from .data import CSRMatrix
from .errors import ConfigError, DataError, NumericalError
from .metrics import METRIC_NAMES, evaluate
from .model import elbo, init_params

ANNEAL_EPOCHS_DEFAULT = 20


@dataclass
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 50
    learning_rate: float = 1e-3
    beta_cap: float = 0.2
    anneal_steps: int | None = None  # None: warm up over the first 20 epochs
    dropout_rate: float = 0.5
    patience: int = 5
    seed: int = 0
    eval_metric: str = "ndcg@100"

    def __post_init__(self):
        if not 0.0 <= self.beta_cap <= 1.0:
            raise ConfigError(f"beta_cap must be in [0, 1], got {self.beta_cap}")
        if self.anneal_steps is not None and self.anneal_steps < 1:
            raise ConfigError("anneal_steps must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        parse_metric(self.eval_metric)

    def to_dict(self):
        return {
            "batch_size": self.batch_size, "max_epochs": self.max_epochs,
            "learning_rate": self.learning_rate, "beta_cap": self.beta_cap,
            "anneal_steps": self.anneal_steps, "dropout_rate": self.dropout_rate,
            "patience": self.patience, "seed": self.seed,
            "eval_metric": self.eval_metric,
        }


def parse_metric(spec):
    """'ndcg@100' -> ('ndcg', 100)."""
    name, _, k = spec.lower().partition("@")
    if name not in METRIC_NAMES or not k.isdigit() or int(k) < 1:
        raise ConfigError(f"eval_metric must look like 'ndcg@100', got {spec!r}")
    return name, int(k)


def beta_at(step, cfg):
    """Linear warm-up: min(beta_cap, beta_cap * step / anneal_steps)."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    if cfg.anneal_steps is None:
        raise ConfigError("anneal_steps is unresolved; derive it from the "
                          "dataset before calling beta_at")
    return min(cfg.beta_cap, cfg.beta_cap * step / cfg.anneal_steps)


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params):
        named = params.named_parameters()
        return cls(m={n: np.zeros_like(p.data) for n, p in named.items()},
                   v={n: np.zeros_like(p.data) for n, p in named.items()})


def adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected adaptive-moment update over every named parameter."""
    state.step += 1
    for name, p in params.named_parameters().items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericalError(
                f"non-finite gradient in {name} at optimizer step {state.step}")
        kernels.adam_update(p.data, g, state.m[name], state.v[name],
                            state.step, lr, beta1, beta2, eps)


@dataclass
class TrainResult:
    params: object            # best snapshot
    best_epoch: int
    best_metric: float
    log: list = field(default_factory=list)
    stopped: str = "max_epochs"

    @property
    def epochs_run(self):
        return len(self.log)


def _batches(order, batch_size):
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def train(split, model_cfg, cfg, log_path=None, progress=None):
    """Optimize -ELBO on the split's training users; returns the best
    snapshot by validation metric plus the per-epoch log."""
    if not split.train_users:
        raise DataError("split has no training users")
    if not split.validation_users:
        raise DataError("split has no validation users")
    if model_cfg.n_items != split.n_items:
        raise ConfigError(f"model expects {model_cfg.n_items} items, "
                          f"split has {split.n_items}")

    n = len(split.train_users)
    train_matrix = CSRMatrix.from_vectors(split.train_users, split.n_items)

    steps_per_epoch = math.ceil(n / cfg.batch_size)
    if cfg.anneal_steps is None:
        cfg = replace(cfg, anneal_steps=ANNEAL_EPOCHS_DEFAULT * steps_per_epoch)
    metric_name, metric_k = parse_metric(cfg.eval_metric)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(model_cfg, rng, train_matrix=train_matrix)
    state = OptimizerState.for_params(params)

    best_metric, best_params, best_epoch = -math.inf, params.copy(), -1
    log = []
    stopped = "max_epochs"
    step = 0
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            order = rng.permutation(n)
            sums = np.zeros(4)
            aborted = None
            for rows in _batches(order, cfg.batch_size):
                beta = beta_at(step, cfg)
                x = train_matrix.take_rows(rows)
                params.zero_grad()
                try:
                    with Tape() as tape:
                        res = elbo(x, params, beta, rng=rng, mode="train",
                                   dropout_rate=cfg.dropout_rate)
                        loss = ad.scale(res.elbo, -1.0)
                        if not math.isfinite(loss.item()):
                            raise NumericalError(
                                f"non-finite loss at epoch {epoch} step {step}")
                        tape.backward(loss)
                    adam_step(params, state, cfg.learning_rate)
                except NumericalError as e:
                    aborted = str(e)
                    break
                sums += rows.size * np.array([
                    res.elbo.item(), res.recon.item(),
                    res.kl_z1.item(), res.kl_z2_ce.item()])
                step += 1
            if aborted is not None:
                stopped = f"numerical: {aborted}"
                break

            report = evaluate(split.validation_users, params,
                              ks=[metric_k], batch_size=2048)
            val = report.row(metric_name, metric_k).mean
            record = {
                "epoch": epoch,
                "mean_elbo": sums[0] / n, "mean_recon": sums[1] / n,
                "mean_kl_z1": sums[2] / n, "mean_kl_z2": sums[3] / n,
                "beta": beta_at(step, cfg), "val_metric": val,
                "wall_seconds": time.perf_counter() - t0,
            }
            log.append(record)
            if log_file:
                log_file.write(json.dumps(record, sort_keys=True) + "\n")
                log_file.flush()
            if progress:
                progress(record)

            if val > best_metric:
                best_metric, best_params, best_epoch = val, params.copy(), epoch
            if epoch - best_epoch >= cfg.patience:
                stopped = "early_stopping"
                break
    finally:
        if log_file:
            log_file.close()

    return TrainResult(params=best_params, best_epoch=best_epoch,
                       best_metric=best_metric, log=log, stopped=stopped)
