"""Minibatch training: KL warm-up, adaptive-moment updates, early stopping.

Each epoch shuffles the training users with the run's rng, walks
minibatches of the negated objective, then scores the validation users
with the ranking metric named in the config. Training stops when the
metric has not improved for ``patience`` consecutive epochs, at
``max_epochs``, or on the first non-finite loss or gradient. The result
holds the best-scoring epoch's parameters, kept on disk rather than as a
second copy in memory: an improving epoch that another epoch follows
writes them as a checkpoint into a private temporary directory, which is
removed before ``train`` returns or raises. Each epoch's record is handed
to the caller's ``progress`` callback and kept in the returned log; apart
from that snapshot ``train`` writes no files.
"""
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tape
from .checkpoint import load_checkpoint, save_checkpoint
from .data import CSRMatrix
from .errors import ConfigError, DataError, NumericalError, check_float, check_int
from .metrics import METRIC_NAMES, evaluate
from .model import elbo, init_params

# The Mult-VAE protocol: beta warms up linearly over the first 20 epochs
# of steps, and half of each training batch's input entries are dropped.
ANNEAL_EPOCHS = 20
DROPOUT_RATE = 0.5

ADAM_CONSTANTS = (0.9, 0.999, 1e-8)  # Adam's beta1, beta2 and eps

# A factored gradient whose factors bound every entry by this much has
# finite squares (1e300), so it passes the check without being formed.
FACTORED_BOUND = 1e150


@dataclass
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 50
    learning_rate: float = 1e-3
    beta_cap: float = 0.2
    patience: int = 5
    seed: int = 0
    eval_metric: str = "ndcg@100"

    def __post_init__(self):
        self.beta_cap = check_float("beta_cap", self.beta_cap)
        if not 0.0 <= self.beta_cap <= 1.0:
            raise ConfigError(f"beta_cap must be in [0, 1], got {self.beta_cap}")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 0),
                          ("seed", 0)):
            setattr(self, name, check_int(name, getattr(self, name), low))
        self.learning_rate = check_float("learning_rate", self.learning_rate)
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        parse_metric(self.eval_metric)

    def to_dict(self):
        return asdict(self)


def parse_metric(spec):
    """'ndcg@100' -> ('ndcg', 100)."""
    name, _, k = spec.lower().partition("@") if isinstance(spec, str) else ("", "", "")
    if name not in METRIC_NAMES or not k.isdigit() or int(k) < 1:
        raise ConfigError(f"eval_metric must look like 'ndcg@100', got {spec!r}")
    return name, int(k)


def beta_at(step, beta_cap, anneal_steps):
    """Linear warm-up: min(beta_cap, beta_cap * step / anneal_steps)."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    return min(beta_cap, beta_cap * step / anneal_steps)


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


def adam_step(params, state, lr):
    """Bias-corrected adaptive-moment update over every named parameter.

    Returns the global L2 norm of the gradients. Every gradient is checked
    before any parameter moves: one that is not finite, or that has an
    entry whose square overflows (and would turn that tensor's second
    moment into inf, so that it stops learning), raises ``NumericalError``
    with the parameters, moments and step count untouched. The check is
    one dot product per gradient, since a finite sum of squares proves
    every square finite; only a sum that is not finite is followed by a
    pass over the entries. A sum of squares that overflows while every
    square is finite still steps, and the norm is then computed scaled by
    the largest entry, so it is finite.

    A weight gradient that ``linear`` left as factors is checked without
    being formed when its factors are finite and bound every entry by
    ``FACTORED_BOUND``, whose square is finite; none of them may be a
    parameter's own array, which the update moves. It is then formed one
    row block at a time, each block's rows of the parameter and moments
    updated while the block is in cache, and its sum of squares is the sum
    of the blocks' dot products. Any other factored gradient is formed
    whole and checked as above.
    """
    named = params.named_parameters()
    owned = [p.data for p in named.values()]
    grads, sq = {}, {}
    for name, p in named.items():
        fg = p._factored_grad()
        if fg is not None and fg.bound() <= FACTORED_BOUND and not any(
                np.may_share_memory(a, d) for a in fg.arrays() for d in owned):
            grads[name] = fg
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        gf = g.ravel()
        sq[name] = float(np.dot(gf, gf))
        if not math.isfinite(sq[name]):
            big = float(np.max(np.abs(gf)))
            where = f"in {name} at optimizer step {state.step + 1}"
            if not math.isfinite(big):
                raise NumericalError(f"non-finite gradient {where}")
            if not math.isfinite(big * big):
                raise NumericalError(
                    f"gradient entry {big:.3g} {where} overflows when squared")
        grads[name] = g
    state.step += 1
    for name, p in named.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        if isinstance(g, np.ndarray):
            kernels.adam_update(p.data, g, m, v, state.step, lr, *ADAM_CONSTANTS)
            continue
        sq[name] = 0.0
        for lo, hi in g.blocks():
            gb = g.rows(lo, hi)
            sq[name] += float(np.dot(gb.ravel(), gb.ravel()))
            kernels.adam_update(p.data[lo:hi], gb, m[lo:hi], v[lo:hi],
                                state.step, lr, *ADAM_CONSTANTS)
            del gb  # or two blocks are alive while the next one forms
    sum_sq = sum(sq[name] for name in named)
    return math.sqrt(sum_sq) if math.isfinite(sum_sq) else _scaled_norm(grads.values())


def _blocks(g):
    """A gradient's arrays: itself, or a factored one's row blocks."""
    if isinstance(g, np.ndarray):
        return [g]
    return (g.rows(lo, hi) for lo, hi in g.blocks())


def _scaled_norm(grads):
    """The L2 norm of all the gradients together, summed scaled by the
    largest magnitude so that no square overflows."""
    grads = list(grads)
    top = max(float(np.max(np.abs(b))) for g in grads for b in _blocks(g) if b.size)
    return top * math.sqrt(sum(float(np.dot(f, f)) for g in grads
                               for f in (b.ravel() / top for b in _blocks(g))))


@dataclass
class TrainResult:
    params: object            # the best epoch's parameters
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


def train(split, model_cfg, cfg, progress=None):
    """Optimize -ELBO on the split's training users; returns the parameters
    of the best epoch by validation metric plus the per-epoch log. Each
    epoch's record goes to ``progress`` as it joins the log.

    The returned parameters are the live ones when the last epoch run was
    the best, a copy-on-write map of the snapshot file (as
    ``load_checkpoint`` gives) when an earlier one was, and the initial
    parameters, drawn again from the seed, when no epoch improved."""
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
    anneal_steps = ANNEAL_EPOCHS * steps_per_epoch
    metric_name, metric_k = parse_metric(cfg.eval_metric)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(model_cfg, rng, train_matrix=train_matrix)
    state = OptimizerState.for_params(params)

    best_metric, best_epoch, saved_epoch = -math.inf, -1, -1
    log = []
    stopped = "max_epochs"
    step = 0
    with tempfile.TemporaryDirectory(prefix="vampcf-train-") as tmp:
        snapshot = os.path.join(tmp, "best.ckpt")
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            order = rng.permutation(n)
            sums = np.zeros(4)
            grad_norm_sum = 0.0
            try:
                for rows in _batches(order, cfg.batch_size):
                    x = train_matrix.take_rows(rows)
                    with Tape() as tape:
                        res = elbo(x, params,
                                   beta_at(step, cfg.beta_cap, anneal_steps),
                                   rng=rng, dropout_rate=DROPOUT_RATE)
                        loss = ad.scale(res.elbo, -1.0)
                        if not math.isfinite(loss.item()):
                            raise NumericalError(
                                f"non-finite loss at epoch {epoch} step {step}")
                        tape.backward(loss)
                    grad_norm_sum += adam_step(params, state, cfg.learning_rate)
                    # Gone before the next forward, validation and snapshot.
                    params.zero_grad()
                    sums += rows.size * np.array([
                        res.elbo.item(), res.recon.item(),
                        res.kl_z1.item(), res.kl_z2_ce.item()])
                    step += 1
            except NumericalError as e:
                stopped = f"numerical: {e}"
                break

            report = evaluate(split.validation_users, params, ks=[metric_k])
            val = report.row(metric_name, metric_k).mean
            record = {
                "epoch": epoch,
                "mean_elbo": sums[0] / n, "mean_recon": sums[1] / n,
                "mean_kl_z1": sums[2] / n, "mean_kl_z2": sums[3] / n,
                "beta": beta_at(step, cfg.beta_cap, anneal_steps),
                "val_metric": val,
                "mean_grad_norm": grad_norm_sum / steps_per_epoch,
                "wall_seconds": time.perf_counter() - t0,
            }
            log.append(record)
            if progress:
                progress(record)

            if val > best_metric:
                best_metric, best_epoch = val, epoch
            if epoch - best_epoch >= cfg.patience:
                stopped = "early_stopping"
                break
            # Only an epoch that another one follows needs its parameters
            # kept apart from the live ones.
            if best_epoch == epoch and epoch < cfg.max_epochs - 1:
                save_checkpoint(snapshot, params)
                saved_epoch = epoch

        if best_epoch < 0:
            # Nothing to keep but the start: the same draw from the seed.
            params = init_params(model_cfg, np.random.default_rng(cfg.seed),
                                 train_matrix=train_matrix)
        elif saved_epoch == best_epoch:
            # The map reads the file's pages after the directory is gone.
            params, _ = load_checkpoint(snapshot)

    return TrainResult(params=params, best_epoch=best_epoch,
                       best_metric=best_metric, log=log, stopped=stopped)
