"""Gated variational autoencoder models for implicit feedback.

Covers the full model grid: standard-normal or mixture-of-posteriors
(vamp) prior, flat or two-level latent hierarchy, gated or tanh layers,
multinomial or Bernoulli likelihood. All forward functions operate on
batches (one user per row) and are differentiable through the autodiff
tape; calls with no active tape are plain numpy.

Each input to the objective has one form. Interaction batches run as CSR
(``data.CSRMatrix``): each encoder's first layer reads only the weight
rows at a user's items, and the likelihood reads the logits only at the
batch's stored entries, so a training step never densifies the batch.
``as_batch`` is the one place where a dense ``Matrix`` batch becomes CSR,
learnable or not, so both forms give the same scores bit for bit; the
likelihood target and the training rows that seed the pseudo-inputs are
CSR. The vamp pseudo-inputs are a dense parameter of the prior, not a
batch: the prior normalises and encodes them with the dense product, so
that their gradient flows. Every random draw comes from the caller's
``numpy.random.Generator``; a copy of the generator replays the same
draws. Every Gaussian density and divergence goes through the general
diagonal form, the standard normal being a zero-mean, zero-log-variance
``GaussianParams``.

Latent naming follows the hierarchy: ``z2`` is the top-level latent whose
prior is standard or vamp, ``z1`` the lower latent with a learned
conditional prior. Flat models use ``z2`` alone and ``z1`` aliases it.
"""
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix
from .data import CSRMatrix
from .errors import ConfigError, ShapeError, check_int

LOG_2PI = math.log(2.0 * math.pi)

PRIORS = ("standard", "vamp")
HIERARCHIES = ("flat", "two_level")
LIKELIHOODS = ("multinomial", "bernoulli")

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0

# Standard deviation of the noise added to the training rows that seed the
# pseudo-inputs.
PSEUDO_NOISE = 0.01


@dataclass
class ModelConfig:
    n_items: int
    prior: str = "vamp"
    hierarchy: str = "flat"
    likelihood: str = "multinomial"
    gated: bool = True
    depth: int = 1
    hidden: int = 600
    d_z1: int = 200
    d_z2: int = 200
    n_pseudo: int = 1000

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ConfigError(f"prior must be one of {PRIORS}, got {self.prior!r}")
        if self.hierarchy not in HIERARCHIES:
            raise ConfigError(f"hierarchy must be one of {HIERARCHIES}, got {self.hierarchy!r}")
        if self.likelihood not in LIKELIHOODS:
            raise ConfigError(f"likelihood must be one of {LIKELIHOODS}, got {self.likelihood!r}")
        if self.hierarchy == "two_level" and self.prior != "vamp":
            raise ConfigError("two_level hierarchy requires the vamp prior")
        for name in ("n_items", "depth", "hidden", "d_z1", "d_z2", "n_pseudo"):
            setattr(self, name, check_int(name, getattr(self, name),
                                          0 if name == "n_pseudo" else 1))
        if not isinstance(self.gated, bool):
            raise ConfigError(f"gated must be a bool, got {self.gated!r}")
        if self.prior == "vamp" and self.n_pseudo < 1:
            raise ConfigError("vamp prior needs n_pseudo >= 1")

    @property
    def two_level(self):
        return self.hierarchy == "two_level"

    def to_dict(self):
        return asdict(self)


@dataclass
class LinearParams:
    """One layer's weight and bias. A gated trunk layer holds ``[W|V]`` and
    ``[b|c]``, a Gaussian head ``[mean|log_var]``: one product, then a
    column split."""
    W: Matrix
    b: Matrix


@dataclass
class GaussianParams:
    """Diagonal Gaussian over a latent space, one distribution per row."""
    mean: Matrix
    log_var: Matrix


@dataclass
class ModelParams:
    config: ModelConfig
    encoder_z2: list
    head_z2: LinearParams
    decoder: list
    head_out: LinearParams
    encoder_z1: list | None = None
    head_z1: LinearParams | None = None
    prior_z1_net: list | None = None
    prior_z1_head: LinearParams | None = None
    pseudo_inputs: Matrix | None = None

    def named_parameters(self):
        """Deterministically ordered {name: Matrix} over all learnables:
        ``<layer>.W`` and ``<layer>.b`` per layer, then ``pseudo_inputs``."""
        out = {}

        def add(prefix, lay):
            out[f"{prefix}.W"] = lay.W
            out[f"{prefix}.b"] = lay.b

        def add_trunk(prefix, layers):
            for i, lay in enumerate(layers):
                add(f"{prefix}.{i}", lay)

        add_trunk("encoder_z2", self.encoder_z2)
        add("head_z2", self.head_z2)
        if self.config.two_level:
            add_trunk("encoder_z1", self.encoder_z1)
            add("head_z1", self.head_z1)
            add_trunk("prior_z1", self.prior_z1_net)
            add("prior_z1_head", self.prior_z1_head)
        add_trunk("decoder", self.decoder)
        add("head_out", self.head_out)
        if self.config.prior == "vamp":
            out["pseudo_inputs"] = self.pseudo_inputs
        return out

    def zero_grad(self):
        for p in self.named_parameters().values():
            p.grad = None


def _glorot(rng, fan_in, fan_out, blocks=1):
    """``blocks`` Glorot-normal fan_in x fan_out draws side by side, drawn
    one block after another."""
    std = math.sqrt(2.0 / (fan_in + fan_out))
    out = np.empty((fan_in, blocks * fan_out))
    for k in range(blocks):
        out[:, k * fan_out:(k + 1) * fan_out] = rng.normal(0.0, std, size=(fan_in, fan_out))
    return Matrix(out, requires_grad=True)


def _zeros_row(n):
    return Matrix(np.zeros((1, n)), requires_grad=True)


def _empty(*shape):
    return Matrix(np.empty(shape), requires_grad=True)


def _build_params(cfg, weight, bias, pseudo):
    """Every parameter, made by ``weight(fan_in, fan_out, blocks)`` (a
    fan_in x blocks*fan_out weight), ``bias(n)`` and, for a vamp prior after
    every layer, ``pseudo(shape)`` in a fixed order (the order of the random
    draws in ``init_params``). A gated trunk layer and a Gaussian head have
    two column blocks."""
    gate = 2 if cfg.gated else 1

    def trunk(in_dim):
        layers = []
        for _ in range(cfg.depth):
            layers.append(LinearParams(weight(in_dim, cfg.hidden, gate),
                                       bias(gate * cfg.hidden)))
            in_dim = cfg.hidden
        return layers

    def head(out_dim):
        return LinearParams(weight(cfg.hidden, out_dim, 2), bias(2 * out_dim))

    params = ModelParams(
        config=cfg,
        encoder_z2=trunk(cfg.n_items),
        head_z2=head(cfg.d_z2),
        decoder=trunk((cfg.d_z1 + cfg.d_z2) if cfg.two_level else cfg.d_z2),
        head_out=LinearParams(weight(cfg.hidden, cfg.n_items, 1), bias(cfg.n_items)),
    )
    if cfg.two_level:
        params.encoder_z1 = trunk(cfg.n_items + cfg.d_z2)
        params.head_z1 = head(cfg.d_z1)
        params.prior_z1_net = trunk(cfg.d_z2)
        params.prior_z1_head = head(cfg.d_z1)
    if cfg.prior == "vamp":
        params.pseudo_inputs = pseudo((cfg.n_pseudo, cfg.n_items))
    return params


def init_params(config, rng, train_matrix=None):
    """Fresh parameters; pseudo-inputs copy random training rows plus noise.

    ``train_matrix`` is an (N, n_items) 0/1 ``CSRMatrix`` used for
    data-dependent pseudo-input initialization; without it pseudo-inputs
    start as small Gaussian noise.
    """
    def pseudo(shape):
        if train_matrix is None:
            base = rng.normal(0.0, PSEUDO_NOISE, size=shape)
        else:
            n = train_matrix.shape[0]
            rows = rng.choice(n, size=shape[0], replace=shape[0] > n)
            base = train_matrix.take_rows(rows).toarray()
            base += rng.normal(0.0, PSEUDO_NOISE, size=shape)
        return Matrix(base, requires_grad=True)

    return _build_params(config, partial(_glorot, rng), _zeros_row, pseudo)


def param_shapes(config):
    """{name: shape} of every parameter ``config`` implies, in
    ``named_parameters`` order, with nothing allocated."""
    return _build_params(config, lambda rows, cols, blocks: (rows, blocks * cols),
                         lambda n: (1, n), lambda shape: shape).named_parameters()


def empty_params(config):
    """Parameters of every shape ``config`` implies, with uninitialised
    storage: for a caller that overwrites or replaces every array."""
    return _build_params(config, lambda rows, cols, blocks: _empty(rows, blocks * cols),
                         partial(_empty, 1), lambda shape: _empty(*shape))


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def gated_layer(x, p, gated, tail=None):
    """(hW + b) * sigmoid(hV + c) when gated, else tanh(hW + b), for
    h = [x | tail] (see ``autodiff.linear``).
    A gated layer's ``p`` holds ``[W|V]`` and ``[b|c]``: one product, whose
    columns split into the linear path and the gate."""
    pre = ad.linear(x, p.W, p.b, tail)
    if not gated:
        return ad.tanh(pre)
    lin, gate = ad.split_cols(pre, p.W.cols // 2)
    return ad.mul(lin, ad.sigmoid(gate))


def _run_trunk(h, layers, gated, tail=None):
    for lay in layers:
        h = gated_layer(h, lay, gated, tail)
        tail = None
    return h


def _run_head(h, p):
    """A diagonal Gaussian from one product with ``[mean|log_var]``."""
    mean, log_var = ad.split_cols(ad.linear(h, p.W, p.b), p.W.cols // 2)
    return GaussianParams(mean, ad.clamp(log_var, LOG_VAR_MIN, LOG_VAR_MAX))


def as_batch(x):
    """An interaction batch as CSR: a ``CSRMatrix`` passes through, and any
    dense ``Matrix``, learnable or not, becomes CSR."""
    if isinstance(x, CSRMatrix):
        return x
    return CSRMatrix.from_dense(x)


def prepare_input(x, dropout_rate=0.0, rng=None):
    """L2-normalize each row of an interaction batch, then, when
    ``dropout_rate > 0``, drop entries at random, rescaling survivors by
    1/(1-rate). All-zero rows pass through.

    The batch runs as CSR (see ``as_batch``) and keeps its pattern: only its
    stored values are scaled, and the dropout draws one uniform per stored
    value.
    """
    dropout = dropout_rate > 0.0
    if dropout and rng is None:
        raise ConfigError("dropout needs an rng")
    x = as_batch(x)
    row = x.row_ids()
    sq = np.bincount(row, weights=x.data * x.data, minlength=x.rows)
    inv = np.where(sq > 0.0, 1.0 / np.sqrt(np.where(sq > 0.0, sq, 1.0)), 1.0)
    vals = x.data * inv[row]
    if dropout:
        vals *= (rng.random(vals.size) >= dropout_rate) / (1.0 - dropout_rate)
    return x.with_data(vals)


def encode_z2(x, params):
    """Variational posterior over the top latent given an interaction row."""
    if x.cols != params.config.n_items:
        raise ShapeError(f"encode_z2: {x.cols} columns vs n_items={params.config.n_items}")
    return _encode_z2_prepared(prepare_input(x), params)


def _encode_z2_prepared(h, params):
    return _run_head(_run_trunk(h, params.encoder_z2, params.config.gated),
                     params.head_z2)


def _encode_z1_prepared(h, z2_value, params):
    """The first layer reads [items | z2]: z2 is its ``linear`` tail."""
    return _run_head(_run_trunk(h, params.encoder_z1, params.config.gated, z2_value),
                     params.head_z1)


def encode_z1(x, z2, params):
    """Lower-latent posterior; consumes the normalized input and the z2 draw."""
    if not params.config.two_level:
        raise ConfigError("encode_z1 requires a two_level model")
    return _encode_z1_prepared(prepare_input(x), z2, params)


def _lower_latent(h, z2, params, draw):
    """(posterior, value) of z1 given the prepared input ``h`` and z2: a
    two-level model encodes z1 from [items | z2] and takes ``draw`` of it;
    a flat model has no z1 posterior (None), and z1 is z2."""
    if not params.config.two_level:
        return None, z2
    g1 = _encode_z1_prepared(h, z2, params)
    return g1, draw(g1)


def prior_z1(z2, params):
    """Learned conditional prior over the lower latent, given z2."""
    if not params.config.two_level:
        raise ConfigError("prior_z1 requires a two_level model")
    return _run_head(_run_trunk(z2, params.prior_z1_net, params.config.gated),
                     params.prior_z1_head)


def sample(g, rng):
    """Reparameterized draw from a diagonal Gaussian:
    mean + exp(log_var / 2) * eps, with eps standard normal from ``rng``."""
    eps = ad.constant(rng.standard_normal(g.mean.shape))
    return ad.add(g.mean, ad.mul(ad.exp(ad.scale(g.log_var, 0.5)), eps))


def decode(z1, z2, params):
    """Unnormalized logits over all items. The first layer of a two-level
    model reads [z1 | z2], z2 being its ``linear`` tail; a flat model's
    reads z1 alone."""
    cfg = params.config
    if cfg.two_level and z2 is None:
        raise ConfigError("two_level decode needs both latents")
    h = _run_trunk(z1, params.decoder, cfg.gated, z2 if cfg.two_level else None)
    return ad.linear(h, params.head_out.W, params.head_out.b)


# ---------------------------------------------------------------------------
# Densities and divergences (all per-row, returning (n, 1) columns)
# ---------------------------------------------------------------------------

def log_likelihood(logits, x, likelihood):
    """log p(x | logits) per row of the CSR target ``x``. Multinomial: the
    sum over consumed items of the log-softmax scores (the multinomial
    coefficient is constant in the parameters and omitted). Bernoulli: the
    per-item binary cross-entropy in stable logit form,
    sum_i [x_i * l_i - softplus(l_i)]."""
    if likelihood == "multinomial":
        return ad.multinomial_log_lik(logits, x)
    if likelihood == "bernoulli":
        return ad.bernoulli_log_lik(logits, x)
    raise ConfigError(f"unknown likelihood {likelihood!r}")


def kl_diag_gauss(q, p):
    """Closed-form KL(q || p) between diagonal Gaussians, per row."""
    if q.mean.shape != p.mean.shape:
        raise ShapeError(f"kl_diag_gauss: {q.mean.shape} vs {p.mean.shape}")
    dl = ad.sub(q.log_var, p.log_var)
    var_ratio = ad.exp(dl)
    dm = ad.sub(q.mean, p.mean)
    mahal = ad.mul(ad.mul(dm, dm), ad.exp(ad.scale(p.log_var, -1.0)))
    inner = ad.sub(ad.add(var_ratio, mahal), ad.add_scalar(dl, 1.0))
    return ad.scale(ad.sum_rows(inner), 0.5)


def _standard_normal(shape):
    """N(0, I) as a constant diagonal Gaussian of ``shape``."""
    zero = ad.constant(np.zeros(shape))
    return GaussianParams(zero, zero)


def gauss_log_density(z, g):
    """log N(z; g.mean, exp(g.log_var)) per row."""
    dz = ad.sub(z, g.mean)
    quad = ad.mul(ad.mul(dz, dz), ad.exp(ad.scale(g.log_var, -1.0)))
    inner = ad.add(ad.add_scalar(g.log_var, LOG_2PI), quad)
    return ad.scale(ad.sum_rows(inner), -0.5)


def vamp_log_density(z, params):
    """Log density of the mixture-of-posteriors prior at each row of z.

    Each of the K pseudo-inputs is encoded (no dropout)
    into a diagonal Gaussian component; the result is
    logsumexp_k log N(z; mu_k, sigma_k^2) - log K, evaluated for the whole
    batch against all components at once.
    """
    return _mixture_log_density(z, _vamp_components(params))


def _vamp_components(params):
    """The K mixture components: the row-normalised pseudo-inputs, encoded."""
    if params.config.prior != "vamp":
        raise ConfigError("vamp_log_density requires a vamp-prior model")
    return _encode_z2_prepared(ad.l2_normalize_rows(params.pseudo_inputs), params)


def _mixture_log_density(zv, comp):
    """log (1/K) sum_k N(z; comp.mean_k, exp(comp.log_var_k)) per row of zv."""
    prec = ad.exp(ad.scale(comp.log_var, -1.0))          # K x D
    mu_prec = ad.mul(comp.mean, prec)
    t_zz = ad.matmul(ad.mul(zv, zv), ad.transpose(prec))             # B x K
    t_cross = ad.matmul(zv, ad.transpose(mu_prec))                   # B x K
    t_mu = ad.transpose(ad.sum_rows(ad.mul(comp.mean, mu_prec)))     # 1 x K
    quad = ad.add(ad.sub(t_zz, ad.scale(t_cross, 2.0)), t_mu)
    log_norm = ad.scale(ad.transpose(ad.sum_rows(
        ad.add_scalar(comp.log_var, LOG_2PI))), -0.5)                # 1 x K
    log_comp = ad.add(ad.scale(quad, -0.5), log_norm)                # B x K
    return ad.add_scalar(ad.logsumexp(log_comp), -math.log(comp.mean.rows))


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

@dataclass
class ElboResult:
    """Batch-mean single-sample estimate and its unscaled components."""
    elbo: Matrix
    recon: Matrix
    kl_z1: Matrix
    kl_z2_ce: Matrix


def elbo(x, params, beta, rng, dropout_rate=0.0):
    """Single-sample evidence lower bound, averaged over the batch rows.

    The input entries are dropped at ``dropout_rate`` (see
    ``prepare_input``); a rate of 0 drops nothing. Every draw (dropout,
    then z2, then z1) comes from ``rng``, so evaluating on copies of one
    generator freezes them. The KL terms are returned unscaled; ``beta``
    only affects ``elbo``.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    cfg = params.config
    x = as_batch(x)
    n = x.rows
    h = prepare_input(x, dropout_rate, rng)
    g2 = _encode_z2_prepared(h, params)
    z2 = sample(g2, rng)

    g1, z1 = _lower_latent(h, z2, params, partial(sample, rng=rng))
    kl1 = (kl_diag_gauss(g1, prior_z1(z2, params)) if g1 is not None else
           ad.constant(np.zeros((n, 1))))
    kl2 = (kl_diag_gauss(g2, _standard_normal(g2.mean.shape))
           if cfg.prior == "standard" else
           ad.sub(gauss_log_density(z2, g2), vamp_log_density(z2, params)))
    logits = decode(z1, z2, params)

    recon = log_likelihood(logits, x, cfg.likelihood)
    penalty = ad.add(kl1, kl2)
    per_user = ad.sub(recon, ad.scale(penalty, beta))
    return ElboResult(
        elbo=ad.mean_all(per_user),
        recon=ad.mean_all(recon),
        kl_z1=ad.mean_all(kl1),
        kl_z2_ce=ad.mean_all(kl2),
    )


@dataclass
class ElboDecomposition:
    """Monte Carlo view of the objective: reconstruction, posterior entropy,
    and cross-entropy between posterior draws and the prior."""
    recon: float
    posterior_entropy: float
    cross_entropy_prior: float
    recon_se: float
    cross_entropy_se: float
    n_mc: int


def elbo_decomposition(x, params, n_mc, rng):
    """Diagnostic decomposition over a batch; never used in training.

    The entropy term is the batch-mean closed-form entropy of the top
    posterior; recon and cross-entropy are sample means over n_mc draws
    with their standard errors.
    """
    if x.rows < 1:
        raise ConfigError("elbo_decomposition needs a non-empty batch")
    cfg = params.config
    x = as_batch(x)
    h = prepare_input(x)
    g2 = _encode_z2_prepared(h, params)
    entropy = float(np.mean(0.5 * np.sum(g2.log_var.data + 1.0 + LOG_2PI, axis=1)))
    # The prior's components do not depend on the draw: encode them once.
    comp = _vamp_components(params) if cfg.prior == "vamp" else None

    recon_draws = np.empty(n_mc)
    ce_draws = np.empty(n_mc)
    for s in range(n_mc):
        z2 = sample(g2, rng)
        _, z1 = _lower_latent(h, z2, params, partial(sample, rng=rng))
        logits = decode(z1, z2, params)
        recon_draws[s] = log_likelihood(logits, x, cfg.likelihood).data.mean()
        if cfg.prior == "standard":
            log_prior = gauss_log_density(z2, _standard_normal(z2.shape))
        else:
            log_prior = _mixture_log_density(z2, comp)
        ce_draws[s] = -log_prior.data.mean()

    def se(a):
        return float(a.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else float("inf")

    return ElboDecomposition(
        recon=float(recon_draws.mean()),
        posterior_entropy=entropy,
        cross_entropy_prior=float(ce_draws.mean()),
        recon_se=se(recon_draws),
        cross_entropy_se=se(ce_draws),
        n_mc=n_mc,
    )


def fold_in_latents(x, params):
    """Deterministic latents for scoring: posterior means, no dropout."""
    h = prepare_input(x)
    z2 = _encode_z2_prepared(h, params).mean
    _, z1 = _lower_latent(h, z2, params, lambda g: g.mean)
    return z1, z2


def score_items(x, params):
    """Decode logits from fold-in latents; the ranking scores for a batch."""
    z1, z2 = fold_in_latents(x, params)
    return decode(z1, z2, params)
