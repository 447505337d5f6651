"""Gated variational autoencoder models for implicit feedback.

Covers the full model grid: standard-normal or mixture-of-posteriors
(vamp) prior, flat or two-level latent hierarchy, gated or tanh layers,
multinomial or Bernoulli likelihood. All forward functions operate on
batches (one user per row) and are differentiable through the autodiff
tape; evaluation-mode calls with no active tape are plain numpy.

Interaction batches run as CSR (``data.CSRMatrix``): each encoder's first
layer reads only the weight rows at a user's items. A dense ``Matrix``
batch is converted at entry, so both forms give the same scores bit for
bit. Only a learnable dense input, the vamp pseudo-inputs, keeps the dense
product, so that its gradient can flow.

Latent naming follows the hierarchy: ``z2`` is the top-level latent whose
prior is standard or vamp, ``z1`` the lower latent with a learned
conditional prior. Flat models use ``z2`` alone and ``z1`` aliases it.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix
from .data import CSRMatrix
from .errors import ConfigError, ShapeError

LOG_2PI = math.log(2.0 * math.pi)

PRIORS = ("standard", "vamp")
HIERARCHIES = ("flat", "two_level")
LIKELIHOODS = ("multinomial", "bernoulli")
MODES = ("train", "eval")

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


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
        for name in ("n_items", "depth", "hidden", "d_z1", "d_z2"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.prior == "vamp" and self.n_pseudo < 1:
            raise ConfigError("vamp prior needs n_pseudo >= 1")

    @property
    def two_level(self):
        return self.hierarchy == "two_level"

    def to_dict(self):
        return {
            "n_items": self.n_items, "prior": self.prior,
            "hierarchy": self.hierarchy, "likelihood": self.likelihood,
            "gated": self.gated, "depth": self.depth, "hidden": self.hidden,
            "d_z1": self.d_z1, "d_z2": self.d_z2, "n_pseudo": self.n_pseudo,
        }


@dataclass
class GatedLayerParams:
    """One hidden layer: linear path times sigmoid gate, or plain tanh."""
    W: Matrix
    b: Matrix
    V: Matrix | None
    c: Matrix | None
    gated: bool


@dataclass
class LinearParams:
    W: Matrix
    b: Matrix


@dataclass
class GaussianHead:
    mean: LinearParams
    log_var: LinearParams


@dataclass
class GaussianParams:
    """Diagonal Gaussian over a latent space, one distribution per row."""
    mean: Matrix
    log_var: Matrix


@dataclass
class LatentSample:
    """A reparameterized draw: z = mean + exp(log_var / 2) * noise."""
    z: Matrix
    params: GaussianParams
    noise: Matrix


@dataclass
class ModelParams:
    config: ModelConfig
    encoder_z2: list
    head_z2: GaussianHead
    decoder: list
    head_out: LinearParams
    encoder_z1: list | None = None
    head_z1: GaussianHead | None = None
    prior_z1_net: list | None = None
    prior_z1_head: GaussianHead | None = None
    pseudo_inputs: Matrix | None = None

    def named_parameters(self):
        """Deterministically ordered {name: Matrix} over all learnables."""
        out = {}

        def add_trunk(prefix, layers):
            for i, lay in enumerate(layers):
                out[f"{prefix}.{i}.W"] = lay.W
                out[f"{prefix}.{i}.b"] = lay.b
                if lay.gated:
                    out[f"{prefix}.{i}.V"] = lay.V
                    out[f"{prefix}.{i}.c"] = lay.c

        def add_head(prefix, head):
            for part in ("mean", "log_var"):
                lin = getattr(head, part)
                out[f"{prefix}.{part}.W"] = lin.W
                out[f"{prefix}.{part}.b"] = lin.b

        add_trunk("encoder_z2", self.encoder_z2)
        add_head("head_z2", self.head_z2)
        if self.config.two_level:
            add_trunk("encoder_z1", self.encoder_z1)
            add_head("head_z1", self.head_z1)
            add_trunk("prior_z1", self.prior_z1_net)
            add_head("prior_z1_head", self.prior_z1_head)
        add_trunk("decoder", self.decoder)
        out["head_out.W"] = self.head_out.W
        out["head_out.b"] = self.head_out.b
        if self.config.prior == "vamp":
            out["pseudo_inputs"] = self.pseudo_inputs
        return out

    def zero_grad(self):
        for p in self.named_parameters().values():
            p.grad = None

    def copy(self):
        """Deep copy of all parameter arrays (gradients are not copied)."""
        import copy as _copy

        def clone_matrix(m):
            out = Matrix(m.data.copy(), requires_grad=m.requires_grad)
            return out

        def clone_trunk(layers):
            if layers is None:
                return None
            return [GatedLayerParams(clone_matrix(l.W), clone_matrix(l.b),
                                     clone_matrix(l.V) if l.V is not None else None,
                                     clone_matrix(l.c) if l.c is not None else None,
                                     l.gated)
                    for l in layers]

        def clone_head(h):
            if h is None:
                return None
            return GaussianHead(LinearParams(clone_matrix(h.mean.W), clone_matrix(h.mean.b)),
                                LinearParams(clone_matrix(h.log_var.W), clone_matrix(h.log_var.b)))

        return ModelParams(
            config=_copy.deepcopy(self.config),
            encoder_z2=clone_trunk(self.encoder_z2),
            head_z2=clone_head(self.head_z2),
            decoder=clone_trunk(self.decoder),
            head_out=LinearParams(clone_matrix(self.head_out.W), clone_matrix(self.head_out.b)),
            encoder_z1=clone_trunk(self.encoder_z1),
            head_z1=clone_head(self.head_z1),
            prior_z1_net=clone_trunk(self.prior_z1_net),
            prior_z1_head=clone_head(self.prior_z1_head),
            pseudo_inputs=clone_matrix(self.pseudo_inputs) if self.pseudo_inputs is not None else None,
        )


def _glorot(rng, fan_in, fan_out):
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Matrix(rng.normal(0.0, std, size=(fan_in, fan_out)), requires_grad=True)


def _zeros_row(n):
    return Matrix(np.zeros((1, n)), requires_grad=True)


def _empty(*shape):
    return Matrix(np.empty(shape), requires_grad=True)


def _make_trunk(weight, bias, in_dim, hidden, depth, gated):
    layers = []
    d = in_dim
    for _ in range(depth):
        W = weight(d, hidden)
        b = bias(hidden)
        V = weight(d, hidden) if gated else None
        c = bias(hidden) if gated else None
        layers.append(GatedLayerParams(W, b, V, c, gated))
        d = hidden
    return layers


def _make_head(weight, bias, hidden, out_dim):
    return GaussianHead(
        mean=LinearParams(weight(hidden, out_dim), bias(out_dim)),
        log_var=LinearParams(weight(hidden, out_dim), bias(out_dim)),
    )


def _build_params(cfg, weight, bias):
    """Every parameter but the pseudo-inputs, made by ``weight(fan_in,
    fan_out)`` and ``bias(n)`` in a fixed order (the order of the random
    draws in ``init_params``)."""
    params = ModelParams(
        config=cfg,
        encoder_z2=_make_trunk(weight, bias, cfg.n_items, cfg.hidden, cfg.depth,
                               cfg.gated),
        head_z2=_make_head(weight, bias, cfg.hidden, cfg.d_z2),
        decoder=_make_trunk(weight, bias,
                            (cfg.d_z1 + cfg.d_z2) if cfg.two_level else cfg.d_z2,
                            cfg.hidden, cfg.depth, cfg.gated),
        head_out=LinearParams(weight(cfg.hidden, cfg.n_items), bias(cfg.n_items)),
    )
    if cfg.two_level:
        params.encoder_z1 = _make_trunk(weight, bias, cfg.n_items + cfg.d_z2,
                                        cfg.hidden, cfg.depth, cfg.gated)
        params.head_z1 = _make_head(weight, bias, cfg.hidden, cfg.d_z1)
        params.prior_z1_net = _make_trunk(weight, bias, cfg.d_z2, cfg.hidden,
                                          cfg.depth, cfg.gated)
        params.prior_z1_head = _make_head(weight, bias, cfg.hidden, cfg.d_z1)
    return params


def init_params(config, rng, train_matrix=None, pseudo_noise=0.01):
    """Fresh parameters; pseudo-inputs copy random training rows plus noise.

    ``train_matrix`` is an (N, n_items) 0/1 ``CSRMatrix`` or array used for
    data-dependent pseudo-input initialization; without it pseudo-inputs
    start as small Gaussian noise.
    """
    cfg = config
    params = _build_params(cfg, lambda fan_in, fan_out: _glorot(rng, fan_in, fan_out),
                           _zeros_row)
    if cfg.prior == "vamp":
        if train_matrix is not None:
            n = train_matrix.shape[0]
            rows = rng.choice(n, size=cfg.n_pseudo, replace=cfg.n_pseudo > n)
            base = train_matrix.take_rows(rows).toarray() \
                if isinstance(train_matrix, CSRMatrix) \
                else np.asarray(train_matrix, dtype=np.float64)[rows]
        else:
            base = np.zeros((cfg.n_pseudo, cfg.n_items))
        base = base + rng.normal(0.0, pseudo_noise, size=base.shape)
        params.pseudo_inputs = Matrix(base, requires_grad=True)
    return params


def empty_params(config):
    """Parameters of every shape ``config`` implies, with uninitialised
    storage: for a loader that overwrites every value."""
    params = _build_params(config, _empty, lambda n: _empty(1, n))
    if config.prior == "vamp":
        params.pseudo_inputs = _empty(config.n_pseudo, config.n_items)
    return params


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def _check_mode(mode):
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _product(x, w, tail):
    """``[x | tail] @ w``: a row gather for a CSR ``x``, else one GEMM."""
    if isinstance(x, CSRMatrix):
        return ad.sparse_matmul(x, w, tail)
    return ad.matmul(x, w)


def gated_layer(x, p, tail=None):
    """(hW + b) * sigmoid(hV + c) when gated, else tanh(hW + b), for
    h = [x | tail]; a ``tail`` (dense columns after x's) needs a CSR x."""
    width = x.cols + (0 if tail is None else tail.cols)
    if width != p.W.rows:
        raise ShapeError(f"gated_layer: input width {width} vs weight {p.W.shape}")
    lin = ad.add(_product(x, p.W, tail), p.b)
    if not p.gated:
        return ad.tanh(lin)
    gate = ad.sigmoid(ad.add(_product(x, p.V, tail), p.c))
    return ad.mul(lin, gate)


def _run_trunk(h, layers, tail=None):
    for lay in layers:
        h = gated_layer(h, lay, tail)
        tail = None
    return h


def _run_head(h, head):
    mean = ad.add(ad.matmul(h, head.mean.W), head.mean.b)
    log_var = ad.clamp(ad.add(ad.matmul(h, head.log_var.W), head.log_var.b),
                       LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianParams(mean, log_var)


def as_batch(x):
    """An interaction batch as CSR. A ``CSRMatrix`` and a learnable dense
    ``Matrix`` (the pseudo-inputs) pass through unchanged."""
    if isinstance(x, CSRMatrix) or x.requires_grad:
        return x
    return CSRMatrix.from_dense(x)


def prepare_input(x, mode="eval", dropout_rate=0.0, rng=None):
    """L2-normalize each row, then (training only) drop entries at random,
    rescaling survivors by 1/(1-rate). All-zero rows pass through.

    A CSR batch keeps its pattern: only its stored values are scaled, and
    the dropout draws one uniform per stored value. A learnable dense input
    is only normalized; it takes no dropout.
    """
    _check_mode(mode)
    dropout = mode == "train" and dropout_rate > 0.0
    if dropout and rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    x = as_batch(x)
    if isinstance(x, Matrix):
        if dropout:
            raise ConfigError("dropout applies to interaction batches, "
                              "not to a learnable dense input")
        return ad.l2_normalize_rows(x)
    row = x.row_ids()
    sq = np.bincount(row, weights=x.data * x.data, minlength=x.rows)
    inv = np.where(sq > 0.0, 1.0 / np.sqrt(np.where(sq > 0.0, sq, 1.0)), 1.0)
    vals = x.data * inv[row]
    if dropout:
        vals *= (rng.random(vals.size) >= dropout_rate) / (1.0 - dropout_rate)
    return x.with_data(vals)


def encode_z2(x, params, mode="eval", dropout_rate=0.0, rng=None):
    """Variational posterior over the top latent given an interaction row."""
    if x.cols != params.config.n_items:
        raise ShapeError(f"encode_z2: {x.cols} columns vs n_items={params.config.n_items}")
    return _encode_z2_prepared(prepare_input(x, mode, dropout_rate, rng), params)


def _encode_z2_prepared(h, params):
    return _run_head(_run_trunk(h, params.encoder_z2), params.head_z2)


def _encode_z1_prepared(h, z2_value, params):
    """The first layer reads [items | z2]: a gather over the items and a
    small GEMM over z2 for CSR input, one concatenated GEMM for dense."""
    if isinstance(h, Matrix):
        h, z2_value = ad.concat_cols(h, z2_value), None
    return _run_head(_run_trunk(h, params.encoder_z1, z2_value), params.head_z1)


def encode_z1(x, z2, params, mode="eval", dropout_rate=0.0, rng=None):
    """Lower-latent posterior; consumes the normalized input and the z2 draw."""
    if not params.config.two_level:
        raise ConfigError("encode_z1 requires a two_level model")
    h = prepare_input(x, mode, dropout_rate, rng)
    return _encode_z1_prepared(h, z2.z if isinstance(z2, LatentSample) else z2, params)


def prior_z1(z2, params):
    """Learned conditional prior over the lower latent, given z2."""
    if not params.config.two_level:
        raise ConfigError("prior_z1 requires a two_level model")
    z = z2.z if isinstance(z2, LatentSample) else z2
    return _run_head(_run_trunk(z, params.prior_z1_net), params.prior_z1_head)


def sample(g, rng=None, noise=None):
    """Reparameterized draw from a diagonal Gaussian."""
    if noise is None:
        if rng is None:
            raise ConfigError("sample needs an rng or explicit noise")
        noise = rng.standard_normal(g.mean.shape)
    eps = ad.constant(noise)
    z = ad.add(g.mean, ad.mul(ad.exp(ad.scale(g.log_var, 0.5)), eps))
    return LatentSample(z=z, params=g, noise=eps)


def decode(z1, z2, params):
    """Unnormalized logits over all items; two-level models concatenate
    both latents, flat models consume z1 alone."""
    v1 = z1.z if isinstance(z1, LatentSample) else z1
    if params.config.two_level:
        if z2 is None:
            raise ConfigError("two_level decode needs both latents")
        v2 = z2.z if isinstance(z2, LatentSample) else z2
        h = ad.concat_cols(v1, v2)
    else:
        h = v1
    expected = (params.config.d_z1 + params.config.d_z2) if params.config.two_level \
        else params.config.d_z2
    if h.cols != expected:
        raise ConfigError(f"decode: latent width {h.cols}, expected {expected}")
    h = _run_trunk(h, params.decoder)
    return ad.add(ad.matmul(h, params.head_out.W), params.head_out.b)


# ---------------------------------------------------------------------------
# Densities and divergences (all per-row, returning (n, 1) columns)
# ---------------------------------------------------------------------------

def _dense_target(x):
    """The 0/1 target as a dense constant; a CSR batch is densified."""
    return ad.constant(x.toarray()) if isinstance(x, CSRMatrix) else x


def log_lik_multinomial(logits, x):
    """Sum over consumed items of the log-softmax scores; the multinomial
    coefficient is constant in the parameters and omitted."""
    x = _dense_target(x)
    if logits.shape != x.shape:
        raise ShapeError(f"log_lik_multinomial: {logits.shape} vs {x.shape}")
    return ad.sum_rows(ad.mul(x, ad.softmax_log(logits)))


def log_lik_bernoulli(logits, x):
    """Per-item binary cross-entropy in stable logit form:
    sum_i [x_i * l_i - softplus(l_i)]."""
    x = _dense_target(x)
    if logits.shape != x.shape:
        raise ShapeError(f"log_lik_bernoulli: {logits.shape} vs {x.shape}")
    return ad.sum_rows(ad.sub(ad.mul(x, logits), ad.softplus(logits)))


def log_likelihood(logits, x, likelihood):
    if likelihood == "multinomial":
        return log_lik_multinomial(logits, x)
    if likelihood == "bernoulli":
        return log_lik_bernoulli(logits, x)
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


def kl_to_standard_normal(q):
    """KL(q || N(0, I)) in closed form, per row."""
    inner = ad.sub(ad.add(ad.exp(q.log_var), ad.mul(q.mean, q.mean)),
                   ad.add_scalar(q.log_var, 1.0))
    return ad.scale(ad.sum_rows(inner), 0.5)


def gauss_log_density(z, g):
    """log N(z; g.mean, exp(g.log_var)) per row."""
    zv = z.z if isinstance(z, LatentSample) else z
    dz = ad.sub(zv, g.mean)
    quad = ad.mul(ad.mul(dz, dz), ad.exp(ad.scale(g.log_var, -1.0)))
    inner = ad.add(ad.add_scalar(g.log_var, LOG_2PI), quad)
    return ad.scale(ad.sum_rows(inner), -0.5)


def standard_normal_log_density(z):
    zv = z.z if isinstance(z, LatentSample) else z
    inner = ad.add_scalar(ad.mul(zv, zv), LOG_2PI)
    return ad.scale(ad.sum_rows(inner), -0.5)


def vamp_log_density(z, params):
    """Log density of the mixture-of-posteriors prior at each row of z.

    Each of the K pseudo-inputs is encoded (evaluation mode, no dropout)
    into a diagonal Gaussian component; the result is
    logsumexp_k log N(z; mu_k, sigma_k^2) - log K, evaluated for the whole
    batch against all components at once.
    """
    zv = z.z if isinstance(z, LatentSample) else z
    return _mixture_log_density(zv, _vamp_components(params))


def _vamp_components(params):
    """The K mixture components: the encoded pseudo-inputs."""
    if params.config.prior != "vamp":
        raise ConfigError("vamp_log_density requires a vamp-prior model")
    if params.pseudo_inputs is None or params.pseudo_inputs.rows < 1:
        raise ConfigError("vamp prior has no pseudo-inputs")
    return encode_z2(params.pseudo_inputs, params, mode="eval")


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


def elbo(x, params, beta, rng=None, mode="eval", dropout_rate=0.0, noise=None):
    """Single-sample evidence lower bound, averaged over the batch rows.

    ``noise`` optionally freezes the reparameterization draws: a dict with
    key "z2" (and "z1" for two-level models) of standard-normal arrays.
    The KL terms are returned unscaled; ``beta`` only affects ``elbo``.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    _check_mode(mode)
    cfg = params.config
    x = as_batch(x)
    n = x.rows
    noise = noise or {}

    h = prepare_input(x, mode, dropout_rate, rng)
    g2 = _encode_z2_prepared(h, params)
    z2 = sample(g2, rng, noise.get("z2"))

    if cfg.two_level:
        g1 = _encode_z1_prepared(h, z2.z, params)
        z1 = sample(g1, rng, noise.get("z1"))
        p1 = prior_z1(z2, params)
        kl1 = kl_diag_gauss(g1, p1)
        kl2 = ad.sub(gauss_log_density(z2.z, g2), vamp_log_density(z2.z, params))
        logits = decode(z1, z2, params)
    else:
        kl1 = ad.constant(np.zeros((n, 1)))
        if cfg.prior == "standard":
            kl2 = kl_to_standard_normal(g2)
        else:
            kl2 = ad.sub(gauss_log_density(z2.z, g2), vamp_log_density(z2.z, params))
        logits = decode(z2, None, params)

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
    target = _dense_target(x)
    h = prepare_input(x, "eval")
    g2 = _encode_z2_prepared(h, params)
    entropy = float(np.mean(0.5 * np.sum(g2.log_var.data + 1.0 + LOG_2PI, axis=1)))
    # The prior's components do not depend on the draw: encode them once.
    comp = _vamp_components(params) if cfg.prior == "vamp" else None

    recon_draws = np.empty(n_mc)
    ce_draws = np.empty(n_mc)
    for s in range(n_mc):
        z2 = sample(g2, rng)
        if cfg.two_level:
            g1 = _encode_z1_prepared(h, z2.z, params)
            z1 = sample(g1, rng)
            logits = decode(z1, z2, params)
        else:
            logits = decode(z2, None, params)
        recon_draws[s] = log_likelihood(logits, target, cfg.likelihood).data.mean()
        if cfg.prior == "standard":
            log_prior = standard_normal_log_density(z2.z)
        else:
            log_prior = _mixture_log_density(z2.z, comp)
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
    h = prepare_input(x, "eval")
    g2 = _encode_z2_prepared(h, params)
    z2 = g2.mean
    if params.config.two_level:
        g1 = _encode_z1_prepared(h, z2, params)
        return g1.mean, z2
    return z2, z2


def score_items(x, params):
    """Decode logits from fold-in latents; the ranking scores for a batch."""
    z1, z2 = fold_in_latents(x, params)
    return decode(z1, z2 if params.config.two_level else None, params)
