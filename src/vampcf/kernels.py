"""Numpy implementations of the hot elementwise and row-reduction kernels.

``autodiff`` calls these through the module (``K.<name>``) and ``training``
calls ``kernels.adam_update``, so each lookup happens at call time. All
inputs are 2-D C-contiguous float64 arrays unless noted.
"""
import numpy as np

from .errors import ConfigError, ShapeError

BACKEND_NAME = "numpy"

# Elements per block of ``adam_update``: its five 256 KB slices (p, g, m,
# v and the scratch buffer) fit together in a core's L2 cache.
ADAM_BLOCK = 1 << 15


def sigmoid(x):
    """Logistic function via tanh, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def sigmoid_bwd(y, g):
    # g * y * (1 - y): (1 - y) is the one temporary besides the result.
    out = np.multiply(g, y)
    out *= 1.0 - y
    return out


def tanh_bwd(y, g):
    # g * (1 - y * y), built in the result buffer.
    out = np.multiply(y, y)
    np.subtract(1.0, out, out=out)
    out *= g
    return out


def softplus(x):
    """log(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_bwd(x, g):
    # softplus'(x) is the logistic of x.
    return g * sigmoid(x)


def _sum_exp_shifted(x, m, buf):
    """Row sums of exp(x - m), computed in ``buf``, shape (n, 1)."""
    np.subtract(x, m, out=buf)
    np.exp(buf, out=buf)
    return np.sum(buf, axis=1, keepdims=True)


def logsumexp_rows(x):
    """Row-wise log-sum-exp with max subtraction, shape (n, 1)."""
    m = np.max(x, axis=1, keepdims=True)
    return m + np.log(_sum_exp_shifted(x, m, np.empty_like(x)))


def logsumexp_rows_bwd(x, out, g):
    # exp(x - out) * g, built in the result buffer.
    r = np.subtract(x, out)
    np.exp(r, out=r)
    r *= g
    return r


def log_softmax_rows(x):
    """Row-wise log-softmax; exp of the result sums to 1 per row.

    One n x m buffer: it holds exp(x - m) for the row sums, then x - m is
    recomputed into it, which costs less than a second buffer.
    """
    m = np.max(x, axis=1, keepdims=True)
    out = np.empty_like(x)
    lse = np.log(_sum_exp_shifted(x, m, out))
    np.subtract(x, m, out=out)
    out -= lse
    return out


def log_softmax_rows_bwd(y, g):
    # g - exp(y) * sum(g), built in the result buffer.
    out = np.exp(y)
    out *= np.sum(g, axis=1, keepdims=True)
    np.subtract(g, out, out=out)
    return out


def l2_normalize_rows(x):
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged.

    Returns (normalized, inverse_norms) where inverse_norms has shape (n, 1)
    and equals 1.0 on zero rows.
    """
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    inv = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
    return x * inv, inv


def l2_normalize_rows_bwd(y, inv, g):
    # inv * (g - y * sum(g * y)), built in the result buffer.
    out = np.multiply(g, y)
    dot = np.sum(out, axis=1, keepdims=True)
    np.multiply(y, dot, out=out)
    np.subtract(g, out, out=out)
    out *= inv
    return out


def adam_update(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected adaptive-moment step, updating p/m/v in place.

    Runs block by block over the flattened arrays, so that each of its
    passes works on ``ADAM_BLOCK`` elements that stay in cache, through
    one block-sized scratch buffer. The arithmetic and its order are those
    of the whole-array update, so the result is the same bit for bit.
    ``p``, ``m`` and ``v`` must be C-contiguous, because a reshape of any
    other layout is a copy and the update would be lost; ``g`` is only
    read and may have any layout.
    """
    for name, a in (("p", p), ("m", m), ("v", v)):
        if not a.flags.c_contiguous:
            raise ConfigError(f"adam_update: {name} must be C-contiguous")
    if not p.shape == g.shape == m.shape == v.shape:
        raise ShapeError(f"adam_update: shapes differ: p {p.shape}, "
                         f"g {g.shape}, m {m.shape}, v {v.shape}")
    pf, mf, vf = p.reshape(-1), m.reshape(-1), v.reshape(-1)
    gf = g.ravel()
    n = pf.size
    scratch = np.empty(min(n, ADAM_BLOCK))
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), with c = 1 - beta ** t
    c2 = 1.0 - beta2 ** t
    step = lr / (1.0 - beta1 ** t)
    for lo in range(0, n, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, n)
        gb, mb, vb, pb = gf[lo:hi], mf[lo:hi], vf[lo:hi], pf[lo:hi]
        tmp = scratch[:hi - lo]
        np.multiply(gb, 1.0 - beta1, out=tmp)
        mb *= beta1
        mb += tmp
        np.multiply(gb, gb, out=tmp)
        tmp *= 1.0 - beta2
        vb *= beta2
        vb += tmp
        np.divide(vb, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(mb, tmp, out=tmp)
        tmp *= step
        pb -= tmp
