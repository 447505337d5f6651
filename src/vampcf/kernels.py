"""Numpy implementations of the hot elementwise and row-reduction kernels.

``autodiff`` calls these through the module (``K.<name>``) and ``training``
calls ``kernels.adam_update``, so each lookup happens at call time. All
inputs are 2-D C-contiguous float64 arrays unless noted.
"""
import numpy as np

BACKEND_NAME = "numpy"


def sigmoid(x):
    """Logistic function via tanh, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def sigmoid_bwd(y, g):
    return g * y * (1.0 - y)


def tanh_bwd(y, g):
    return g * (1.0 - y * y)


def softplus(x):
    """log(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_bwd(x, g):
    # The logistic of x, written out rather than calling ``sigmoid``:
    # perfbench wraps the public kernel names, and a call from here would
    # be counted as a sigmoid call of its own.
    return g * (0.5 * np.tanh(0.5 * x) + 0.5)


def logsumexp_rows(x):
    """Row-wise log-sum-exp with max subtraction, shape (n, 1)."""
    m = np.max(x, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))


def logsumexp_rows_bwd(x, out, g):
    return np.exp(x - out) * g


def log_softmax_rows(x):
    """Row-wise log-softmax; exp of the result sums to 1 per row."""
    m = np.max(x, axis=1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def log_softmax_rows_bwd(y, g):
    return g - np.exp(y) * np.sum(g, axis=1, keepdims=True)


def l2_normalize_rows(x):
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged.

    Returns (normalized, inverse_norms) where inverse_norms has shape (n, 1)
    and equals 1.0 on zero rows.
    """
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    inv = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
    return x * inv, inv


def l2_normalize_rows_bwd(y, inv, g):
    dot = np.sum(g * y, axis=1, keepdims=True)
    return inv * (g - y * dot)


def adam_update(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected adaptive-moment step, updating p/m/v in place.

    Works through one scratch array the shape of ``g``; ``g`` is only read.
    """
    tmp = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), with c = 1 - beta ** t
    np.divide(v, 1.0 - beta2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, tmp, out=tmp)
    tmp *= lr / (1.0 - beta1 ** t)
    p -= tmp
