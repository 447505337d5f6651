"""Dense float64 matrices with tape-based reverse-mode differentiation.

A ``Matrix`` wraps a 2-D C-contiguous float64 numpy array (vectors are
single-row matrices). Operations executed while a ``Tape`` is active record
backward closures; ``Tape.backward`` replays them in reverse, accumulating
into ``Matrix.grad``. With no active tape the same functions are plain
numpy computations, which is the evaluation fast path.

The one sparse operand is a CSR batch of interaction rows, the left side of
``sparse_matmul``; it is a constant.

Broadcasting is deliberately limited to adding/subtracting a single-row
vector across the rows of a matrix (bias addition); everything else must
shape-match exactly.
"""
import math

import numpy as np

from . import kernels as K
from .errors import NumericalError, ShapeError

_ACTIVE = None


class Tape:
    """Ordered record of the primitive ops applied while active."""

    def __init__(self):
        self._ops = []

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = self._prev
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, out):
        """Seed d(out)/d(out) = 1 and replay the tape once, in reverse."""
        if out.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 scalar, got {out.shape}")
        out.grad = np.ones((1, 1))
        for fn in reversed(self._ops):
            fn()


class Matrix:
    """Row-major dense matrix of float64 values."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, requires_grad={self.requires_grad})"

    # Operator sugar, all delegating to the module-level primitives.
    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        if isinstance(other, Matrix):
            return add(self, other)
        return add_scalar(self, float(other))

    def __radd__(self, other):
        return add_scalar(self, float(other))

    def __sub__(self, other):
        if isinstance(other, Matrix):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __truediv__(self, other):
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)


def _wrap(arr):
    m = object.__new__(Matrix)
    m.data = arr
    m.grad = None
    m.requires_grad = False
    return m


def _acc(m, g):
    m.grad = g if m.grad is None else m.grad + g


def constant(data):
    """Untracked matrix; gradients never flow into it."""
    return Matrix(data, requires_grad=False)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    out = _wrap(a.data @ b.data)
    tape = _ACTIVE
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _acc(a, g @ b.data.T)
            if b.requires_grad:
                _acc(b, a.data.T @ g)

        tape._ops.append(bwd)
    return out


def sparse_matmul(x, w, tail=None):
    """``[x | tail] @ w`` for a CSR batch ``x`` and an optional dense
    ``tail`` whose columns follow x's.

    ``x`` is a constant (``data``/``indices``/``indptr``/``shape`` in
    scipy's layout); no gradient flows into it. Row r of ``x @ w`` is its
    stored values times the rows of ``w`` at its columns, so the forward
    pass reads only those rows. The gradient into ``w`` is one GEMM on x
    densified for the backward pass only.
    """
    n, m = x.shape
    t = 0 if tail is None else tail.cols
    if m + t != w.rows or (tail is not None and tail.rows != n):
        raise ShapeError(f"sparse_matmul: {x.shape} | {(n, t)} x {w.shape}")
    wd = w.data
    vals, idx, ptr = x.data, x.indices, x.indptr.tolist()
    out_data = np.empty((n, w.cols))
    for r in range(n):
        lo, hi = ptr[r], ptr[r + 1]
        np.dot(vals[lo:hi], wd.take(idx[lo:hi], axis=0), out=out_data[r])
    if tail is not None:
        out_data += tail.data @ wd[m:]
    out = _wrap(out_data)
    tape = _ACTIVE
    if tape is not None and (w.requires_grad or (tail is not None and tail.requires_grad)):
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is None:
                return
            if w.requires_grad:
                gw = np.empty(w.shape)
                np.matmul(x.toarray().T, g, out=gw[:m])
                if tail is not None:
                    np.matmul(tail.data.T, g, out=gw[m:])
                _acc(w, gw)
            if tail is not None and tail.requires_grad:
                _acc(tail, g @ wd[m:].T)

        tape._ops.append(bwd)
    return out


def transpose(a):
    out = _wrap(np.ascontiguousarray(a.data.T))
    tape = _ACTIVE
    if tape is not None and a.requires_grad:
        out.requires_grad = True

        def bwd():
            if out.grad is not None:
                _acc(a, np.ascontiguousarray(out.grad.T))

        tape._ops.append(bwd)
    return out


def _broadcast_ok(a, b):
    return b.rows == 1 and b.cols == a.cols and a.rows >= 1


def add(a, b):
    """Elementwise sum; ``b`` may be a single-row bias broadcast over rows."""
    if a.shape == b.shape:
        broadcast = False
    elif _broadcast_ok(a, b):
        broadcast = True
    else:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    out = _wrap(a.data + b.data)
    tape = _ACTIVE
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _acc(a, g)
            if b.requires_grad:
                _acc(b, g.sum(axis=0, keepdims=True) if broadcast else g)

        tape._ops.append(bwd)
    return out


def sub(a, b):
    """Elementwise difference; ``b`` may be a single-row broadcast."""
    if a.shape == b.shape:
        broadcast = False
    elif _broadcast_ok(a, b):
        broadcast = True
    else:
        raise ShapeError(f"sub: {a.shape} - {b.shape}")
    out = _wrap(a.data - b.data)
    tape = _ACTIVE
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _acc(a, g)
            if b.requires_grad:
                _acc(b, -(g.sum(axis=0, keepdims=True) if broadcast else g))

        tape._ops.append(bwd)
    return out


def mul(a, b):
    """Elementwise (Hadamard) product of same-shape matrices."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    out = _wrap(a.data * b.data)
    tape = _ACTIVE
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _acc(a, g * b.data)
            if b.requires_grad:
                _acc(b, g * a.data)

        tape._ops.append(bwd)
    return out


def scale(a, c):
    out = _wrap(a.data * c)
    tape = _ACTIVE
    if tape is not None and a.requires_grad:
        out.requires_grad = True

        def bwd():
            if out.grad is not None:
                _acc(a, out.grad * c)

        tape._ops.append(bwd)
    return out


def add_scalar(a, c):
    out = _wrap(a.data + c)
    tape = _ACTIVE
    if tape is not None and a.requires_grad:
        out.requires_grad = True

        def bwd():
            if out.grad is not None:
                _acc(a, out.grad)

        tape._ops.append(bwd)
    return out


def _unary(a, out_data, grad_fn):
    out = _wrap(out_data)
    tape = _ACTIVE
    if tape is not None and a.requires_grad:
        out.requires_grad = True

        def bwd():
            if out.grad is not None:
                _acc(a, grad_fn(out.grad))

        tape._ops.append(bwd)
    return out


def sigmoid(a):
    y = K.sigmoid(a.data)
    return _unary(a, y, lambda g: K.sigmoid_bwd(y, g))


def tanh(a):
    y = np.tanh(a.data)
    return _unary(a, y, lambda g: K.tanh_bwd(y, g))


def exp(a):
    y = np.exp(a.data)
    return _unary(a, y, lambda g: g * y)


def log(a):
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def softplus(a):
    return _unary(a, K.softplus(a.data), lambda g: K.softplus_bwd(a.data, g))


def clamp(a, lo, hi):
    """Clip into [lo, hi]; gradient passes through strictly inside the range."""
    inside = (a.data > lo) & (a.data < hi)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * inside)


def sum_all(a):
    return _unary(a, a.data.sum().reshape(1, 1),
                  lambda g: np.broadcast_to(g, a.shape))


def sum_rows(a):
    """Sum over columns, giving an (n, 1) column of per-row totals."""
    return _unary(a, a.data.sum(axis=1, keepdims=True),
                  lambda g: np.broadcast_to(g, a.shape))


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.data.size)


def logsumexp(a):
    """Row-wise log-sum-exp with max subtraction; (n, m) -> (n, 1).

    Never overflows for entries up to ~|700|; a vector is the 1-row case.
    """
    if a.cols == 0:
        raise ShapeError("logsumexp of an empty vector")
    y = K.logsumexp_rows(a.data)
    return _unary(a, y, lambda g: K.logsumexp_rows_bwd(a.data, y, g))


def softmax_log(a):
    """Row-wise log of softmax(a); exp of each output row sums to 1."""
    y = K.log_softmax_rows(a.data)
    return _unary(a, y, lambda g: K.log_softmax_rows_bwd(y, g))


def l2_normalize_rows(a):
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged."""
    y, inv = K.l2_normalize_rows(a.data)
    return _unary(a, y, lambda g: K.l2_normalize_rows_bwd(y, inv, g))


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ShapeError(f"concat_cols: {a.shape} | {b.shape}")
    out = _wrap(np.concatenate([a.data, b.data], axis=1))
    tape = _ACTIVE
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True
        split = a.cols

        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                _acc(a, np.ascontiguousarray(g[:, :split]))
            if b.requires_grad:
                _acc(b, np.ascontiguousarray(g[:, split:]))

        tape._ops.append(bwd)
    return out


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def grad_check(f, params, eps=1e-5):
    """Compare tape gradients of a scalar function against central differences.

    ``f`` is a zero-argument callable that recomputes the scalar from the
    current contents of ``params`` (one Matrix or a sequence). Returns the
    max over all parameter entries of

        |analytic - finite_difference| / max(1, |analytic|).
    """
    if isinstance(params, Matrix):
        params = [params]
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_hi = f().item()
            flat[i] = orig - eps
            f_lo = f().item()
            flat[i] = orig
            if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
                raise NumericalError(
                    f"non-finite value at perturbed parameter entry {i}")
            fd = (f_hi - f_lo) / (2.0 * eps)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
