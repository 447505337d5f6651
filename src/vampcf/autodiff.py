"""Dense float64 matrices with tape-based reverse-mode differentiation.

A ``Matrix`` wraps a 2-D float64 numpy array (vectors are single-row
matrices). It is C-contiguous, except that the halves from ``split_cols``
are column views of their source; no operation writes into its operands.
With no active ``Tape`` every primitive is a plain numpy computation, which
is the evaluation fast path. ``Tape.backward`` replays the recorded steps in
reverse, accumulating into ``Matrix.grad``. A tape replays once: each step
is dropped as soon as it has run, and with it the forward values it read
and the gradient of its result, so a backward pass holds only what the
steps still to run will read.

A second gradient into a Matrix is the new array ``grad + g``: backward
never writes into a gradient array once a gradient map has handed it on.

A layer's weight gradient is kept as its factors: ``linear`` records the
layer input and the output's gradient in a ``_Factored``. Further products
into the same weight join it as terms, in the order they arrive, and the
optimizer forms it one row block of about ``GRAD_BLOCK`` entries at a
time, adding the terms in that order, so no whole weight gradient is held.
Reading ``Matrix.grad`` forms it whole, through the same blocks, and keeps
the array; so does a dense gradient reaching the same Matrix, which is
then added as above. The factors are read after the backward pass; that
rule keeps the arrays they name unchanged until then.

Every primitive records itself by one rule, in ``_op``: when a tape is
active and at least one operand requires a gradient, the result requires
one too and the tape gains one backward step. That step does nothing if no
gradient reached the result; otherwise it maps the result's gradient to
each operand that requires one and accumulates it there, in argument order.
A new primitive is therefore its forward expression plus one ``_op`` call
that pairs each operand with its gradient map. ``split_cols``, the one
primitive with two results, records its step by hand.

The one sparse operand is a CSR batch of interaction rows: the left side of
``linear`` and the target of the two likelihoods. It is a constant,
and no primitive densifies it.

Broadcasting is deliberately limited to adding/subtracting a single-row
vector across the rows of a matrix (bias addition); everything else must
shape-match exactly.
"""
import math

import numpy as np

from . import kernels as K
from .errors import ConfigError, NumericalError, ShapeError

# Entries per row block of a factored weight gradient (8 MB). A 20k-item
# first-layer or output-layer gradient at width 600 is 94 MB; its blocks
# are 1,747 and 53 rows.
GRAD_BLOCK = 1 << 20

_ACTIVE = None


class Tape:
    """Ordered record of the primitive ops applied while active."""

    def __init__(self):
        self._ops = []
        self._replayed = False

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
        """Seed d(out)/d(out) = 1 and replay the tape once, in reverse.

        Each step is popped off the tape before it runs, so it is freed as
        soon as it returns; a second call raises ``ConfigError``.
        """
        if self._replayed:
            raise ConfigError("a tape replays once")
        if out.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 scalar, got {out.shape}")
        self._replayed = True
        out.grad = np.ones((1, 1))
        ops = self._ops
        while ops:
            ops.pop()()


class Matrix:
    """Row-major dense matrix of float64 values.

    ``grad`` is the gradient array or None; ``_grad`` may instead hold a
    ``_Factored`` weight gradient, which the first read of ``grad`` forms.
    No gradient array is written into once it is held here.
    """

    __slots__ = ("data", "_grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got ndim={arr.ndim}")
        self.data = arr
        self._grad = None
        self.requires_grad = requires_grad

    @property
    def grad(self):
        if isinstance(self._grad, _Factored):
            self._grad = self._grad.form()
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad = g

    def _factored_grad(self):
        """The gradient as a ``_Factored``, or None when it is an array or
        there is none: the optimizer's way to the factors."""
        return self._grad if isinstance(self._grad, _Factored) else None

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


def _wrap(arr):
    m = object.__new__(Matrix)
    m.data = arr
    m._grad = None
    m.requires_grad = False
    return m


def _acc(m, g):
    """Accumulate ``g`` into ``m``'s gradient: a first one is kept as
    given, a ``_Factored`` ``g`` joins a factored gradient as more terms,
    and anything else is the new array ``m.grad + g``, a factored side
    formed first."""
    if m._grad is None:
        m._grad = g
    elif isinstance(g, _Factored) and m._factored_grad() is not None:
        m._grad.terms += g.terms
    else:
        m._grad = m.grad + (g.form() if isinstance(g, _Factored) else g)


class _Factored:
    """A weight gradient kept as factors: the sum, in arrival order, of
    the products ``[x | tail].T @ g`` of its ``terms``.

    ``rows(lo, hi)`` forms rows lo:hi, adding the terms' rows in that
    order, the same IEEE sum as adding the whole products. ``blocks()``
    cuts the rows into blocks of about ``GRAD_BLOCK`` entries; ``form()``
    writes them into one array.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, x, tail, g):
        self.shape = shape
        self.terms = [_Term(x, tail, g)]

    def blocks(self):
        rows, cols = self.shape
        step = max(1, GRAD_BLOCK // max(cols, 1))
        return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def rows(self, lo, hi):
        # A one-row piece of a taller weight is padded (see _t_matmul); a
        # one-row weight is formed as numpy forms its whole product.
        pad = self.shape[0] > 1
        out = self.terms[0].rows(lo, hi, pad)
        for t in self.terms[1:]:
            np.add(out, t.rows(lo, hi, pad), out=out)
        return out

    def form(self):
        out = np.empty(self.shape)
        for lo, hi in self.blocks():
            out[lo:hi] = self.rows(lo, hi)
        return out

    def bound(self):
        """A bound on every entry's magnitude: the sum over terms of
        n * max|[x | tail]| * max|g|. Not finite when a factor is not."""
        return sum(t.bound() for t in self.terms)

    def arrays(self):
        """The dense arrays the factors read."""
        for t in self.terms:
            yield from (a for a in (t.x, t.tail, t.g) if isinstance(a, np.ndarray))


class _Term:
    """One product ``[x | tail].T @ g`` into a weight gradient: ``x`` a
    dense array (no tail) or a CSR batch, ``g`` the layer output's
    gradient. A CSR x's touched columns are found once, here; a row block
    builds an n x (touched columns in the block) block of x and runs one
    GEMM, whose rows land at those columns, with zeros in the others."""

    __slots__ = ("x", "tail", "g", "cols", "pos", "ids")

    def __init__(self, x, tail, g):
        self.x, self.tail, self.g = x, tail, g
        if not isinstance(x, np.ndarray):
            self.cols = np.unique(x.indices)
            self.pos = np.searchsorted(self.cols, x.indices)
            self.ids = x.row_ids()

    def rows(self, lo, hi, pad):
        x, g = self.x, self.g
        if isinstance(x, np.ndarray):
            return _t_matmul(x[:, lo:hi], g, pad)
        n, m = x.shape
        out = np.zeros((hi - lo, g.shape[1]))
        a, b = np.searchsorted(self.cols, (lo, hi))
        if b > a:
            at = (self.pos >= a) & (self.pos < b)
            block = np.zeros((n, b - a))
            block[self.ids[at], self.pos[at] - a] = x.data[at]
            out[self.cols[a:b] - lo] = _t_matmul(block, g, pad)
        if hi > m:
            t = max(lo, m)
            out[t - lo:] = _t_matmul(self.tail[:, t - m:hi - m], g, pad)
        return out

    def bound(self):
        x = self.x if isinstance(self.x, np.ndarray) else self.x.data
        h = np.maximum(_amax(x), _amax(self.tail))  # keeps a nan
        return self.g.shape[0] * float(h) * _amax(self.g)


def _amax(a):
    """max |a| with no temporary: nan if ``a`` holds one, 0 if empty."""
    if a is None or a.size == 0:
        return 0.0
    return float(np.maximum(a.max(), -a.min()))


def _t_matmul(a, g, pad):
    """``a.T @ g``. With ``pad``, one column of ``a`` still goes through
    BLAS's matrix-matrix product, by a zero column beside it: numpy sends
    a one-row product to the matrix-vector one, whose sums round
    differently, so a row would change with the block it is formed in."""
    if a.shape[1] == 1 and pad:
        return (np.concatenate([a, np.zeros_like(a)], axis=1).T @ g)[:1]
    return a.T @ g


def _op(data, *inputs):
    """Wrap ``data`` as a primitive's result and record its backward step.

    Each input is an ``(operand, grad_fn)`` pair, where ``grad_fn`` maps the
    result's gradient to that operand's: an array, which may be the result's
    gradient itself or a view of one, or a ``_Factored``. Once handed on, no
    step writes into that array again, so it can be several operands'
    gradient and a factor that ``adam_step`` reads after the pass. Nothing
    is recorded unless a tape is active and some operand requires a
    gradient.
    """
    out = _wrap(data)
    tape = _ACTIVE
    if tape is None:
        return out
    live = [(m, fn) for m, fn in inputs if m.requires_grad]
    if live:
        out.requires_grad = True

        def bwd():
            g = out.grad
            if g is not None:
                for m, fn in live:
                    _acc(m, fn(g))

        tape._ops.append(bwd)
    return out


def constant(data):
    """Untracked matrix; gradients never flow into it."""
    return Matrix(data, requires_grad=False)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    return _op(a.data @ b.data,
               (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def linear(x, w, b, tail=None):
    """``[x | tail] @ w + b``: one layer's product and its single-row bias.

    ``x`` is a dense ``Matrix`` or a constant CSR batch
    (``data``/``indices``/``indptr``/``shape`` in scipy's layout) into which
    no gradient flows; an optional dense ``tail`` supplies the columns after
    x's. A dense ``x`` is joined to its tail and goes through one product.
    Row r of a CSR ``x @ w`` is its stored values times the rows of ``w``
    at its columns, so the forward pass reads only those rows, and the
    tail adds one more product. The bias is added into the product's own
    array.

    The gradient into ``w``, ``[x | tail].T @ g``, is not formed here: it
    is kept as its factors (see the module docstring), and for a CSR ``x``
    it is zero outside the columns the batch touches.
    """
    n, m = x.shape
    ts = (n, 0) if tail is None else tail.shape
    if m + ts[1] != w.rows or ts[0] != n or b.shape != (1, w.cols):
        raise ShapeError(f"linear: {x.shape} | {ts} x {w.shape} + {b.shape}")
    wd = w.data
    if isinstance(x, Matrix):
        h = x.data if tail is None else np.concatenate([x.data, tail.data], axis=1)
        out = h @ wd
        inputs = [(x, lambda g: g @ wd[:m].T),
                  (w, lambda g: _Factored(w.shape, h, None, g))]
    else:
        vals, idx, ptr = x.data, x.indices, x.indptr.tolist()
        out = np.empty((n, w.cols))
        for r in range(n):
            lo, hi = ptr[r], ptr[r + 1]
            np.dot(vals[lo:hi], wd.take(idx[lo:hi], axis=0), out=out[r])
        td = None if tail is None else tail.data
        inputs = [(w, lambda g: _Factored(w.shape, x, td, g))]
        if tail is not None:
            out += td @ wd[m:]
    if tail is not None:
        inputs.append((tail, lambda g: g @ wd[m:].T))
    out += b.data
    inputs.append((b, lambda g: g.sum(axis=0, keepdims=True)))
    return _op(out, *inputs)


def transpose(a):
    return _op(np.ascontiguousarray(a.data.T),
               (a, lambda g: np.ascontiguousarray(g.T)))


def _bias_grad(name, a, b):
    """The gradient map for ``b`` in an elementwise op with ``a``: the
    identity when the shapes match, a sum over rows when ``b`` is a
    single-row bias broadcast across a's rows."""
    if a.shape == b.shape:
        return lambda g: g
    if b.rows == 1 and b.cols == a.cols and a.rows >= 1:
        return lambda g: g.sum(axis=0, keepdims=True)
    raise ShapeError(f"{name}: {a.shape} with {b.shape}")


def add(a, b):
    """Elementwise sum; ``b`` may be a single-row bias broadcast over rows."""
    b_grad = _bias_grad("add", a, b)
    return _op(a.data + b.data, (a, lambda g: g), (b, b_grad))


def sub(a, b):
    """Elementwise difference; ``b`` may be a single-row broadcast."""
    b_grad = _bias_grad("sub", a, b)
    return _op(a.data - b.data, (a, lambda g: g), (b, lambda g: -b_grad(g)))


def mul(a, b):
    """Elementwise (Hadamard) product of same-shape matrices."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    return _op(a.data * b.data,
               (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(a, c):
    return _op(a.data * c, (a, lambda g: g * c))


def add_scalar(a, c):
    return _op(a.data + c, (a, lambda g: g))


def sigmoid(a):
    y = K.sigmoid(a.data)
    return _op(y, (a, lambda g: K.sigmoid_bwd(y, g)))


def tanh(a):
    y = np.tanh(a.data)
    return _op(y, (a, lambda g: K.tanh_bwd(y, g)))


def exp(a):
    y = np.exp(a.data)
    return _op(y, (a, lambda g: g * y))


def softplus(a):
    return _op(K.softplus(a.data), (a, lambda g: K.softplus_bwd(a.data, g)))


def clamp(a, lo, hi):
    """Clip into [lo, hi]; gradient passes through strictly inside the range."""
    inside = (a.data > lo) & (a.data < hi)
    return _op(np.clip(a.data, lo, hi), (a, lambda g: g * inside))


def sum_all(a):
    return _op(a.data.sum().reshape(1, 1),
               (a, lambda g: np.broadcast_to(g, a.shape)))


def sum_rows(a):
    """Sum over columns, giving an (n, 1) column of per-row totals."""
    return _op(a.data.sum(axis=1, keepdims=True),
               (a, lambda g: np.broadcast_to(g, a.shape)))


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.data.size)


def logsumexp(a):
    """Row-wise log-sum-exp with max subtraction; (n, m) -> (n, 1).

    Never overflows for entries up to ~|700|; a vector is the 1-row case.
    """
    if a.cols == 0:
        raise ShapeError("logsumexp of an empty vector")
    y = K.logsumexp_rows(a.data)
    return _op(y, (a, lambda g: K.logsumexp_rows_bwd(a.data, y, g)))


def softmax_log(a):
    """Row-wise log of softmax(a); exp of each output row sums to 1."""
    y = K.log_softmax_rows(a.data)
    return _op(y, (a, lambda g: K.log_softmax_rows_bwd(y, g)))


def _target_rows(name, logits, x):
    """The row of each stored entry of the CSR target ``x``."""
    if logits.shape != x.shape:
        raise ShapeError(f"{name}: {logits.shape} vs {x.shape}")
    return x.row_ids()


def multinomial_log_lik(logits, x):
    """Per row, the sum of ``x``'s stored values times the log-softmax of
    the logits at their columns: (n, m) logits and CSR x -> (n, 1).

    The gradient is g * (x - s * softmax(logits)) for a row value sum s:
    one dense pass plus a scatter at the stored entries.
    """
    row = _target_rows("multinomial_log_lik", logits, x)
    n, idx = x.rows, x.indices
    y = K.log_softmax_rows(logits.data)
    out = np.bincount(row, weights=x.data * y[row, idx], minlength=n)

    def grad(g):
        # Only this closure holds y, and a tape replays once: exp(y) goes
        # into y's own buffer.
        s = np.bincount(row, weights=x.data, minlength=n).reshape(n, 1)
        gl = np.exp(y, out=y)
        gl *= -g * s
        gl[row, idx] += g[row, 0] * x.data
        return gl

    return _op(out.reshape(n, 1), (logits, grad))


def bernoulli_log_lik(logits, x):
    """Per row, sum_i [x_i * l_i - softplus(l_i)] over all columns, for CSR
    x: (n, m) logits -> (n, 1). Only x's stored entries enter x . l.

    The gradient is g * (x - sigmoid(l)): one dense pass plus a scatter at
    the stored entries.
    """
    row = _target_rows("bernoulli_log_lik", logits, x)
    n, idx = x.rows, x.indices
    xl = np.bincount(row, weights=x.data * logits.data[row, idx], minlength=n)
    out = xl.reshape(n, 1) - K.softplus(logits.data).sum(axis=1, keepdims=True)

    def grad(g):
        gl = K.softplus_bwd(logits.data, -g)
        gl[row, idx] += g[row, 0] * x.data
        return gl

    return _op(out, (logits, grad))


def l2_normalize_rows(a):
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged."""
    y, inv = K.l2_normalize_rows(a.data)
    return _op(y, (a, lambda g: K.l2_normalize_rows_bwd(y, inv, g)))


def split_cols(a, k):
    """``(a[:, :k], a[:, k:])``, as column views of ``a``, not copies. One
    backward step writes both halves of a's gradient; a half that received
    none contributes zeros."""
    if not 0 < k < a.cols:
        raise ShapeError(f"split_cols: cannot split {a.shape} at column {k}")
    left = _wrap(a.data[:, :k])
    right = _wrap(a.data[:, k:])
    tape = _ACTIVE
    if tape is not None and a.requires_grad:
        left.requires_grad = right.requires_grad = True

        def bwd():
            if left.grad is None and right.grad is None:
                return
            g = np.empty(a.shape)
            g[:, :k] = 0.0 if left.grad is None else left.grad
            g[:, k:] = 0.0 if right.grad is None else right.grad
            _acc(a, g)

        tape._ops.append(bwd)
    return left, right


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
