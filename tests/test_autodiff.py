"""Tests for the dense matrix type, the gradient tape, and grad_check."""
import inspect
import math
import weakref
import zlib

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf.autodiff import Matrix, Tape, grad_check
from vampcf.errors import ConfigError, ShapeError


def matmul_oracle(a, b):
    """Entry-by-entry triple loop, independent of the numpy path."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Matrix(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_unit_basis_row_selects(self):
        out = ad.matmul(Matrix([[1.0, 0.0]]), Matrix([[2.0], [5.0]]))
        assert out.item() == 2.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = ad.matmul(Matrix(a), Matrix(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))))


class TestLogsumexp:
    def test_two_equal_terms(self):
        out = ad.logsumexp(Matrix([0.0, 0.0]))
        np.testing.assert_allclose(out.item(), math.log(2.0), atol=1e-15)

    def test_huge_inputs_do_not_overflow(self):
        out = ad.logsumexp(Matrix([1000.0, 1000.0]))
        np.testing.assert_allclose(out.item(), 1000.0 + math.log(2.0), atol=1e-12)

    def test_singleton_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = float(rng.uniform(-700, 700))
            assert ad.logsumexp(Matrix([x])).item() == x

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(9)
        base = ad.logsumexp(Matrix(v)).item()
        for _ in range(10):
            perm = rng.permutation(9)
            assert ad.logsumexp(Matrix(v[perm])).item() == pytest.approx(base, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.logsumexp(Matrix(np.zeros((1, 0))))


class TestSoftmaxLog:
    def test_uniform(self):
        out = ad.softmax_log(Matrix([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, math.log(0.25), atol=1e-15)

    def test_hand_normalized(self):
        # exp -> [3, 1, 1, 1], total 6
        out = ad.softmax_log(Matrix([math.log(3.0), 0.0, 0.0, 0.0]))
        expected = [math.log(0.5)] + [math.log(1.0 / 6.0)] * 3
        np.testing.assert_allclose(out.data[0], expected, atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(7)
        base = ad.softmax_log(Matrix(v)).data
        for c in (-123.0, 0.5, 1e4):
            shifted = ad.softmax_log(Matrix(v + c)).data
            np.testing.assert_allclose(shifted, base, atol=1e-10)

    def test_exponentiates_to_probability_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.uniform(-50, 50, size=rng.integers(1, 12))
            p = np.exp(ad.softmax_log(Matrix(v)).data)
            assert np.all(p > 0.0) and np.all(p <= 1.0)
            assert abs(p.sum() - 1.0) <= 1e-12


class TestTape:
    def test_backward_visits_each_op_once(self):
        a = Matrix([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.mul(ad.sigmoid(a), ad.tanh(a)))
            n_ops = len(tape)
            calls = []
            tape._ops = [lambda fn=fn: (calls.append(1), fn())[1] for fn in tape._ops]
            tape.backward(out)
        assert len(calls) == n_ops

    def test_backward_frees_each_step_it_has_replayed(self):
        # Only the tape keeps h's array alive once the name is gone; the
        # step that read it is dropped as soon as it has run.
        a = Matrix([[0.5, -1.0]], requires_grad=True)
        with Tape() as tape:
            h = ad.tanh(a)
            out = ad.sum_all(ad.mul(h, h))
            probe = weakref.ref(h.data)
            del h
            assert probe() is not None
            tape.backward(out)
            assert probe() is None
        assert len(tape) == 0
        np.testing.assert_allclose(
            a.grad, 2.0 * np.tanh(a.data) * (1.0 - np.tanh(a.data) ** 2),
            atol=1e-15)

    def test_a_tape_replays_once(self):
        a = Matrix([[0.5]], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.exp(a))
            tape.backward(out)
            grad = a.grad.copy()
            with pytest.raises(ConfigError, match="a tape replays once"):
                tape.backward(out)
        np.testing.assert_array_equal(a.grad, grad)

    def test_unused_parameter_grad_is_zero(self):
        used = Matrix([[1.0]], requires_grad=True)
        unused = Matrix([[5.0]], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.exp(used))
            tape.backward(out)
        assert unused.grad is None  # reported as exactly zero by grad_check
        err = grad_check(lambda: ad.sum_all(ad.exp(used)), [used, unused])
        assert err < 1e-8

    def test_fanout_accumulates(self):
        # f = x*x has gradient 2x even though x enters one op twice
        x = Matrix([[3.0]], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.mul(x, x))
            tape.backward(out)
        np.testing.assert_allclose(x.grad, [[6.0]], atol=1e-15)

    def test_no_tape_means_no_tracking(self):
        x = Matrix([[3.0]], requires_grad=True)
        out = ad.mul(x, x)
        assert out.requires_grad is False and out.grad is None


def _dot(m, probe):
    """sum(m * probe): its gradient into m is exactly probe."""
    return ad.sum_all(ad.mul(m, probe))


def _total(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = ad.add(out, t)
    return out


class TestGradientOwnership:
    """Backward writes into no gradient array it has handed on: a second
    gradient into a Matrix is the new array ``grad + g``. Every gradient
    equals its sum written out by hand, bit for bit, and no array that
    another Matrix or the caller holds changes."""

    @staticmethod
    def arrays(*shapes, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(s) for s in shapes]

    @pytest.mark.parametrize("add_first", [True, False])
    def test_add_hands_one_array_to_both_operands(self, add_first):
        # Recorded last, add's step runs first and hands the same array to
        # a and b before their own products add to it.
        a, b = [Matrix(x, requires_grad=True) for x in self.arrays((2, 3), (2, 3))]
        p, pa, pb = [ad.constant(x) for x in self.arrays(*[(2, 3)] * 3, seed=1)]
        with Tape() as tape:
            if add_first:
                s = ad.add(a, b)
                terms = [_dot(s, p), _dot(a, pa), _dot(b, pb)]
            else:
                terms = [_dot(a, pa), _dot(b, pb)]
                s = ad.add(a, b)
                terms.append(_dot(s, p))
            tape.backward(_total(*terms))
        assert np.array_equal(a.grad, p.data + pa.data)
        assert np.array_equal(b.grad, p.data + pb.data)
        assert np.array_equal(s.grad, p.data)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_one_operand_on_both_sides(self, op):
        x, = self.arrays((2, 3))
        a = Matrix(x, requires_grad=True)
        p, q = [ad.constant(y) for y in self.arrays((2, 3), (2, 3), seed=1)]
        with Tape() as tape:
            first = _dot(a, q)
            s = getattr(ad, op)(a, a)
            tape.backward(_total(first, _dot(s, p)))
        g = p.data
        by_hand = {"add": g + g, "sub": g + -g, "mul": g * x + g * x}[op]
        assert np.array_equal(a.grad, by_hand + q.data)
        assert np.array_equal(s.grad, p.data)

    @pytest.mark.parametrize("reduce", [
        ad.sum_all, lambda a: ad.sum_all(ad.sum_rows(a))], ids=["sum_all", "sum_rows"])
    def test_a_broadcast_view_then_a_second_gradient(self, reduce):
        # The first gradient to reach a is a read-only broadcast of ones.
        a = Matrix(self.arrays((2, 3))[0], requires_grad=True)
        q = ad.constant(self.arrays((2, 3), seed=1)[0])
        with Tape() as tape:
            first = _dot(a, q)
            tape.backward(_total(first, reduce(a)))
        assert np.array_equal(a.grad, 1.0 + q.data)

    def test_single_row_transpose_hands_on_a_view(self):
        a = Matrix(self.arrays((1, 4))[0], requires_grad=True)
        q, p = self.arrays((1, 4), (4, 1), seed=1)
        with Tape() as tape:
            first = _dot(a, ad.constant(q))
            t = ad.transpose(a)
            tape.backward(_total(first, _dot(t, ad.constant(p))))
        assert np.array_equal(a.grad, p.T + q)
        assert np.array_equal(t.grad, p)

    def test_split_cols_buffer_then_a_second_gradient(self):
        a = Matrix(self.arrays((2, 3))[0], requires_grad=True)
        q, pl = self.arrays((2, 3), (2, 1), seed=1)
        with Tape() as tape:
            first = _dot(a, ad.constant(q))
            left, _ = ad.split_cols(a, 1)
            tape.backward(_total(first, _dot(left, ad.constant(pl))))
        assert np.array_equal(a.grad, np.hstack([pl, np.zeros((2, 2))]) + q)

    @pytest.mark.parametrize("how", ["by hand", "by an earlier backward"])
    def test_never_writes_into_a_grad_this_backward_did_not_make(self, how):
        a = Matrix(self.arrays((2, 3))[0], requires_grad=True)
        p, q = self.arrays((2, 3), (2, 3), seed=1)
        if how == "by hand":
            a.grad = np.full((2, 3), 0.5)
        else:
            with Tape() as tape:
                tape.backward(_dot(a, ad.constant(p)))
        held = a.grad
        kept = held.copy()
        with Tape() as tape:
            tape.backward(_total(_dot(a, ad.constant(p)), _dot(a, ad.constant(q))))
        assert np.array_equal(held, kept)
        assert np.array_equal(a.grad, kept + q + p)


class TestGradCheck:
    def test_quadratic(self):
        x = Matrix([[3.0]], requires_grad=True)
        err = grad_check(lambda: ad.sum_all(ad.mul(x, x)), x)
        assert err < 1e-8

    def test_linear(self):
        x = Matrix(np.arange(6.0).reshape(2, 3), requires_grad=True)
        err = grad_check(lambda: ad.sum_all(x), x)
        assert err < 1e-10

    def test_nonfinite_probe_raises(self):
        from vampcf.errors import NumericalError
        # exp is finite at x but overflows one step of eps above it.
        x = Matrix([[709.78]], requires_grad=True)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                grad_check(lambda: ad.exp(x), x, eps=0.1)


def _random_points(rng, n, shape, lo=-2.0, hi=2.0):
    for _ in range(n):
        yield rng.uniform(lo, hi, size=shape)


PRIMITIVE_CASES = [
    "matmul", "add", "add_bias", "sub", "mul", "scale", "add_scalar",
    "sigmoid", "tanh", "exp", "softplus", "logsumexp", "softmax_log",
    "sum_all", "sum_rows", "mean_all", "clamp", "transpose",
    "l2_normalize_rows",
    "split_cols", "split_cols_left_only", "split_cols_right_only",
    "multinomial_log_lik", "bernoulli_log_lik",
    "linear", "linear_one_row", "linear_tail", "linear_csr", "linear_csr_tail",
]


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_primitive_gradients_at_100_random_points(name):
    """Every differentiable primitive agrees with central differences."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for point in _random_points(rng, 100, (2, 3)):
        if name == "clamp":
            # Central differences within eps of a kink of clamp(x, -1.5, 1.5)
            # mix its two slopes, so points within 1e-3 of ±1.5 move 2e-3 out.
            near = np.abs(np.abs(point) - 1.5) < 1e-3
            point[near] += np.copysign(2e-3, point[near])
        x = Matrix(point, requires_grad=True)
        w = Matrix(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        b = Matrix(rng.uniform(-1, 1, size=(1, 3)), requires_grad=True)
        k = Matrix(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
        probe = ad.constant(rng.uniform(-1, 1, size=(2, 3)))

        if name == "matmul":
            probe_sq = ad.constant(rng.uniform(-1, 1, size=(2, 2)))
            f = lambda: ad.sum_all(ad.mul(ad.matmul(x, k), probe_sq))
            params = [x, k]
        elif name == "add":
            f = lambda: ad.sum_all(ad.mul(ad.add(x, w), probe))
            params = [x, w]
        elif name == "add_bias":
            f = lambda: ad.sum_all(ad.mul(ad.add(x, b), probe))
            params = [x, b]
        elif name == "sub":
            f = lambda: ad.sum_all(ad.mul(ad.sub(x, b), probe))
            params = [x, b]
        elif name == "mul":
            f = lambda: ad.sum_all(ad.mul(ad.mul(x, w), probe))
            params = [x, w]
        elif name == "scale":
            f = lambda: ad.sum_all(ad.mul(ad.scale(x, -1.7), probe))
            params = [x]
        elif name == "add_scalar":
            f = lambda: ad.sum_all(ad.mul(ad.add_scalar(x, 0.8), probe))
            params = [x]
        elif name == "sigmoid":
            f = lambda: ad.sum_all(ad.mul(ad.sigmoid(x), probe))
            params = [x]
        elif name == "tanh":
            f = lambda: ad.sum_all(ad.mul(ad.tanh(x), probe))
            params = [x]
        elif name == "exp":
            f = lambda: ad.sum_all(ad.mul(ad.exp(x), probe))
            params = [x]
        elif name == "softplus":
            f = lambda: ad.sum_all(ad.mul(ad.softplus(x), probe))
            params = [x]
        elif name == "logsumexp":
            f = lambda: ad.sum_all(ad.mul(ad.logsumexp(x), ad.constant([[0.7], [-0.3]])))
            params = [x]
        elif name == "softmax_log":
            f = lambda: ad.sum_all(ad.mul(ad.softmax_log(x), probe))
            params = [x]
        elif name in ("sum_all", "mean_all"):
            # The reduction of x * x, whose gradient depends on the point.
            f = lambda: getattr(ad, name)(ad.mul(x, x))
            params = [x]
        elif name == "sum_rows":
            f = lambda: ad.sum_all(ad.mul(ad.sum_rows(x), ad.constant([[0.7], [-0.3]])))
            params = [x]
        elif name == "clamp":
            f = lambda: ad.sum_all(ad.mul(ad.clamp(x, -1.5, 1.5), probe))
            params = [x]
        elif name == "transpose":
            f = lambda: ad.sum_all(ad.mul(ad.transpose(x), ad.constant(np.ones((3, 2)))))
            params = [x]
        elif name == "l2_normalize_rows":
            f = lambda: ad.sum_all(ad.mul(ad.l2_normalize_rows(x), probe))
            params = [x]
        elif name == "split_cols":
            def f():
                left, right = ad.split_cols(x, 1)
                return ad.add(ad.sum_all(ad.mul(left, ad.constant(probe.data[:, :1]))),
                              ad.sum_all(ad.mul(ad.tanh(right),
                                                ad.constant(probe.data[:, 1:]))))
            params = [x]
        elif name in ("multinomial_log_lik", "bernoulli_log_lik"):
            # A CSR target with an empty row and non-binary values.
            target = _random_csr(rng, 2, 3, density=0.6)[0]
            lik = getattr(ad, name)
            f = lambda: ad.sum_all(ad.mul(lik(x, target),
                                          ad.constant([[0.7], [-0.3]])))
            params = [x]
        elif name in ("linear", "linear_one_row"):
            # [1, 3] @ (3, 2) + (1, 2) and [2, 3] @ (3, 2) + (1, 2).
            h = x if name == "linear" else Matrix(point[:1], requires_grad=True)
            c = Matrix(rng.uniform(-1, 1, size=(1, 2)), requires_grad=True)
            probe_h = ad.constant(rng.uniform(-1, 1, size=(h.rows, 2)))
            f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(h, k, c)), probe_h))
            params = [h, k, c]
        elif name == "linear_tail":
            # [the point | a 2 x 2 dense tail] @ (5, 3) + (1, 3).
            tail = Matrix(rng.uniform(-1, 1, size=(2, 2)), requires_grad=True)
            wt = Matrix(rng.uniform(-1, 1, size=(5, 3)), requires_grad=True)
            f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(x, wt, b, tail)), probe))
            params = [x, tail, wt, b]
        elif name == "linear_csr":
            # A 2 x 2 CSR batch (row 0 empty) times the point as its weight.
            batch = _random_csr(rng, 2, 2, density=0.6)[0]
            f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(batch, x, b)), probe))
            params = [x, b]
        elif name == "linear_csr_tail":
            # [2 x 3 CSR | the point as tail] @ (6, 3) + (1, 3).
            batch = _random_csr(rng, 2, 3, density=0.6)[0]
            wt = Matrix(rng.uniform(-1, 1, size=(6, 3)), requires_grad=True)
            f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(batch, wt, b, x)), probe))
            params = [x, wt, b]
        elif name in ("split_cols_left_only", "split_cols_right_only"):
            # The other half is never used, so its gradient stays None.
            side = 0 if name == "split_cols_left_only" else 1
            f = lambda: ad.sum_all(ad.tanh(ad.split_cols(x, 2)[side]))
            params = [x]
        else:
            raise AssertionError(name)

        assert grad_check(f, params, eps=1e-5) < 1e-6, name


def _csr_2x3():
    return _random_csr(np.random.default_rng(0), 2, 3)[0]


# name -> (primitive applied to its Matrix operands, operand shapes)
RECORDING_CASES = {
    "matmul": (ad.matmul, [(2, 3), (3, 2)]),
    "linear": (ad.linear, [(2, 3), (3, 2), (1, 2)]),
    "linear_one_row": (ad.linear, [(1, 3), (3, 2), (1, 2)]),
    "linear_tail": (ad.linear, [(2, 3), (5, 2), (1, 2), (2, 2)]),
    "linear_csr": (lambda w, b: ad.linear(_csr_2x3(), w, b), [(3, 2), (1, 2)]),
    "linear_csr_tail": (lambda w, b, t: ad.linear(_csr_2x3(), w, b, t),
                        [(5, 2), (1, 2), (2, 2)]),
    "transpose": (ad.transpose, [(2, 3)]),
    "add": (ad.add, [(2, 3), (2, 3)]),
    "add_bias": (ad.add, [(2, 3), (1, 3)]),
    "sub": (ad.sub, [(2, 3), (2, 3)]),
    "sub_bias": (ad.sub, [(2, 3), (1, 3)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "scale": (lambda a: ad.scale(a, -1.5), [(2, 3)]),
    "add_scalar": (lambda a: ad.add_scalar(a, 0.5), [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "tanh": (ad.tanh, [(2, 3)]),
    "exp": (ad.exp, [(2, 3)]),
    "softplus": (ad.softplus, [(2, 3)]),
    "clamp": (lambda a: ad.clamp(a, 0.3, 0.7), [(2, 3)]),
    "sum_all": (ad.sum_all, [(2, 3)]),
    "sum_rows": (ad.sum_rows, [(2, 3)]),
    "mean_all": (ad.mean_all, [(2, 3)]),
    "logsumexp": (ad.logsumexp, [(2, 3)]),
    "softmax_log": (ad.softmax_log, [(2, 3)]),
    "l2_normalize_rows": (ad.l2_normalize_rows, [(2, 3)]),
    "split_cols": (lambda a: ad.split_cols(a, 1), [(2, 3)]),
    "multinomial_log_lik": (lambda a: ad.multinomial_log_lik(a, _csr_2x3()),
                            [(2, 3)]),
    "bernoulli_log_lik": (lambda a: ad.bernoulli_log_lik(a, _csr_2x3()),
                          [(2, 3)]),
}


def _public_primitives():
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")}
    return public - {"constant", "grad_check"}


def test_recording_cases_cover_every_primitive():
    assert _public_primitives() <= set(RECORDING_CASES)


def test_primitive_cases_cover_every_primitive():
    """A primitive added without a gradient-check case fails here."""
    assert _public_primitives() <= set(PRIMITIVE_CASES)


@pytest.mark.parametrize("name", list(RECORDING_CASES))
def test_recording_rule(name):
    """Inside a tape, constant operands record nothing; each trainable
    operand on its own records one step (mean_all is sum_all then scale)."""
    fn, shapes = RECORDING_CASES[name]
    rng = np.random.default_rng(0)
    for trainable in [None, *range(len(shapes))]:
        operands = [Matrix(rng.uniform(0.1, 0.9, size=s),
                           requires_grad=j == trainable)
                    for j, s in enumerate(shapes)]
        with Tape() as tape:
            out = fn(*operands)
        recorded = trainable is not None
        assert len(tape) == (0 if not recorded else 2 if name == "mean_all" else 1)
        outs = out if isinstance(out, tuple) else (out,)
        assert all(o.requires_grad is recorded for o in outs)


def test_split_cols_halves_are_views_that_rejoin():
    x = Matrix(np.arange(12.0).reshape(3, 4))
    left, right = ad.split_cols(x, 3)
    np.testing.assert_array_equal(left.data, x.data[:, :3])
    np.testing.assert_array_equal(right.data, x.data[:, 3:])
    assert np.shares_memory(left.data, x.data) and np.shares_memory(right.data, x.data)
    np.testing.assert_array_equal(np.concatenate([left.data, right.data], axis=1), x.data)


@pytest.mark.parametrize("k", [0, 4, -1])
def test_split_cols_needs_two_nonempty_halves(k):
    with pytest.raises(ShapeError):
        ad.split_cols(Matrix(np.zeros((2, 4))), k)


def test_clamp_gradient_zero_outside_range():
    x = Matrix([[5.0, 0.0, -5.0]], requires_grad=True)
    with Tape() as tape:
        out = ad.sum_all(ad.clamp(x, -1.0, 1.0))
        tape.backward(out)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_l2_normalize_zero_row_passes_through():
    x = Matrix(np.zeros((1, 4)))
    out = ad.l2_normalize_rows(x)
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_vector_and_scalar_coercion():
    assert Matrix([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Matrix(2.5).shape == (1, 1)
    with pytest.raises(ShapeError):
        Matrix(np.zeros((2, 2, 2)))


def _random_csr(rng, n, m, density=0.3):
    from vampcf.data import CSRMatrix
    x = (rng.random((n, m)) < density) * rng.uniform(0.1, 2.0, size=(n, m))
    x[0] = 0.0  # an empty row
    return CSRMatrix.from_dense(x), x


class TestSparseMatmul:
    """``linear`` with a CSR left operand."""

    def test_matches_dense_product(self):
        rng = np.random.default_rng(70)
        x, dense = _random_csr(rng, 9, 40)
        w = Matrix(rng.standard_normal((40, 7)))
        b = Matrix(rng.standard_normal((1, 7)))
        out = ad.linear(x, w, b)
        np.testing.assert_allclose(out.data, dense @ w.data + b.data,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(out.data[0], b.data[0])

    def test_tail_matches_concatenated_product(self):
        rng = np.random.default_rng(71)
        x, dense = _random_csr(rng, 6, 25)
        tail = Matrix(rng.standard_normal((6, 4)))
        w = Matrix(rng.standard_normal((29, 5)))
        b = Matrix(rng.standard_normal((1, 5)))
        out = ad.linear(x, w, b, tail)
        expected = np.concatenate([dense, tail.data], axis=1) @ w.data + b.data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_weight_and_tail_gradients_pass_grad_check(self):
        rng = np.random.default_rng(72)
        x, _ = _random_csr(rng, 5, 12)
        w = Matrix(rng.uniform(-1, 1, size=(15, 4)), requires_grad=True)
        b = Matrix(rng.uniform(-1, 1, size=(1, 4)), requires_grad=True)
        tail = Matrix(rng.uniform(-1, 1, size=(5, 3)), requires_grad=True)
        probe = ad.constant(rng.uniform(-1, 1, size=(5, 4)))
        f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(x, w, b, tail)), probe))
        assert grad_check(f, [w, b, tail], eps=1e-5) < 1e-6
        w_only = Matrix(w.data[:12].copy(), requires_grad=True)
        g = lambda: ad.sum_all(ad.mul(ad.tanh(ad.linear(x, w_only, b)), probe))
        assert grad_check(g, [w_only, b], eps=1e-5) < 1e-6

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(73)
        x, dense = _random_csr(rng, 3, 8)
        b = Matrix(np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            ad.linear(x, Matrix(np.zeros((9, 2))), b)
        with pytest.raises(ShapeError, match=r"\(3, 8\) \| \(2, 2\) x"):
            ad.linear(x, Matrix(np.zeros((10, 2))), b, Matrix(np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            ad.linear(x, Matrix(np.zeros((8, 2))), Matrix(np.zeros((1, 3))))
        with pytest.raises(ShapeError):
            ad.linear(x, Matrix(np.zeros((8, 2))), Matrix(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match=r"\(3, 8\) \| \(2, 2\) x"):
            ad.linear(Matrix(dense), Matrix(np.zeros((10, 2))), b,
                      Matrix(np.zeros((2, 2))))


@pytest.mark.parametrize("rows", [1, 4])
def test_dense_linear_equals_matmul_then_add_bit_for_bit(rows):
    """Adding the bias into the product is the same IEEE sum as the
    two-step form, forward and backward."""
    def run(layer):
        rng = np.random.default_rng(74)
        ms = [Matrix(rng.standard_normal(s), requires_grad=True)
              for s in [(rows, 6), (6, 5), (1, 5)]]
        probe = ad.constant(rng.standard_normal((rows, 5)))
        with Tape() as tape:
            out = layer(*ms)
            tape.backward(ad.sum_all(ad.mul(ad.tanh(out), probe)))
        return [out.data] + [m.grad for m in ms]

    fused = run(ad.linear)
    two_step = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    for a, e in zip(fused, two_step):
        assert np.array_equal(a, e)


def _dense_first_layer_grad(x, tail, g):
    """x.toarray().T @ g over x's columns and tail.T @ g below them."""
    rows = [x.toarray().T @ g]
    if tail is not None:
        rows.append(tail.T @ g)
    return np.concatenate(rows)


class TestSparseWeightGradient:
    """The first-layer weight gradient comes from the columns the batch
    touches only; it must match the dense product everywhere."""

    def grad(self, x, width, tail_cols=0, seed=0):
        rng = np.random.default_rng(seed)
        w = Matrix(rng.standard_normal((x.cols + tail_cols, width)),
                   requires_grad=True)
        b = Matrix(np.zeros((1, width)))
        tail = Matrix(rng.standard_normal((x.rows, tail_cols))) \
            if tail_cols else None
        g = rng.standard_normal((x.rows, width))
        with Tape() as tape:
            out = ad.sum_all(ad.mul(ad.linear(x, w, b, tail), ad.constant(g)))
            tape.backward(out)
        expected = _dense_first_layer_grad(
            x, None if tail is None else tail.data, g)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(w.grad, expected, rtol=1e-13, atol=1e-13 * scale)
        return w.grad

    def test_empty_row_and_untouched_columns(self):
        x, dense = _random_csr(np.random.default_rng(80), 7, 50, density=0.05)
        gw = self.grad(x, 6)
        untouched = ~dense.any(axis=0)
        assert untouched.any() and np.all(gw[untouched] == 0.0)

    def test_every_column_touched(self):
        x, dense = _random_csr(np.random.default_rng(81), 6, 20, density=1.0)
        assert dense.any(axis=0).all()
        self.grad(x, 5, seed=1)

    def test_with_a_tail(self):
        x, _ = _random_csr(np.random.default_rng(82), 8, 30, density=0.2)
        self.grad(x, 4, tail_cols=3, seed=2)

    def test_all_rows_empty(self):
        from vampcf.data import CSRMatrix
        gw = self.grad(CSRMatrix.from_dense(np.zeros((3, 10))), 4, tail_cols=2)
        assert np.all(gw[:10] == 0.0)


class TestFactoredWeightGradient:
    """``linear`` keeps its weight gradient as factors, formed one row
    block of about ``GRAD_BLOCK`` entries at a time. Every block size gives
    the dense product ``[x | tail].T @ g`` bit for bit: on 43 weight rows
    at width 5, blocks of 1 row, of 3 (43 is not a multiple of 3, so the
    last block is one row) and of the whole tensor."""

    WIDTH = 5

    @staticmethod
    def case(kind):
        """(x for linear, tail or None, the dense [x | tail], g) for a
        weight of 43 rows: dense x, or CSR x with an empty row and
        untouched columns, with or without a tail."""
        rng = np.random.default_rng(84)
        g = rng.standard_normal((6, TestFactoredWeightGradient.WIDTH))
        if kind == "dense":
            x = rng.standard_normal((6, 43))
            return Matrix(x, requires_grad=True), None, x, g
        cols = 43 if kind == "csr" else 40
        x, dense = _random_csr(rng, 6, cols, density=0.15)
        assert not dense[0].any() and not dense.any(axis=0).all()
        if kind == "csr":
            return x, None, dense, g
        tail = rng.standard_normal((6, 3))
        return x, Matrix(tail), np.concatenate([dense, tail], axis=1), g

    def factored(self, x, tail, g):
        w = Matrix(np.ones((43, self.WIDTH)), requires_grad=True)
        b = Matrix(np.zeros((1, self.WIDTH)))
        with Tape() as tape:
            tape.backward(_dot(ad.linear(x, w, b, tail), ad.constant(g)))
        return w

    @pytest.mark.parametrize("kind", ["dense", "csr", "csr_tail"])
    @pytest.mark.parametrize("block_rows", [1, 3, 43])
    def test_blocks_give_the_whole_product(
            self, kind, block_rows, monkeypatch):
        monkeypatch.setattr(ad, "GRAD_BLOCK", block_rows * self.WIDTH)
        x, tail, h, g = self.case(kind)
        expected = h.T @ g
        w = self.factored(x, tail, g)
        fg = w._factored_grad()
        assert len(fg.blocks()) == -(-43 // block_rows)
        blocks = [fg.rows(lo, hi) for lo, hi in fg.blocks()]
        assert np.array_equal(np.concatenate(blocks), expected)
        assert np.array_equal(w.grad, expected)  # formed on read, and kept
        assert w._factored_grad() is None and w.grad is w.grad

    @pytest.mark.parametrize("bad", [None, "x", "tail", "g"])
    def test_bound_covers_every_entry_and_not_a_nonfinite_factor(self, bad):
        x, tail, h, g = self.case("csr_tail")
        if bad is not None:
            {"x": x.data, "tail": tail.data, "g": g}[bad].reshape(-1)[-1] = np.nan
        bound = self.factored(x, tail, g)._factored_grad().bound()
        if bad is None:
            assert np.abs(h.T @ g).max() <= bound < math.inf
        else:
            assert not math.isfinite(bound)

    @pytest.mark.parametrize("block_rows", [1, 3, 43])
    def test_two_products_sum_in_arrival_order(self, block_rows, monkeypatch):
        """The Vamp first layer's case: the batch's CSR product and a dense
        one into the same weight. Recorded last, the dense one arrives
        first, and each block adds the two in that order."""
        monkeypatch.setattr(ad, "GRAD_BLOCK", block_rows * self.WIDTH)
        xs, _, hs, gs = self.case("csr")
        xd, _, hd, gd = self.case("dense")
        gd = gd[::-1].copy()
        w = Matrix(np.ones((43, self.WIDTH)), requires_grad=True)
        b = Matrix(np.zeros((1, self.WIDTH)))
        with Tape() as tape:
            tape.backward(_total(_dot(ad.linear(xs, w, b), ad.constant(gs)),
                                 _dot(ad.linear(xd, w, b), ad.constant(gd))))
        assert len(w._factored_grad().terms) == 2
        assert np.array_equal(w.grad, hd.T @ gd + hs.T @ gs)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_a_dense_gradient_into_the_weight_forms_it(self, dense_first):
        """A weight that also gets an array gradient (gridcheck's corrupt
        term does) holds the same sum as two arrays would."""
        x, _, h, g = self.case("csr")
        q = np.random.default_rng(85).standard_normal((43, self.WIDTH))
        w = Matrix(np.ones((43, self.WIDTH)), requires_grad=True)
        b = Matrix(np.zeros((1, self.WIDTH)))
        with Tape() as tape:
            terms = [_dot(ad.linear(x, w, b), ad.constant(g)),
                     _dot(w, ad.constant(q))]
            tape.backward(_total(*(terms[::-1] if dense_first else terms)))
        product = h.T @ g
        assert np.array_equal(w.grad, q + product if dense_first else product + q)

    def test_a_second_replay_joins_the_first_replays_terms(self):
        """Neither replay writes into an array: x, g and the factors the
        first replay recorded are unchanged by the second."""
        x, _, h, g = self.case("csr")
        kept = [x.data.copy(), g.copy()]
        w = Matrix(np.ones((43, self.WIDTH)), requires_grad=True)
        b = Matrix(np.zeros((1, self.WIDTH)))
        for replay in range(2):
            with Tape() as tape:
                tape.backward(_dot(ad.linear(x, w, b), ad.constant(g)))
            if replay == 0:
                first = list(w._factored_grad().arrays())
                first_kept = [a.copy() for a in first]
        assert len(w._factored_grad().terms) == 2
        product = h.T @ g
        assert np.array_equal(w.grad, product + product)
        for a, k in zip([x.data, g, *first], kept + first_kept):
            assert np.array_equal(a, k)


def _dropout_scaled_target(rng):
    """A 0/1 batch with an all-zero row and a one-item row, L2-normalised
    and dropout-scaled the way training scales its encoder input."""
    from vampcf.data import CSRMatrix
    x = (rng.random((6, 15)) < 0.4).astype(np.float64)
    x[0] = 0.0
    x[1] = 0.0
    x[1, 7] = 1.0
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)
    x *= (rng.random(x.shape) >= 0.3) / 0.7
    x[1, 7] = 1.0 / 0.7
    return CSRMatrix.from_dense(x), x


# The dense formulas the CSR likelihoods replace, from dense primitives.
DENSE_LIKELIHOODS = {
    "multinomial_log_lik":
        lambda l, x: ad.sum_rows(ad.mul(ad.constant(x), ad.softmax_log(l))),
    "bernoulli_log_lik":
        lambda l, x: ad.sum_rows(ad.sub(ad.mul(ad.constant(x), l), ad.softplus(l))),
}


@pytest.mark.parametrize("name", list(DENSE_LIKELIHOODS))
def test_csr_likelihood_matches_the_dense_formula(name):
    rng = np.random.default_rng(90)
    target, dense = _dropout_scaled_target(rng)
    logits = rng.uniform(-8.0, 8.0, size=dense.shape)
    probe = ad.constant(rng.standard_normal((dense.shape[0], 1)))

    def run(fn, x):
        l = Matrix(logits, requires_grad=True)
        with Tape() as tape:
            out = fn(l, x)
            tape.backward(ad.sum_all(ad.mul(out, probe)))
        return out.data, l.grad

    value, grad = run(getattr(ad, name), target)
    value_ref, grad_ref = run(DENSE_LIKELIHOODS[name], dense)
    if name == "multinomial_log_lik":
        assert value[0, 0] == 0.0  # an empty row consumed nothing
    np.testing.assert_allclose(value, value_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(grad_ref).max())


@pytest.mark.parametrize("name", list(DENSE_LIKELIHOODS))
def test_csr_likelihood_rejects_a_target_of_another_shape(name):
    from vampcf.data import CSRMatrix
    with pytest.raises(ShapeError):
        getattr(ad, name)(Matrix(np.zeros((2, 4))),
                          CSRMatrix.from_dense(np.ones((2, 5))))
