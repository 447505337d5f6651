"""Tests for the dense matrix type, the gradient tape, and grad_check."""
import math

import numpy as np
import pytest

from vampcf import autodiff as ad
from vampcf.autodiff import Matrix, Tape, grad_check
from vampcf.errors import ShapeError


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
        x = Matrix([[0.0]], requires_grad=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                grad_check(lambda: ad.log(x), x)


def _random_points(rng, n, shape, lo=-2.0, hi=2.0):
    for _ in range(n):
        yield rng.uniform(lo, hi, size=shape)


PRIMITIVE_CASES = [
    "matmul", "add", "add_bias", "sub", "mul", "scale", "sigmoid", "tanh",
    "exp", "log", "softplus", "logsumexp", "softmax_log", "sum_rows",
    "clamp", "concat_cols", "transpose", "l2_normalize_rows",
]


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_primitive_gradients_at_100_random_points(name):
    """Every differentiable primitive agrees with central differences."""
    rng = np.random.default_rng(hash(name) % 2**32)
    for point in _random_points(rng, 100, (2, 3)):
        if name == "log":
            point = np.abs(point) + 0.5
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
        elif name == "sigmoid":
            f = lambda: ad.sum_all(ad.mul(ad.sigmoid(x), probe))
            params = [x]
        elif name == "tanh":
            f = lambda: ad.sum_all(ad.mul(ad.tanh(x), probe))
            params = [x]
        elif name == "exp":
            f = lambda: ad.sum_all(ad.mul(ad.exp(x), probe))
            params = [x]
        elif name == "log":
            f = lambda: ad.sum_all(ad.mul(ad.log(x), probe))
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
        elif name == "sum_rows":
            f = lambda: ad.sum_all(ad.mul(ad.sum_rows(x), ad.constant([[0.7], [-0.3]])))
            params = [x]
        elif name == "clamp":
            f = lambda: ad.sum_all(ad.mul(ad.clamp(x, -1.5, 1.5), probe))
            params = [x]
        elif name == "concat_cols":
            f = lambda: ad.sum_all(ad.mul(ad.concat_cols(x, w),
                                          ad.constant(np.ones((2, 6)))))
            params = [x, w]
        elif name == "transpose":
            f = lambda: ad.sum_all(ad.mul(ad.transpose(x), ad.constant(np.ones((3, 2)))))
            params = [x]
        elif name == "l2_normalize_rows":
            f = lambda: ad.sum_all(ad.mul(ad.l2_normalize_rows(x), probe))
            params = [x]
        else:
            raise AssertionError(name)

        assert grad_check(f, params, eps=1e-5) < 1e-6, name


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
    def test_matches_dense_product(self):
        rng = np.random.default_rng(70)
        x, dense = _random_csr(rng, 9, 40)
        w = Matrix(rng.standard_normal((40, 7)))
        out = ad.sparse_matmul(x, w)
        np.testing.assert_allclose(out.data, dense @ w.data, rtol=0, atol=1e-12)
        assert np.all(out.data[0] == 0.0)

    def test_tail_matches_concatenated_product(self):
        rng = np.random.default_rng(71)
        x, dense = _random_csr(rng, 6, 25)
        tail = Matrix(rng.standard_normal((6, 4)))
        w = Matrix(rng.standard_normal((29, 5)))
        out = ad.sparse_matmul(x, w, tail)
        expected = np.concatenate([dense, tail.data], axis=1) @ w.data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_weight_and_tail_gradients_pass_grad_check(self):
        rng = np.random.default_rng(72)
        x, _ = _random_csr(rng, 5, 12)
        w = Matrix(rng.uniform(-1, 1, size=(15, 4)), requires_grad=True)
        tail = Matrix(rng.uniform(-1, 1, size=(5, 3)), requires_grad=True)
        probe = ad.constant(rng.uniform(-1, 1, size=(5, 4)))
        f = lambda: ad.sum_all(ad.mul(ad.tanh(ad.sparse_matmul(x, w, tail)), probe))
        assert grad_check(f, [w, tail], eps=1e-5) < 1e-6
        w_only = Matrix(w.data[:12].copy(), requires_grad=True)
        g = lambda: ad.sum_all(ad.mul(ad.tanh(ad.sparse_matmul(x, w_only)), probe))
        assert grad_check(g, w_only, eps=1e-5) < 1e-6

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(73)
        x, _ = _random_csr(rng, 3, 8)
        with pytest.raises(ShapeError):
            ad.sparse_matmul(x, Matrix(np.zeros((9, 2))))
        with pytest.raises(ShapeError):
            ad.sparse_matmul(x, Matrix(np.zeros((10, 2))), Matrix(np.zeros((2, 2))))
