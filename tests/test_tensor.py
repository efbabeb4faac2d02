import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow.tensor import ShapeError, Tensor, concat, gather_rows, jvp, repeat_rows


def _rand_mlp(rng, sizes):
    """Small random MLP returning (params, f) with f: Tensor -> scalar Tensor."""
    weights = [Tensor(rng.normal(0, 1 / np.sqrt(a), (a, b)), requires_grad=True)
               for a, b in zip(sizes[:-1], sizes[1:])]

    def f(x):
        h = x
        for w in weights[:-1]:
            h = (h @ w).silu()
        return ((h @ weights[-1]) ** 2.0).sum()

    return weights, f


class TestForwardOps:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = Tensor(np.eye(3)) @ Tensor(a)
        np.testing.assert_array_equal(out.data, a)

    def test_seeded_mean(self):
        # frozen from: np.random.default_rng(42).standard_normal(1000).mean()
        draws = np.random.default_rng(42).standard_normal(1000)
        m = Tensor(draws).mean().item()
        assert m == pytest.approx(draws.mean(), rel=1e-14)
        assert abs(m) < 0.1

    def test_broadcast_trailing_singleton(self):
        out = Tensor(np.ones((4, 3))) * Tensor(np.full((4, 1), 2.0))
        np.testing.assert_array_equal(out.data, np.full((4, 3), 2.0))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_concat(self):
        out = concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1)))], axis=1)
        assert out.shape == (2, 3)
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))], axis=1)


class TestJvp:
    def test_identity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=5)
        _, tan = jvp(lambda x: x * 1.0, rng.normal(size=5), v)
        np.testing.assert_allclose(tan, v)

    def test_square(self):
        out, tan = jvp(lambda x: x * x, np.array(3.0), np.array(1.0))
        assert out.item() == 9.0
        assert tan == 6.0

    def test_two_layer_net_matches_central_difference(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 8))
        w2 = rng.normal(size=(8, 3))

        def f(x):
            return (x @ Tensor(w1)).silu() @ Tensor(w2)

        x = rng.normal(size=(2, 4))
        v = rng.normal(size=(2, 4))
        _, tan = jvp(f, x, v)
        h = 1e-5
        fd = (f(Tensor(x + h * v)).data - f(Tensor(x - h * v)).data) / (2 * h)
        np.testing.assert_allclose(tan, fd, rtol=1e-4)

    def test_linearity_in_tangent(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 4))

        def f(x):
            return (x @ Tensor(w)).silu().sum()

        x = rng.normal(size=(1, 4))
        v1, v2 = rng.normal(size=(2, 1, 4))
        a, b = 2.5, -1.25
        _, t1 = jvp(f, x, v1)
        _, t2 = jvp(f, x, v2)
        _, t3 = jvp(f, x, a * v1 + b * v2)
        np.testing.assert_allclose(t3, a * t1 + b * t2, rtol=1e-9)

    def test_jvp_grad_consistency(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(5, 5))

        def f(x):
            return ((x @ Tensor(w)).silu() ** 2.0).sum()

        x = rng.normal(size=(1, 5))
        v = rng.normal(size=(1, 5))
        _, tan = jvp(f, x, v)
        leaf = Tensor(x, requires_grad=True)
        f(leaf).backward()
        np.testing.assert_allclose(float(np.sum(leaf.grad * v)), float(tan), rtol=1e-6)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_norm_squared_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_mlp_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        weights, f = _rand_mlp(rng, [4, 6, 1])
        x = Tensor(rng.normal(size=(3, 4)))
        f(x).backward()
        h = 1e-6
        for w in weights:
            g_fd = np.zeros(w.shape)
            for idx in np.ndindex(*w.shape):
                orig = w.data[idx]
                w.data[idx] = orig + h
                up = f(x).item()
                w.data[idx] = orig - h
                dn = f(x).item()
                w.data[idx] = orig
                g_fd[idx] = (up - dn) / (2 * h)
            np.testing.assert_allclose(w.grad, g_fd, rtol=1e-4, atol=1e-7)

    def test_backward_on_detached_gives_zero(self):
        # a Tensor of another's value is a new leaf, as mfd_target's target is
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = Tensor((x * x).sum().data)
        loss.backward()  # no error
        assert x.grad is None  # treated as zero downstream

    def test_gather_rows_scatter_grad(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(table, [0, 0, 2])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[2, 2], [0, 0], [1, 1]])


class TestRepeatRows:
    W = np.random.default_rng(11).normal(size=(4, 3))

    def f(self, x):
        return (repeat_rows(x, 4) * Tensor(self.W)).silu().sum()

    def central_difference(self, x, v, h=1e-6):
        return (self.f(Tensor(x + h * v)).item() - self.f(Tensor(x - h * v)).item()) / (2 * h)

    def test_value_is_the_row_repeated(self):
        x = np.random.default_rng(0).normal(size=(1, 3))
        np.testing.assert_array_equal(repeat_rows(Tensor(x), 4).data, np.repeat(x, 4, axis=0))

    def test_tangent_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x, v = rng.normal(size=(2, 1, 3))
        _, tan = jvp(lambda t: repeat_rows(t, 4), x, v)
        np.testing.assert_array_equal(tan, np.repeat(v, 4, axis=0))
        _, tan = jvp(self.f, x, v)
        np.testing.assert_allclose(tan, self.central_difference(x, v), rtol=1e-6)

    def test_gradient_matches_finite_difference(self):
        x = np.random.default_rng(2).normal(size=(1, 3))
        leaf = Tensor(x, requires_grad=True)
        self.f(leaf).backward()
        fd = [self.central_difference(x, np.eye(3)[[i]]) for i in range(3)]
        np.testing.assert_allclose(leaf.grad, [fd], rtol=1e-6)

    def test_full_batch_passes_through(self):
        y = Tensor(np.ones((4, 3)))
        assert repeat_rows(y, 4) is y
        with pytest.raises(ShapeError):
            repeat_rows(Tensor(np.ones((2, 3))), 4)


class TestSilu:
    def test_backward_bitwise_equal_with_and_without_tangent(self):
        rng = np.random.default_rng(12)
        x, v, w = rng.normal(size=(3, 4, 5))
        grads = []
        for tangent in (None, v):
            leaf = Tensor(x, requires_grad=True, tangent=tangent)
            (leaf.silu() * Tensor(w)).sum().backward()
            grads.append(leaf.grad)
        np.testing.assert_array_equal(grads[0], grads[1])


def _run(op, a, b, va, vb):
    """Value, tangent and both gradients of ``(op(A, B) * W).sum()`` at dual leaves."""
    A = Tensor(a, requires_grad=True, tangent=va)
    B = Tensor(b, requires_grad=True, tangent=vb)
    out = op(A, B)
    weight = np.random.default_rng(0).normal(size=out.shape)
    (out * Tensor(weight)).sum().backward()
    return out, (out.data, out.tangent, A.grad, B.grad)


class TestOneNodeOps:
    """``-`` and ``mean`` record one node each, with the results of the
    compositions they replaced: a + (-b) and sum() * (1 / n)."""

    rng = np.random.default_rng(20)
    A, VA = rng.normal(size=(2, 4, 3))
    PAIRS = {"same": rng.normal(size=(4, 3)), "column": rng.normal(size=(4, 1)),
             "scalar": np.array(rng.normal())}

    @pytest.mark.parametrize("shape", list(PAIRS))
    def test_sub_is_bit_identical_to_add_neg(self, shape):
        b = self.PAIRS[shape]
        vb = 0.5 * b + 0.25
        out, got = _run(lambda x, y: x - y, self.A, b, self.VA, vb)
        _, ref = _run(lambda x, y: x + (-y), self.A, b, self.VA, vb)
        assert len(out._parents) == 2 and all(not p._parents for p in out._parents)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_rsub_is_one_node(self):
        x = Tensor(self.A, requires_grad=True)
        out = 2.5 - x
        np.testing.assert_array_equal(out.data, 2.5 + (-self.A))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, -np.ones_like(self.A))
        assert all(not p._parents for p in out._parents)

    @pytest.mark.parametrize("axis, keepdims", [(None, False), (0, False), (1, False),
                                                (1, True)])
    def test_mean_is_bit_identical_to_scaled_sum(self, axis, keepdims):
        n = self.A.size if axis is None else self.A.shape[axis]
        out, got = _run(lambda x, _: x.mean(axis=axis, keepdims=keepdims),
                        self.A, np.array(0.0), self.VA, np.array(0.0))
        _, ref = _run(lambda x, _: x.sum(axis=axis, keepdims=keepdims) * (1.0 / n),
                      self.A, np.array(0.0), self.VA, np.array(0.0))
        assert len(out._parents) == 1 and not out._parents[0]._parents
        for g, r in zip(got[:3], ref[:3]):
            np.testing.assert_array_equal(g, r)


class TestDeterminism:
    def test_identical_seeds_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            weights, f = _rand_mlp(rng, [3, 5, 1])
            x = Tensor(rng.normal(size=(2, 3)))
            loss = f(x)
            loss.backward()
            return loss.item(), [w.grad.copy() for w in weights]

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(-5, 5), st.floats(-5, 5))
def test_jvp_linearity_property(xs, a, b):
    x = np.asarray(xs)
    rng = np.random.default_rng(len(xs))
    v1 = rng.normal(size=x.shape)
    v2 = rng.normal(size=x.shape)

    def f(t):
        return (t * t + t.sin()).sum()

    _, t1 = jvp(f, x, v1)
    _, t2 = jvp(f, x, v2)
    _, t3 = jvp(f, x, a * v1 + b * v2)
    np.testing.assert_allclose(t3, a * t1 + b * t2, rtol=1e-9, atol=1e-9)
