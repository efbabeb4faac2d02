import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow.tensor import ShapeError, Tensor, concat, gather_rows, jvp, repeat_rows, silu, sincos


def _rand_mlp(rng, sizes):
    """Small random MLP returning (params, f) with f: Tensor -> scalar Tensor."""
    weights = [Tensor(rng.normal(0, 1 / np.sqrt(a), (a, b)), requires_grad=True)
               for a, b in zip(sizes[:-1], sizes[1:])]

    def f(x):
        h = x
        for w in weights[:-1]:
            h = silu(h @ w)
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
        _, tan = jvp(lambda x: x * 1.0, (rng.normal(size=5),), (v,))
        np.testing.assert_allclose(tan, v)

    def test_square(self):
        out, tan = jvp(lambda x: x * x, (np.array(3.0),), (np.array(1.0),))
        assert out.item() == 9.0
        assert tan == 6.0
        assert out.tangent is None  # the tangent is handed back once, not carried on

    def test_two_layer_net_matches_central_difference(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 8))
        w2 = rng.normal(size=(8, 3))

        def f(x):
            return silu(x @ Tensor(w1)) @ Tensor(w2)

        x = rng.normal(size=(2, 4))
        v = rng.normal(size=(2, 4))
        _, tan = jvp(f, (x,), (v,))
        h = 1e-5
        fd = (f(Tensor(x + h * v)).data - f(Tensor(x - h * v)).data) / (2 * h)
        np.testing.assert_allclose(tan, fd, rtol=1e-4)

    def test_linearity_in_tangent(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 4))

        def f(x):
            return silu(x @ Tensor(w)).sum()

        x = rng.normal(size=(1, 4))
        v1, v2 = rng.normal(size=(2, 1, 4))
        a, b = 2.5, -1.25
        _, t1 = jvp(f, (x,), (v1,))
        _, t2 = jvp(f, (x,), (v2,))
        _, t3 = jvp(f, (x,), (a * v1 + b * v2,))
        np.testing.assert_allclose(t3, a * t1 + b * t2, rtol=1e-9)

    def test_jvp_grad_consistency(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(5, 5))

        def f(x):
            return (silu(x @ Tensor(w)) ** 2.0).sum()

        x = rng.normal(size=(1, 5))
        v = rng.normal(size=(1, 5))
        _, tan = jvp(f, (x,), (v,))
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
        # a Tensor of another's value is a new leaf
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = Tensor((x * x).sum().data)
        loss.backward()  # no error
        assert x.grad is None  # treated as zero downstream

    @pytest.mark.parametrize("const_side", ["left", "right"])
    def test_matmul_forms_no_gradient_for_a_constant_operand(self, const_side):
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)))
        out = c @ w if const_side == "left" else w @ c
        g = rng.normal(size=(3, 3))
        grads = out._backward(g, lambda parent: None)  # no destinations
        assert [p for p, _ in grads] == [w]
        np.testing.assert_array_equal(grads[0][1], c.data.T @ g if const_side == "left"
                                      else g @ c.data.T)

    def test_gather_rows_scatter_grad(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(table, [0, 0, 2])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[2, 2], [0, 0], [1, 1]])


class TestDestinations:
    """backward(into) writes each listed leaf's gradient into its given array."""

    @staticmethod
    def slices(*shapes):
        """Views of one NaN-filled vector, one per shape, as a step's gradient is laid out."""
        flat = np.full(sum(int(np.prod(shape)) for shape in shapes), np.nan)
        views, start = [], 0
        for shape in shapes:
            stop = start + int(np.prod(shape))
            views.append(flat[start:stop].reshape(shape))
            start = stop
        return flat, views

    def test_same_bits_as_the_grad_of_a_plain_backward(self):
        rng = np.random.default_rng(12)
        shapes = [(5, 3), (7, 6), (1, 6), (6, 2), (1, 2)]
        x = rng.normal(size=(7, 4))
        ids = [0, 4, 4, 1, 2, 0, 4]

        def loss(table, w0, b0, w1, b1):
            h = concat([Tensor(x), gather_rows(table, ids)], axis=1)
            h = silu(h @ w0 + b0)
            return ((h @ w1 + b1) ** 2.0).sum()

        values = [rng.normal(size=shape) for shape in shapes]
        plain = [Tensor(v, requires_grad=True) for v in values]
        loss(*plain).backward()
        leaves = [Tensor(v, requires_grad=True) for v in values]
        flat, views = self.slices(*shapes)
        loss(*leaves).backward(dict(zip(leaves, views)))
        for leaf, view, ref in zip(leaves, views, plain):
            assert leaf.grad is view
            np.testing.assert_array_equal(view, ref.grad)

    def test_a_leaf_used_twice_gets_the_sum_in_its_slice(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 4)))
        w_value = rng.normal(size=(4, 4))
        plain = Tensor(w_value, requires_grad=True)
        ((x @ plain) @ plain).sum().backward()
        w = Tensor(w_value, requires_grad=True)
        _, (dest,) = self.slices((4, 4))
        ((x @ w) @ w).sum().backward({w: dest})
        assert w.grad is dest
        np.testing.assert_array_equal(dest, plain.grad)
        g = np.ones((3, 4))  # the two contributions, outer product first
        np.testing.assert_array_equal(dest, (x.data @ w_value).T @ g + x.data.T @ (g @ w_value.T))

    def test_a_leaf_on_both_sides_of_one_product(self):
        w_value = np.random.default_rng(14).normal(size=(3, 3))
        plain = Tensor(w_value, requires_grad=True)
        (plain @ plain).sum().backward()
        w = Tensor(w_value, requires_grad=True)
        _, (dest,) = self.slices((3, 3))
        (w @ w).sum().backward({w: dest})
        np.testing.assert_array_equal(dest, plain.grad)

    def test_an_unreached_leaf_gets_zeros(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones((1, 3)), requires_grad=True)
        _, (d_used, d_unused) = self.slices((2, 2), (1, 3))
        (used * used).sum().backward({used: d_used, unused: d_unused})
        np.testing.assert_array_equal(d_used, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(d_unused, np.zeros((1, 3)))
        assert unused.grad is d_unused

    def test_one_gradient_handed_to_two_leaves_is_not_aliased(self):
        # equal shapes: the add rule hands its one gradient array to both operands
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        flat, (d_a, d_b) = self.slices((2, 3), (2, 3))
        ((a + b) * Tensor(np.full((2, 3), 3.0))).sum().backward({a: d_a, b: d_b})
        assert a.grad is d_a and b.grad is d_b
        np.testing.assert_array_equal(flat, np.full(12, 3.0))
        d_a *= 2.0
        np.testing.assert_array_equal(d_b, np.full((2, 3), 3.0))

    def test_leaves_not_listed_accumulate_into_grad(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        other = Tensor(np.ones((2, 2)), requires_grad=True)
        other.grad = np.ones((2, 2))
        _, (dest,) = self.slices((2, 2))
        (w * other).sum().backward({w: dest})
        np.testing.assert_array_equal(dest, np.ones((2, 2)))
        np.testing.assert_array_equal(other.grad, np.full((2, 2), 2.0))


class TestRepeatRows:
    W = np.random.default_rng(11).normal(size=(4, 3))

    def f(self, x):
        return silu(repeat_rows(x, 4) * Tensor(self.W)).sum()

    def central_difference(self, x, v, h=1e-6):
        return (self.f(Tensor(x + h * v)).item() - self.f(Tensor(x - h * v)).item()) / (2 * h)

    def test_value_is_the_row_repeated(self):
        x = np.random.default_rng(0).normal(size=(1, 3))
        np.testing.assert_array_equal(repeat_rows(Tensor(x), 4).data, np.repeat(x, 4, axis=0))

    def test_tangent_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x, v = rng.normal(size=(2, 1, 3))
        _, tan = jvp(lambda t: repeat_rows(t, 4), (x,), (v,))
        np.testing.assert_array_equal(tan, np.repeat(v, 4, axis=0))
        _, tan = jvp(self.f, (x,), (v,))
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
    X = np.concatenate([np.random.default_rng(13).normal(0.0, 4.0, size=(3, 5)),
                        [[-40.0, -1e-300, 0.0, 1e-300, 40.0]]])

    @pytest.mark.parametrize("shape", [(4, 5), ()])
    def test_equals_the_reference_formulas(self, shape):
        x = self.X if shape else np.array(self.X[0, 0])
        v, w = np.random.default_rng(14).normal(size=(2, *np.shape(x)))
        sig = 1.0 / (1.0 + np.exp(-x))
        slope = sig * (1.0 + x * (1.0 - sig))
        leaf = Tensor(x, requires_grad=True, tangent=v)
        out = silu(leaf)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(out.data, x * sig)
        np.testing.assert_array_equal(out.tangent, slope * v)
        np.testing.assert_array_equal(leaf.grad, w * slope)

    def test_backward_bitwise_equal_with_and_without_tangent(self):
        rng = np.random.default_rng(12)
        x, v, w = rng.normal(size=(3, 4, 5))
        grads = []
        for tangent in (None, v):
            leaf = Tensor(x, requires_grad=True, tangent=tangent)
            (silu(leaf) * Tensor(w)).sum().backward()
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


# The dense tangent rules that the one-sided ones replaced: a missing tangent
# is an explicit zero and the full rule runs.
DENSE = {
    "add": (lambda x, y: x + y, lambda a, b, ta, tb: ta + tb),
    "sub": (lambda x, y: x - y, lambda a, b, ta, tb: ta - tb),
    "mul": (lambda x, y: x * y, lambda a, b, ta, tb: ta * b + a * tb),
    "matmul": (lambda x, y: x @ y, lambda a, b, ta, tb: ta @ b + a @ tb),
}


class TestOneSidedTangents:
    rng = np.random.default_rng(21)
    # (a shape, b shape) per op; the elementwise ops also broadcast a row or a column
    SHAPES = [("add", (4, 3), (4, 3)), ("add", (1, 3), (4, 3)), ("add", (4, 3), (4, 1)),
              ("sub", (4, 3), (4, 3)), ("sub", (4, 3), (1, 3)), ("sub", (4, 1), (4, 3)),
              ("mul", (4, 3), (4, 3)), ("mul", (1, 3), (4, 3)), ("mul", (4, 3), (4, 1)),
              ("matmul", (4, 5), (5, 3)), ("matmul", (1, 5), (5, 3))]

    @pytest.mark.parametrize("sides", ["left", "right", "both"])
    @pytest.mark.parametrize("op, sa, sb", SHAPES)
    def test_equals_the_dense_rule(self, op, sa, sb, sides):
        a, va = self.rng.normal(size=(2, *sa))
        b, vb = self.rng.normal(size=(2, *sb))
        va = va if sides in ("left", "both") else None
        vb = vb if sides in ("right", "both") else None
        f, rule = DENSE[op]
        out = f(Tensor(a, tangent=va), Tensor(b, tangent=vb))
        dense = rule(a, b, np.zeros_like(a) if va is None else va,
                     np.zeros_like(b) if vb is None else vb)
        assert out.tangent.shape == out.shape == f(a, b).shape
        np.testing.assert_array_equal(out.tangent, np.broadcast_to(dense, out.shape))

    def test_no_tangent_without_a_dual_operand(self):
        for f, _ in DENSE.values():
            assert f(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))).tangent is None


def _sin(a):
    """The former ``Tensor.sin`` node."""
    c = np.cos(a.data)
    tan = None if a.tangent is None else c * a.tangent
    return Tensor(np.sin(a.data), tangent=tan, _parents=(a,), _backward=lambda g, _: ((a, g * c),))


def _cos(a):
    """The former ``Tensor.cos`` node."""
    s = np.sin(a.data)
    tan = None if a.tangent is None else -s * a.tangent
    return Tensor(np.cos(a.data), tangent=tan, _parents=(a,),
                  _backward=lambda g, _: ((a, -g * s),))


class TestSincos:
    @pytest.mark.parametrize("dual", [False, True])
    def test_equals_concat_of_sin_and_cos(self, dual):
        rng = np.random.default_rng(22)
        x, v = rng.normal(0.0, 3.0, size=(2, 5, 4))
        v = v if dual else None
        out, got = _run(lambda p, _: sincos(p), x, np.array(0.0), v, None)
        _, ref = _run(lambda p, _: concat([_sin(p), _cos(p)], axis=1), x, np.array(0.0), v, None)
        assert len(out._parents) == 1 and not out._parents[0]._parents
        for g, r in zip(got[:3], ref[:3]):
            np.testing.assert_array_equal(g, r)


class TestNoTape:
    """Plain arrays through the ops a net forward uses give the taped values.

    A value-only net call (``tape=False``) runs its forward on arrays:
    ``+ - * @`` are numpy's own, and the structural ops take arrays and
    return arrays.
    """

    rng = np.random.default_rng(23)
    A, B, V = rng.normal(size=(3, 4, 3))
    W = rng.normal(size=(3, 2))
    OPS = {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
        "neg": lambda a, b: -a, "pow": lambda a, b: (a * a) ** 1.5,
        "sqrt": lambda a, b: (a * a).sqrt() if isinstance(a, Tensor) else np.sqrt(a * a),
        "silu": lambda a, b: silu(a), "matmul": lambda a, b: a @ TestNoTape.W,
        "sum": lambda a, b: a.sum(axis=0),
        "reshape": lambda a, b: a.reshape(3, 4), "concat": lambda a, b: concat([a, b], axis=1),
        "sincos": lambda a, b: sincos(a),
        "repeat_rows": lambda a, b: repeat_rows(a.reshape(1, 12), 5),
        "gather_rows": lambda a, b: gather_rows(a, [3, 0, 0, 2]),
    }

    @pytest.mark.parametrize("op", list(OPS))
    def test_value_equals_the_taped_one_without_parents_or_tangent(self, op):
        f = self.OPS[op]
        taped = f(Tensor(self.A, requires_grad=True, tangent=self.V), Tensor(self.B))
        assert taped._parents
        out = f(self.A.copy(), self.B.copy())
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, taped.data)

    def test_silu_does_not_write_its_input(self):
        x = self.A.copy()
        silu(x)
        np.testing.assert_array_equal(x, self.A)

    def test_shape_and_index_checks_still_raise(self):
        with pytest.raises(ValueError):
            np.ones((2, 3)) + np.ones((3, 2))
        with pytest.raises(ValueError):
            np.ones((2, 3)) @ np.ones((2, 3))
        with pytest.raises(ShapeError):
            concat([np.ones((2, 2)), np.ones((3, 2))], axis=1)
        with pytest.raises(ShapeError):
            repeat_rows(np.ones((2, 3)), 4)
        with pytest.raises(ShapeError):
            gather_rows(np.ones(3), [0])
        with pytest.raises(IndexError):
            gather_rows(np.ones((2, 3)), [2])
        with pytest.raises(IndexError):
            gather_rows(np.ones((2, 3)), [-1])


class TestConstantNodes:
    """An op whose operands need no gradient records no parents."""

    def test_op_on_constants_is_a_constant_that_keeps_its_tangent(self):
        x = Tensor(np.ones((2, 2)), tangent=np.full((2, 2), 3.0))
        out = sincos(x * Tensor(np.full((1, 2), 2.0)))
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.tangent[:, :2], np.cos(2.0) * 6.0)

    def test_op_on_a_parameter_is_recorded(self):
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        const = sincos(Tensor(np.ones((2, 2))))
        out = const @ w
        assert out._parents == (const, w)


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
        return (t * t).sum() + (sincos(t) ** 3.0).sum()

    _, t1 = jvp(f, (x,), (v1,))
    _, t2 = jvp(f, (x,), (v2,))
    _, t3 = jvp(f, (x,), (a * v1 + b * v2,))
    np.testing.assert_allclose(t3, a * t1 + b * t2, rtol=1e-9, atol=1e-9)
