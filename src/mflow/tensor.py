"""Dense float64 tensors with reverse-mode gradients and forward-mode tangents.

Reverse mode is a classic tape: an op records its parents and a backward
closure, and ``backward()`` walks the graph once in reverse topological order.
Forward mode rides along as a dual number: if any input carries a ``tangent``
array, the op also produces the corresponding output tangent in the same
forward pass. An op computes its tangent from the operands that carry one
only: ``x @ W`` with a constant ``W`` costs one extra matmul, not two.
Tangents are plain numpy arrays and are never recorded on the tape, so
differentiating a loss never differentiates through a tangent.

Every op builds its result through ``_node``, which records parents and a
backward closure only when an operand needs a gradient: an op on constants
is a constant. A backward closure takes the output's gradient and ``out``,
backward's destination lookup: ``out(parent)`` is the array the parent's
gradient is to be written to, or None. The rules that take a net's weights
as operands (``@``, ``+`` and ``gather_rows``) form their gradient there.

Value-only work needs no Tensor at all. ``concat``, ``sincos``, ``silu``,
``repeat_rows`` and ``gather_rows`` also take plain arrays and then return
one, computed by the same numpy expression as their Tensor rule, with the
same shape and index checks; ``+ - * @`` on arrays are numpy's own. So one
forward body runs on either kind of input, with the same values.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    """Result shape for elementwise ops; only singleton axes may broadcast."""
    if sa == sb:
        return sa
    if sa == ():
        return sb
    if sb == ():
        return sa
    if len(sa) != len(sb):
        raise ShapeError(f"rank mismatch: {sa} vs {sb}")
    out = []
    for a, b in zip(sa, sb):
        if a == b or a == 1 or b == 1:
            out.append(max(a, b))
        else:
            raise ShapeError(f"incompatible shapes: {sa} vs {sb}")
    return tuple(out)


def _unbroadcast(grad: np.ndarray, t: "Tensor", out: Callable | None = None) -> np.ndarray:
    """Sum a gradient back down to the shape of ``t``, which it was broadcast from.

    A gradient of ``t``'s shape is handed back as is. A sum over broadcast
    axes is formed in ``out(t)`` when ``out`` (backward's destination
    lookup) is given and ``t`` has a destination, as the add rule asks.
    """
    shape = t.shape
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    # operands of equal rank, so keepdims gives ``shape`` itself
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return np.sum(grad, axis=axes, keepdims=True, out=None if out is None else out(t))


class Tensor:
    """n-d float64 value, optionally tracked for differentiation.

    Ops never write to an operand's ``data``. The owner of a leaf, such as a
    net holding its weights, may update it in place between passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "tangent", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, tangent=None,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tangent = None if tangent is None else np.asarray(tangent, dtype=np.float64)
        if self.tangent is not None and self.tangent.shape != self.data.shape:
            raise ShapeError(f"tangent shape {self.tangent.shape} != value shape {self.data.shape}")
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def backward(self, into: Mapping["Tensor", np.ndarray] | None = None) -> None:
        """Gradients of this scalar with respect to every reachable leaf.

        A leaf's gradient is added to its ``.grad`` (which is set when None).
        A leaf in ``into`` instead has its gradient written to
        ``into[leaf]``, an array of its shape, which then becomes its
        ``.grad``; a leaf the scalar does not reach gets zeros there. A rule
        forms a destination leaf's gradient in that array where it can
        (``out``), and a gradient handed back from elsewhere is copied in,
        so no array is shared between two destinations or with the tape.
        A leaf reached more than once gets the sum of its contributions in
        the order the walk meets them, as without ``into``.
        """
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in seen:
                continue
            if done:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        dests = {} if into is None else {id(leaf): arr for leaf, arr in into.items()}
        written: set[int] = set()

        def out(parent: Tensor) -> np.ndarray | None:
            # the destination while nothing is in it; the rule that takes it fills it
            key = id(parent)
            if key not in dests or key in written:
                return None
            written.add(key)
            return dests[key]

        grads: dict[int, np.ndarray] = {}

        def give(parent: Tensor, pg: np.ndarray) -> None:
            key = id(parent)
            if key in dests:
                if pg is dests[key]:
                    return  # formed in place
                if key in written:
                    dests[key] += pg
                else:
                    written.add(key)
                    np.copyto(dests[key], pg)
            elif parent.requires_grad or parent._parents:
                grads[key] = pg if key not in grads else grads[key] + pg

        give(self, np.asarray(1.0))
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in node._backward(g, out):
                    give(parent, pg)
        for leaf, arr in (into or {}).items():
            if id(leaf) not in written:
                arr.fill(0.0)
            leaf.grad = arr

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._lift(other)
        shape = _broadcast_shape(a.shape, b.shape)
        tan = _dual(a, b, shape, lambda ta: ta, lambda tb: tb)
        return _node(a.data + b.data, tan, (a, b),
                     lambda g, out: ((a, _unbroadcast(g, a, out)), (b, _unbroadcast(g, b, out))))

    def __neg__(self):
        a = self
        tan = None if a.tangent is None else -a.tangent
        return _node(-a.data, tan, (a,), lambda g, _: ((a, -g),))

    def __sub__(self, other):
        a, b = self, Tensor._lift(other)
        shape = _broadcast_shape(a.shape, b.shape)
        tan = _dual(a, b, shape, lambda ta: ta, lambda tb: -tb)
        return _node(a.data - b.data, tan, (a, b),
                     lambda g, _: ((a, _unbroadcast(g, a)), (b, -_unbroadcast(g, b))))

    def __mul__(self, other):
        a, b = self, Tensor._lift(other)
        shape = _broadcast_shape(a.shape, b.shape)
        tan = _dual(a, b, shape, lambda ta: ta * b.data, lambda tb: a.data * tb)
        return _node(a.data * b.data, tan, (a, b),
                     lambda g, _: ((a, _unbroadcast(g * b.data, a)),
                                   (b, _unbroadcast(g * a.data, b))))

    def __pow__(self, exponent: float):
        a, p = self, float(exponent)
        out = a.data ** p
        local = p * a.data ** (p - 1.0)
        tan = None if a.tangent is None else local * a.tangent
        return _node(out, tan, (a,), lambda g, _: ((a, g * local),))

    # -- nonlinearities -------------------------------------------------------

    def sqrt(self):
        return self ** 0.5

    # -- linear algebra / structure -------------------------------------------

    def matmul(self, other):
        a, b = self, Tensor._lift(other)
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
        shape = (a.shape[0], b.shape[1])
        tan = _dual(a, b, shape, lambda ta: ta @ b.data, lambda tb: a.data @ tb)

        def back(g, out):
            # backward drops the gradient of an operand that needs none, so form none
            grads = []
            if a.requires_grad or a._parents:
                grads.append((a, np.matmul(g, b.data.T, out=out(a))))
            if b.requires_grad or b._parents:
                grads.append((b, np.matmul(a.data.T, g, out=out(b))))
            return grads

        return _node(a.data @ b.data, tan, (a, b), back)

    __matmul__ = matmul

    def sum(self, axis: int | None = None, keepdims: bool = False):
        return self._scaled_sum(axis, keepdims, 1.0)

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self._scaled_sum(axis, keepdims, 1.0 / n)

    def _scaled_sum(self, axis: int | None, keepdims: bool, scale: float):
        """One node for sum * scale; a scale of 1 is skipped, which is exact."""
        a = self

        def scaled(x):
            return x if scale == 1.0 else x * scale

        out = scaled(a.data.sum(axis=axis, keepdims=keepdims))
        tan = None if a.tangent is None else scaled(a.tangent.sum(axis=axis, keepdims=keepdims))

        def back(g, _):
            gg = scaled(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            return ((a, np.broadcast_to(gg, a.shape).copy()),)

        return _node(out, tan, (a,), back)

    def reshape(self, *shape):
        a = self
        out = a.data.reshape(*shape)
        tan = None if a.tangent is None else a.tangent.reshape(*shape)
        return _node(out, tan, (a,), lambda g, _: ((a, g.reshape(a.shape)),))


def _node(value, tangent, parents: tuple, backward: Callable) -> Tensor:
    """The result of an op.

    It records ``parents`` and ``backward`` only when some operand requires
    grad or has parents itself; an op on constants is a constant that keeps
    its tangent.
    """
    for p in parents:
        if p.requires_grad or p._parents:
            return Tensor(value, tangent=tangent, _parents=parents, _backward=backward)
    return Tensor(value, tangent=tangent)


def _dual(a: Tensor, b: Tensor, shape: tuple, left, right) -> np.ndarray | None:
    """Tangent of a binary op: ``left(ta) + right(tb)`` over the operands that carry one.

    ``left`` and ``right`` are the op's linear rules in each operand, so no
    product with a zero tangent is formed. For ``-`` the right rule is
    ``-tb``, and ``ta + (-tb)`` is ``ta - tb`` bit for bit under IEEE. A
    one-sided tangent smaller than the output, such as a (1, k) row against
    (B, k), is broadcast to ``shape`` as a read-only view.
    """
    ta, tb = a.tangent, b.tangent
    if ta is None and tb is None:
        return None
    if tb is None:
        tan = left(ta)
    elif ta is None:
        tan = right(tb)
    else:
        tan = left(ta) + right(tb)
    return tan if tan.shape == shape else np.broadcast_to(tan, shape)


def silu(x):
    """x * sigmoid(x); smooth, with analytic derivative.

    The slope is computed only when a tangent or a backward pass uses it.
    sigmoid and the slope are built in place from the operands of
    ``1 / (1 + exp(-x))`` and ``sig * (1 + x * (1 - sig))``; IEEE ``+``
    and ``*`` commute, so the bits are those of the two expressions.
    """
    a = x.data if isinstance(x, Tensor) else x
    sig = np.negative(a, out=np.empty(a.shape))
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    if not isinstance(x, Tensor):  # nothing reads the slope, so the value takes sig's buffer
        return np.multiply(a, sig, out=sig)

    def slope():
        out = np.subtract(1.0, sig)
        out *= a
        out += 1.0
        out *= sig
        return out

    local = None if x.tangent is None else slope()
    tan = None if local is None else local * x.tangent
    return _node(a * sig, tan, (x,),
                 lambda g, _: ((x, g * (slope() if local is None else local)),))


def concat(parts: Sequence, axis: int = 0):
    """Concatenate along ``axis``; all other dims must match exactly.

    Plain arrays give an array; if any part is a Tensor, the result is one.
    """
    any_tensor = any(isinstance(t, Tensor) for t in parts)
    ts = [Tensor._lift(t) for t in parts] if any_tensor else [np.asarray(t) for t in parts]
    shapes = [t.shape for t in ts]
    ref = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(ref) or any(x != y for i, (x, y) in enumerate(zip(s, ref)) if i != axis):
            raise ShapeError(f"concat shapes do not conform along axis {axis}: {shapes}")
    if not any_tensor:
        return np.concatenate(ts, axis=axis)
    out = np.concatenate([t.data for t in ts], axis=axis)
    tan = None
    if any(t.tangent is not None for t in ts):
        tan = np.concatenate(
            [t.tangent if t.tangent is not None else np.zeros_like(t.data) for t in ts], axis=axis)

    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def back(g, _):
        slices = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * len(t.shape)
            idx[axis] = slice(lo, hi)
            slices.append((t, g[tuple(idx)]))
        return tuple(slices)

    return _node(out, tan, tuple(ts), back)


def sincos(x):
    """[sin(x), cos(x)] along the last axis, as one node (an array for an array).

    Each transcendental is computed once: the tangent is [cos tx, -sin tx]
    and the gradient g_s cos - g_c sin reuse the two halves of the value.
    """
    a = x.data if isinstance(x, Tensor) else x
    out = np.concatenate([np.sin(a), np.cos(a)], axis=-1)
    if not isinstance(x, Tensor):
        return out
    k = x.shape[-1]
    sin, cos = out[..., :k], out[..., k:]
    tan = None
    if x.tangent is not None:
        tan = np.concatenate([cos * x.tangent, -sin * x.tangent], axis=-1)
    return _node(out, tan, (x,), lambda g, _: ((x, g[..., :k] * cos - g[..., k:] * sin),))


def repeat_rows(x, n: int):
    """Repeat a (1, k) row to (n, k); an (n, k) tensor or array passes through as is.

    The value and tangent are read-only broadcast views; the gradient is the
    sum over the n rows.
    """
    if len(x.shape) != 2 or x.shape[0] not in (1, n):
        raise ShapeError(f"repeat_rows needs a (1, k) or ({n}, k) tensor, got {x.shape}")
    if x.shape[0] == n:
        return x
    shape = (n, x.shape[1])
    if not isinstance(x, Tensor):
        return np.broadcast_to(x, shape)
    tan = None if x.tangent is None else np.broadcast_to(x.tangent, shape)
    return _node(np.broadcast_to(x.data, shape), tan, (x,),
                 lambda g, _: ((x, g.sum(axis=0, keepdims=True)),))


def gather_rows(table, idx):
    """Select rows of a 2-d table by integer index (embedding lookup).

    ``table`` is a Tensor or a plain array, and the result is of its kind.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if len(table.shape) != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got {table.shape}")
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise IndexError(f"row index out of range for table with {table.shape[0]} rows")
    if not isinstance(table, Tensor):
        return table[idx]
    out = table.data[idx]
    tan = None if table.tangent is None else table.tangent[idx]

    def back(g, out):
        gt = out(table)
        if gt is None:
            gt = np.zeros(table.shape)
        else:
            gt.fill(0.0)
        np.add.at(gt, idx, g)
        return ((table, gt),)

    return _node(out, tan, (table,), back)


def jvp(f: Callable, xs: Sequence, vs: Sequence) -> tuple[Tensor, np.ndarray]:
    """Evaluate ``f(*xs)`` and its directional derivative along ``vs`` in one pass.

    ``xs`` and ``vs`` are sequences of arrays with matching shapes. Returns
    ``(f(*xs), J_f(xs) @ vs)``; the tangent is a plain array, taken off the
    result, so ops applied to the result later carry no tangent.
    """
    duals = []
    for x, v in zip(xs, vs, strict=True):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if x.shape != v.shape:
            raise ShapeError(f"tangent shape {v.shape} != input shape {x.shape}")
        duals.append(Tensor(x, tangent=v))
    out = f(*duals)
    tangent, out.tangent = out.tangent, None
    return out, tangent if tangent is not None else np.zeros_like(out.data)
