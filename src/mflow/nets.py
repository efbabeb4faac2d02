"""Velocity networks: teacher v(z, t | lr, c) and student u(z, t, s | lr, c).

Both are MLPs over the concatenation [z, flattened-LR features, condition
embedding, time embedding]. Every weight lives in ``FieldNet.flat``, one
contiguous float64 vector; ``FieldNet.params`` names its slices by the
checkpoint names ("cond_table", "t_emb.W", "layer0.b", ...), each a Tensor
whose ``.data`` is a reshaped view into the vector; ``FieldNet.arrays``
holds those views themselves. ``FieldNet.views`` names the slices of any
vector of that length the same way, so gradients and optimizer moments
share the layout without knowing it. The student adds a
projection of the interval end s ("s_emb.W", "s_emb.b") whose output is
added to the t-embedding. ``init_student_from_teacher`` zeroes it and
embeds time at ``c_noise = 1``, so a fresh student equals its teacher's
weights run at ``c_noise = 1`` for every s: exactly its teacher when the
teacher's ``c_noise`` is 1 (the default ``teacher_c_noise``), and not otherwise.

A t (or s) given per row, as a (B, 1) column, is embedded per row. A scalar
time shared by the whole batch, as in every sampling step, is embedded once
as a single row that is repeated only where it enters the trunk. Training, which draws
per-row times, is bit-identical either way; a shared-time forward may differ
from the per-row one by a few ulps, since a one-row matmul replaces B
identical rows.

A call that needs values only passes ``tape=False``: it runs the same
``_forward`` body on plain arrays (the inputs and ``FieldNet.arrays``), so no
op builds a Tensor, and returns an array with the bits of a taped forward's
``.data``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .tensor import ShapeError, Tensor, concat, gather_rows, repeat_rows, silu, sincos

# Highest time frequency, in cycles per unit of ``c_noise * t``.
MAX_FREQ = 32.0


class FieldNet:
    """MLP velocity field; ``kind`` selects teacher (v) or student (u) form.

    The weights are one flat vector, ``flat``, in ``_layout()`` order;
    ``arrays`` holds a view of it per weight, and ``params`` a Tensor around
    each view. Writing to a view (as ``set_parameter`` and the optimizer do)
    changes the net in place. Without ``weights`` the net draws them from
    ``seed``; with a mapping it copies them and draws nothing. Every weight
    of the layout must be in ``weights`` with its shape, else ValueError;
    other names are ignored.

    Time features: the scalar time is first scaled by ``c_noise`` (the affine
    time transform); the feature vector is [sin(f_i * c_noise * t),
    cos(f_i * c_noise * t)] with frequencies ``freqs`` spaced geometrically
    from 2 pi to 2 pi ``MAX_FREQ``, so the norm of its time derivative scales
    exactly linearly in ``c_noise``. One feature map serves t and s.
    """

    def __init__(self, kind: str, z_dim: int, lr_dim: int, num_content: int,
                 cond_dim: int = 16, time_dim: int = 32, hidden: tuple[int, ...] = (64, 64),
                 c_noise: float = 1.0, seed: int = 0,
                 weights: Mapping[str, np.ndarray] | None = None):
        if kind not in ("teacher", "student"):
            raise ValueError(f"unknown net kind: {kind!r}")
        if time_dim % 2 != 0:
            raise ValueError("time embedding dim must be even")
        self.kind = kind
        self.z_dim = z_dim
        self.lr_dim = lr_dim
        self.num_content = num_content
        self.cond_dim = cond_dim
        self.time_dim = time_dim
        self.hidden = tuple(hidden)
        self.c_noise = float(c_noise)
        self.seed = seed
        half = time_dim // 2
        self.freqs = 2.0 * np.pi * MAX_FREQ ** (np.arange(half) / max(half - 1, 1))
        self.flat = np.zeros(sum(math.prod(shape) for shape in self._layout().values()))
        self.arrays = self.views(self.flat)
        self.params: dict[str, Tensor] = {name: Tensor(w, requires_grad=True)
                                          for name, w in self.arrays.items()}
        if weights is None:
            self._draw()
        else:
            copy_into(self.arrays, weights)

    def _layout(self) -> dict[str, tuple[int, ...]]:
        """Shape of every weight, in checkpoint order.

        That order also fixes the summation order of the gradient-norm clip.
        """
        d, z = self.time_dim, self.z_dim
        # cond_table rows: content classes 0..num_content-1, then null, then negative
        shapes = {"cond_table": (self.num_content + 2, self.cond_dim),
                  "t_emb.W": (d, d), "t_emb.b": (1, d)}
        if self.kind == "student":
            shapes["s_emb.W"] = (d, d)
            shapes["s_emb.b"] = (1, d)
        dims = [z + self.lr_dim + self.cond_dim + d, *self.hidden, z]
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"layer{i}.W"] = (d_in, d_out)
            shapes[f"layer{i}.b"] = (1, d_out)
        # time-gated linear skip on z (the field's dominant affine-in-z part
        # would otherwise have to squeeze through the trunk bottleneck),
        # plus a direct linear path from the LR features
        shapes["gate.W"] = (d, z)
        shapes["gate.b"] = (1, z)
        if self.lr_dim > 0:
            shapes["lrskip.W"] = (self.lr_dim, z)
        return shapes

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name the slices of a vector laid out like ``flat``.

        One reshaped view per weight, in checkpoint order; writing to a view
        writes to ``flat``.
        """
        if flat.shape != self.flat.shape:
            raise ValueError(f"expected a vector of {self.flat.size} values, "
                             f"got shape {flat.shape}")
        named, start = {}, 0
        for name, shape in self._layout().items():
            stop = start + math.prod(shape)
            named[name] = flat[start:stop].reshape(shape)
            start = stop
        return named

    def _draw(self) -> None:
        """Fresh weights from ``seed``; biases, gate and LR skip stay zero."""
        w = self.arrays
        # a seed's weights depend on the draw order: t-emb, s-emb, cond table, trunk
        rng = np.random.default_rng(self.seed)
        emb_scale = 1.0 / np.sqrt(self.time_dim)
        for name in ("t_emb.W", "s_emb.W"):
            if name in w:
                w[name][...] = rng.normal(0.0, emb_scale, size=w[name].shape)
        w["cond_table"][...] = rng.normal(0.0, 0.5, size=w["cond_table"].shape)
        last = len(self.hidden)
        for i in range(last + 1):
            shape = w[f"layer{i}.W"].shape
            drawn = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            if i == last:
                drawn *= 0.1  # small last layer keeps the untrained field tame
            w[f"layer{i}.W"][...] = drawn

    # -- labels ---------------------------------------------------------------

    @property
    def null_id(self) -> int:
        return self.num_content

    @property
    def negative_id(self) -> int:
        return self.num_content + 1

    def label_ids(self, c, batch: int) -> np.ndarray:
        """Normalize a label spec (an id or an array of ids) to (B,) ids."""
        ids = np.broadcast_to(np.asarray(c, dtype=np.int64), (batch,)).copy()
        if ids.min() < 0 or ids.max() >= self.num_content + 2:
            raise ValueError(f"unknown condition id in {np.unique(ids)} "
                             f"(valid: 0..{self.num_content + 1})")
        return ids

    # -- parameters -------------------------------------------------------------

    def set_parameter(self, name: str, value: Tensor) -> None:
        """Copy ``value`` into one weight; raises KeyError for an unknown name."""
        data = self.params[name].data
        if value.shape != data.shape:
            raise ValueError(f"parameter {name!r} has shape {data.shape}, got {value.shape}")
        data[...] = value.data

    def config(self) -> dict:
        return {"kind": self.kind, "z_dim": self.z_dim, "lr_dim": self.lr_dim,
                "num_content": self.num_content, "cond_dim": self.cond_dim,
                "time_dim": self.time_dim, "hidden": list(self.hidden),
                "c_noise": self.c_noise, "seed": self.seed}

    # -- forward ---------------------------------------------------------------

    def _time_features(self, t):
        """Sin/cos features of shape (B, time_dim) for t of shape (B, 1), a Tensor or an array."""
        return sincos(t * (self.c_noise * self.freqs[None, :]))

    def _forward(self, p: Mapping, z, t, z_lr, ids: np.ndarray, s):
        """The field from the weights ``p`` and inputs of one kind.

        Tensors with ``p = params`` on the tape; plain arrays with
        ``p = arrays`` for values only. t and s are (1, 1) or (B, 1) columns.
        """
        features = self._time_features
        # (1, time_dim) when the batch shares one t (and s), else (B, time_dim)
        time = features(t) @ p["t_emb.W"] + p["t_emb.b"]
        if self.kind == "student":
            time = time + (features(s) @ p["s_emb.W"] + p["s_emb.b"])
        cond = gather_rows(p["cond_table"], ids)
        rows = repeat_rows(time, z.shape[0])
        parts = [z, z_lr, cond, rows] if self.lr_dim > 0 else [z, cond, rows]
        x = concat(parts, axis=1)
        last = len(self.hidden)
        for i in range(last):
            x = silu(x @ p[f"layer{i}.W"] + p[f"layer{i}.b"])
        out = x @ p[f"layer{last}.W"] + p[f"layer{last}.b"]
        out = out + (time @ p["gate.W"] + p["gate.b"]) * z
        if self.lr_dim > 0:
            out = out + z_lr @ p["lrskip.W"]
        return out


def copy_into(views: Mapping[str, np.ndarray], arrays: Mapping[str, np.ndarray]) -> None:
    """Copy ``arrays[name]`` into every named view.

    Raises ValueError when a name is missing from ``arrays`` or its array has
    another shape; names not in ``views`` are ignored.
    """
    for name, view in views.items():
        if name not in arrays:
            raise ValueError(f"missing tensor {name!r}")
        if np.shape(arrays[name]) != view.shape:
            raise ValueError(f"parameter {name!r} has shape {view.shape}, "
                             f"got {np.shape(arrays[name])}")
        view[...] = arrays[name]


def _as_column(t):
    """A time as a (B, 1) column, preserving any tangent.

    A scalar shared by the whole batch becomes one (1, 1) row, so the forward
    embeds it once. A 1-d time is refused, as ``flow.interpolate`` refuses
    one: it is neither a scalar nor a column.
    """
    if t.shape == ():
        return t.reshape(1, 1)
    if len(t.shape) == 1:
        raise ShapeError(f"a time of shape {t.shape} is not a scalar or a (B, 1) column")
    return t


def _array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _call(net: FieldNet, z, t, s, z_lr, c, tape: bool) -> Tensor | np.ndarray:
    """Run ``net._forward``: on Tensors with ``tape``, else on plain arrays.

    Without ``tape`` the inputs are float64 arrays, the weights
    ``net.arrays``, and the result is an array.
    """
    lift = Tensor._lift if tape else _array
    z = lift(z)
    t = _as_column(lift(t))
    if s is not None:
        s = _as_column(lift(s))
        s_value, t_value = (s.data, t.data) if tape else (s, t)
        if np.any(s_value < t_value - 1e-12):
            raise ValueError("student_forward requires s >= t (the sampler only moves forward)")
    ids = net.label_ids(c, z.shape[0])
    return net._forward(net.params if tape else net.arrays, z, t, lift(z_lr), ids, s)


def teacher_forward(net: FieldNet, z, t, z_lr, c, tape: bool = True) -> Tensor | np.ndarray:
    """Instantaneous velocity v(z, t | z_lr, c); output shape equals z.

    A Tensor on the tape; with ``tape=False`` the same values as an array.
    """
    if net.kind != "teacher":
        raise ValueError("teacher_forward called on a non-teacher net")
    return _call(net, z, t, None, z_lr, c, tape)


def student_forward(net: FieldNet, z, t, s, z_lr, c, tape: bool = True) -> Tensor | np.ndarray:
    """Average velocity u(z, t, s | z_lr, c) over [t, s]; requires s >= t.

    A Tensor on the tape; with ``tape=False`` the same values as an array.
    """
    if net.kind != "student":
        raise ValueError("student_forward called on a non-student net")
    return _call(net, z, t, s, z_lr, c, tape)


def init_student_from_teacher(teacher: FieldNet) -> FieldNet:
    """Student clone of the teacher: copied weights, added s-embedding.

    The s-embedding projection is zero, so the s-embedding is a no-op at
    step 0. The student time transform is c_noise(t)=t to keep the time
    derivative (and hence the JVP) well-scaled, so the fresh student equals
    the teacher's weights run at ``c_noise = 1``: bit for bit the teacher
    when its ``c_noise`` is 1, and a different field otherwise.
    """
    if teacher.kind != "teacher":
        raise ValueError("init_student_from_teacher needs a teacher net")
    arrays = dict(teacher.arrays)
    d = teacher.time_dim
    arrays["s_emb.W"] = np.zeros((d, d))
    arrays["s_emb.b"] = np.zeros((1, d))
    return FieldNet(**{**teacher.config(), "kind": "student", "c_noise": 1.0}, weights=arrays)
