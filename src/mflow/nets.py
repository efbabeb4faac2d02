"""Velocity networks: teacher v(z, t | lr, c) and student u(z, t, s | lr, c).

Both are MLPs over the concatenation [z, flattened-LR features, condition
embedding, time embedding]. Every weight lives in ``FieldNet.params``, one
dict keyed by the checkpoint names ("cond_table", "t_emb.W", "layer0.b",
...). The student adds a projection of the interval end s ("s_emb.W",
"s_emb.b") whose output is added to the t-embedding; it is zero-initialized
so a freshly initialized student reproduces its teacher exactly for every s.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, concat, gather_rows


class TimeEmbedder:
    """Sinusoidal time features.

    The scalar time is first scaled by ``c_noise`` (the affine time
    transform); the feature vector is [sin(f_i * c_noise * t),
    cos(f_i * c_noise * t)] with geometrically spaced frequencies, so the
    norm of its time derivative scales exactly linearly in ``c_noise``.
    """

    def __init__(self, dim: int, c_noise: float = 1.0, max_freq: float = 32.0):
        if dim % 2 != 0:
            raise ValueError("time embedding dim must be even")
        self.dim = dim
        self.c_noise = float(c_noise)
        half = dim // 2
        exponents = np.arange(half) / max(half - 1, 1)
        self.freqs = 2.0 * np.pi * max_freq ** exponents  # (half,)

    def raw_features(self, t: Tensor) -> Tensor:
        """Sin/cos features of shape (B, dim) for t of shape (B, 1)."""
        arg = t * Tensor(self.c_noise * self.freqs[None, :])
        return concat([arg.sin(), arg.cos()], axis=1)


class FieldNet:
    """MLP velocity field; ``kind`` selects teacher (v) or student (u) form."""

    def __init__(self, kind: str, z_dim: int, lr_dim: int, num_content: int,
                 cond_dim: int = 16, time_dim: int = 32, hidden: tuple[int, ...] = (64, 64),
                 c_noise: float = 1.0, seed: int = 0):
        if kind not in ("teacher", "student"):
            raise ValueError(f"unknown net kind: {kind!r}")
        self.kind = kind
        self.z_dim = z_dim
        self.lr_dim = lr_dim
        self.num_content = num_content
        self.cond_dim = cond_dim
        self.time_dim = time_dim
        self.hidden = tuple(hidden)
        self.seed = seed
        # one feature map serves t and s: a net has a single c_noise
        self.time_embedder = TimeEmbedder(time_dim, c_noise=c_noise)

        # a seed's weights depend on the draw order: t-emb, s-emb, cond
        # table, trunk. ``params`` keeps the checkpoint order instead, which
        # fixes the summation order of the gradient-norm clip.
        rng = np.random.default_rng(seed)
        emb_shape, emb_scale = (time_dim, time_dim), 1.0 / np.sqrt(time_dim)
        t_emb_w = rng.normal(0.0, emb_scale, size=emb_shape)
        s_emb_w = rng.normal(0.0, emb_scale, size=emb_shape) if kind == "student" else None
        # rows: content classes 0..num_content-1, then null, then negative
        weights = {"cond_table": rng.normal(0.0, 0.5, size=(num_content + 2, cond_dim)),
                   "t_emb.W": t_emb_w, "t_emb.b": np.zeros((1, time_dim))}
        if kind == "student":
            weights["s_emb.W"] = s_emb_w
            weights["s_emb.b"] = np.zeros((1, time_dim))
        dims = [z_dim + lr_dim + cond_dim + time_dim, *self.hidden, z_dim]
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))
            if i == len(dims) - 2:
                w *= 0.1  # small last layer keeps the untrained field tame
            weights[f"layer{i}.W"] = w
            weights[f"layer{i}.b"] = np.zeros((1, d_out))
        # time-gated linear skip on z (the field's dominant affine-in-z part
        # would otherwise have to squeeze through the trunk bottleneck),
        # plus a direct linear path from the LR features; both zero-init
        weights["gate.W"] = np.zeros((time_dim, z_dim))
        weights["gate.b"] = np.zeros((1, z_dim))
        if lr_dim > 0:
            weights["lrskip.W"] = np.zeros((lr_dim, z_dim))
        self.params: dict[str, Tensor] = {name: Tensor(w, requires_grad=True)
                                          for name, w in weights.items()}

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

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def set_parameter(self, name: str, value: Tensor) -> None:
        """Replace one weight; raises KeyError for an unknown name."""
        shape = self.params[name].shape
        if value.shape != shape:
            raise ValueError(f"parameter {name!r} has shape {shape}, got {value.shape}")
        self.params[name] = value

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def config(self) -> dict:
        return {"kind": self.kind, "z_dim": self.z_dim, "lr_dim": self.lr_dim,
                "num_content": self.num_content, "cond_dim": self.cond_dim,
                "time_dim": self.time_dim, "hidden": list(self.hidden),
                "c_noise": self.time_embedder.c_noise, "seed": self.seed}

    @staticmethod
    def from_config(cfg: dict) -> "FieldNet":
        cfg = dict(cfg)
        cfg["hidden"] = tuple(cfg["hidden"])
        return FieldNet(**cfg)

    # -- forward ---------------------------------------------------------------

    def _forward(self, z: Tensor, t: Tensor, z_lr: Tensor, ids: np.ndarray,
                 s: Tensor | None) -> Tensor:
        p = self.params
        features = self.time_embedder.raw_features
        time = features(t) @ p["t_emb.W"] + p["t_emb.b"]
        if self.kind == "student":
            if s is None:
                raise ValueError("student forward requires the interval end s")
            time = time + (features(s) @ p["s_emb.W"] + p["s_emb.b"])
        cond = gather_rows(p["cond_table"], ids)
        parts = [z, z_lr, cond, time] if self.lr_dim > 0 else [z, cond, time]
        x = concat(parts, axis=1)
        last = len(self.hidden)
        for i in range(last):
            x = (x @ p[f"layer{i}.W"] + p[f"layer{i}.b"]).silu()
        out = x @ p[f"layer{last}.W"] + p[f"layer{last}.b"]
        out = out + (time @ p["gate.W"] + p["gate.b"]) * z
        if self.lr_dim > 0:
            out = out + z_lr @ p["lrskip.W"]
        return out


def _as_batched(x, batch: int, width: int | None = None) -> Tensor:
    """Lift scalars/arrays to a (B, k) Tensor, preserving any tangent."""
    if isinstance(x, Tensor):
        t = x
    else:
        t = Tensor(np.asarray(x, dtype=np.float64))
    if t.shape == () or t.shape == (1,):
        data = np.broadcast_to(t.data.reshape(1, 1), (batch, 1)).copy()
        tan = None if t.tangent is None else np.broadcast_to(t.tangent.reshape(1, 1), (batch, 1)).copy()
        return Tensor(data, tangent=tan, _parents=(t,),
                      _backward=lambda g: ((t, g.sum().reshape(t.shape)),))
    if len(t.shape) == 1:
        return t.reshape(t.shape[0], 1)
    return t


def teacher_forward(net: FieldNet, z, t, z_lr, c) -> Tensor:
    """Instantaneous velocity v(z, t | z_lr, c); output shape equals z."""
    if net.kind != "teacher":
        raise ValueError("teacher_forward called on a non-teacher net")
    z = Tensor._lift(z)
    batch = z.shape[0]
    return net._forward(z, _as_batched(t, batch), Tensor._lift(z_lr),
                        net.label_ids(c, batch), None)


def student_forward(net: FieldNet, z, t, s, z_lr, c) -> Tensor:
    """Average velocity u(z, t, s | z_lr, c) over [t, s]; requires s >= t."""
    if net.kind != "student":
        raise ValueError("student_forward called on a non-student net")
    z = Tensor._lift(z)
    batch = z.shape[0]
    tt = _as_batched(t, batch)
    ss = _as_batched(s, batch)
    if np.any(ss.data < tt.data - 1e-12):
        raise ValueError("student_forward requires s >= t (the sampler only moves forward)")
    return net._forward(z, tt, Tensor._lift(z_lr), net.label_ids(c, batch), ss)


def init_student_from_teacher(teacher: FieldNet) -> FieldNet:
    """Student clone of the teacher: copied weights, added s-embedding.

    The s-embedding projection is zero, so the s-embedding is a no-op at
    step 0 and the student matches the teacher exactly. The student time
    transform is c_noise(t)=t to keep the time derivative (and hence the
    JVP) well-scaled.
    """
    if teacher.kind != "teacher":
        raise ValueError("init_student_from_teacher needs a teacher net")
    student = FieldNet("student", teacher.z_dim, teacher.lr_dim, teacher.num_content,
                       cond_dim=teacher.cond_dim, time_dim=teacher.time_dim,
                       hidden=teacher.hidden, c_noise=1.0, seed=teacher.seed)
    for name, p in teacher.params.items():
        student.set_parameter(name, Tensor(p.data.copy(), requires_grad=True))
    for name in ("s_emb.W", "s_emb.b"):
        student.set_parameter(name, Tensor(np.zeros(student.params[name].shape),
                                           requires_grad=True))
    return student
