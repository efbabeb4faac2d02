"""Loss mathematics: interpolation, RF loss, CFG velocities, and the
MeanFlow distillation target/loss.

The distillation target follows the average-velocity identity
u = v + (s - t) du/dt, with du/dt computed as a JVP of the student along the
tangent (v_inst, 1, 0) over (z, t, s) and the whole target frozen behind a
stop-gradient. The instantaneous velocity v_inst comes from one of four
formulations: ground-truth (z1 - z0), the self-referential original-MeanFlow
CFG, or teacher CFG against the null / negative condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import FieldNet, student_forward, teacher_forward
from .tensor import Tensor, jvp, no_tape

CFG_MODES = ("gt", "original_mf", "teacher_null", "teacher_neg")


def is_number(x) -> bool:
    """An int or a finite float; a bool is not a number here."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


def check_numbers(obj, names, prefix: str = "") -> None:
    """Raise ValueError naming each field of ``names`` that is not ``is_number``."""
    bad = [prefix + name for name in names if not is_number(getattr(obj, name))]
    if bad:
        raise ValueError(f"expected a number for {', '.join(bad)}")


@dataclass
class CfgConfig:
    """Guidance formulation for the instantaneous velocity."""
    mode: str = "teacher_neg"
    w: float = 6.0
    kappa: float = 0.0  # original_mf only

    def __post_init__(self):
        if self.mode not in CFG_MODES:
            raise ValueError(f"unknown cfg mode {self.mode!r}; expected one of {CFG_MODES}")
        check_numbers(self, ("w", "kappa"), "cfg.")
        if self.w < 0:
            raise ValueError("guidance scale w must be >= 0")
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError("kappa must lie in [0, 1)")


@dataclass
class LossConfig:
    metric: str = "pseudo_huber"  # squared_l2 | pseudo_huber
    huber_c: float | None = None  # None -> 0.03 * sqrt(dim)
    ratio_r: float = 0.5          # fraction of pairs with t != s

    def __post_init__(self):
        if self.metric not in ("squared_l2", "pseudo_huber"):
            raise ValueError(f"unknown loss metric {self.metric!r}")
        check_numbers(self, ("ratio_r",) if self.huber_c is None else ("ratio_r", "huber_c"),
                      "loss.")
        if self.huber_c is not None and self.huber_c <= 0:
            raise ValueError("huber_c must be positive")
        if not 0.0 <= self.ratio_r <= 1.0:
            raise ValueError("ratio_r must lie in [0, 1]")

    def resolve_huber_c(self, dim: int) -> float:
        return self.huber_c if self.huber_c is not None else 0.03 * np.sqrt(dim)


def interpolate(z0, z1, t):
    """Linear bridge (1 - t) z0 + t z1; t may be scalar or per-sample."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ValueError(f"endpoint shapes differ: {z0.shape} vs {z1.shape}")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 1 and z0.ndim == 2:
        t = t[:, None]
    return (1.0 - t) * z0 + t * z1


def cfg_velocity(teacher: FieldNet | None, z, t, z_lr, c, cfg: CfgConfig,
                 student: FieldNet | None = None, z0=None, z1=None) -> np.ndarray:
    """Instantaneous-velocity formulation selected by ``cfg.mode``.

    The teacher modes guide against the teacher's reserved row by id
    (``null_id`` / ``negative_id``): v_c + w (v_c - v_ref). Both calls run even
    at w = 0, where v_ref is multiplied by zero: the benchmark pins that waste
    as ``flow.cfg_velocity.useful_ratio`` (0.5 on gauss), so skipping the call
    waits for a change of the benchmark.

    Returns a plain array: the result always feeds the stop-gradded target,
    so nothing here participates in parameter gradients. The net calls (the
    teacher's two, or ``original_mf``'s two student calls at s = t) therefore
    run inside ``no_tape()``, on plain arrays: same values, no Tensor per op.
    """
    if cfg.mode == "gt":
        if z0 is None or z1 is None:
            raise ValueError("gt mode requires the endpoint pair (z0, z1)")
        return np.asarray(z1, dtype=np.float64) - np.asarray(z0, dtype=np.float64)
    if cfg.mode in ("teacher_null", "teacher_neg"):
        ref = teacher.null_id if cfg.mode == "teacher_null" else teacher.negative_id
        with no_tape():
            v_c = teacher_forward(teacher, z, t, z_lr, c).data
            v_ref = teacher_forward(teacher, z, t, z_lr, ref).data
        return v_c + cfg.w * (v_c - v_ref)
    # original_mf: self-referential CFG through the student at s = t
    if student is None or z0 is None or z1 is None:
        raise ValueError("original_mf mode requires the student and the endpoint pair (z0, z1)")
    with no_tape():
        u_c = student_forward(student, z, t, t, z_lr, c).data
        u_null = student_forward(student, z, t, t, z_lr, student.null_id).data
    gt = np.asarray(z1, dtype=np.float64) - np.asarray(z0, dtype=np.float64)
    return cfg.w * gt + cfg.kappa * u_c + (1.0 - cfg.w - cfg.kappa) * u_null


def _student_jvp(student: FieldNet, z, t, s, z_lr, c, v_inst):
    """One dual forward: (u(z,t,s), du/dt) with tangent (v_inst, 1, 0).

    The zero tangent on s is explicit, so the s-embedding matmul is a dual one
    although its tangent is zero. The benchmark pins the count of dual
    matmuls as ``tensor.matmul.one_sided_tangent`` (6 per pass of a student
    with two hidden layers, this one included), so dropping the zero tangent
    waits for a change of the benchmark.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (n, 1))
    s = np.broadcast_to(np.asarray(s, dtype=np.float64).reshape(-1, 1), (n, 1))
    return jvp(lambda zz, tt, ss: student_forward(student, zz, tt, ss, z_lr, c),
               (z, t, s), (v_inst, np.ones((n, 1)), np.zeros((n, 1))))


def mfd_target(student: FieldNet, v_inst, z, t, s, z_lr, c) -> tuple[Tensor, Tensor]:
    """(u(z,t,s), stop-gradded target v_inst + (s - t) du/dt) from one dual pass."""
    v_inst = np.asarray(v_inst, dtype=np.float64)
    u, dudt = _student_jvp(student, z, t, s, z_lr, c, v_inst)
    gap = np.asarray(s, dtype=np.float64).reshape(-1, 1) - np.asarray(t, dtype=np.float64).reshape(-1, 1)
    return u, Tensor(v_inst + gap * dudt)


def rf_loss(teacher: FieldNet, batch) -> Tensor:
    """Mean over the batch of ||v(z_t, t | lr, c) - (z1 - z0)||^2."""
    z_t = interpolate(batch.z0, batch.z1, batch.t)
    pred = teacher_forward(teacher, z_t, batch.t, batch.z_lr, batch.labels)
    diff = pred - Tensor(batch.z1 - batch.z0)
    return (diff * diff).sum(axis=1).mean()


def mfd_loss(student: FieldNet, teacher, batch, cfg: CfgConfig, loss_cfg: LossConfig) -> Tensor:
    """MeanFlow distillation loss over a batch.

    z0 is noise, z1 the data endpoint, so z_t = t z1 + (1 - t) z0. Gradients
    flow only through the student prediction; the target (and everything the
    teacher computed) is a constant.
    """
    t, s = np.asarray(batch.t, dtype=np.float64), np.asarray(batch.s, dtype=np.float64)
    z_t = interpolate(batch.z0, batch.z1, t)
    v_inst = cfg_velocity(teacher, z_t, t, batch.z_lr, batch.labels, cfg,
                          student=student, z0=batch.z0, z1=batch.z1)
    u_pred, target = mfd_target(student, v_inst, z_t, t, s, batch.z_lr, batch.labels)
    diff = u_pred - target
    per_sample = (diff * diff).sum(axis=1)
    if loss_cfg.metric == "squared_l2":
        return per_sample.mean()
    c = loss_cfg.resolve_huber_c(z_t.shape[1])
    return (per_sample + c * c).sqrt().mean() - c
