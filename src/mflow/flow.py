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
from .tensor import Tensor, jvp

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
    """Linear bridge (1 - t) z0 + t z1; t is a scalar or a (B, 1) column (a 1-d t
    is refused: numpy would pair it with z's columns)."""
    if z0.shape != z1.shape:
        raise ValueError(f"endpoint shapes differ: {z0.shape} vs {z1.shape}")
    if np.ndim(t) == 1:
        raise ValueError(f"t of shape {np.shape(t)} is not a scalar or a (B, 1) column")
    return (1.0 - t) * z0 + t * z1


def cfg_velocity(teacher: FieldNet | None, z, t, z_lr, c, cfg: CfgConfig,
                 student: FieldNet | None, z0, z1) -> np.ndarray:
    """Instantaneous-velocity formulation selected by ``cfg.mode``.

    The teacher modes guide against the teacher's reserved row by id
    (``null_id`` / ``negative_id``): v_c + w (v_c - v_ref). Both calls run even
    at w = 0, where v_ref is multiplied by zero: the benchmark pins that waste
    as ``flow.cfg_velocity.useful_ratio`` (0.5 on gauss), so skipping the call
    waits for a change of the benchmark. Each mode reads only its own nets and
    endpoints; the others may be None.

    Returns a plain array: the result always feeds the stop-gradded target,
    so nothing here participates in parameter gradients. The net calls (the
    teacher's two, or ``original_mf``'s two student calls at s = t) therefore
    pass ``tape=False`` and run on plain arrays: same values, no Tensor per op.
    """
    if cfg.mode == "gt":
        return z1 - z0
    if cfg.mode in ("teacher_null", "teacher_neg"):
        ref = teacher.null_id if cfg.mode == "teacher_null" else teacher.negative_id
        v_c = teacher_forward(teacher, z, t, z_lr, c, tape=False)
        v_ref = teacher_forward(teacher, z, t, z_lr, ref, tape=False)
        return v_c + cfg.w * (v_c - v_ref)
    # original_mf: self-referential CFG through the student at s = t
    u_c = student_forward(student, z, t, t, z_lr, c, tape=False)
    u_null = student_forward(student, z, t, t, z_lr, student.null_id, tape=False)
    return cfg.w * (z1 - z0) + cfg.kappa * u_c + (1.0 - cfg.w - cfg.kappa) * u_null


def _student_jvp(student: FieldNet, z, t, s, z_lr, c, v_inst):
    """One dual forward: (u(z,t,s), du/dt) with tangent (v_inst, 1, 0).

    The zero tangent on s is explicit, so the s-embedding matmul is a dual one
    although its tangent is zero. The benchmark pins the count of dual
    matmuls as ``tensor.matmul.one_sided_tangent`` (6 per pass of a student
    with two hidden layers, this one included), so dropping the zero tangent
    waits for a change of the benchmark.
    """
    n = z.shape[0]
    return jvp(lambda zz, tt, ss: student_forward(student, zz, tt, ss, z_lr, c),
               (z, t, s), (v_inst, np.ones((n, 1)), np.zeros((n, 1))))


def mfd_target(student: FieldNet, v_inst, z, t, s, z_lr, c) -> tuple[Tensor, np.ndarray]:
    """(u(z,t,s), v_inst + (s - t) du/dt) from one dual pass; the target is a
    plain array, and an array gets no gradient, so it is the stop-gradient."""
    u, dudt = _student_jvp(student, z, t, s, z_lr, c, v_inst)
    return u, v_inst + (s - t) * dudt


def rf_loss(teacher: FieldNet, batch) -> Tensor:
    """Mean over the batch of ||v(z_t, t | lr, c) - (z1 - z0)||^2."""
    z_t = interpolate(batch.z0, batch.z1, batch.t)
    pred = teacher_forward(teacher, z_t, batch.t, batch.z_lr, batch.labels)
    diff = pred - (batch.z1 - batch.z0)
    return (diff * diff).sum(axis=1).mean()


def mfd_loss(student: FieldNet, teacher, batch, cfg: CfgConfig, loss_cfg: LossConfig) -> Tensor:
    """MeanFlow distillation loss over a batch.

    z0 is noise, z1 the data endpoint, so z_t = t z1 + (1 - t) z0. Gradients
    flow only through the student prediction; the target (and everything the
    teacher computed) is a constant.
    """
    z_t = interpolate(batch.z0, batch.z1, batch.t)
    v_inst = cfg_velocity(teacher, z_t, batch.t, batch.z_lr, batch.labels, cfg,
                          student, batch.z0, batch.z1)
    u_pred, target = mfd_target(student, v_inst, z_t, batch.t, batch.s, batch.z_lr,
                                batch.labels)
    diff = u_pred - target
    per_sample = (diff * diff).sum(axis=1)
    if loss_cfg.metric == "squared_l2":
        return per_sample.mean()
    c = loss_cfg.resolve_huber_c(z_t.shape[1])
    return (per_sample + c * c).sqrt().mean() - c
