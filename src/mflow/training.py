"""Optimization, checkpointing, and the teacher / distillation training loops."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import time
from collections.abc import Callable, Mapping
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .data import DegradeParams, GaussianDataset, ToySrDataset, build_sr_pool, make_batch
from .flow import CfgConfig, LossConfig, check_numbers, is_number, mfd_loss, rf_loss
from .nets import FieldNet, copy_into, init_student_from_teacher
from .tensor import Tensor


class NumericalAbort(RuntimeError):
    """Raised when a loss or a gradient goes non-finite.

    A gradient counts as non-finite when any of its values is, and also when
    its values are finite but their sum of squares overflows. The run stops
    at that step before the optimizer moves anything, so parameters and Adam
    moments stay as the previous step left them. Only the checkpoints it
    already wrote stay: one every ``ckpt_every`` steps, so none with the
    default ``ckpt_every=0``.
    """


class CheckpointError(ValueError):
    """A checkpoint file that is corrupt, truncated, of the wrong role, or
    that does not fit the net or dataset it is loaded for."""


# -- Adam ----------------------------------------------------------------------

# Elements per pass of the Adam update. The update is memory-bound, so it
# runs block by block: the block's slices of p, g, m, v and two scratch
# blocks stay in cache across its 12 passes.
ADAM_BLOCK = 32768
# Decay rates of the two moments and the denominator's offset (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over one flat parameter vector, in Kingma & Ba's
    efficient form (arXiv:1412.6980, section 2).

    The bias corrections fold into the step size and the offset,
    ``alpha_t = lr sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_t = eps sqrt(1 - beta2^t)``, so the update is
    ``p -= alpha_t m / (sqrt(v) + eps_t)``: Algorithm 1 in exact arithmetic,
    with two passes fewer. ``step`` updates the parameter vector in place;
    ``m`` and ``v`` are flat vectors of the same layout, which a net's
    ``views`` names for the checkpoint.
    """

    def __init__(self, size: int, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(min(size, ADAM_BLOCK))
        self._b = np.empty(min(size, ADAM_BLOCK))

    def step(self, params: np.ndarray, grad: np.ndarray, scale: float = 1.0) -> None:
        """One update of ``params`` in place for the gradient ``scale * grad``.

        ``grad`` must be finite (the clip checks) and is only read: the clip's
        ``scale`` enters through the moments' constants, ``(1 - beta1) scale``
        and ``(1 - beta2) scale^2``.
        """
        self.step_count += 1
        t = self.step_count
        root_bc2 = math.sqrt(1.0 - ADAM_BETA2 ** t)
        alpha = self.lr * root_bc2 / (1.0 - ADAM_BETA1 ** t)
        eps = ADAM_EPS * root_bc2
        c1 = (1.0 - ADAM_BETA1) * scale
        c2 = (1.0 - ADAM_BETA2) * (scale * scale)
        for start in range(0, params.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = params[block], grad[block], self.m[block], self.v[block]
            a, b = self._a[:p.size], self._b[:p.size]
            # m <- beta1*m + c1*g; v <- beta2*v + c2*g*g
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, c1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(g, c2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            # p <- p - alpha*m / (sqrt(v) + eps), staged through the buffers
            np.sqrt(v, out=b)
            np.add(b, eps, out=b)
            np.multiply(m, alpha, out=a)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)

    def state_arrays(self, views: Callable[[np.ndarray], dict[str, np.ndarray]]
                     ) -> dict[str, np.ndarray]:
        """The moments as checkpoint tensors, ``adam.m.<name>`` and ``adam.v.<name>``.

        ``views`` names the slices of a flat vector (a net's ``views``); the
        arrays returned are views of ``m`` and ``v``, so writing to them
        restores the state.
        """
        arrays = {f"adam.m.{name}": a for name, a in views(self.m).items()}
        arrays.update({f"adam.v.{name}": a for name, a in views(self.v).items()})
        return arrays


def clip_gradients(flat: np.ndarray, grads: Mapping[str, np.ndarray],
                   max_norm: float) -> tuple[float, float]:
    """Global-norm clip of ``flat``; returns (pre-clip norm, scale).

    The norm is one dot product over ``flat``. ``scale`` is
    ``max_norm / norm`` when the norm exceeds a positive ``max_norm`` and 1.0
    otherwise; ``flat`` is not written, as Adam applies the scale. A
    non-finite norm raises NumericalAbort, naming the first parameter of
    ``grads`` (the named slices of ``flat``) that holds a non-finite value.
    """
    with np.errstate(over="ignore"):  # an overflow is reported below, as an abort
        total = math.sqrt(float(flat @ flat))
    if not math.isfinite(total):
        bad = next((name for name, g in grads.items() if not np.all(np.isfinite(g))), None)
        raise NumericalAbort(f"non-finite gradient in parameter {bad!r}" if bad else
                             "the squared gradient norm overflows")
    if max_norm > 0 and total > max_norm:
        return total, max_norm / total
    return total, 1.0


# -- checkpoint container --------------------------------------------------------

MAGIC = b"MFLW"
VERSION = 1
_DTYPE_F64 = 0


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Binary container: magic, version, JSON metadata, named f64 tensors.

    The bytes go to a temporary file in the target directory, which then
    replaces ``path`` in one rename. A save that raises, or a process that
    dies mid-write, leaves any earlier file at ``path`` as it was. Nothing is
    fsynced, so this protects against a process crash, not a power loss.
    """
    path = Path(path)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f8")
                name_b = name.encode()
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<BB", _DTYPE_F64, arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(memoryview(arr.ravel()).cast("B"))  # no copy
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, skip: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; raises CheckpointError unless the file is well formed.

    The tensors are read-only views of the bytes read from the file; a caller
    that needs to write copies them (``FieldNet(..., weights=...)`` and resuming
    already copy into the flat vectors). Tensors whose name starts with
    ``skip`` are seeked past instead of read and are left out of the result;
    their lengths are checked like any other, so a truncated file is still
    refused.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(n: int) -> None:
            # every length comes from the file, so check it before reading
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated checkpoint "
                                      f"({n} bytes wanted, {left} left)")
            left -= n

        def read(n: int) -> bytes:
            take(n)
            return fh.read(n)

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = unpack("<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = unpack("<I")
        meta_bytes = read(meta_len)
        try:
            meta = json.loads(meta_bytes)
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt metadata ({exc})") from exc
        (count,) = unpack("<I")
        tensors = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            name_bytes = read(name_len)
            try:
                name = name_bytes.decode()
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: corrupt tensor name ({exc})") from exc
            dtype, rank = unpack("<BB")
            if dtype != _DTYPE_F64:
                raise CheckpointError(f"{path}: unknown dtype code {dtype}")
            shape = unpack(f"<{rank}I")
            size = 8 * math.prod(shape)
            if skip is not None and name.startswith(skip):
                take(size)
                fh.seek(size, os.SEEK_CUR)
            else:
                tensors[name] = np.frombuffer(read(size), dtype="<f8").reshape(shape)
        if left:
            raise CheckpointError(f"{path}: {left} trailing bytes after the last tensor")
    return tensors, meta


def params_digest(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


# -- run configuration -------------------------------------------------------------

_INT_FIELDS = ("seed", "steps", "batch_size", "log_every", "ckpt_every", "time_dim",
               "cond_dim", "hr_size", "num_content", "sr_scale", "quant_levels", "train_pool")
_FLOAT_FIELDS = ("lr", "lr_final", "grad_clip", "teacher_c_noise", "gauss_sigma",
                 "blur_sigma", "noise_sigma", "neg_pair_prob")


@dataclass
class RunConfig:
    """Full experiment description; serialized next to every artifact."""
    task: str = "gaussian"       # gaussian | toysr
    seed: int = 0
    steps: int = 2000
    batch_size: int = 64
    lr: float = 1e-3
    lr_final: float = 0.0        # <= 0 disables cosine decay
    hidden: list = field(default_factory=lambda: [64, 64])
    time_dim: int = 32
    cond_dim: int = 16
    teacher_c_noise: float = 1.0
    grad_clip: float = 10.0      # <= 0 disables clipping
    log_every: int = 100
    ckpt_every: int = 0          # 0 = final checkpoint only
    teacher_ckpt: str = ""
    cfg: CfgConfig = field(default_factory=CfgConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    # gaussian task
    gauss_mu: list = field(default_factory=lambda: [1.0, -0.5])
    gauss_sigma: float = 1.0
    # toy-SR task
    hr_size: int = 32
    num_content: int = 3
    blur_sigma: float = 1.0
    sr_scale: int = 4
    noise_sigma: float = 0.02
    quant_levels: int = 0
    neg_pair_prob: float = 0.1
    train_pool: int = 0          # > 0: pregenerate this many SR pairs for training

    def __post_init__(self):
        if self.task not in ("gaussian", "toysr"):
            raise ValueError(f"unknown task {self.task!r}")
        not_int = [name for name in _INT_FIELDS if type(getattr(self, name)) is not int]
        if not_int:
            raise ValueError(f"expected an integer for {', '.join(not_int)}")
        check_numbers(self, _FLOAT_FIELDS)
        if not isinstance(self.teacher_ckpt, str):
            # open() would take an int as a file descriptor
            raise ValueError("expected a path string for teacher_ckpt")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.log_every < 1 or self.ckpt_every < 0:
            raise ValueError("log_every must be >= 1 and ckpt_every >= 0")
        if self.time_dim < 2 or self.time_dim % 2:
            raise ValueError("time_dim must be even and >= 2")
        if self.cond_dim < 1 or self.num_content < 1:
            raise ValueError("cond_dim and num_content must be >= 1")
        if not 0.0 <= self.neg_pair_prob <= 1.0:
            raise ValueError("neg_pair_prob must lie in [0, 1]")
        if self.train_pool < 0:
            raise ValueError("train_pool must be >= 0")
        if self.train_pool and self.task != "toysr":
            raise ValueError("train_pool needs task toysr")
        if not isinstance(self.hidden, (list, tuple)) or not all(
                type(h) is int and h > 0 for h in self.hidden):
            raise ValueError("hidden must be a list of positive layer widths")
        if not isinstance(self.gauss_mu, (list, tuple)) or not self.gauss_mu or not all(
                is_number(m) for m in self.gauss_mu):
            raise ValueError("gauss_mu must be a non-empty list of numbers")
        if self.gauss_sigma <= 0:
            raise ValueError("gauss_sigma must be positive")
        if self.gauss_sigma ** 2 == 0:  # the oracle divides by sigma^2
            raise ValueError("gauss_sigma is so small that its square is 0")
        self.dataset()  # the dataset checks its own fields
        for name, kind in (("cfg", CfgConfig), ("loss", LossConfig)):
            value, keys = getattr(self, name), set(kind.__dataclass_fields__)
            if isinstance(value, dict):
                if set(value) - keys:
                    raise ValueError(f"unknown {name} keys: {sorted(set(value) - keys)}")
                value = kind(**value)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be an object with keys {sorted(keys)}")
            setattr(self, name, value)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = set(RunConfig.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def dataset(self):
        if self.task == "gaussian":
            return GaussianDataset(dim=len(self.gauss_mu),
                                   mu=np.asarray(self.gauss_mu, dtype=np.float64),
                                   sigma=self.gauss_sigma)
        return ToySrDataset(hr_size=self.hr_size, num_content=self.num_content,
                            params=DegradeParams(blur_sigma=self.blur_sigma,
                                                 scale=self.sr_scale,
                                                 noise_sigma=self.noise_sigma,
                                                 quant_levels=self.quant_levels))

    def build_teacher(self) -> FieldNet:
        ds = self.dataset()
        return FieldNet("teacher", ds.z_dim, ds.lr_dim, ds.num_content,
                        cond_dim=self.cond_dim, time_dim=self.time_dim,
                        hidden=tuple(self.hidden), c_noise=self.teacher_c_noise,
                        seed=self.seed)


# The one SR training pool a process keeps, {key: pool}; see _sr_train_pool.
# Changed in place, never rebound: perfbench checks that a traced run leaves
# every mflow module attribute as it found it.
_train_pool_slot: dict = {}


def _sr_train_pool(config: RunConfig, dataset) -> list | None:
    """Pregenerated SR training pairs, seeded apart from held-out pools.

    The process keeps the last pool built, keyed on every value that fixes
    its bytes: the dataset's fields, the pool size and the seed. So a
    distillation run after its teacher's run on the same key trains on the
    same pairs without building them again. A new key drops the kept pool
    before the build, so two pools are never alive at once.
    """
    if config.task != "toysr" or config.train_pool <= 0:
        return None
    n, seed = config.train_pool, config.seed + 100003
    key = (astuple(dataset), n, seed)
    if key not in _train_pool_slot:
        _train_pool_slot.clear()
        _train_pool_slot[key] = build_sr_pool(dataset, n, seed)
    return _train_pool_slot[key]


def _lr_at(config: RunConfig, step: int) -> float:
    """Cosine decay from lr to lr_final; constant when lr_final <= 0."""
    if config.lr_final <= 0:
        return config.lr
    frac = step / max(config.steps - 1, 1)
    return config.lr_final + (config.lr - config.lr_final) * 0.5 * (1.0 + np.cos(np.pi * frac))


class _TrainLog:
    def __init__(self, path, start: int):
        """A run resumed at step ``start`` keeps the rows logged before it."""
        self.path = Path(path)
        kept = []
        if start > 0 and self.path.exists():
            with open(self.path, newline="") as fh:
                kept = [row for row in list(csv.reader(fh))[1:]
                        if row and row[0].isdigit() and int(row[0]) < start]
        self.fh = open(self.path, "w", newline="")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(["step", "loss", "grad_norm", "wall_ms"])
        self.writer.writerows(kept)

    def row(self, step: int, loss: float, grad_norm: float, wall_ms: float) -> None:
        self.writer.writerow([step, f"{loss:.10g}", f"{grad_norm:.10g}", f"{wall_ms:.3f}"])
        self.fh.flush()

    def close(self):
        self.fh.close()


def _save_net_checkpoint(path, net: FieldNet, adam: Adam, config: RunConfig,
                         step: int, rng: np.random.Generator, role: str) -> None:
    tensors = dict(net.arrays)
    tensors.update(adam.state_arrays(net.views))
    meta = {"role": role, "step": step, "config_digest": config.digest(),
            "net_config": net.config(), "config": config.to_dict(),
            "adam_step": adam.step_count, "rng_state": rng.bit_generator.state}
    save_checkpoint(path, tensors, meta)


def _load_net(path, kind: str | None = None, moments: bool = False
              ) -> tuple[FieldNet, dict[str, np.ndarray], dict]:
    """The net of a checkpoint, its tensors and its metadata.

    A ``kind`` ("teacher" or "student") refuses a net of the other kind. The
    Adam moments (``adam.*``) are read only with ``moments``, as a net that
    only runs forward does not need them.
    """
    tensors, meta = load_checkpoint(path, skip=None if moments else "adam.")
    config = meta.get("net_config") if isinstance(meta, dict) else None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: no net config")
    try:
        net = FieldNet(**config, weights=tensors)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if kind is not None and net.kind != kind:
        raise CheckpointError(f"{path} does not hold a {kind} checkpoint")
    return net, tensors, meta


def check_dataset(net: FieldNet, dataset, path) -> None:
    """Refuse a checkpointed net whose shapes do not fit the configured dataset."""
    if (net.z_dim, net.lr_dim, net.num_content) != (dataset.z_dim, dataset.lr_dim,
                                                      dataset.num_content):
        raise CheckpointError(f"{path}: {net.kind} checkpoint does not match the "
                              f"configured dataset")


def _check_teacher_fits(config: RunConfig, dataset, teacher: FieldNet, path) -> None:
    """Refuse a teacher that does not fit the dataset or was built with another
    ``hidden``, ``time_dim``, ``cond_dim`` or ``teacher_c_noise`` than the
    config asks for."""
    check_dataset(teacher, dataset, path)
    for name, asked, held in (("hidden", list(config.hidden), list(teacher.hidden)),
                              ("time_dim", config.time_dim, teacher.time_dim),
                              ("cond_dim", config.cond_dim, teacher.cond_dim),
                              ("teacher_c_noise", config.teacher_c_noise,
                               teacher.c_noise)):
        if asked != held:
            raise CheckpointError(f"{path}: the config asks for {name}={asked}, "
                                  f"the teacher has {held}")


def _resume_state(path, config: RunConfig, net: FieldNet, adam: Adam,
                  tensors: dict[str, np.ndarray], meta: dict) -> tuple[int, np.random.Generator]:
    """Restore Adam's moments and step count; returns (next step, training RNG).

    Raises CheckpointError when the checkpoint was written under another
    config than ``config`` or lacks anything needed to continue the run
    bit-exactly.
    """
    if meta.get("config_digest") != config.digest():
        raise CheckpointError(f"{path}: written under another config than the one "
                              f"given, so the run cannot continue from it")
    for key in ("step", "adam_step"):
        if not isinstance(meta.get(key), int) or meta[key] < 0:
            raise CheckpointError(f"{path}: no valid {key!r} to resume from")
    try:
        copy_into(adam.state_arrays(net.views), tensors)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = meta.get("rng_state")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: cannot resume ({exc})") from exc
    adam.step_count = meta["adam_step"]
    return meta["step"], rng


def _run_steps(config: RunConfig, net: FieldNet, adam: Adam, rng: np.random.Generator,
               start: int, out: Path, role: str, next_batch, loss_of) -> Path:
    """Steps ``start`` .. ``config.steps - 1`` of a run; returns the final checkpoint path.

    ``next_batch(rng)`` builds one step's batch and ``loss_of(batch)`` its
    loss. The loop owns the rest: lr schedule, finiteness abort, backward,
    clipping, Adam, the log and the checkpoint cadence.

    Backward writes each parameter's gradient into its view of one flat
    gradient vector, the vector the clip and Adam read, so a step holds each
    gradient once. Only the loss's value outlives backward: the step's tape
    is freed before the next step builds its own.
    """
    final = out / f"{role}.ckpt"
    grad = np.empty_like(net.flat)
    grads = net.views(grad)
    into = {p: grads[name] for name, p in net.params.items()}
    log = _TrainLog(out / f"{role}_log.csv", start)
    try:
        for step in range(start, config.steps):
            t0 = time.perf_counter()
            adam.lr = _lr_at(config, step)
            loss = loss_of(next_batch(rng))
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalAbort(f"non-finite {role} loss at step {step}")
            loss.backward(into)
            del loss  # frees the tape before the next step builds its own
            norm, scale = clip_gradients(grad, grads, config.grad_clip)
            adam.step(net.flat, grad, scale)
            if step % config.log_every == 0 or step == config.steps - 1:
                log.row(step, value, norm, (time.perf_counter() - t0) * 1e3)
            if config.ckpt_every and (step + 1) % config.ckpt_every == 0:
                _save_net_checkpoint(out / f"{role}_step{step + 1}.ckpt", net,
                                     adam, config, step + 1, rng, role)
        _save_net_checkpoint(final, net, adam, config, config.steps, rng, role)
    finally:
        log.close()
    return final


def train_teacher(config: RunConfig, out_dir, resume: str | None = None) -> Path:
    """Rectified-flow teacher training; returns the final checkpoint path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = config.dataset()
    if resume:
        teacher, tensors, meta = _load_net(resume, "teacher", moments=True)
        _check_teacher_fits(config, dataset, teacher, resume)
        adam = Adam(teacher.flat.size, lr=config.lr)
        start, rng = _resume_state(resume, config, teacher, adam, tensors, meta)
    else:
        teacher = config.build_teacher()
        adam = Adam(teacher.flat.size, lr=config.lr)
        start, rng = 0, np.random.default_rng(config.seed)
    pool = _sr_train_pool(config, dataset)
    return _run_steps(
        config, teacher, adam, rng, start, out, "teacher",
        lambda rng: make_batch(dataset, config.batch_size, rng, ratio_r=0.0,
                               neg_pair_prob=config.neg_pair_prob, pool=pool),
        lambda batch: rf_loss(teacher, batch))


def load_teacher(path) -> FieldNet:
    """A teacher for inference or distillation; its Adam moments are not read."""
    return _load_net(path, "teacher")[0]


def load_student(path) -> FieldNet:
    """A student for inference; its Adam moments are not read."""
    return _load_net(path, "student")[0]


def describe_checkpoint(path) -> dict:
    """Role, kind, steps, parameter count and digests of a checkpoint.

    ``params_digest`` covers the weights alone, so it does not move with the
    metadata bytes. Raises CheckpointError for a file that does not load.
    """
    net, _, meta = _load_net(path)
    return {"role": meta.get("role"), "kind": net.kind, "step": meta.get("step"),
            "adam_step": meta.get("adam_step"), "param_count": net.flat.size,
            "params_digest": params_digest(net.params),
            "config_digest": meta.get("config_digest")}


def distill_student(config: RunConfig, teacher_ckpt, out_dir) -> Path:
    """MeanFlow distillation of a frozen teacher into an average-velocity student.

    Raises CheckpointError when the teacher does not fit the configured
    dataset or was built with another ``hidden``, ``time_dim``, ``cond_dim``
    or ``teacher_c_noise`` than the config asks for.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    teacher = load_teacher(teacher_ckpt)
    ds = config.dataset()
    _check_teacher_fits(config, ds, teacher, teacher_ckpt)
    frozen_digest = params_digest(teacher.params)
    student = init_student_from_teacher(teacher)
    pool = _sr_train_pool(config, ds)
    final = _run_steps(
        config, student, Adam(student.flat.size, lr=config.lr),
        np.random.default_rng(config.seed), 0, out, "student",
        lambda rng: make_batch(ds, config.batch_size, rng, ratio_r=config.loss.ratio_r,
                               pool=pool),
        lambda batch: mfd_loss(student, teacher, batch, config.cfg, config.loss))
    if params_digest(teacher.params) != frozen_digest:
        raise RuntimeError("teacher parameters changed during distillation")
    return final
