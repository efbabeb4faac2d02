"""Optimization, checkpointing, the heap policy, and the teacher / distillation training loops."""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
import struct
import time
from collections.abc import Mapping
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import DegradeParams, GaussianDataset, ToySrDataset, build_sr_pool, make_batch
from .flow import CfgConfig, LossConfig, check_numbers, is_number, mfd_loss, rf_loss
from .nets import FieldNet, init_student_from_teacher
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
    """A checkpoint file that is corrupt, truncated, of the wrong kind, or
    that does not fit the config it is loaded for."""


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
    ``m`` and ``v`` are flat vectors of the same layout. They live as long as
    the run: a checkpoint holds the weights alone, since no run continues
    from one.
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


# -- heap policy ------------------------------------------------------------------

try:  # glibc's mallopt(param, value) sets one of its allocator's tunables
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
except (AttributeError, OSError, TypeError):  # a C library without it keeps its own policy
    def _mallopt(param: int, value: int) -> int:
        return 0

try:  # glibc's malloc_trim(0) hands the heap's free pages back to the OS
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # a C library without it hands nothing back
    def _malloc_trim(pad: int) -> int:
        return 0

# mallopt(3) parameter numbers and the values pin_heap pins them to: every array
# below 8 MiB, which holds any per-step array of the benchmark's workloads (SR's
# largest are its 5.8 MB parameter-sized vectors), comes from the heap, and the
# heap shrinks by itself only once 64 MiB at its top are free. A larger array,
# such as a checkpoint's bytes, is mapped on its own and unmapped when freed.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 8 << 20


def pin_heap() -> None:
    """Pin glibc's heap thresholds, then hand the heap's free pages back to the OS.

    glibc's default thresholds adapt to the sizes a program frees, and with a
    gauss step's 256 KiB arrays each training step gave its heap back and
    faulted it in again (214k minor faults in a fresh gauss ``train-teacher``,
    1.6k when pinned). ``_run_steps`` and ``cli.run`` call this, so training
    runs under one heap policy whoever calls it. The policy is the whole
    process's: the pinned thresholds stay in force after the caller returns,
    for every later allocation, as glibc has no call that restores its
    adaptive ones. A C library without ``mallopt`` or ``malloc_trim`` keeps
    its own policy.
    """
    _mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    _mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    _malloc_trim(0)


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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; raises CheckpointError unless the file is well formed.

    Every tensor is read, whatever its name. The tensors are read-only views
    of the bytes read from the file; a caller that needs to write copies them
    (``FieldNet(..., weights=...)`` copies into its flat vector).
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            # every length comes from the file, so check it before reading
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated checkpoint "
                                      f"({n} bytes wanted, {left} left)")
            left -= n
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
            tensors[name] = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
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

@dataclass
class RunConfig:
    """Full experiment description; serialized next to every artifact.

    A field annotated ``int`` must hold an int, and one annotated ``float`` a
    number (``is_number``).
    """
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
        not_int = [f.name for f in fields(self)
                   if f.type == "int" and type(getattr(self, f.name)) is not int]
        if not_int:
            raise ValueError(f"expected an integer for {', '.join(not_int)}")
        check_numbers(self, [f.name for f in fields(self) if f.type == "float"])
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

    def net_config(self) -> dict:
        """The teacher this config trains, keyed as ``FieldNet.config()`` is."""
        ds = self.dataset()
        return {"kind": "teacher", "z_dim": ds.z_dim, "lr_dim": ds.lr_dim,
                "num_content": ds.num_content, "cond_dim": self.cond_dim,
                "time_dim": self.time_dim, "hidden": list(self.hidden),
                "c_noise": self.teacher_c_noise, "seed": self.seed}

    def build_teacher(self) -> FieldNet:
        return FieldNet(**self.net_config())


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


def _save_net_checkpoint(path, net: FieldNet, config: RunConfig, step: int) -> None:
    """The weights, and the metadata that describes them: the steps taken, the
    net's ``config()``, and the run config with its digest."""
    meta = {"step": step, "config_digest": config.digest(), "net_config": net.config(),
            "config": config.to_dict()}
    save_checkpoint(path, net.arrays, meta)


def _load_net(path, kind: str | None = None) -> tuple[FieldNet, dict]:
    """The net of a checkpoint and its metadata.

    A ``kind`` ("teacher" or "student") refuses a net of the other kind.
    Tensors outside the net's layout, such as the Adam moments that earlier
    checkpoints held, are read and dropped.
    """
    tensors, meta = load_checkpoint(path)
    config = meta.get("net_config") if isinstance(meta, dict) else None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: no net config")
    try:
        net = FieldNet(**config, weights=tensors)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if kind is not None and net.kind != kind:
        raise CheckpointError(f"{path} does not hold a {kind} checkpoint")
    return net, meta


def check_net(net: FieldNet, config: RunConfig, path) -> None:
    """Refuse a checkpointed net that does not fit ``config``.

    A teacher must equal ``config.net_config()`` in every key but ``seed``
    (a distillation runs under its own seed); a student, which only runs
    forward, must fit the configured dataset: ``z_dim``, ``lr_dim`` and
    ``num_content``. The first key that differs is named.
    """
    asked, held = config.net_config(), net.config()
    keys = ([key for key in asked if key != "seed"] if net.kind == "teacher"
            else ("z_dim", "lr_dim", "num_content"))
    for key in keys:
        if asked[key] != held[key]:
            raise CheckpointError(f"{path}: {net.kind} checkpoint does not match the "
                                  f"config: the config asks for {key}={asked[key]}, "
                                  f"the {net.kind} has {held[key]}")


def _run_steps(config: RunConfig, net: FieldNet, out: Path, next_batch, loss_of) -> Path:
    """The ``config.steps`` steps of a run; returns the final checkpoint path.

    ``next_batch(rng)`` builds one step's batch and ``loss_of(batch)`` its
    loss. The loop owns the rest: the training RNG (seeded with
    ``config.seed``), Adam, lr schedule, finiteness abort, backward,
    clipping, the log and the checkpoint cadence. It pins the heap first
    (``pin_heap``), so a run trains at the same speed whoever calls it.

    Backward writes each parameter's gradient into its view of one flat
    gradient vector, the vector the clip and Adam read, so a step holds each
    gradient once. Only the loss's value outlives backward: the step's tape
    is freed before the next step builds its own. Files are named by the
    net's ``kind``.
    """
    pin_heap()
    kind = net.kind
    adam = Adam(net.flat.size, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    grad = np.empty_like(net.flat)
    grads = net.views(grad)
    into = {p: grads[name] for name, p in net.params.items()}
    with open(out / f"{kind}_log.csv", "w", newline="") as fh:
        log = csv.writer(fh)
        log.writerow(["step", "loss", "grad_norm", "wall_ms"])
        for step in range(config.steps):
            t0 = time.perf_counter()
            adam.lr = _lr_at(config, step)
            loss = loss_of(next_batch(rng))
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalAbort(f"non-finite {kind} loss at step {step}")
            loss.backward(into)
            del loss  # frees the tape before the next step builds its own
            norm, scale = clip_gradients(grad, grads, config.grad_clip)
            adam.step(net.flat, grad, scale)
            if step % config.log_every == 0 or step == config.steps - 1:
                wall_ms = (time.perf_counter() - t0) * 1e3
                log.writerow([step, f"{value:.10g}", f"{norm:.10g}", f"{wall_ms:.3f}"])
                fh.flush()
            if config.ckpt_every and (step + 1) % config.ckpt_every == 0:
                _save_net_checkpoint(out / f"{kind}_step{step + 1}.ckpt", net, config, step + 1)
    final = out / f"{kind}.ckpt"
    _save_net_checkpoint(final, net, config, config.steps)
    return final


def train_teacher(config: RunConfig, out_dir) -> Path:
    """Rectified-flow teacher training; returns the final checkpoint path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = config.dataset()
    teacher = config.build_teacher()
    pool = _sr_train_pool(config, dataset)
    return _run_steps(
        config, teacher, out,
        lambda rng: make_batch(dataset, config.batch_size, rng, ratio_r=0.0,
                               neg_pair_prob=config.neg_pair_prob, pool=pool),
        lambda batch: rf_loss(teacher, batch))


def load_teacher(path) -> FieldNet:
    """A teacher for inference or distillation."""
    return _load_net(path, "teacher")[0]


def load_student(path) -> FieldNet:
    """A student for inference."""
    return _load_net(path, "student")[0]


def describe_checkpoint(path) -> dict:
    """Kind, step, parameter count and digests of a checkpoint.

    ``step`` is the number of training steps its weights have taken.
    ``params_digest`` covers the weights alone, so it does not move with the
    metadata bytes. Raises CheckpointError for a file that does not load.
    """
    net, meta = _load_net(path)
    return {"kind": net.kind, "step": meta.get("step"), "param_count": net.flat.size,
            "params_digest": params_digest(net.params),
            "config_digest": meta.get("config_digest")}


def distill_student(config: RunConfig, teacher_ckpt, out_dir) -> Path:
    """MeanFlow distillation of a frozen teacher into an average-velocity student.

    Raises CheckpointError when the teacher is not the net ``config`` trains
    (``check_net``): another dataset, ``hidden``, ``time_dim``, ``cond_dim``
    or ``teacher_c_noise``; its seed may differ.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    teacher = load_teacher(teacher_ckpt)
    check_net(teacher, config, teacher_ckpt)
    ds = config.dataset()
    frozen_digest = params_digest(teacher.params)
    student = init_student_from_teacher(teacher)
    pool = _sr_train_pool(config, ds)
    final = _run_steps(
        config, student, out,
        lambda rng: make_batch(ds, config.batch_size, rng, ratio_r=config.loss.ratio_r,
                               pool=pool),
        lambda batch: mfd_loss(student, teacher, batch, config.cfg, config.loss))
    if params_digest(teacher.params) != frozen_digest:
        raise RuntimeError("teacher parameters changed during distillation")
    return final
