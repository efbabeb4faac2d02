"""Desk-scale datasets: an analytic Gaussian and a miniature super-resolution task.

HR images are procedural grayscale patterns whose class label stands in for
a text prompt; LR counterparts come from a small blur/downsample/noise
pipeline. Training tensors live in [-1, 1] (images are mapped from [0, 1]);
the reserved negative label is given meaning during teacher training by
occasionally pairing it with extra-degraded targets.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Pairs per chunk of an SR pool build: the chunk's blur temporaries stay in cache.
POOL_CHUNK = 64


@dataclass
class DegradeParams:
    blur_sigma: float = 1.0
    scale: int = 4
    noise_sigma: float = 0.02
    quant_levels: int = 0  # 0 or 1 = off

    def __post_init__(self):
        if self.blur_sigma < 0 or self.noise_sigma < 0 or self.quant_levels < 0:
            raise ValueError("degradation parameters must be non-negative")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")


@dataclass
class SrPair:
    hr: np.ndarray
    lr: np.ndarray
    label: int
    seed: int


@dataclass
class FlowBatch:
    """One training bundle: noise, data, LR condition, labels, timestep pair."""
    z0: np.ndarray      # (B, D) noise endpoint
    z1: np.ndarray      # (B, D) data endpoint
    z_lr: np.ndarray    # (B, D_lr) flattened LR features (width 0 when unused)
    labels: np.ndarray  # (B,) condition ids
    t: np.ndarray       # (B, 1) start times
    s: np.ndarray       # (B, 1) end times


# Largest dot count of a class-2 pattern, and the width of a row of pattern draws.
MAX_DOTS = 4
_DRAW_WIDTH = 3 + 4 * MAX_DOTS


def _pattern_draws(class_id: int, rng: np.random.Generator) -> list[float]:
    """The scalars of one pattern, drawn from ``rng`` in a fixed order.

    0: freq, theta, phase; 1: fx, fy, px, py; 2: cx, cy, the dot count, then
    dx, dy, 2 sig^2 and amp per dot.
    """
    if class_id == 0:
        return [rng.uniform(1.0, 3.0), rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)]
    if class_id == 1:
        fx = rng.integers(1, 4)
        fy = rng.integers(1, 4)
        return [fx, fy, *rng.uniform(0.0, 2.0 * np.pi, 2)]
    if class_id == 2:
        draws = [*rng.uniform(0.3, 0.7, 2), int(rng.integers(2, MAX_DOTS + 1))]
        for _ in range(draws[2]):
            dx, dy = rng.uniform(0.1, 0.9, 2)
            sig = rng.uniform(0.06, 0.12)
            draws += [dx, dy, 2.0 * sig ** 2, rng.uniform(-0.35, 0.35)]
        return draws
    raise ValueError(f"pattern classes are content labels 0..2, got {class_id} "
                     "(null/negative label conditioning, not content)")


def _render(class_id: int, draws: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (m, height, width) patterns of one class from their (m, _DRAW_WIDTH) draws.

    Each pixel gets the same operations as a single pattern would, so a
    pattern's bits do not depend on the others in the stack. Terms that vary
    along one axis only are computed on that axis and broadcast.
    """
    y = (np.arange(height) / height)[:, None]
    x = np.arange(width) / width

    def col(j: int) -> np.ndarray:
        return draws[:, j, None, None]

    if class_id == 0:
        freq, theta, phase = col(0), col(1), col(2)
        wave = np.sin(2.0 * np.pi * freq * (np.cos(theta) * x + np.sin(theta) * y) + phase)
        return 0.5 + 0.45 * wave
    if class_id == 1:
        fx, fy, px, py = col(0), col(1), col(2), col(3)
        return 0.5 + 0.45 * np.sin(2.0 * np.pi * fx * x + px) * np.sin(2.0 * np.pi * fy * y + py)
    cx, cy = col(0), col(1)
    r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    img = 1.0 - np.clip(r / 0.8, 0.0, 1.0)
    dots = draws[:, 2]
    fewest = dots.min()
    for k in range(int(dots.max())):
        # the patterns with a k-th dot; a view when that is all of them, as
        # for the one pattern of gen_pattern
        rows = slice(None) if k < fewest else np.flatnonzero(dots > k)
        dx, dy, two_var, amp = (draws[rows, 3 + 4 * k + j, None, None] for j in range(4))
        img[rows] += amp * np.exp(-((x - dx) ** 2 + (y - dy) ** 2) / two_var)
    return np.clip(img, 0.0, 1.0)


def gen_pattern(class_id: int, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Procedural grayscale HR pattern in [0, 1] for a content class.

    0 = oriented stripes, 1 = checker texture, 2 = radial gradient with dots;
    frequency and phase are randomized by ``rng``. The one-pattern case of
    ``build_sr_pool``'s batched render.
    """
    draws = np.zeros((1, _DRAW_WIDTH))
    row = _pattern_draws(class_id, rng)
    draws[0, :len(row)] = row
    return _render(class_id, draws, height, width)[0]


@lru_cache(maxsize=16)
def _blur_plan(sigma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Taps w_0..w_r, and the indices that pad an axis of length n by mirroring.

    The taps follow scipy's ``_gaussian_kernel1d`` op for op. Both results are
    read-only, since every caller with the same key shares them.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    taps = (phi / phi.sum())[radius:]
    # "reflect" edges: d c b a | a b c d | d c b a, repeated with period 2n
    k = np.arange(-radius, n + radius) % (2 * n)
    pad = np.where(k < n, k, 2 * n - 1 - k)
    for a in (taps, pad):
        a.setflags(write=False)
    return taps, pad


def _correlate(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of ``x`` along axis 0, mirrored past its ends.

    out[i] = x[i] w_0 + sum_j (x[i - j] + x[i + j]) w_j, the pairs added from
    the farthest inwards: the order of scipy's C ``correlate1d`` for a
    symmetric kernel, so every sum rounds the same way.
    """
    n = x.shape[0]
    taps, pad = _blur_plan(float(sigma), n)
    r = len(taps) - 1
    padded = x[pad]
    out = padded[r:r + n] * taps[0]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= taps[j]
        out += pair
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """2-D Gaussian blur with mirrored edges of an image or a stack of images
    (the last two axes), bit for bit equal to
    ``scipy.ndimage.gaussian_filter(img, sigma, mode="reflect")`` per image.

    The kernel is truncated at 4 sigma. The m images are laid out
    pixel-major, (rows, columns, m), so each pass blurs m images at a time:
    one along the rows, then one along the columns of its transpose.
    """
    img = np.asarray(img, dtype=np.float64)
    if sigma <= 1e-15:  # scipy skips such an axis
        return img.copy()
    *stack, h, w = img.shape
    pixels = img.reshape(-1, h, w).transpose(1, 2, 0)  # (h, w, m)
    across = _correlate(_correlate(pixels, sigma).transpose(1, 0, 2), sigma)  # (w, h, m)
    return np.ascontiguousarray(across.transpose(2, 1, 0)).reshape(*stack, h, w)


def _degrade_stack(hr: np.ndarray, params: DegradeParams,
                   noise: np.ndarray | None) -> np.ndarray:
    """``degrade`` of an (m, h, w) stack, with each image's noise given."""
    m, h, w = hr.shape
    k = params.scale
    x = gaussian_blur(hr, params.blur_sigma)
    x = x.reshape(m, h // k, k, w // k, k).mean(axis=(2, 4))
    if params.quant_levels >= 2:
        levels = params.quant_levels - 1
        x = np.round(x * levels) / levels
    if noise is not None:
        x = x + noise
    return np.clip(x, 0.0, 1.0)


def degrade(hr: np.ndarray, params: DegradeParams, rng: np.random.Generator) -> np.ndarray:
    """Blur -> block-mean downsample -> optional quantize -> noise, clamped.

    The one-image case of ``build_sr_pool``'s batched degradation.
    """
    hr = np.asarray(hr, dtype=np.float64)
    h, w = hr.shape
    k = params.scale
    if h % k != 0 or w % k != 0:
        raise ValueError(f"scale {k} does not divide image dims {hr.shape}")
    noise = (rng.normal(0.0, params.noise_sigma, (1, h // k, w // k))
             if params.noise_sigma > 0 else None)
    return _degrade_stack(hr[None], params, noise)[0]


def extra_degrade(hr: np.ndarray) -> np.ndarray:
    """Mildly blurred, contrast-flattened HR of an image or a stack of images
    (the last two axes); the negative label's target.

    Each image is flattened towards its own mean, so a stacked result equals
    each image's. Deliberately gentle: guidance extrapolates along
    (v_cond - v_negative) scaled by w, so the negative direction must stay
    small for large w to sharpen rather than overshoot.
    """
    x = gaussian_blur(hr, 0.4)
    return np.clip(0.97 * x + 0.03 * x.mean(axis=(-2, -1), keepdims=True), 0.0, 1.0)


def to_signal(img: np.ndarray) -> np.ndarray:
    """[0, 1] image to [-1, 1] flow-space values."""
    return 2.0 * img - 1.0


def from_signal(z: np.ndarray) -> np.ndarray:
    return np.clip((z + 1.0) / 2.0, 0.0, 1.0)


# -- dataset configs ---------------------------------------------------------

@dataclass
class GaussianDataset:
    """Analytic Gaussian target N(mu, sigma^2 I); pairs with the exact oracle."""
    dim: int = 2
    mu: np.ndarray = field(default_factory=lambda: np.array([1.0, -0.5]))
    sigma: float = 1.0
    lr_dim: int = 0
    num_content: int = 1

    @property
    def z_dim(self) -> int:
        return self.dim


@dataclass
class ToySrDataset:
    hr_size: int = 32
    num_content: int = 3
    params: DegradeParams = field(default_factory=DegradeParams)

    def __post_init__(self):
        if self.hr_size < 1:
            raise ValueError("hr_size must be positive")
        if self.hr_size % self.params.scale:
            raise ValueError(f"scale {self.params.scale} does not divide hr_size {self.hr_size}")

    @property
    def lr_size(self) -> int:
        return self.hr_size // self.params.scale

    @property
    def z_dim(self) -> int:
        return self.hr_size * self.hr_size

    @property
    def lr_dim(self) -> int:
        return self.lr_size * self.lr_size

    @property
    def negative_id(self) -> int:
        return self.num_content + 1


def build_sr_pool(dataset: ToySrDataset, n: int, base_seed: int) -> list[SrPair]:
    """Deterministic pool of SR pairs; per-pair seed = base ^ (index + 1).

    Pair i is ``gen_pattern`` then ``degrade`` with one generator seeded by its
    seed. One loop draws every pair's pattern scalars and then its noise from
    that generator; rendering, blur, block mean, noise and clipping then run
    on chunks of POOL_CHUNK pairs, with the same bits as one pair at a time.
    Each pair's ``hr`` and ``lr`` are read-only views into two shared stacks.
    """
    rng = np.random.default_rng(base_seed)
    classes = rng.integers(0, dataset.num_content, n)
    size, lr_size, params = dataset.hr_size, dataset.lr_size, dataset.params
    seeds = [base_seed ^ (i + 1) for i in range(n)]
    draws = np.zeros((n, _DRAW_WIDTH))
    noise = np.empty((n, lr_size, lr_size)) if params.noise_sigma > 0 else None
    for i, (c, seed) in enumerate(zip(classes, seeds)):
        pair_rng = np.random.default_rng(seed)
        row = _pattern_draws(int(c), pair_rng)
        draws[i, :len(row)] = row
        if noise is not None:
            noise[i] = pair_rng.normal(0.0, params.noise_sigma, (lr_size, lr_size))
    hr = np.empty((n, size, size))
    lr = np.empty((n, lr_size, lr_size))
    for a in range(0, n, POOL_CHUNK):
        b = min(a + POOL_CHUNK, n)
        for c in np.unique(classes[a:b]):
            rows = a + np.flatnonzero(classes[a:b] == c)
            hr[rows] = _render(int(c), draws[rows], size, size)
        lr[a:b] = _degrade_stack(hr[a:b], params, None if noise is None else noise[a:b])
    hr.setflags(write=False)
    lr.setflags(write=False)
    return [SrPair(hr=hr[i], lr=lr[i], label=int(c), seed=seed)
            for i, (c, seed) in enumerate(zip(classes, seeds))]


def sample_timestep_batch(rng: np.random.Generator, n: int, ratio_r: float):
    """n pairs as (n, 1) columns: t ~ U[0,1]; with probability ratio_r s ~ U[t,1], else s = t."""
    t = rng.random((n, 1))
    gate = rng.random((n, 1))
    q = rng.random((n, 1))
    s = np.where(gate < ratio_r, t + q * (1.0 - t), t)
    return t, s


def make_batch(dataset, batch_size: int, rng: np.random.Generator,
               ratio_r: float = 0.5, neg_pair_prob: float = 0.0,
               pool: list[SrPair] | None = None) -> FlowBatch:
    """Bundle (noise, data, LR, labels, timestep pair) for one training step."""
    if isinstance(dataset, GaussianDataset):
        z1 = dataset.mu + dataset.sigma * rng.standard_normal((batch_size, dataset.dim))
        z_lr = np.zeros((batch_size, 0))
        labels = np.zeros(batch_size, dtype=np.int64)
    else:
        hrs, lrs, labels, negative = [], [], [], []
        for _ in range(batch_size):
            if pool is not None:
                pair = pool[int(rng.integers(0, len(pool)))]
                hr, lr, label = pair.hr, pair.lr, pair.label
            else:
                label = int(rng.integers(0, dataset.num_content))
                hr = gen_pattern(label, dataset.hr_size, dataset.hr_size, rng)
                lr = degrade(hr, dataset.params, rng)
            negative.append(neg_pair_prob > 0 and rng.random() < neg_pair_prob)
            hrs.append(hr)
            lrs.append(lr)
            labels.append(label)
        hr = np.stack(hrs)
        labels = np.asarray(labels, dtype=np.int64)
        rows = np.flatnonzero(negative)
        if rows.size:  # the negative pairs' targets, degraded in one call
            hr[rows] = extra_degrade(hr[rows])
            labels[rows] = dataset.negative_id
        z1 = to_signal(hr).reshape(batch_size, -1)
        z_lr = to_signal(np.stack(lrs)).reshape(batch_size, -1)
    z0 = rng.standard_normal(z1.shape)
    t, s = sample_timestep_batch(rng, batch_size, ratio_r)
    return FlowBatch(z0=z0, z1=z1, z_lr=z_lr, labels=labels, t=t, s=s)


# -- simple I/O ----------------------------------------------------------------

def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from a [0, 1] grayscale image."""
    img = np.asarray(img, dtype=np.float64)
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


# one header field, after any whitespace and "#" comments (each runs to the end of its line)
_PGM_FIELD = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def read_pgm(path) -> np.ndarray:
    """A [0, 1] image from a binary PGM of one byte per pixel, as ``write_pgm`` writes.

    The header's magic, width, height and maxval are whitespace-separated
    fields, with ``#`` comments allowed between them; exactly one whitespace
    byte follows maxval. Raises ValueError, naming the file, for another
    format, a missing or non-integer field, a maxval outside 1..255 (two
    bytes per pixel), a pixel block that is not w * h bytes or a pixel
    above maxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    m = _PGM_FIELD.match(data)
    if m is None or m.group(1) != b"P5":
        raise ValueError(f"not a binary PGM file: {path}")
    values = []
    for name in ("width", "height", "maxval"):
        m = _PGM_FIELD.match(data, m.end())
        if m is None or not m.group(1).isdigit():
            raise ValueError(f"PGM {name} is missing or not an integer: {path}")
        values.append(int(m.group(1)))
    w, h, maxval = values
    if not data[m.end():m.end() + 1].isspace():
        raise ValueError(f"PGM maxval is not followed by a whitespace byte: {path}")
    pixels = data[m.end() + 1:]
    if not 1 <= maxval <= 255:
        raise ValueError(f"PGM maxval {maxval} is not in 1..255: {path}")
    if len(pixels) != w * h:
        raise ValueError(f"PGM pixel block has {len(pixels)} bytes, expected {w} * {h}: {path}")
    gray = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    if np.any(gray > maxval):
        raise ValueError(f"PGM has a pixel above maxval {maxval}: {path}")
    return gray.astype(np.float64) / maxval


def write_manifest(path, pairs: list[SrPair], params: DegradeParams) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "seed", "class", "blur_sigma", "scale", "noise_sigma", "quant_levels"])
        for i, p in enumerate(pairs):
            writer.writerow([i, p.seed, p.label, params.blur_sigma, params.scale,
                             params.noise_sigma, params.quant_levels])
