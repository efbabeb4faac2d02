"""The few-step sampler, plus desk-scale evaluation metrics."""

from __future__ import annotations

import csv

import numpy as np

from .data import GaussianDataset, Gen2dDataset, SrPair, ToySrDataset, from_signal, gen_2d, to_signal
from .nets import FieldNet, student_forward
from .oracle import AnalyticFlow
from .tensor import no_tape


def _eval_student(student, z, t: float, s: float, z_lr, c) -> np.ndarray:
    if isinstance(student, FieldNet):
        return student_forward(student, z, t, s, z_lr, c).data
    return np.asarray(student(z, t, s, z_lr, c), dtype=np.float64)


def sample_student(student, z0: np.ndarray, z_lr, c, n_steps: int) -> np.ndarray:
    """N applications of z <- z + (tau_{n+1} - tau_n) u(z, tau_n, tau_{n+1})
    over the uniform time points 0 = tau_1 < ... < tau_{N+1} = 1.

    ``student`` is a FieldNet or a callable u(z, t, s, z_lr, c). A teacher's
    Euler sampler is the same rule with u(z, t, s) = v(z, t). Only values are
    read, so the steps run inside ``no_tape()``: a FieldNet forward runs on
    plain arrays and gives the same bits as a taped one. This covers
    ``sr_restore`` and ``steps_sweep``. ``z0`` is never written: the first
    step binds ``z`` to a new array.
    """
    if n_steps < 1:
        raise ValueError("need at least one sampling step")
    taus = np.linspace(0.0, 1.0, n_steps + 1)
    z = np.asarray(z0, dtype=np.float64)
    with no_tape():
        for t, s in zip(taus[:-1], taus[1:]):
            z = z + (s - t) * _eval_student(student, z, float(t), float(s), z_lr, c)
    return z


# -- metrics ------------------------------------------------------------------

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 log10(1/MSE) for [0,1] images; identical inputs give +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def moment_distance(samples: np.ndarray, flow: AnalyticFlow) -> tuple[float, float]:
    """(‖mean - mu‖, ‖cov - sigma^2 I‖_F) of an empirical sample set."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two samples of shape (n, dim)")
    mean_err = float(np.linalg.norm(samples.mean(axis=0) - flow.mu))
    cov = np.cov(samples, rowvar=False).reshape(flow.dim, flow.dim)
    cov_err = float(np.linalg.norm(cov - flow.sigma ** 2 * np.eye(flow.dim)))
    return mean_err, cov_err


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance between two point clouds (2 E‖X-Y‖ - E‖X-X'‖ - E‖Y-Y'‖)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def mean_dist(a, b):
        d = np.sqrt(np.maximum(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1), 0.0))
        return float(d.mean())

    return 2.0 * mean_dist(x, y) - mean_dist(x, x) - mean_dist(y, y)


def hf_band_energy(img: np.ndarray, cutoff_frac: float = 0.25) -> float:
    """Mean spectral power above a radial frequency cutoff (fraction of Nyquist)."""
    img = np.asarray(img, dtype=np.float64)
    f = np.fft.fft2(img - img.mean())
    power = np.abs(f) ** 2 / img.size
    fy = np.fft.fftfreq(img.shape[0])
    fx = np.fft.fftfreq(img.shape[1])
    rr = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    mask = rr > cutoff_frac * 0.5
    return float(power[mask].mean())


def block_upsample(lr: np.ndarray, scale: int) -> np.ndarray:
    """Nearest/block upsample; the no-learning SR baseline."""
    return np.repeat(np.repeat(lr, scale, axis=0), scale, axis=1)


def sr_restore(student, lr: np.ndarray, labels, dataset: ToySrDataset, n_steps: int,
               rng: np.random.Generator) -> np.ndarray:
    """Restore a stack of LR images, (m, lr_size, lr_size) -> (m, hr_size, hr_size).

    One (m, z_dim) noise draw, the same stream as m draws of one row each,
    and one sampler call conditioned on the LR images and ``labels`` (an id
    or m ids).
    """
    m = len(lr)
    z0 = rng.standard_normal((m, dataset.z_dim))
    z_lr = to_signal(lr).reshape(m, -1)
    z = sample_student(student, z0, z_lr, labels, n_steps)
    return from_signal(z.reshape(m, dataset.hr_size, dataset.hr_size))


def sr_infer(student, pair: SrPair, dataset: ToySrDataset, n_steps: int,
             rng: np.random.Generator) -> np.ndarray:
    """One SR restoration: sample from noise conditioned on the LR image."""
    return sr_restore(student, pair.lr[None], pair.label, dataset, n_steps, rng)[0]


# -- sweep report ----------------------------------------------------------------

def steps_sweep(student, dataset, n_list, seed: int, n_samples: int,
                pool: list[SrPair] | None = None) -> list[dict]:
    """Evaluate the student at several step counts; one CSV row per metric.

    Metric depends on the dataset: moment errors for the Gaussian task,
    energy distance for 2-D point clouds, PSNR over an SR pool. Values are
    reported, never ranked. Each step count draws its noise once and makes
    one sampler call; for SR, ``sr_restore`` restores all held-out pairs
    together.
    """
    rows = []
    for n in n_list:
        rng = np.random.default_rng(seed)
        count = n_samples
        if isinstance(dataset, (GaussianDataset, Gen2dDataset)):
            z0 = rng.standard_normal((n_samples, dataset.z_dim))
            out = sample_student(student, z0, np.zeros((n_samples, 0)), 0, n)
            if isinstance(dataset, GaussianDataset):
                flow = AnalyticFlow(dim=dataset.dim, mu=dataset.mu, sigma=dataset.sigma)
                metrics = dict(zip(("mean_err", "cov_err"), moment_distance(out, flow)))
            else:
                ref = gen_2d(dataset.name, n_samples, rng)
                metrics = {"energy_distance": energy_distance(out, ref)}
        else:
            if pool is None:
                raise ValueError("SR sweeps need a held-out pair pool")
            pairs = pool[:n_samples]
            out = sr_restore(student, np.stack([p.lr for p in pairs]),
                             [p.label for p in pairs], dataset, n, rng)
            vals = [psnr(img, p.hr) for img, p in zip(out, pairs)]
            metrics, count = {"psnr_mean": float(np.mean(vals))}, len(pairs)
        rows += [{"N": n, "metric_name": name, "value": value, "n_samples": count, "seed": seed}
                 for name, value in metrics.items()]
    return rows


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "metric_name", "value", "n_samples", "seed"])
        for r in rows:
            value = r["value"]
            text = "inf" if np.isinf(value) else f"{value:.10g}"
            writer.writerow([r["N"], r["metric_name"], text, r["n_samples"], r["seed"]])
