"""The few-step sampler, plus desk-scale evaluation metrics."""

from __future__ import annotations

import csv

import numpy as np

from .data import GaussianDataset, SrPair, ToySrDataset, from_signal, to_signal
from .nets import FieldNet, student_forward
from .oracle import AnalyticFlow


ROWS = 512  # rows per value-only FieldNet forward: its temporaries do not grow with the batch


def _eval_student(student, z, t: float, s: float, z_lr, c) -> np.ndarray:
    if not isinstance(student, FieldNet):
        return np.asarray(student(z, t, s, z_lr, c), dtype=np.float64)
    n = z.shape[0]
    if n <= ROWS:
        return student_forward(student, z, t, s, z_lr, c, tape=False)
    ids = student.label_ids(c, n)
    out = np.empty((n, student.z_dim))
    for i in range(0, n, ROWS):
        rows = slice(i, i + ROWS)
        lr = z_lr[rows] if student.lr_dim else z_lr  # a net without LR features reads none
        out[rows] = student_forward(student, z[rows], t, s, lr, ids[rows], tape=False)
    return out


def sample_student(student, z0: np.ndarray, z_lr, c, n_steps: int) -> np.ndarray:
    """N applications of z <- z + (tau_{n+1} - tau_n) u(z, tau_n, tau_{n+1})
    over the uniform time points 0 = tau_1 < ... < tau_{N+1} = 1.

    ``student`` is a FieldNet or a callable u(z, t, s, z_lr, c). A teacher's
    Euler sampler is the same rule with u(z, t, s) = v(z, t). Only values are
    read, so a FieldNet forward takes ``tape=False``: it runs on plain arrays
    and gives the same bits as a taped one. This covers ``sr_restore`` and
    ``steps_sweep``. ``z0`` is never written: the first step binds ``z`` to a
    new array.

    A FieldNet runs on at most ``ROWS`` rows at a time, so a large ``z0``
    (eval's 4096 Gaussian samples) needs no more working memory than ROWS
    rows do. Past ROWS rows the results may differ from one whole-batch
    forward in their last bits, as BLAS may sum a product of more rows in
    another order (gauss's 2-wide output layer does); up to ROWS they are
    the same call.
    """
    if n_steps < 1:
        raise ValueError("need at least one sampling step")
    taus = np.linspace(0.0, 1.0, n_steps + 1)
    z = np.asarray(z0, dtype=np.float64)
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

    Metric depends on the dataset: moment errors for the Gaussian task, PSNR
    over an SR pool. Values are reported, never ranked. Each step count
    draws its noise once and makes one sampler call; for SR, ``sr_restore``
    restores all held-out pairs together.
    """
    rows = []
    for n in n_list:
        rng = np.random.default_rng(seed)
        count = n_samples
        if isinstance(dataset, GaussianDataset):
            z0 = rng.standard_normal((n_samples, dataset.z_dim))
            out = sample_student(student, z0, np.zeros((n_samples, 0)), 0, n)
            flow = AnalyticFlow(dim=dataset.dim, mu=dataset.mu, sigma=dataset.sigma)
            metrics = dict(zip(("mean_err", "cov_err"), moment_distance(out, flow)))
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
