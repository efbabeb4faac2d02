"""End-to-end acceptance gates.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output). The heavier tests train small models from scratch and
share artifacts through session-scoped fixtures; the whole module is designed
for a single desktop core.
"""

import time

import numpy as np
import pytest

from mflow.data import (DegradeParams, GaussianDataset, ToySrDataset, build_sr_pool,
                        make_batch)
from mflow.flow import CfgConfig, LossConfig, cfg_velocity, mfd_loss, mfd_target
from mflow.nets import FieldNet, init_student_from_teacher, student_forward, teacher_forward
from mflow.oracle import (AnalyticFlow, exact_avg_velocity, exact_velocity,
                          identity_residual, identity_residual_grid)
from mflow.sampling import (block_upsample, hf_band_energy, moment_distance, psnr,
                            sample_student, sr_infer, steps_sweep, write_sweep_csv)
from mflow.tensor import Tensor, jvp, silu, sincos
from mflow.training import RunConfig, distill_student, load_student, load_teacher, train_teacher

GAUSS_MU = [1.0, -0.5]
GAUSS_SIGMA = 1.0


def _euler(teacher):
    """The teacher as a sampler field u(z, t, s) = v(z, t), so that
    ``sample_student`` takes Euler steps."""
    return lambda z, t, s, z_lr, c: teacher_forward(teacher, z, t, z_lr, c, tape=False)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    return ok


# -- shared trained artifacts ---------------------------------------------------

@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def gauss_teacher_cfg():
    return RunConfig(task="gaussian", seed=3, steps=5000, batch_size=256,
                     lr=2e-3, lr_final=1e-4, hidden=[128, 128],
                     cfg=CfgConfig(mode="teacher_null", w=0.0),
                     gauss_mu=GAUSS_MU, gauss_sigma=GAUSS_SIGMA)


@pytest.fixture(scope="session")
def gauss_teacher(work_dir, gauss_teacher_cfg):
    t0 = time.perf_counter()
    path = train_teacher(gauss_teacher_cfg, work_dir / "gauss_teacher")
    return path, time.perf_counter() - t0


@pytest.fixture(scope="session")
def gauss_student(work_dir, gauss_teacher):
    cfg = RunConfig(task="gaussian", seed=5, steps=15000, batch_size=256,
                    lr=1e-3, lr_final=1e-5, hidden=[128, 128],
                    cfg=CfgConfig(mode="teacher_null", w=0.0),
                    loss=LossConfig(metric="pseudo_huber", huber_c=0.5,
                                    ratio_r=0.5),
                    gauss_mu=GAUSS_MU, gauss_sigma=GAUSS_SIGMA)
    return distill_student(cfg, gauss_teacher[0], work_dir / "gauss_student")


@pytest.fixture(scope="session")
def analytic():
    return AnalyticFlow(dim=2, mu=np.array(GAUSS_MU), sigma=GAUSS_SIGMA)


@pytest.fixture(scope="session")
def eval_noise():
    return np.random.default_rng(4242).standard_normal((4096, 2))


# -- 1: autodiff against finite differences --------------------------------------

def test_autodiff_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_rev, worst_fwd = 0.0, 0.0
    for _ in range(50):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)]
        ws = [Tensor(rng.normal(0, 0.7, (a, b)), requires_grad=True)
              for a, b in zip(sizes[:-1], sizes[1:])]

        def f(x):
            h = x
            for w in ws[:-1]:
                h = silu(h @ w + 1.0)
            return (sincos(h @ ws[-1]) ** 3.0).sum()

        x = rng.normal(size=(2, sizes[0]))
        # reverse mode vs central differences on every weight entry
        f(Tensor(x)).backward()
        eps = 1e-6
        for w in ws:
            fd = np.zeros(w.shape)
            for idx in np.ndindex(*w.shape):
                orig = w.data[idx]
                w.data[idx] = orig + eps
                up = f(Tensor(x)).item()
                w.data[idx] = orig - eps
                dn = f(Tensor(x)).item()
                w.data[idx] = orig
                fd[idx] = (up - dn) / (2 * eps)
            denom = np.maximum(np.abs(fd), 1e-3)
            worst_rev = max(worst_rev, float(np.max(np.abs(w.grad - fd) / denom)))
        # forward mode (JVP) vs a central directional difference
        v = rng.normal(size=x.shape)
        _, tan = jvp(f, (x,), (v,))
        h = 1e-6
        fd_dir = (f(Tensor(x + h * v)).item() - f(Tensor(x - h * v)).item()) / (2 * h)
        worst_fwd = max(worst_fwd, abs(float(tan) - fd_dir) / max(abs(fd_dir), 1e-3))
    elapsed = time.perf_counter() - t0
    ok = worst_rev < 1e-4 and worst_fwd < 1e-4 and elapsed < 10.0
    assert _report("autodiff vs finite differences",
                   ok, f"rev {worst_rev:.2e}, fwd {worst_fwd:.2e}, {elapsed:.1f}s")


# -- 2: average-velocity identity against the analytic oracle ---------------------

def test_identity_residual_grid_and_order(analytic):
    t0 = time.perf_counter()
    probes = np.random.default_rng(1).normal(0.0, 1.5, size=(8, 2))
    rows = identity_residual_grid(analytic, np.linspace(0.0, 0.8, 5),
                                  np.linspace(0.2, 1.0, 5), probes, steps=1024)
    live = [r for r in rows if not r["skipped"]]
    worst = max(r["max_resid"] for r in live)
    hs = np.array([1e-2, 1e-3, 1e-4])
    resid = np.array([identity_residual(analytic, probes[:2], 0.2, 0.9,
                                        steps=1024, h=float(h)).max() for h in hs])
    slope = float(np.polyfit(np.log10(hs), np.log10(resid), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and slope >= 1.8 and elapsed < 30.0
    assert _report("average-velocity identity residual",
                   ok, f"max {worst:.2e}, slope {slope:.2f}, {elapsed:.1f}s")


# -- 3: loss degeneracies ----------------------------------------------------------

def test_loss_degeneracies():
    teacher = FieldNet("teacher", z_dim=3, lr_dim=0, num_content=2, cond_dim=8,
                       time_dim=8, hidden=(16,), seed=2)
    student = init_student_from_teacher(teacher)
    # give the student genuine s-dependence before checking the degeneracies
    w = student.params["s_emb.W"]
    student.set_parameter("s_emb.W", Tensor(w.data + 0.2, requires_grad=True))
    rng = np.random.default_rng(2)
    n = 8
    z = rng.normal(size=(n, 3))
    v = rng.normal(size=(n, 3))
    t = rng.random(n)
    lr = np.zeros((n, 0))

    _, target = mfd_target(student, v, z, t, t, lr, 0)
    bitwise = np.array_equal(target.data, v)

    batch = make_batch(GaussianDataset(dim=3, mu=np.zeros(3)), n,
                       np.random.default_rng(3), ratio_r=0.5)
    loss = mfd_loss(student, teacher, batch, CfgConfig(mode="teacher_neg", w=6.0),
                    LossConfig())
    for p in teacher.params.values():
        p.grad = None
    loss.backward()
    teacher_grads_zero = all(p.grad is None for p in teacher.params.values())

    z_t = rng.normal(size=(n, 3))
    v_plain = teacher_forward(teacher, z_t, 0.4, lr, 1).data
    w0_exact = all(
        np.array_equal(cfg_velocity(teacher, z_t, 0.4, lr, 1, CfgConfig(mode=m, w=0.0)),
                       v_plain)
        for m in ("teacher_null", "teacher_neg"))

    ok = bitwise and teacher_grads_zero and w0_exact
    assert _report("distillation-loss degeneracies",
                   ok, f"s==t bitwise {bitwise}, teacher grads zero {teacher_grads_zero}, "
                       f"w=0 exact {w0_exact}")


# -- 4: teacher quality on the analytic Gaussian ----------------------------------

def test_teacher_quality(gauss_teacher, analytic, eval_noise):
    path, train_time = gauss_teacher
    teacher = load_teacher(path)
    xs = np.stack(np.meshgrid(np.linspace(-2, 3, 12), np.linspace(-3, 2, 12),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    lr = np.zeros((xs.shape[0], 0))
    sq = []
    for t in (0.05, 0.25, 0.5, 0.75, 0.95):
        pred = teacher_forward(teacher, xs, t, lr, 0).data
        sq.append((pred - exact_velocity(analytic, xs, t)) ** 2)
    vel_mse = float(np.mean(sq))
    samples = sample_student(_euler(teacher), eval_noise, None, 0, 256)
    mean_err, cov_err = moment_distance(samples, analytic)
    ok = (vel_mse < 0.05 and mean_err < 0.1 and cov_err < 0.1 * GAUSS_SIGMA ** 2
          and train_time < 300.0)
    assert _report("gaussian teacher quality",
                   ok, f"vel mse {vel_mse:.2e}, moments ({mean_err:.3f}, {cov_err:.3f}), "
                       f"train {train_time:.0f}s")


# -- 5: distillation quality -------------------------------------------------------

def test_distillation_quality(gauss_teacher, gauss_student, analytic, eval_noise):
    teacher = load_teacher(gauss_teacher[0])
    student = load_student(gauss_student)
    t_moments = moment_distance(sample_student(_euler(teacher), eval_noise, None, 0, 256),
                                analytic)
    one = moment_distance(sample_student(student, eval_noise, None, 0, 1), analytic)
    two = moment_distance(sample_student(student, eval_noise, None, 0, 2), analytic)
    t_total, one_total, two_total = sum(t_moments), sum(one), sum(two)
    within_2x = one_total <= 2.0 * t_total
    two_ok = two_total <= 1.1 * one_total
    ok = within_2x and two_ok
    assert _report("distillation quality",
                   ok, f"teacher {t_total:.3f}, 1-step {one_total:.3f} "
                       f"(bar {2 * t_total:.3f}), 2-step {two_total:.3f} "
                       f"(bar {1.1 * one_total:.3f})")


# -- 6: sampler telescoping with the exact oracle ----------------------------------

def test_sampler_telescoping(analytic):
    oracle = lambda z, t, s, z_lr, c: exact_avg_velocity(analytic, z, t, s, steps=512)
    z0 = np.random.default_rng(6).standard_normal((32, 2))
    ends = {n: sample_student(oracle, z0, None, 0, n) for n in (1, 2, 4, 8)}
    spread = max(float(np.max(np.abs(ends[n] - ends[1]))) for n in (2, 4, 8))
    ok = spread < 1e-6
    assert _report("sampler endpoint telescoping", ok, f"max endpoint spread {spread:.2e}")


# -- 7: toy super-resolution track --------------------------------------------------

def test_toy_sr_track(work_dir):
    t0 = time.perf_counter()
    teacher_cfg = RunConfig(task="toysr", seed=11, steps=6000, batch_size=32,
                            lr=1e-3, lr_final=2e-5, hidden=[256, 256],
                            cfg=CfgConfig(mode="teacher_null", w=0.0),
                            neg_pair_prob=0.25, train_pool=1024)
    t_path = train_teacher(teacher_cfg, work_dir / "sr_teacher")
    ds = teacher_cfg.dataset()
    pool = build_sr_pool(ds, 200, 999)

    results = {}
    for name, arm in (("gt", CfgConfig(mode="gt", w=0.0)),
                      ("neg", CfgConfig(mode="teacher_neg", w=6.0))):
        cfg = RunConfig(task="toysr", seed=13, steps=4500, batch_size=32,
                        lr=1e-3, lr_final=2e-5, hidden=[256, 256], cfg=arm,
                        loss=LossConfig(metric="pseudo_huber", ratio_r=0.5),
                        train_pool=1024)
        s_path = distill_student(cfg, t_path, work_dir / f"sr_student_{name}")
        student = load_student(s_path)
        rng = np.random.default_rng(777)
        ps, hf = [], []
        for pair in pool:
            pred = sr_infer(student, pair, ds, 1, rng)
            ps.append(psnr(pred, pair.hr))
            hf.append(abs(hf_band_energy(pred) - hf_band_energy(pair.hr)))
        results[name] = (float(np.mean(ps)), float(np.mean(hf)))

    baseline = float(np.mean([psnr(block_upsample(p.lr, ds.params.scale), p.hr)
                              for p in pool]))
    elapsed = time.perf_counter() - t0
    beats_baseline = results["gt"][0] >= baseline + 1.0
    neg_close = results["neg"][0] >= results["gt"][0] - 1.0
    neg_sharper = results["neg"][1] < results["gt"][1]
    ok = beats_baseline and neg_close and neg_sharper and elapsed < 1200.0
    assert _report("toy super-resolution track",
                   ok, f"gt {results['gt'][0]:.2f} dB vs baseline {baseline:.2f} dB, "
                       f"neg {results['neg'][0]:.2f} dB, hf err gt {results['gt'][1]:.4f} "
                       f"vs neg {results['neg'][1]:.4f}, {elapsed:.0f}s")


# -- 8: interval-ratio ablation harness ---------------------------------------------

def test_ratio_ablation_harness(work_dir, gauss_teacher):
    rows_by_ratio = {}
    for ratio in (0.0, 0.25, 0.5, 0.75):
        cfg = RunConfig(task="gaussian", seed=21, steps=300, batch_size=64,
                        lr=1e-3, hidden=[128, 128],
                        cfg=CfgConfig(mode="teacher_null", w=0.0),
                        loss=LossConfig(metric="pseudo_huber", ratio_r=ratio),
                        gauss_mu=GAUSS_MU, gauss_sigma=GAUSS_SIGMA)
        out = work_dir / f"ratio_{ratio}"
        student = load_student(distill_student(cfg, gauss_teacher[0], out))
        write_sweep_csv(out / "sweep.csv",
                        steps_sweep(student, cfg.dataset(), [1, 2], seed=31, n_samples=512))
        rows_by_ratio[ratio] = (out / "sweep.csv").read_text().splitlines()
    headers = {lines[0] for lines in rows_by_ratio.values()}
    lengths = {len(lines) for lines in rows_by_ratio.values()}
    ok = headers == {"N,metric_name,value,n_samples,seed"} and lengths == {5}
    for ratio, lines in sorted(rows_by_ratio.items()):
        vals = {parts[1]: parts[2] for parts in
                (line.split(",") for line in lines[1:]) if parts[0] == "1"}
        print(f"  ratio_r={ratio}: 1-step mean_err={vals['mean_err']}, "
              f"cov_err={vals['cov_err']}")
    assert _report("interval-ratio ablation harness",
                   ok, f"4 ratios completed, shared schema {ok}")


# -- 9: bit-exact reproducibility ----------------------------------------------------

def test_bit_exact_reproducibility(work_dir):
    cfg = RunConfig(task="gaussian", seed=51, steps=150, batch_size=32,
                    lr=1e-3, hidden=[32], time_dim=8, cond_dim=4,
                    cfg=CfgConfig(mode="teacher_null", w=0.0),
                    gauss_mu=GAUSS_MU, gauss_sigma=GAUSS_SIGMA)
    artifacts = {}
    for tag in ("a", "b"):
        out = work_dir / f"repro_{tag}"
        t_path = train_teacher(cfg, out / "t")
        s_path = distill_student(cfg, t_path, out / "s")
        student = load_student(s_path)
        write_sweep_csv(out / "sweep.csv",
                        steps_sweep(student, cfg.dataset(), [1, 2, 4], seed=7, n_samples=256))
        grid = identity_residual_grid(AnalyticFlow(dim=2, mu=np.array(GAUSS_MU),
                                                   sigma=GAUSS_SIGMA),
                                      [0.0, 0.4], [0.6, 1.0],
                                      np.random.default_rng(7).normal(size=(4, 2)),
                                      steps=256)
        from mflow.oracle import write_residual_csv
        write_residual_csv(grid, out / "resid.csv")
        artifacts[tag] = (t_path.read_bytes(), s_path.read_bytes(),
                          (out / "sweep.csv").read_bytes(),
                          (out / "resid.csv").read_bytes())
    same = [a == b for a, b in zip(artifacts["a"], artifacts["b"])]
    ok = all(same)
    assert _report("bit-exact reproducibility",
                   ok, f"teacher ckpt {same[0]}, student ckpt {same[1]}, "
                       f"sweep csv {same[2]}, residual csv {same[3]}")
