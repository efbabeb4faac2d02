import tracemalloc

import numpy as np
import pytest

import mflow.tensor
from mflow.data import (DegradeParams, GaussianDataset, ToySrDataset, build_sr_pool,
                        from_signal, to_signal)
from mflow.nets import FieldNet, student_forward
from mflow.oracle import AnalyticFlow, exact_avg_velocity, exact_velocity, flow_map
from mflow.sampling import (ROWS, block_upsample, hf_band_energy, moment_distance, psnr,
                            sample_student, sr_infer, sr_restore, steps_sweep, write_sweep_csv)


@pytest.fixture(scope="module")
def flow():
    return AnalyticFlow(dim=2, mu=np.array([1.0, -0.5]), sigma=0.8)


def oracle_student(flow):
    return lambda z, t, s, z_lr, c: exact_avg_velocity(flow, z, t, s, steps=512)


def oracle_teacher(flow):
    """The exact velocity as a sampler field: u(z, t, s) = v(z, t), an Euler step."""
    return lambda z, t, s, z_lr, c: exact_velocity(flow, z, t)


class TestSampleStudent:
    def test_one_step_equals_flow_map(self, flow):
        z0 = np.random.default_rng(0).standard_normal((8, 2))
        out = sample_student(oracle_student(flow), z0, None, 0, 1)
        np.testing.assert_allclose(out, flow_map(flow, z0, 0.0, 1.0, steps=512), rtol=1e-10)

    def test_oracle_endpoints_are_step_count_invariant(self, flow):
        # With the exact average velocity the update telescopes exactly.
        z0 = np.random.default_rng(1).standard_normal((16, 2))
        ref = sample_student(oracle_student(flow), z0, None, 0, 1)
        for n in (2, 4, 8):
            out = sample_student(oracle_student(flow), z0, None, 0, n)
            assert np.max(np.abs(out - ref)) < 1e-6

    def test_step_count_validation(self, flow):
        with pytest.raises(ValueError):
            sample_student(oracle_student(flow), np.zeros((2, 2)), None, 0, 0)


    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_a_net_student_builds_no_tensor(self, monkeypatch, n_steps):
        student = FieldNet("student", z_dim=2, lr_dim=0, num_content=1, cond_dim=4, time_dim=8,
                           hidden=(8,), seed=5)
        z0, z_lr = np.random.default_rng(5).standard_normal((4, 2)), np.zeros((4, 0))
        calls, node = [], mflow.tensor._node

        def spy(*args):
            calls.append(args[0].shape)
            return node(*args)

        monkeypatch.setattr(mflow.tensor, "_node", spy)
        student_forward(student, z0, 0.0, 1.0, z_lr, 0)
        assert calls  # a taped forward builds one node per op
        calls.clear()
        sample_student(student, z0, z_lr, 0, n_steps)
        assert calls == []


class TestSampleTeacher:
    def test_euler_converges_to_target_moments(self, flow):
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((4096, 2))
        out = sample_student(oracle_teacher(flow), z0, None, 0, 256)
        mean_err, cov_err = moment_distance(out, flow)
        assert mean_err < 0.1 and cov_err < 0.1 * flow.sigma ** 2


class TestMetrics:
    def test_psnr_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)  # mse = 0.01 -> 20 dB
        assert psnr(a, b) == pytest.approx(20.0)
        assert psnr(a, a) == np.inf
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_moment_distance_exact_sample(self, flow):
        rng = np.random.default_rng(4)
        exact = flow.mu + flow.sigma * rng.standard_normal((60000, 2))
        mean_err, cov_err = moment_distance(exact, flow)
        assert mean_err < 0.02 and cov_err < 0.02

    def test_hf_band_energy_orders_textures(self):
        n = 32
        yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        smooth = 0.5 + 0.4 * np.sin(2 * np.pi * xx / n)
        sharp = 0.5 + 0.4 * np.sin(2 * np.pi * 12 * xx / n)
        assert hf_band_energy(sharp) > 10 * hf_band_energy(smooth)
        assert hf_band_energy(np.full((n, n), 0.3)) == 0.0

    def test_block_upsample(self):
        lr = np.array([[0.0, 1.0]])
        up = block_upsample(lr, 2)
        np.testing.assert_array_equal(up, [[0, 0, 1, 1], [0, 0, 1, 1]])


class TestSweep:
    def test_gaussian_sweep_rows_and_csv(self, flow, tmp_path):
        ds = GaussianDataset(dim=2, mu=flow.mu, sigma=flow.sigma)
        path = tmp_path / "sweep.csv"
        rows = steps_sweep(oracle_student(flow), ds, [1, 2], seed=3, n_samples=256)
        write_sweep_csv(path, rows)
        assert [r["N"] for r in rows] == [1, 1, 2, 2]
        assert {r["metric_name"] for r in rows} == {"mean_err", "cov_err"}
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,metric_name,value,n_samples,seed"
        assert len(lines) == 5

    def test_sr_sweep_needs_pool(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        with pytest.raises(ValueError):
            steps_sweep(lambda *a: None, ds, [1], seed=0, n_samples=4)

    def test_sweep_csv_handles_inf(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv(path, [{"N": 1, "metric_name": "psnr_mean",
                                "value": float("inf"), "n_samples": 1, "seed": 0}])
        assert "inf" in path.read_text()

    def test_sr_infer_shapes(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        pair = build_sr_pool(ds, 1, 3)[0]
        stu = lambda z, t, s, z_lr, c: np.zeros_like(z)
        out = sr_infer(stu, pair, ds, 1, np.random.default_rng(0))
        assert out.shape == (16, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0


def seeded_sr_student(ds, seed=5):
    """A small SR student whose every weight is random."""
    net = FieldNet("student", ds.z_dim, ds.lr_dim, ds.num_content, cond_dim=8, time_dim=8,
                   hidden=(32, 32), seed=seed)
    net.flat[:] = np.random.default_rng(seed).normal(0.0, 0.2, net.flat.size)
    return net


class TestBatchedRestore:
    """sr_restore restores a stack of pairs with one noise draw and one sampler call."""

    ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))

    def test_sr_infer_keeps_its_bits(self):
        student, pool = seeded_sr_student(self.ds), build_sr_pool(self.ds, 6, 21)
        for n in (1, 3):
            rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
            for pair in pool:
                # the one-pair restore as it was written before the batched one
                z0 = ref_rng.standard_normal((1, self.ds.z_dim))
                z_lr = to_signal(pair.lr).ravel()[None, :]
                z = sample_student(student, z0, z_lr, pair.label, n)
                ref = from_signal(z.reshape(self.ds.hr_size, self.ds.hr_size))
                assert sr_infer(student, pair, self.ds, n, rng).tobytes() == ref.tobytes()

    def test_batch_matches_a_loop_over_sr_infer(self):
        student, pool = seeded_sr_student(self.ds), build_sr_pool(self.ds, 9, 22)
        lr, labels = np.stack([p.lr for p in pool]), [p.label for p in pool]
        for n in (1, 2, 4):
            rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
            out = sr_restore(student, lr, labels, self.ds, n, rng)
            loop = np.stack([sr_infer(student, p, self.ds, n, loop_rng) for p in pool])
            assert out.shape == (9, 16, 16)
            np.testing.assert_allclose(out, loop, rtol=0, atol=1e-12)
            assert rng.random() == loop_rng.random()  # the same noise stream consumed

    def test_sweep_matches_a_loop_over_sr_infer(self, tmp_path):
        student, pool = seeded_sr_student(self.ds), build_sr_pool(self.ds, 12, 23)
        rows = steps_sweep(student, self.ds, [1, 2, 4], seed=4, n_samples=10, pool=pool)
        ref = []
        for n in (1, 2, 4):
            rng = np.random.default_rng(4)
            vals = [psnr(sr_infer(student, p, self.ds, n, rng), p.hr) for p in pool[:10]]
            ref.append({"N": n, "metric_name": "psnr_mean", "value": float(np.mean(vals)),
                        "n_samples": 10, "seed": 4})
        write_sweep_csv(tmp_path / "batched.csv", rows)
        write_sweep_csv(tmp_path / "loop.csv", ref)
        assert (tmp_path / "batched.csv").read_text() == (tmp_path / "loop.csv").read_text()


class TestRowChunks:
    """A FieldNet student runs in forwards of at most ROWS rows."""

    def test_chunks_match_one_taped_forward(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        student, n = seeded_sr_student(ds), 2 * ROWS + 7
        rng = np.random.default_rng(9)
        z0, z_lr = rng.standard_normal((n, ds.z_dim)), rng.standard_normal((n, ds.lr_dim))
        labels = rng.integers(0, ds.num_content + 2, n)
        for n_steps in (1, 2):
            z, taus = z0, np.linspace(0.0, 1.0, n_steps + 1)
            for t, s in zip(taus[:-1], taus[1:]):
                z = z + (s - t) * student_forward(student, z, t, s, z_lr, labels).data
            out = sample_student(student, z0, z_lr, labels, n_steps)
            np.testing.assert_allclose(out, z, rtol=0, atol=1e-12)

    def test_a_net_without_lr_features_takes_no_z_lr(self):
        student = FieldNet("student", z_dim=2, lr_dim=0, num_content=1, cond_dim=4,
                           time_dim=8, hidden=(8,), seed=4)
        n = ROWS + 3
        z0 = np.random.default_rng(4).standard_normal((n, 2))
        np.testing.assert_array_equal(sample_student(student, z0, None, 0, 2),
                                      sample_student(student, z0, np.zeros((n, 0)), 0, 2))

    def test_large_batches_need_no_more_memory_than_rows_chunks(self):
        student = FieldNet("student", z_dim=2, lr_dim=0, num_content=1, cond_dim=16,
                           time_dim=32, hidden=(128, 128), seed=4)
        n = 16 * ROWS
        z0, z_lr = np.random.default_rng(4).standard_normal((n, 2)), np.zeros((n, 0))
        tracemalloc.start()
        try:
            sample_student(student, z0, z_lr, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-batch forward holds several (n, 128) float64 activations: ~8 MB each
        assert peak < 4e6
