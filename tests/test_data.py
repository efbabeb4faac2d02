import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from mflow.data import (POOL_CHUNK, DegradeParams, Gen2dDataset, GaussianDataset,
                        ToySrDataset, build_sr_pool, degrade, extra_degrade,
                        from_signal, gaussian_blur, gen_2d, gen_pattern, make_batch,
                        read_pgm, to_signal, write_manifest, write_pgm)


def checkerboard_loop(n, rng):
    """The per-point loop that gen_2d("checkerboard") replaced; the reference."""
    cells = [(i, j) for i in range(4) for j in range(4) if (i + j) % 2 == 0]
    picks = rng.integers(0, len(cells), n)
    offs = rng.uniform(0.0, 1.0, (n, 2))
    out = np.empty((n, 2))
    for k, p in enumerate(picks):
        i, j = cells[p]
        out[k] = (-2.0 + i + offs[k, 0], -2.0 + j + offs[k, 1])
    return out


def reference_pair(ds, class_id, seed):
    """(hr, lr) of one SR pair: gen_pattern, then degrade, with the pair's own generator."""
    rng = np.random.default_rng(seed)
    hr = gen_pattern(class_id, ds.hr_size, ds.hr_size, rng)
    return hr, degrade(hr, ds.params, rng)


def reference_pool(ds, n, base_seed):
    """build_sr_pool one pair at a time: (classes, seeds, hr stack, lr stack)."""
    classes = np.random.default_rng(base_seed).integers(0, ds.num_content, n)
    seeds = [base_seed ^ (i + 1) for i in range(n)]
    pairs = [reference_pair(ds, int(c), seed) for c, seed in zip(classes, seeds)]
    return classes, seeds, np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def dot_count(seed):
    """The dot count of a class-2 pattern drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    rng.uniform(0.3, 0.7, 2)
    return int(rng.integers(2, 5))


class TestGen2d:
    def test_shapes_and_determinism(self):
        for name in ("ring", "checkerboard", "two_moons"):
            a = gen_2d(name, 16, np.random.default_rng(7))
            b = gen_2d(name, 16, np.random.default_rng(7))
            assert a.shape == (16, 2)
            np.testing.assert_array_equal(a, b)

    def test_ring_radii(self):
        pts = gen_2d("ring", 2000, np.random.default_rng(0))
        r = np.linalg.norm(pts, axis=1)
        assert np.all((r >= 0.95) & (r <= 1.05))

    def test_checkerboard_parity_invariant(self):
        pts = gen_2d("checkerboard", 5000, np.random.default_rng(1))
        ij = np.floor(pts + 2.0).astype(int)  # the grid cell of each point
        assert np.all((ij[:, 0] + ij[:, 1]) % 2 == 0)
        assert np.all((pts >= -2.0) & (pts <= 2.0))

    @pytest.mark.parametrize("n", [1, 7, 256, 4096])
    def test_checkerboard_matches_the_loop(self, n):
        for seed in range(50):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(gen_2d("checkerboard", n, rng),
                                          checkerboard_loop(n, ref_rng))
            assert rng.random() == ref_rng.random()  # same draws consumed

    def test_two_moons_two_clusters(self):
        pts = gen_2d("two_moons", 4000, np.random.default_rng(2))
        # upper moon tops out near y = 1, lower near y = 0.5 - 1
        assert pts[:, 1].max() > 0.8 and pts[:, 1].min() < -0.3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gen_2d("spiral", 4, np.random.default_rng(0))

    def test_golden_two_moons_seed7(self):
        # Frozen from gen_2d("two_moons", 2, np.random.default_rng(7)).
        pts = gen_2d("two_moons", 2, np.random.default_rng(7))
        golden = np.array([[1.739069675607224, -0.19739083481044845],
                           [0.24302410557419665, -0.08293210166409942]])
        np.testing.assert_allclose(pts, golden, rtol=0, atol=1e-15)


class TestPatternsAndDegradation:
    def test_pattern_classes_in_range(self):
        rng = np.random.default_rng(3)
        for cid in range(3):
            img = gen_pattern(cid, 32, 32, rng)
            assert img.shape == (32, 32)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_pattern_rejects_reserved_labels(self):
        with pytest.raises(ValueError):
            gen_pattern(3, 8, 8, np.random.default_rng(0))

    def test_degrade_shape_and_range(self):
        rng = np.random.default_rng(4)
        hr = gen_pattern(0, 32, 32, rng)
        lr = degrade(hr, DegradeParams(scale=4), rng)
        assert lr.shape == (8, 8)
        assert lr.min() >= 0.0 and lr.max() <= 1.0

    def test_degrade_scale_must_divide(self):
        with pytest.raises(ValueError):
            degrade(np.zeros((10, 10)), DegradeParams(scale=4), np.random.default_rng(0))

    def test_noiseless_degrade_of_constant_is_exact(self):
        lr = degrade(np.full((8, 8), 0.5), DegradeParams(blur_sigma=1.0, scale=2,
                                                         noise_sigma=0.0),
                     np.random.default_rng(0))
        np.testing.assert_allclose(lr, 0.5, rtol=1e-12)

    def test_quantization(self):
        lr = degrade(np.random.default_rng(5).random((8, 8)),
                     DegradeParams(blur_sigma=0.0, scale=2, noise_sigma=0.0,
                                   quant_levels=3),
                     np.random.default_rng(0))
        assert set(np.unique(np.round(lr * 2)).tolist()).issubset({0.0, 1.0, 2.0})
        np.testing.assert_allclose(lr * 2, np.round(lr * 2), atol=1e-12)

    def test_extra_degrade_flattens_contrast(self):
        rng = np.random.default_rng(6)
        hr = gen_pattern(1, 32, 32, rng)
        bad = extra_degrade(hr)
        assert bad.std() < hr.std()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DegradeParams(blur_sigma=-1.0)
        with pytest.raises(ValueError):
            DegradeParams(scale=0)

    def test_signal_roundtrip(self):
        img = np.random.default_rng(7).random((4, 4))
        np.testing.assert_allclose(from_signal(to_signal(img)), img, rtol=1e-12)
        assert to_signal(np.array(0.0)) == -1.0 and to_signal(np.array(1.0)) == 1.0


class TestGaussianBlur:
    """gaussian_blur equals scipy's gaussian_filter in "reflect" mode bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), sigma=st.floats(0.01, 3.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy(self, h, w, sigma, seed):
        img = np.random.default_rng(seed).random((h, w))
        np.testing.assert_array_equal(gaussian_blur(img, sigma),
                                      gaussian_filter(img, sigma, mode="reflect"))

    @pytest.mark.parametrize("size", [32, 8])
    @pytest.mark.parametrize("sigma", [1.0, 0.4])  # degrade's default, extra_degrade's
    def test_pipeline_sigmas_match_scipy(self, sigma, size):
        img = gen_pattern(2, size, size, np.random.default_rng(size))
        before = img.copy()
        out = gaussian_blur(img, sigma)
        np.testing.assert_array_equal(out, gaussian_filter(img, sigma, mode="reflect"))
        assert out.dtype == np.float64 and out.flags.writeable
        np.testing.assert_array_equal(img, before)  # the input is not written

    @pytest.mark.parametrize("sigma", [1.0, 0.4, 2.3])
    @pytest.mark.parametrize("shape", [(5, 32, 32), (2, 3, 7, 9), (1, 1, 1)])
    def test_stack_equals_each_image(self, shape, sigma):
        imgs = np.random.default_rng(len(shape)).random(shape)
        out = gaussian_blur(imgs, sigma)
        negative = extra_degrade(imgs)
        assert out.shape == negative.shape == shape
        for index in np.ndindex(shape[:-2]):
            assert out[index].tobytes() == gaussian_blur(imgs[index], sigma).tobytes()
            assert negative[index].tobytes() == extra_degrade(imgs[index]).tobytes()

    def test_negligible_sigma_is_a_copy(self):
        img = np.random.default_rng(0).random((5, 4))
        out = gaussian_blur(img, 1e-300)
        np.testing.assert_array_equal(out, gaussian_filter(img, 1e-300, mode="reflect"))
        assert not np.shares_memory(out, img)


class TestDatasets:
    def test_gen2d_dataset_validates_name(self):
        with pytest.raises(ValueError):
            Gen2dDataset(name="spiral")

    def test_toysr_dims(self):
        ds = ToySrDataset(hr_size=32, params=DegradeParams(scale=4))
        assert (ds.z_dim, ds.lr_dim, ds.lr_size) == (1024, 64, 8)
        assert ds.negative_id == 4

    def test_make_pair_deterministic(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        a, b = reference_pair(ds, 1, 42), reference_pair(ds, 1, 42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_build_sr_pool(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        pool = build_sr_pool(ds, 10, 99)
        assert len(pool) == 10
        assert all(0 <= p.label < 3 for p in pool)
        pool2 = build_sr_pool(ds, 10, 99)
        np.testing.assert_array_equal(pool[3].hr, pool2[3].hr)


class TestPoolBuild:
    """build_sr_pool renders and degrades chunks of pairs, with the bits of one pair at a time."""

    PARAMS = {"default": DegradeParams(), "no_blur": DegradeParams(blur_sigma=0.0),
              "quantized": DegradeParams(quant_levels=4),
              "noiseless": DegradeParams(noise_sigma=0.0), "scale2": DegradeParams(scale=2)}

    @pytest.mark.parametrize("n", [1, POOL_CHUNK - 1, POOL_CHUNK, POOL_CHUNK + 1])
    @pytest.mark.parametrize("params", list(PARAMS))
    def test_equals_the_per_pair_reference(self, params, n):
        ds = ToySrDataset(params=self.PARAMS[params])
        for base in (12345, 7):
            classes, seeds, hr, lr = reference_pool(ds, n, base)
            pool = build_sr_pool(ds, n, base)
            assert [p.label for p in pool] == classes.tolist()
            assert [p.seed for p in pool] == seeds
            assert np.stack([p.hr for p in pool]).tobytes() == hr.tobytes()
            assert np.stack([p.lr for p in pool]).tobytes() == lr.tobytes()

    def test_reference_covers_every_class_and_dot_count(self):
        # the pools above hold every class, and class-2 patterns with 2, 3 and 4 dots
        classes, seeds, _, _ = reference_pool(ToySrDataset(), POOL_CHUNK + 1, 12345)
        assert set(classes.tolist()) == {0, 1, 2}
        assert {dot_count(s) for c, s in zip(classes, seeds) if c == 2} == {2, 3, 4}

    def test_pairs_are_read_only_views_of_two_stacks(self):
        pool = build_sr_pool(ToySrDataset(), 3, 5)
        for pair in pool:
            for img in (pair.hr, pair.lr):
                with pytest.raises(ValueError):
                    img[0, 0] = 0.5
        assert pool[0].hr.base is pool[2].hr.base is not None
        assert pool[0].lr.base is pool[2].lr.base is not None

    def test_golden_pool_digest(self):
        # Frozen from the one-pair-at-a-time build; guards the pool's bytes.
        digest = hashlib.sha256()
        for pair in build_sr_pool(ToySrDataset(), 64, 12345):
            digest.update(pair.hr.tobytes())
            digest.update(pair.lr.tobytes())
        assert digest.hexdigest() == ("0fcac59ba45084e818ccd9d226bc0e88"
                                      "aeda15aa8c23934a0b9496cd1a44d30d")


class TestMakeBatch:
    def test_gaussian_batch_moments(self):
        ds = GaussianDataset(dim=2, mu=np.array([1.0, -0.5]), sigma=1.0)
        batch = make_batch(ds, 4000, np.random.default_rng(8), ratio_r=0.5)
        np.testing.assert_allclose(batch.z1.mean(axis=0), ds.mu, atol=0.06)
        np.testing.assert_allclose(batch.z0.mean(axis=0), 0.0, atol=0.06)
        assert np.all(batch.s >= batch.t)
        assert 0.4 < np.mean(batch.s > batch.t) < 0.6

    def test_seeded_batch_golden_digest(self):
        # Frozen fingerprint of a seed-11 batch; guards the sampling order.
        ds = GaussianDataset()
        batch = make_batch(ds, 2, np.random.default_rng(11), ratio_r=0.5)
        np.testing.assert_allclose(
            batch.z1, [[1.034192767253184, 0.8597475403099617],
                       [2.224721078585932, -1.0103070767876674]], atol=1e-15)
        np.testing.assert_allclose(
            batch.t, [0.9483284532917751, 0.6218835927963828], atol=1e-15)

    def test_toysr_batch_negative_labels(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        batch = make_batch(ds, 64, np.random.default_rng(9), ratio_r=0.5,
                           neg_pair_prob=0.5)
        assert batch.z1.shape == (64, 256) and batch.z_lr.shape == (64, 16)
        assert np.all(batch.z1 >= -1.0) and np.all(batch.z1 <= 1.0)
        n_neg = int(np.sum(batch.labels == ds.negative_id))
        assert 16 <= n_neg <= 48  # ~ Binomial(64, 0.5)

    def test_toysr_batch_golden_digest(self):
        # Frozen from one extra_degrade call per negative pair; guards the SR
        # batch's bytes and draw order, from a pool and fresh.
        ds = ToySrDataset(hr_size=16)
        digest = hashlib.sha256()
        for pool, seed in ((build_sr_pool(ds, 8, 5), 21), (None, 22)):
            batch = make_batch(ds, 16, np.random.default_rng(seed), ratio_r=0.5,
                               neg_pair_prob=0.5, pool=pool)
            assert 0 < np.sum(batch.labels == ds.negative_id) < 16
            for a in (batch.z1, batch.z_lr, batch.labels):
                digest.update(a.tobytes())
        assert digest.hexdigest() == ("6a228337b4be197e9a91b334b68d3f66"
                                      "b45443d76b707306d2386f3b325b5715")

    def test_toysr_distill_batch_golden_digest(self):
        # Frozen from a pool batch at neg_pair_prob 0, as every SR distill batch
        # is: no negative-pair draw may enter the RNG stream.
        ds = ToySrDataset(hr_size=16)
        batch = make_batch(ds, 16, np.random.default_rng(23), ratio_r=0.5,
                           pool=build_sr_pool(ds, 8, 5))
        assert not np.any(batch.labels == ds.negative_id)
        digest = hashlib.sha256()
        for a in (batch.z1, batch.z_lr, batch.labels):
            digest.update(a.tobytes())
        assert digest.hexdigest() == ("0da87f4a1f036be9ad93aa77106653a0"
                                      "0aaff4246fb74dad2460b4d8ca21cc49")

    def test_toysr_batch_from_pool(self):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        pool = build_sr_pool(ds, 3, 5)
        batch = make_batch(ds, 8, np.random.default_rng(10), pool=pool)
        pool_rows = {to_signal(p.hr).ravel().tobytes() for p in pool}
        assert all(row.tobytes() in pool_rows for row in batch.z1)


class TestIo:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(11).random((6, 9))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        np.testing.assert_allclose(back, img, atol=1.0 / 255.0)

    def test_read_pgm_rejects_other_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_read_pgm_rejects_two_byte_pixels(self, tmp_path):
        # maxval 65535 stores each pixel in two bytes, which this reader does not read
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n4 1\n65535\n" + np.array([0, 65535, 32768, 1], ">u2").tobytes())
        with pytest.raises(ValueError, match=r"maxval 65535.*wide\.pgm"):
            read_pgm(path)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_read_pgm_rejects_a_pixel_block_of_another_size(self, tmp_path, extra):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(6 + extra))
        with pytest.raises(ValueError, match=r"has \d bytes, expected 3 \* 2.*cut\.pgm"):
            read_pgm(path)

    def test_manifest(self, tmp_path):
        ds = ToySrDataset(hr_size=16, params=DegradeParams(scale=4))
        pool = build_sr_pool(ds, 4, 17)
        path = tmp_path / "manifest.csv"
        write_manifest(path, pool, ds.params)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["index", "seed", "class", "blur_sigma",
                                       "scale", "noise_sigma", "quant_levels"]
        assert len(lines) == 5
