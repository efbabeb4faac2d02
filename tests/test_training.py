import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow import nets, training
from mflow.cli import run
from mflow.data import make_batch
from mflow.flow import CfgConfig, LossConfig, rf_loss
from mflow.nets import copy_into, init_student_from_teacher, teacher_forward
from mflow.tensor import Tensor
from mflow.training import (ADAM_BLOCK, Adam, CheckpointError, NumericalAbort, RunConfig,
                            _load_net, _lr_at, _sr_train_pool, check_net, clip_gradients,
                            describe_checkpoint, distill_student, load_checkpoint, load_student,
                            load_teacher, params_digest, save_checkpoint, train_teacher)


def tiny_config(**kw):
    args = dict(task="gaussian", seed=1, steps=20, batch_size=8, lr=1e-3,
                hidden=[8], time_dim=8, cond_dim=4, log_every=5,
                cfg=CfgConfig(mode="teacher_null", w=0.0))
    args.update(kw)
    return RunConfig(**args)


def named_views(flat, shapes):
    """Name consecutive slices of ``flat`` with the given shapes."""
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + int(np.prod(shape))
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    assert start == flat.size
    return views


class ReferenceAdam:
    """Dict-based Adam, one parameter at a time, kept as the reference: the
    efficient form with the clip scale in the moments' constants, op for op
    as the flat one."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.step_count = 0
        self.m, self.v, self._buf_a, self._buf_b = {}, {}, {}, {}

    def step(self, params, grads, scale=1.0):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NumericalAbort(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        root_bc2 = math.sqrt(1.0 - self.beta2 ** t)
        alpha = self.lr * root_bc2 / (1.0 - self.beta1 ** t)
        eps = self.eps * root_bc2
        c1 = (1.0 - self.beta1) * scale
        c2 = (1.0 - self.beta2) * (scale * scale)
        out = {}
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros(p.shape)
            m = self.m.setdefault(name, np.zeros(p.shape))
            v = self.v.setdefault(name, np.zeros(p.shape))
            a = self._buf_a.setdefault(name, np.empty(p.shape))
            b = self._buf_b.setdefault(name, np.empty(p.shape))
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, c1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, c2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.sqrt(v, out=b)
            np.add(b, eps, out=b)
            np.multiply(m, alpha, out=a)
            np.divide(a, b, out=a)
            out[name] = Tensor(p.data - a, requires_grad=True)
        return out


def reference_clip(grads, max_norm):
    """Dict-based clip, kept as the reference: the norm is one dot product over
    the gradients laid end to end in order; returns (norm, scale) and leaves
    ``grads`` as they are."""
    flat = np.concatenate([g.ravel() for g in grads.values()])
    total = math.sqrt(float(flat @ flat))
    if max_norm > 0 and total > max_norm:
        return total, max_norm / total
    return total, 1.0


def textbook_adam(p, grads, lr):
    """Kingma & Ba's Algorithm 1 as written: bias-corrected moments, then the step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v = np.zeros_like(p), np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # With bias correction, |update| ~= lr on step one regardless of scale.
        adam = Adam(3, lr=0.1)
        p = np.zeros(3)
        adam.step(p, np.array([5.0, -0.01, 100.0]))
        np.testing.assert_allclose(np.abs(p), 0.1, rtol=1e-4)
        np.testing.assert_allclose(np.sign(p), [-1, 1, -1])

    def test_converges_on_quadratic(self):
        adam = Adam(2, lr=0.05)
        p = np.array([3.0, -2.0])
        for _ in range(500):
            adam.step(p, 2.0 * p)
        np.testing.assert_allclose(p, 0.0, atol=1e-3)

    def test_two_hundred_steps_match_textbook_algorithm_1(self):
        # the efficient form equals Algorithm 1 in exact arithmetic; the moments
        # take the same ops, only the step's rounding differs
        rng = np.random.default_rng(3)
        p0 = rng.choice([-1.0, 1.0], size=64) * rng.uniform(1.0, 2.0, size=64)
        # gradient scales from 1e-6, where eps weighs in, to 10
        grads = [rng.normal(size=64) * 10.0 ** rng.uniform(-6, 1, size=64)
                 for _ in range(200)]
        adam, p = Adam(64, lr=1e-3), p0.copy()
        for g in grads:
            adam.step(p, g)
        want_p, want_m, want_v = textbook_adam(p0, grads, 1e-3)
        np.testing.assert_allclose(p, want_p, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(adam.m, want_m)
        np.testing.assert_array_equal(adam.v, want_v)

    def test_scale_argument_matches_a_scaled_gradient(self):
        rng = np.random.default_rng(4)
        p0 = rng.choice([-1.0, 1.0], size=64) * rng.uniform(1.0, 2.0, size=64)
        folded, scaled = Adam(64, lr=1e-3), Adam(64, lr=1e-3)
        a, b = p0.copy(), p0.copy()
        for _ in range(200):
            g, s = rng.normal(size=64), rng.uniform(0.05, 1.0)
            folded.step(a, g, s)
            scaled.step(b, s * g)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(folded.v, scaled.v, rtol=1e-12, atol=0)

    def test_rejects_nonfinite_gradient(self):
        # the clip's norm is the finiteness check; it aborts before Adam moves anything
        shapes = {"a": (2, 3), "b": (4,), "c": (1, 2)}
        p = np.linspace(-1.0, 1.0, 12)
        grad = np.empty(12)
        grads = named_views(grad, shapes)
        adam = Adam(12, lr=0.01)
        for _ in range(3):
            grad[:] = np.cos(p)
            clip_gradients(grad, grads, 1.0)
            adam.step(p, grad)
        before = p.copy(), adam.m.copy(), adam.v.copy(), adam.step_count
        grad[:] = 1.0
        grads["b"][2] = np.nan
        grads["c"][0, 1] = np.inf
        with pytest.raises(NumericalAbort, match="parameter 'b'"):
            clip_gradients(grad, grads, 1.0)
            adam.step(p, grad)
        for kept, now in zip(before, (p, adam.m, adam.v, adam.step_count)):
            np.testing.assert_array_equal(now, kept)

    @pytest.mark.parametrize("max_norm", [0.0, 1.0])
    def test_overflowing_norm_aborts(self, max_norm):
        # every value is finite, but the sum of their squares is not
        grad = np.array([1e200, -1e200, 3.0])
        with pytest.raises(NumericalAbort, match="overflows"):
            clip_gradients(grad, {"w": grad}, max_norm)
        np.testing.assert_array_equal(grad, [1e200, -1e200, 3.0])

    def test_state_roundtrip(self):
        adam = Adam(3, lr=0.01)
        p = np.ones(3)
        for _ in range(3):
            adam.step(p, np.array([0.3, -0.7, 0.2]))
        clone = Adam(3, lr=0.01)
        copy_into({"adam.m": clone.m, "adam.v": clone.v}, {"adam.m": adam.m, "adam.v": adam.v})
        clone.step_count = adam.step_count
        a, b = p.copy(), p.copy()
        adam.step(a, np.full(3, 0.1))
        clone.step(b, np.full(3, 0.1))
        np.testing.assert_array_equal(a, b)


# one layout smaller than a block, one over a block and not a multiple of it,
# and one over two blocks
FLAT_LAYOUTS = {
    "under-one-block": {"W": (17, 9), "b": (1, 9), "t": (5,)},
    "unaligned": {"W": (ADAM_BLOCK // 64, 65), "b": (1, 65), "t": (3, 7)},
    "over-two-blocks": {"W": (ADAM_BLOCK // 32, 70), "b": (1, 70), "t": (11, 3)},
}


class TestFlatMatchesReference:
    @pytest.mark.parametrize("clip", [False, True], ids=["no-clip", "clip"])
    @pytest.mark.parametrize("layout", FLAT_LAYOUTS.values(), ids=FLAT_LAYOUTS.keys())
    def test_twenty_steps_bitwise_equal(self, layout, clip):
        size = sum(int(np.prod(shape)) for shape in layout.values())
        assert size < ADAM_BLOCK or (size % ADAM_BLOCK and size > ADAM_BLOCK)
        # the gradient norm is about sqrt(size) * scale, scale cycling 0.05 .. 0.2,
        # so with clipping on, half of the steps clip
        max_norm = 0.12 * np.sqrt(size) if clip else 0.0
        rng = np.random.default_rng(size)
        params = rng.normal(size=size)
        ref_params = {name: Tensor(w.copy(), requires_grad=True)
                      for name, w in named_views(params, layout).items()}
        grad = np.empty(size)
        grads = named_views(grad, layout)
        adam, ref = Adam(size), ReferenceAdam(lr=1e-3)
        clipped = []
        for step in range(20):
            adam.lr = ref.lr = 1e-2 * 0.8 ** step
            drawn = {name: rng.normal(scale=0.05 * (step % 4 + 1), size=shape)
                     for name, shape in layout.items()}
            copy_into(grads, drawn)
            norm, scale = clip_gradients(grad, grads, max_norm)
            assert (norm, scale) == reference_clip(drawn, max_norm)
            clipped.append(scale < 1.0)
            adam.step(params, grad, scale)
            ref_params = ref.step(ref_params, drawn, scale)
        assert any(clipped) == clip
        assert not all(clipped)
        for name, view in named_views(params, layout).items():
            np.testing.assert_array_equal(view, ref_params[name].data)
            np.testing.assert_array_equal(named_views(adam.m, layout)[name], ref.m[name])
            np.testing.assert_array_equal(named_views(adam.v, layout)[name], ref.v[name])


class TestClip:
    def test_noop_under_limit(self):
        g = np.array([3.0, 4.0])
        assert clip_gradients(g, {"a": g}, 10.0) == (5.0, 1.0)
        np.testing.assert_array_equal(g, [3.0, 4.0])

    def test_scales_to_max_norm(self):
        g = np.array([3.0, 4.0, 12.0])
        norm, scale = clip_gradients(g, {"a": g[:2], "b": g[2:]}, 1.0)
        assert norm == 13.0 and scale == 1.0 / 13.0
        np.testing.assert_array_equal(g, [3.0, 4.0, 12.0])  # Adam applies the scale

    def test_disabled_when_nonpositive(self):
        g = np.array([100.0])
        assert clip_gradients(g, {"a": g}, 0.0) == (100.0, 1.0)
        assert g[0] == 100.0


class TestCheckpointContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"b": rng.normal(size=(3, 2)), "a": rng.normal(size=4),
                   "scalar": np.array(3.5)}
        meta = {"step": 7, "note": "x"}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, tensors, meta)
        back, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(back) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])
            assert not back[k].flags.writeable  # views of the file's bytes

    def test_loaded_net_owns_writable_weights(self, tmp_path):
        path = train_teacher(tiny_config(steps=2), tmp_path)
        net = load_teacher(path)
        assert net.flat.flags.writeable and net.flat.flags.owndata
        net.set_parameter("layer0.b", Tensor(np.ones(net.params["layer0.b"].shape)))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_file_is_deterministic(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(tmp_path / "a.ckpt", tensors, {"k": 1})
        save_checkpoint(tmp_path / "b.ckpt", tensors, {"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_failed_save_leaves_earlier_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.arange(3.0)}, {"k": 1})
        before = path.read_bytes()
        # "b" is written before "x", which cannot be cast to float64
        with pytest.raises(ValueError):
            save_checkpoint(path, {"b": np.ones(4), "x": np.array(["nan?"])}, {"k": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    @pytest.mark.parametrize("arr, sha256", [
        (np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3),
         "2e9f8cccb41c61e7c20bccf9affa16bf5acd15c5c2f12f580b6ff173446ff17b"),
        ((np.arange(12.0).reshape(3, 4) / 7.0).T,
         "3511a39c5ae1ce7215b73e3067bb9ed9759c16e70d35bbc522f1be33764daf6b"),
        (np.array([np.pi]),
         "6ec8c8710df1afc8f89be5018adb2d07a4507a4149bc4c6c50ad44882c202d74"),
    ], ids=["float32", "transposed", "one_element"])
    def test_file_bytes_are_pinned(self, tmp_path, arr, sha256):
        # the sha256 of the files that the writer made before it wrote
        # tensors without a copy: the format did not move
        save_checkpoint(tmp_path / "c.ckpt", {"w": arr}, {"role": "test"})
        assert hashlib.sha256((tmp_path / "c.ckpt").read_bytes()).hexdigest() == sha256

    def test_params_digest_orders_and_discriminates(self):
        a = {"x": Tensor(np.ones(2)), "y": Tensor(np.zeros(2))}
        b = dict(reversed(list(a.items())))
        assert params_digest(a) == params_digest(b)
        c = {"x": Tensor(np.ones(2)), "y": Tensor(np.full(2, 1e-300))}
        assert params_digest(a) != params_digest(c)


class TestCheckpointRejection:
    @pytest.fixture(scope="class")
    def teacher_ckpt(self, tmp_path_factory):
        return train_teacher(tiny_config(steps=2), tmp_path_factory.mktemp("teacher"))

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("corrupt") / "c.ckpt"

    def rewrite(self, src, dst, edit):
        tensors, meta = load_checkpoint(src)
        edit(tensors)
        save_checkpoint(dst, tensors, meta)
        return dst

    def test_missing_tensor_is_refused(self, teacher_ckpt, tmp_path):
        path = self.rewrite(teacher_ckpt, tmp_path / "c.ckpt", lambda t: t.pop("gate.b"))
        with pytest.raises(CheckpointError, match="missing tensor 'gate.b'"):
            load_teacher(path)

    def test_wrong_shape_is_refused(self, teacher_ckpt, tmp_path):
        def cut(tensors):
            tensors["layer0.W"] = tensors["layer0.W"][:, :4]

        path = self.rewrite(teacher_ckpt, tmp_path / "c.ckpt", cut)
        with pytest.raises(CheckpointError, match="layer0.W"):
            load_teacher(path)

    @settings(max_examples=40, deadline=None)
    @given(frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_is_refused(self, teacher_ckpt, scratch, frac):
        raw = teacher_ckpt.read_bytes()
        scratch.write_bytes(raw[:int(frac * len(raw))])
        with pytest.raises(CheckpointError):
            load_checkpoint(scratch)

    def test_trailing_bytes_are_refused(self, teacher_ckpt, scratch):
        scratch.write_bytes(teacher_ckpt.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(scratch)

    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    def test_flipped_byte_loads_or_is_refused(self, teacher_ckpt, scratch, frac, mask):
        raw = bytearray(teacher_ckpt.read_bytes())
        raw[int(frac * len(raw))] ^= mask
        scratch.write_bytes(bytes(raw))
        try:
            net = load_teacher(scratch)
        except CheckpointError:
            return
        # a flip inside a value can leave a well-formed file
        assert net.kind == "teacher"


# every field that RunConfig type-checks from its annotation
TYPED_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("int", "float")]


class TestRunConfig:
    @pytest.mark.parametrize("name", TYPED_FIELDS)
    def test_typed_field_refuses_a_string(self, name):
        with pytest.raises(ValueError, match=f"for {name}$"):
            RunConfig(**{name: "7"})

    @pytest.mark.parametrize("cfg", [tiny_config(teacher_c_noise=2.0),
                                     tiny_config(task="toysr", hr_size=8, sr_scale=2)],
                             ids=["gaussian", "toysr"])
    def test_net_config_describes_the_teacher_it_builds(self, cfg):
        assert cfg.net_config() == cfg.build_teacher().config()

    def test_rejects_unknown_keys_and_task(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"task": "gaussian", "banana": 1})
        with pytest.raises(ValueError):
            RunConfig(task="imagenet")

    @pytest.mark.parametrize("name", ["lr", "lr_final", "grad_clip", "teacher_c_noise",
                                      "gauss_sigma", "blur_sigma", "noise_sigma",
                                      "neg_pair_prob"])
    @pytest.mark.parametrize("value", ["abc", True])
    def test_float_fields_must_be_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"expected a number for {name}$"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("mu", [[], "ab", [1.0, "x"], 2.0])
    def test_gauss_mu_must_be_a_non_empty_list_of_numbers(self, mu):
        with pytest.raises(ValueError, match="gauss_mu"):
            RunConfig(task="gaussian", gauss_mu=mu)

    def test_dict_roundtrip_preserves_digest(self):
        cfg = tiny_config()
        clone = RunConfig.from_dict(cfg.to_dict())
        assert clone.digest() == cfg.digest()
        assert isinstance(clone.cfg, CfgConfig) and isinstance(clone.loss, LossConfig)

    def test_digest_sensitive_to_fields(self):
        assert tiny_config().digest() != tiny_config(seed=2).digest()

    def test_cosine_decay_endpoints(self):
        cfg = tiny_config(steps=101, lr=1e-2, lr_final=1e-4)
        assert _lr_at(cfg, 0) == pytest.approx(1e-2)
        assert _lr_at(cfg, 100) == pytest.approx(1e-4)
        assert _lr_at(cfg, 50) == pytest.approx((1e-2 + 1e-4) / 2)
        flat = tiny_config(lr=3e-3, lr_final=0.0)
        assert _lr_at(flat, 10) == 3e-3


class TestTrainingLoops:
    def test_teacher_trains_and_reloads(self, tmp_path):
        cfg = tiny_config(steps=30)
        path = train_teacher(cfg, tmp_path / "run")
        teacher = load_teacher(path)
        z = np.zeros((2, 2))
        out = teacher_forward(teacher, z, 0.5, np.zeros((2, 0)), 0)
        assert out.shape == (2, 2) and np.all(np.isfinite(out.data))
        log = (tmp_path / "run" / "teacher_log.csv").read_text().splitlines()
        assert log[0] == "step,loss,grad_norm,wall_ms"
        assert len(log) >= 2

    def test_teacher_loss_decreases(self, tmp_path):
        cfg = tiny_config(steps=200, batch_size=32, lr=5e-3, log_every=1)
        train_teacher(cfg, tmp_path / "run")
        rows = (tmp_path / "run" / "teacher_log.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_training_is_bit_reproducible(self, tmp_path):
        cfg = tiny_config(steps=25)
        p1 = train_teacher(cfg, tmp_path / "a")
        p2 = train_teacher(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_matches_reference_loop(self, tmp_path):
        # the dict-based loop the flat one replaced: per-name grads, reference
        # clip and Adam, every weight replaced after the step
        cfg = tiny_config(steps=6, grad_clip=4.0)
        path = train_teacher(cfg, tmp_path / "run")
        net, dataset = cfg.build_teacher(), cfg.dataset()
        rng = np.random.default_rng(cfg.seed)
        adam = ReferenceAdam(lr=cfg.lr)
        clipped = []
        for step in range(cfg.steps):
            adam.lr = _lr_at(cfg, step)
            loss = rf_loss(net, make_batch(dataset, cfg.batch_size, rng, ratio_r=0.0))
            for p in net.params.values():
                p.grad = None
            loss.backward()
            grads = {name: p.grad if p.grad is not None else np.zeros(p.shape)
                     for name, p in net.params.items()}
            _, scale = reference_clip(grads, cfg.grad_clip)
            clipped.append(scale < 1.0)
            for name, p in adam.step(net.params, grads, scale).items():
                net.set_parameter(name, p)
        assert any(clipped) and not all(clipped)
        expected = {name: p.data for name, p in net.params.items()}
        tensors, meta = load_checkpoint(path)
        assert sorted(tensors) == sorted(expected)
        for name, arr in expected.items():
            assert tensors[name].shape == arr.shape, name
            assert tensors[name].tobytes() == arr.tobytes(), name
        assert meta["step"] == adam.step_count

    def test_distill_produces_student_and_freezes_teacher(self, tmp_path):
        t_path = train_teacher(tiny_config(steps=30), tmp_path / "t")
        before = load_checkpoint(t_path)[0]
        s_path = distill_student(tiny_config(steps=30, seed=4), t_path, tmp_path / "s")
        student = load_student(s_path)
        assert student.kind == "student"
        after = load_checkpoint(t_path)[0]
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_distill_is_bit_reproducible(self, tmp_path):
        t_path = train_teacher(tiny_config(steps=20), tmp_path / "t")
        cfg = tiny_config(steps=20, seed=9)
        p1 = distill_student(cfg, t_path, tmp_path / "a")
        p2 = distill_student(cfg, t_path, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaders_check_role(self, tmp_path):
        t_path = train_teacher(tiny_config(steps=5), tmp_path / "t")
        s_path = distill_student(tiny_config(steps=5), t_path, tmp_path / "s")
        with pytest.raises(CheckpointError):
            load_student(t_path)
        with pytest.raises(CheckpointError):
            load_teacher(s_path)

    @pytest.mark.parametrize("field, value, held", [("hidden", [8, 8], "[8]"),
                                                    ("time_dim", 4, "8"),
                                                    ("cond_dim", 2, "4"),
                                                    ("teacher_c_noise", 2.0, "1.0")])
    def test_distill_rejects_config_unlike_teacher(self, tmp_path, field, value, held):
        t_path = train_teacher(tiny_config(steps=2), tmp_path / "t")
        key = {"teacher_c_noise": "c_noise"}.get(field, field)  # the net's name for it
        message = re.escape(f"{key}={value}, the teacher has {held}")
        with pytest.raises(CheckpointError, match=message):
            distill_student(tiny_config(steps=2, **{field: value}), t_path, tmp_path / "s")

    def test_loads_and_clones_draw_no_weights(self, tmp_path, monkeypatch):
        t_path = train_teacher(tiny_config(steps=2), tmp_path / "t")

        def no_draws(*args, **kwargs):
            raise AssertionError("weights drawn only to be overwritten")

        monkeypatch.setattr(nets.np.random, "default_rng", no_draws)
        teacher = load_teacher(t_path)
        student = init_student_from_teacher(teacher)
        tensors = load_checkpoint(t_path)[0]
        for name, p in teacher.params.items():
            np.testing.assert_array_equal(p.data, tensors[name])
            np.testing.assert_array_equal(student.params[name].data, p.data)

    def test_distill_rejects_mismatched_dataset(self, tmp_path):
        t_path = train_teacher(tiny_config(steps=5), tmp_path / "t")
        bad = tiny_config(steps=5, task="toysr", hr_size=16, sr_scale=4)
        with pytest.raises(CheckpointError, match="does not match"):
            distill_student(bad, t_path, tmp_path / "s")


def tiny_sr_config(**kw):
    return tiny_config(**{"task": "toysr", "hr_size": 8, "sr_scale": 2, "train_pool": 6,
                          "steps": 2, **kw})


class TestSrTrainPool:
    """The one SR training pool a process keeps, reused while its key holds."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """Start from an empty slot; returns the keys of the pools built."""
        training._train_pool_slot.clear()
        seen, real = [], training.build_sr_pool

        def counted(dataset, n, base_seed):
            seen.append((dataset, n, base_seed))
            return real(dataset, n, base_seed)

        monkeypatch.setattr(training, "build_sr_pool", counted)
        return seen

    def test_distill_reuses_the_teacher_pool(self, tmp_path, builds):
        cfg = tiny_sr_config()
        t_path = train_teacher(cfg, tmp_path / "t")
        distill_student(cfg, t_path, tmp_path / "s")
        assert builds == [(cfg.dataset(), 6, cfg.seed + 100003)]

    def test_other_tasks_keep_no_pool(self, builds):
        cfg = tiny_config()
        assert _sr_train_pool(cfg, cfg.dataset()) is None
        assert builds == [] and training._train_pool_slot == {}

    @pytest.mark.parametrize("change", [
        {"seed": 2}, {"train_pool": 7}, {"hr_size": 12}, {"num_content": 2},
        {"blur_sigma": 0.5}, {"sr_scale": 4}, {"noise_sigma": 0.03}, {"quant_levels": 8},
    ], ids=lambda change: next(iter(change)))
    def test_any_key_change_rebuilds(self, builds, change):
        for cfg in (tiny_sr_config(), tiny_sr_config(), tiny_sr_config(**change)):
            pool = _sr_train_pool(cfg, cfg.dataset())
            assert len(pool) == cfg.train_pool
        assert len(builds) == 2 and builds[0] != builds[1]

    def test_old_pool_is_freed_before_the_new_build(self, builds, monkeypatch):
        cfg = tiny_sr_config()
        stack = weakref.ref(_sr_train_pool(cfg, cfg.dataset())[0].hr.base)
        assert stack() is not None
        counted = training.build_sr_pool

        def after_the_old_pool(*args):
            assert stack() is None
            return counted(*args)

        monkeypatch.setattr(training, "build_sr_pool", after_the_old_pool)
        other = tiny_sr_config(seed=2)
        _sr_train_pool(other, other.dataset())
        assert len(builds) == 2

    def test_student_from_a_kept_pool_has_the_same_bytes(self, tmp_path, builds):
        t_path = train_teacher(tiny_sr_config(), tmp_path / "t")
        cfg = tiny_sr_config(seed=5)
        training._train_pool_slot.clear()
        fresh = distill_student(cfg, t_path, tmp_path / "fresh")
        kept = distill_student(cfg, t_path, tmp_path / "kept")
        assert len(builds) == 2  # the teacher's pool, then one for seed 5
        assert fresh.read_bytes() == kept.read_bytes()


class TestStepMemory:
    """A training step holds each gradient once, and one tape at a time."""

    def test_gradients_are_views_of_the_vector_clip_and_adam_read(self, tmp_path,
                                                                   monkeypatch):
        nets_seen, vectors = [], []
        real_loss, real_step = training.rf_loss, Adam.step

        def loss(net, batch):
            nets_seen.append(net)
            return real_loss(net, batch)

        def step(adam, params, grad, scale=1.0):
            vectors.append(grad)
            return real_step(adam, params, grad, scale)

        monkeypatch.setattr(training, "rf_loss", loss)
        monkeypatch.setattr(Adam, "step", step)
        train_teacher(tiny_config(steps=3), tmp_path)
        net, grad = nets_seen[0], vectors[0]
        assert all(v is grad for v in vectors)  # one vector for the whole run
        assert not np.shares_memory(grad, net.flat)
        for name, view in net.views(grad).items():
            p = net.params[name]
            assert np.shares_memory(p.grad, grad), name
            assert p.grad.ctypes.data == view.ctypes.data and p.grad.shape == view.shape

    def test_the_last_steps_tape_is_freed_before_the_next_loss(self, tmp_path, monkeypatch):
        class Probe(Tensor):
            __slots__ = ("__weakref__",)

        earlier, real = [], training.rf_loss

        def loss(net, batch):
            # the loop asks for a step's loss: no earlier step's loss may be alive
            assert all(ref() is None for ref in earlier)
            value = real(net, batch)
            probe = Probe(value.data, _parents=(value,), _backward=lambda g, *_: ((value, g),))
            earlier.append(weakref.ref(probe))
            return probe

        monkeypatch.setattr(training, "rf_loss", loss)
        train_teacher(tiny_config(steps=3), tmp_path)
        assert len(earlier) == 3

    def test_peak_traced_memory_per_weight_byte(self, tmp_path):
        # a wide net, so the weights, their gradient, Adam's moments and the
        # tape dominate what a step allocates
        cfg = RunConfig(task="toysr", seed=1, steps=3, batch_size=4, hr_size=16,
                        hidden=[512, 512], time_dim=8, cond_dim=4, train_pool=16,
                        cfg=CfgConfig(mode="teacher_neg", w=2.0))
        training._train_pool_slot.clear()

        def peak(call):
            tracemalloc.start()  # counts only what the call allocates
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        teacher, teacher_peak = peak(lambda: train_teacher(cfg, tmp_path / "t"))
        student, student_peak = peak(lambda: distill_student(cfg, teacher, tmp_path / "s"))
        # two gradients and two tapes alive at once read 5.68 and 6.35
        assert teacher_peak / load_teacher(teacher).flat.nbytes < 5.0
        assert student_peak / load_student(student).flat.nbytes < 5.6


def test_sr_student_bytes_are_pinned(tmp_path):
    # a tiny toysr teacher, then a teacher_neg distill at w = 2, so the pin
    # covers SR batches, the pool, the teacher's guided calls and the JVP.
    # With the clip off, the bytes are the same at 1 and 2 BLAS threads; a
    # clip that triggers rounds its threaded norm differently.
    cfg = RunConfig(task="toysr", seed=1, steps=20, batch_size=8, hr_size=16, hidden=[32, 32],
                    time_dim=8, cond_dim=4, train_pool=16, neg_pair_prob=0.25, grad_clip=0.0,
                    log_every=5, cfg=CfgConfig(mode="teacher_neg", w=2.0))
    student = distill_student(cfg, train_teacher(cfg, tmp_path / "t"), tmp_path / "s")
    assert hashlib.sha256(student.read_bytes()).hexdigest() == (
        "cee4ab391a73c449d1f26adb5fc9dc033d0f6ed29414339f70f66511222f3068")
    assert describe_checkpoint(student)["params_digest"] == (
        "07345aedd95a834f54dbdb123cb730f5bf062a190187c246e4e6b16893debd92")


class TestCheckNet:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("check")
        t_path = train_teacher(tiny_config(steps=2), out / "t")
        return load_teacher(t_path), load_student(distill_student(tiny_config(steps=2),
                                                                  t_path, out / "s"))

    def test_a_teacher_may_differ_in_its_seed_alone(self, trained):
        check_net(trained[0], tiny_config(seed=9), "t.ckpt")
        with pytest.raises(CheckpointError, match=re.escape(
                "t.ckpt: teacher checkpoint does not match the config: the config asks "
                "for hidden=[16, 16], the teacher has [8]")):
            check_net(trained[0], tiny_config(hidden=[16, 16]), "t.ckpt")

    def test_every_net_config_key_of_a_teacher_is_compared(self, trained, monkeypatch):
        # a key both descriptions gain is checked with no other edit
        asked, held = RunConfig.net_config, trained[0].config
        monkeypatch.setattr(RunConfig, "net_config",
                            lambda config: {**asked(config), "dtype": "float32"})
        monkeypatch.setattr(trained[0], "config", lambda: {**held(), "dtype": "float64"})
        with pytest.raises(CheckpointError, match="dtype=float32, the teacher has float64"):
            check_net(trained[0], tiny_config(), "t.ckpt")

    def test_a_student_is_fitted_to_the_dataset_alone(self, trained):
        # a student only runs forward, so the config's net shape does not bind it
        check_net(trained[1], tiny_config(hidden=[16, 16], time_dim=4, seed=9), "s.ckpt")
        with pytest.raises(CheckpointError, match=re.escape(
                "s.ckpt: student checkpoint does not match the config: the config asks "
                "for z_dim=3, the student has 2")):
            check_net(trained[1], tiny_config(gauss_mu=[0.0, 0.0, 0.0]), "s.ckpt")


def _earlier_layout(path, dest, layout):
    """``path``, a checkpoint of the current layout, rewritten as checkpoints were
    once written, with Adam moments of the net's size beside the weights and
    the training RNG's ``rng_state`` in the metadata: two flat vectors
    ``adam.m``/``adam.v``, or per-weight ``adam.m.<name>``/``adam.v.<name>``
    moments with ``role`` and ``adam_step`` beside ``step``."""
    tensors, meta = load_checkpoint(path)
    net = _load_net(path)[0]
    rng = np.random.default_rng(5)
    moments = {"adam.m": rng.normal(size=net.flat.shape), "adam.v": rng.random(net.flat.shape)}
    meta = {**meta, "rng_state": np.random.default_rng(meta["step"]).bit_generator.state}
    if layout == "flat-moments":
        tensors = {**tensors, **moments}
    else:
        tensors = dict(tensors)
        for moment, flat in moments.items():
            tensors.update({f"{moment}.{name}": a for name, a in net.views(flat).items()})
        meta.update(role=net.kind, adam_step=meta["step"])
    save_checkpoint(dest, tensors, meta)
    return dest


class TestCheckpointLayout:
    """A checkpoint holds the weights and the metadata that describes them;
    the earlier layouts, which also held Adam's moments, still run forward."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("layout")
        cfg = tiny_config(steps=4, ckpt_every=2)
        (out / "c.json").write_text(json.dumps(cfg.to_dict()))
        distill_student(cfg, train_teacher(cfg, out / "t"), out / "s")
        return out

    def test_names_and_metadata_keys(self, run_dir):
        for path in (run_dir / "t" / "teacher.ckpt", run_dir / "t" / "teacher_step2.ckpt",
                     run_dir / "s" / "student.ckpt"):
            tensors, meta = load_checkpoint(path)
            net = _load_net(path)[0]
            assert set(tensors) == set(net.arrays)
            assert set(meta) == {"step", "config_digest", "net_config", "config"}

    def test_sample_eval_and_inspect_read_the_earlier_layout(self, run_dir, tmp_path, capsys):
        new = run_dir / "s" / "student.ckpt"
        for layout in ("flat-moments", "per-weight-moments"):
            old = _earlier_layout(new, tmp_path / f"{layout}.ckpt", layout)
            assert old.stat().st_size > 2 * new.stat().st_size
            for command in (["sample", "--n", "4"], ["eval", "--n", "16", "--steps", "1", "2"]):
                for ckpt, out in ((new, "new"), (old, layout)):
                    assert run([*command, "--config", str(run_dir / "c.json"), "--ckpt",
                                str(ckpt), "--out", str(tmp_path / out)]) == 0
            for name in ("samples.csv", "sweep.csv"):
                assert ((tmp_path / layout / name).read_bytes()
                        == (tmp_path / "new" / name).read_bytes()), (layout, name)
            capsys.readouterr()
            assert run(["inspect", str(old)]) == run(["inspect", str(new)]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert len(printed) == 2 and printed[0] == printed[1], layout

    def test_distill_reads_an_earlier_layout_teacher(self, run_dir, tmp_path):
        cfg = tiny_config(steps=4, ckpt_every=2)
        new = run_dir / "t" / "teacher.ckpt"
        old = _earlier_layout(new, tmp_path / "old.ckpt", "flat-moments")
        assert (distill_student(cfg, old, tmp_path / "s").read_bytes()
                == (run_dir / "s" / "student.ckpt").read_bytes())
