import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow import nets
from mflow.flow import CfgConfig, LossConfig
from mflow.nets import init_student_from_teacher, teacher_forward
from mflow.tensor import Tensor
from mflow.training import (Adam, CheckpointError, NumericalAbort, RunConfig, _lr_at,
                            clip_gradients, distill_student, load_checkpoint, load_student,
                            load_teacher, params_digest, save_checkpoint, train_teacher)


def tiny_config(**kw):
    args = dict(task="gaussian", seed=1, steps=20, batch_size=8, lr=1e-3,
                hidden=[8], time_dim=8, cond_dim=4, log_every=5,
                cfg=CfgConfig(mode="teacher_null", w=0.0))
    args.update(kw)
    return RunConfig(**args)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # With bias correction, |update| ~= lr on step one regardless of scale.
        adam = Adam(lr=0.1)
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        g = {"w": np.array([5.0, -0.01, 100.0])}
        out = adam.step(p, g)
        np.testing.assert_allclose(np.abs(out["w"].data), 0.1, rtol=1e-4)
        np.testing.assert_allclose(np.sign(out["w"].data), [-1, 1, -1])

    def test_converges_on_quadratic(self):
        adam = Adam(lr=0.05)
        p = {"w": Tensor(np.array([3.0, -2.0]), requires_grad=True)}
        for _ in range(500):
            g = {"w": 2.0 * p["w"].data}
            p = adam.step(p, g)
        np.testing.assert_allclose(p["w"].data, 0.0, atol=1e-3)

    def test_rejects_nonfinite_gradient(self):
        adam = Adam()
        with pytest.raises(NumericalAbort):
            adam.step({"w": Tensor(np.zeros(1), requires_grad=True)},
                      {"w": np.array([np.nan])})

    def test_state_roundtrip(self):
        adam = Adam(lr=0.01)
        p = {"w": Tensor(np.ones(2), requires_grad=True)}
        for _ in range(3):
            p = adam.step(p, {"w": np.array([0.3, -0.7])})
        clone = Adam(lr=0.01)
        clone.load_state_arrays(adam.state_arrays(), adam.step_count)
        a = adam.step(dict(p), {"w": np.array([0.1, 0.1])})["w"].data
        b = clone.step(dict(p), {"w": np.array([0.1, 0.1])})["w"].data
        np.testing.assert_array_equal(a, b)


class TestClip:
    def test_noop_under_limit(self):
        g = {"a": np.array([3.0, 4.0])}
        norm, clipped = clip_gradients(g, 10.0)
        assert norm == 5.0 and not clipped
        np.testing.assert_array_equal(g["a"], [3.0, 4.0])

    def test_scales_to_max_norm(self):
        g = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        norm, clipped = clip_gradients(g, 1.0)
        assert norm == 13.0 and clipped
        total = np.sqrt(sum(float(np.sum(v * v)) for v in g.values()))
        assert total == pytest.approx(1.0)

    def test_disabled_when_nonpositive(self):
        g = {"a": np.array([100.0])}
        _, clipped = clip_gradients(g, 0.0)
        assert not clipped


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


class TestRunConfig:
    def test_rejects_unknown_keys_and_task(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"task": "gaussian", "banana": 1})
        with pytest.raises(ValueError):
            RunConfig(task="imagenet")

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

    def test_resume_matches_straight_run(self, tmp_path):
        cfg = tiny_config(steps=20, ckpt_every=10)
        straight = train_teacher(cfg, tmp_path / "full")
        train_teacher(cfg, tmp_path / "half")
        resumed = train_teacher(cfg, tmp_path / "resumed",
                                resume=str(tmp_path / "half" / "teacher_step10.ckpt"))
        t1 = load_teacher(straight)
        t2 = load_teacher(resumed)
        assert params_digest(t1.parameters()) == params_digest(t2.parameters())

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
        message = re.escape(f"{field}={value}, the teacher has {held}")
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
        for name, p in teacher.parameters().items():
            np.testing.assert_array_equal(p.data, tensors[name])
            np.testing.assert_array_equal(student.parameters()[name].data, p.data)

    def test_distill_rejects_mismatched_dataset(self, tmp_path):
        t_path = train_teacher(tiny_config(steps=5), tmp_path / "t")
        bad = tiny_config(steps=5, task="toysr", hr_size=16, sr_scale=4)
        with pytest.raises(CheckpointError, match="does not match"):
            distill_student(bad, t_path, tmp_path / "s")
