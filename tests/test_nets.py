import numpy as np
import pytest

from mflow.nets import (FieldNet, TimeEmbedder, init_student_from_teacher, student_forward,
                        teacher_forward)
from mflow.tensor import Tensor


def small_teacher(**kw):
    args = dict(z_dim=3, lr_dim=0, num_content=2, cond_dim=8, time_dim=8,
                hidden=(16,), seed=0)
    args.update(kw)
    return FieldNet("teacher", **args)


class TestTimeEmbedder:
    def test_requires_even_dim(self):
        with pytest.raises(ValueError):
            TimeEmbedder(7)

    def test_raw_feature_shape_and_range(self):
        emb = TimeEmbedder(8)
        feats = emb.raw_features(Tensor(np.array([[0.25], [0.75]])))
        assert feats.shape == (2, 8)
        assert np.all(np.abs(feats.data) <= 1.0)

    def test_time_scale_amplifies_derivative_exactly(self):
        # d/dt sin(f c t) = f c cos(f c t): at t = 0 the raw-feature time
        # derivative under c_noise = 1000 is exactly 1000x the c_noise = 1 one.
        e1 = TimeEmbedder(8, c_noise=1.0)
        e1000 = TimeEmbedder(8, c_noise=1000.0)
        t = Tensor(np.zeros((1, 1)), tangent=np.ones((1, 1)))
        tan1 = e1.raw_features(t).tangent
        tan1000 = e1000.raw_features(t).tangent
        np.testing.assert_array_equal(tan1000, 1000.0 * tan1)

    def test_frequencies_geometric(self):
        emb = TimeEmbedder(8, max_freq=32.0)
        ratios = emb.freqs[1:] / emb.freqs[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert emb.freqs[0] == pytest.approx(2 * np.pi)
        assert emb.freqs[-1] == pytest.approx(2 * np.pi * 32.0)


class TestFieldNet:
    def test_output_shape_matches_z(self):
        net = small_teacher()
        out = teacher_forward(net, np.zeros((5, 3)), 0.5, np.zeros((5, 0)), 0)
        assert out.shape == (5, 3)

    def test_lr_conditioning_path(self):
        net = FieldNet("teacher", z_dim=4, lr_dim=2, num_content=1, cond_dim=4,
                       time_dim=4, hidden=(8,), seed=1)
        rng = np.random.default_rng(0)
        z, lr1, lr2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        o1 = teacher_forward(net, z, 0.5, lr1, 0).data
        o2 = teacher_forward(net, z, 0.5, lr2, 0).data
        assert not np.array_equal(o1, o2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FieldNet("critic", 2, 0, 1)

    def test_label_ids(self):
        net = small_teacher()
        np.testing.assert_array_equal(net.label_ids(1, 3), [1, 1, 1])
        np.testing.assert_array_equal(net.label_ids([0, 1, 2], 3), [0, 1, 2])  # 2 = null row
        assert net.null_id == 2 and net.negative_id == 3
        with pytest.raises(ValueError):
            net.label_ids(9, 2)

    def test_config_roundtrip_same_outputs(self):
        net = small_teacher(seed=7)
        clone = FieldNet.from_config(net.config())
        z = np.random.default_rng(1).normal(size=(2, 3))
        np.testing.assert_array_equal(teacher_forward(net, z, 0.3, np.zeros((2, 0)), 1).data,
                                      teacher_forward(clone, z, 0.3, np.zeros((2, 0)), 1).data)

    def test_set_parameter_roundtrip(self):
        net = small_teacher()
        for name, p in net.parameters().items():
            net.set_parameter(name, Tensor(p.data * 2.0, requires_grad=True))
            np.testing.assert_array_equal(net.parameters()[name].data, p.data * 2.0)
        with pytest.raises(KeyError):
            net.set_parameter("nonexistent", Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="shape"):
            net.set_parameter("layer0.W", Tensor(np.zeros((2, 2))))

    def test_all_parameters_receive_gradients(self):
        net = small_teacher()
        rng = np.random.default_rng(4)
        out = teacher_forward(net, rng.normal(size=(4, 3)), rng.random(4),
                              np.zeros((4, 0)), [0, 1, 0, 1])
        (out * out).sum().backward()
        for name, p in net.parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0) or name == "cond_table", name

    def test_param_count_consistent(self):
        net = small_teacher()
        assert net.param_count() == sum(p.size for p in net.parameters().values())

    def test_forward_is_deterministic(self):
        net = small_teacher(seed=3)
        z = np.random.default_rng(2).normal(size=(3, 3))
        a = teacher_forward(net, z, 0.7, np.zeros((3, 0)), 0).data
        b = teacher_forward(net, z, 0.7, np.zeros((3, 0)), 0).data
        np.testing.assert_array_equal(a, b)


class TestStudentInit:
    def test_student_matches_teacher_for_every_s(self):
        teacher = small_teacher(seed=9)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 3))
        lr = np.zeros((4, 0))
        for t in (0.0, 0.33, 0.9):
            v = teacher_forward(teacher, z, t, lr, 1).data
            for s in (t, 0.95, 1.0):
                u = student_forward(student, z, t, s, lr, 1).data
                np.testing.assert_array_equal(u, v)

    def test_student_rejects_backward_interval(self):
        student = init_student_from_teacher(small_teacher())
        with pytest.raises(ValueError):
            student_forward(student, np.zeros((1, 3)), 0.6, 0.4, np.zeros((1, 0)), 0)

    def test_kind_checks(self):
        teacher = small_teacher()
        student = init_student_from_teacher(teacher)
        with pytest.raises(ValueError):
            teacher_forward(student, np.zeros((1, 3)), 0.5, np.zeros((1, 0)), 0)
        with pytest.raises(ValueError):
            student_forward(teacher, np.zeros((1, 3)), 0.2, 0.8, np.zeros((1, 0)), 0)
        with pytest.raises(ValueError):
            init_student_from_teacher(student)

    def test_student_has_extra_s_embedder_params(self):
        teacher = small_teacher()
        student = init_student_from_teacher(teacher)
        extra = set(student.parameters()) - set(teacher.parameters())
        assert extra == {"s_emb.W", "s_emb.b"}
        np.testing.assert_array_equal(student.parameters()["s_emb.W"].data, 0.0)

    def test_student_depends_on_s_after_perturbation(self):
        student = init_student_from_teacher(small_teacher(seed=5))
        w = student.parameters()["s_emb.W"]
        student.set_parameter("s_emb.W", Tensor(w.data + 0.5, requires_grad=True))
        z = np.random.default_rng(1).normal(size=(2, 3))
        a = student_forward(student, z, 0.2, 0.4, np.zeros((2, 0)), 0).data
        b = student_forward(student, z, 0.2, 0.9, np.zeros((2, 0)), 0).data
        assert not np.array_equal(a, b)
