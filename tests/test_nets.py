import numpy as np
import pytest

import mflow.tensor
from mflow.nets import FieldNet, init_student_from_teacher, student_forward, teacher_forward
from mflow.tensor import Tensor, jvp


def small_teacher(**kw):
    args = dict(z_dim=3, lr_dim=0, num_content=2, cond_dim=8, time_dim=8,
                hidden=(16,), seed=0)
    args.update(kw)
    return FieldNet("teacher", **args)


class TestTimeFeatures:
    def test_requires_even_dim(self):
        with pytest.raises(ValueError, match="even"):
            small_teacher(time_dim=7)

    def test_raw_feature_shape_and_range(self):
        net = small_teacher()
        feats = net._time_features(Tensor(np.array([[0.25], [0.75]])))
        assert feats.shape == (2, 8)
        assert np.all(np.abs(feats.data) <= 1.0)

    def test_time_scale_amplifies_derivative_exactly(self):
        # d/dt sin(f c t) = f c cos(f c t): at t = 0 the raw-feature time
        # derivative under c_noise = 1000 is exactly 1000x the c_noise = 1 one.
        n1 = small_teacher(c_noise=1.0)
        n1000 = small_teacher(c_noise=1000.0)
        t = Tensor(np.zeros((1, 1)), tangent=np.ones((1, 1)))
        tan1 = n1._time_features(t).tangent
        tan1000 = n1000._time_features(t).tangent
        np.testing.assert_array_equal(tan1000, 1000.0 * tan1)

    def test_frequencies_geometric(self):
        net = small_teacher()
        ratios = net.freqs[1:] / net.freqs[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert net.freqs[0] == pytest.approx(2 * np.pi)
        assert net.freqs[-1] == pytest.approx(2 * np.pi * 32.0)


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
        clone = FieldNet(**net.config())
        z = np.random.default_rng(1).normal(size=(2, 3))
        np.testing.assert_array_equal(teacher_forward(net, z, 0.3, np.zeros((2, 0)), 1).data,
                                      teacher_forward(clone, z, 0.3, np.zeros((2, 0)), 1).data)

    def test_given_weights_are_copied_not_drawn(self):
        net = small_teacher(seed=7)
        weights = {**net.arrays, "unused": np.zeros(3)}  # extra names are ignored
        clone = FieldNet(**{**net.config(), "seed": 8}, weights=weights)
        np.testing.assert_array_equal(clone.flat, net.flat)
        assert not np.shares_memory(clone.flat, net.flat)
        del weights["gate.b"]
        with pytest.raises(ValueError, match="missing tensor 'gate.b'"):
            FieldNet(**net.config(), weights=weights)

    def test_set_parameter_roundtrip(self):
        net = small_teacher()
        for name, p in net.params.items():
            # the weight is updated in place, so capture the expected value first
            expected = p.data * 2.0
            net.set_parameter(name, Tensor(expected, requires_grad=True))
            np.testing.assert_array_equal(net.params[name].data, expected)
        with pytest.raises(KeyError):
            net.set_parameter("nonexistent", Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="shape"):
            net.set_parameter("layer0.W", Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("kind", ["teacher", "student", "clone"])
    def test_params_are_views_of_one_flat_vector(self, kind):
        net = (init_student_from_teacher(small_teacher(lr_dim=4)) if kind == "clone" else
               FieldNet(kind, z_dim=3, lr_dim=4, num_content=2, cond_dim=8, time_dim=8,
                        hidden=(16,)))
        assert net.flat.ndim == 1
        assert net.flat.size == sum(p.size for p in net.params.values())
        assert list(net.views(net.flat)) == list(net.params)
        net.flat[:] = np.arange(net.flat.size)
        start = 0
        for name, p in net.params.items():
            assert np.shares_memory(p.data, net.flat), name
            np.testing.assert_array_equal(p.data.ravel(), np.arange(start, start + p.size))
            start += p.size
        with pytest.raises(ValueError, match="vector"):
            net.views(np.zeros(net.flat.size + 1))

    @pytest.mark.parametrize("kind", ["teacher", "student"])
    def test_fresh_weights_match_reference_draw(self, kind):
        # the per-weight draw the flat vector replaced, kept as the reference
        net = FieldNet(kind, z_dim=3, lr_dim=4, num_content=2, cond_dim=8, time_dim=8,
                       hidden=(16, 12), seed=11)
        shapes = net._layout()
        rng = np.random.default_rng(11)
        drawn = {name: rng.normal(0.0, 1.0 / np.sqrt(8), size=shapes[name])
                 for name in ("t_emb.W", "s_emb.W") if name in shapes}
        drawn["cond_table"] = rng.normal(0.0, 0.5, size=shapes["cond_table"])
        for i in range(3):
            shape = shapes[f"layer{i}.W"]
            w = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            if i == 2:
                w *= 0.1
            drawn[f"layer{i}.W"] = w
        for name, p in net.params.items():
            np.testing.assert_array_equal(p.data, drawn.get(name, np.zeros(shapes[name])))

    def test_all_parameters_receive_gradients(self):
        net = small_teacher()
        rng = np.random.default_rng(4)
        out = teacher_forward(net, rng.normal(size=(4, 3)), rng.random(4),
                              np.zeros((4, 0)), [0, 1, 0, 1])
        (out * out).sum().backward()
        for name, p in net.params.items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0) or name == "cond_table", name

    def test_param_count_consistent(self):
        net = small_teacher()
        assert net.flat.size == sum(p.size for p in net.params.values())

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

    def test_student_runs_its_teacher_at_c_noise_one(self):
        # the student embeds time at c_noise = 1 whatever its teacher's c_noise
        teacher = small_teacher(seed=9, c_noise=2.0)
        at_one = small_teacher(seed=9, c_noise=1.0)  # the same draw: c_noise draws nothing
        student = init_student_from_teacher(teacher)
        z = np.random.default_rng(0).normal(size=(4, 3))
        lr = np.zeros((4, 0))
        for t in (0.0, 0.33, 0.9):
            v = teacher_forward(at_one, z, t, lr, 1).data
            for s in (t, 0.95, 1.0):
                np.testing.assert_array_equal(student_forward(student, z, t, s, lr, 1).data, v)
        # at t = 0 every feature is sin 0 or cos 0, so c_noise shows only later
        assert np.any(teacher_forward(teacher, z, 0.33, lr, 1).data
                      != teacher_forward(at_one, z, 0.33, lr, 1).data)

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
        extra = set(student.params) - set(teacher.params)
        assert extra == {"s_emb.W", "s_emb.b"}
        np.testing.assert_array_equal(student.params["s_emb.W"].data, 0.0)

    def test_student_depends_on_s_after_perturbation(self):
        student = init_student_from_teacher(small_teacher(seed=5))
        w = student.params["s_emb.W"]
        student.set_parameter("s_emb.W", Tensor(w.data + 0.5, requires_grad=True))
        z = np.random.default_rng(1).normal(size=(2, 3))
        a = student_forward(student, z, 0.2, 0.4, np.zeros((2, 0)), 0).data
        b = student_forward(student, z, 0.2, 0.9, np.zeros((2, 0)), 0).data
        assert not np.array_equal(a, b)


class TestSharedTime:
    """A t/s shared by the batch is embedded once: the result must match the
    same time given per row, output, parameter gradients and tangent alike."""

    B = 5
    TOL = dict(rtol=1e-12, atol=1e-12)

    @pytest.fixture(params=[("teacher", 0), ("teacher", 4), ("student", 0), ("student", 4)],
                    ids=lambda p: f"{p[0]}-lr{p[1]}")
    def case(self, request):
        kind, lr_dim = request.param
        net = small_teacher(lr_dim=lr_dim, seed=6)
        rng = np.random.default_rng(8)
        if kind == "student":
            net = init_student_from_teacher(net)
            w = net.params["s_emb.W"]
            net.set_parameter("s_emb.W", Tensor(rng.normal(size=w.shape), requires_grad=True))
        z = rng.normal(size=(self.B, 3))
        z_lr = rng.normal(size=(self.B, lr_dim))
        labels = np.array([0, 1, 2, 3, 0])
        return net, z, z_lr, labels

    @staticmethod
    def forward(case, t, s):
        net, z, z_lr, labels = case
        if net.kind == "teacher":
            return teacher_forward(net, z, t, z_lr, labels)
        return student_forward(net, z, t, s, z_lr, labels)

    def per_row(self, x):
        return np.full(self.B, x)

    def test_output(self, case):
        shared = self.forward(case, 0.3, 0.8).data
        rows = self.forward(case, self.per_row(0.3), self.per_row(0.8)).data
        np.testing.assert_allclose(shared, rows, **self.TOL)

    def test_parameter_gradients(self, case):
        net = case[0]
        weights = np.random.default_rng(9).normal(size=(self.B, 3))
        grads = []
        for t, s in ((0.3, 0.8), (self.per_row(0.3), self.per_row(0.8))):
            for p in net.params.values():
                p.grad = None
            (self.forward(case, t, s) * Tensor(weights)).sum().backward()
            grads.append({name: p.grad for name, p in net.params.items()})
        for name in grads[0]:
            np.testing.assert_allclose(grads[0][name], grads[1][name], **self.TOL,
                                       err_msg=name)

    def test_tangent_in_t(self, case):
        _, shared = jvp(lambda t: self.forward(case, t, 0.8), (np.array(0.3),), (np.array(1.0),))
        _, rows = jvp(lambda t: self.forward(case, t, self.per_row(0.8)),
                      (self.per_row(0.3),), (np.ones(self.B),))
        assert np.any(rows != 0.0)
        np.testing.assert_allclose(shared, rows, **self.TOL)


NET_SHAPES = {"gauss": dict(z_dim=2, lr_dim=0, num_content=1, hidden=(16, 16)),
              "sr": dict(z_dim=16, lr_dim=4, num_content=3, hidden=(24, 24))}


class TestNoTape:
    """A ``tape=False`` forward runs on arrays and gives the taped ``.data`` bit for bit."""

    B = 6

    @pytest.fixture(params=[(kind, shape) for kind in ("teacher", "student")
                            for shape in NET_SHAPES], ids=lambda p: f"{p[0]}-{p[1]}")
    def case(self, request):
        kind, shape = request.param
        args = NET_SHAPES[shape]
        net = FieldNet("teacher", cond_dim=8, time_dim=8, seed=3, **args)
        if kind == "student":
            net = init_student_from_teacher(net)
        rng = np.random.default_rng(4)
        # every weight nonzero, the s-embedding, gate and LR skip included
        net.flat[...] = rng.normal(0.0, 0.5, size=net.flat.shape)
        z = rng.normal(size=(self.B, args["z_dim"]))
        z_lr = rng.normal(size=(self.B, args["lr_dim"]))
        labels = rng.integers(0, args["num_content"] + 2, self.B)
        return net, z, z_lr, labels

    @staticmethod
    def forward(case, t, s, tape=True):
        net, z, z_lr, labels = case
        if net.kind == "teacher":
            return teacher_forward(net, z, t, z_lr, labels, tape=tape)
        return student_forward(net, z, t, s, z_lr, labels, tape=tape)

    @pytest.mark.parametrize("times", ["shared", "per_row"])
    def test_equals_the_taped_forward(self, case, times):
        rng = np.random.default_rng(5)
        if times == "shared":
            t, s = 0.3, 0.8
        else:
            t = rng.random(self.B)
            s = t + rng.random(self.B) * (1.0 - t)
        taped = self.forward(case, t, s)
        assert taped._parents
        out = self.forward(case, t, s, tape=False)
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, taped.data)

    def test_builds_no_tensor_per_op(self, case, monkeypatch):
        calls, node = [], mflow.tensor._node

        def spy(*args):
            calls.append(args[0].shape)
            return node(*args)

        monkeypatch.setattr(mflow.tensor, "_node", spy)
        self.forward(case, 0.3, 0.8)
        assert calls  # the taped forward builds one node per op
        calls.clear()
        self.forward(case, 0.3, 0.8, tape=False)
        assert calls == []

    def test_checks_still_raise(self, case):
        net, z, z_lr, labels = case
        with pytest.raises(ValueError, match="condition id"):
            self.forward((net, z, z_lr, np.full(self.B, net.num_content + 2)), 0.3, 0.8, tape=False)
        if net.kind == "student":
            with pytest.raises(ValueError, match="s >= t"):
                self.forward(case, 0.8, 0.3, tape=False)
