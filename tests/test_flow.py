import numpy as np
import pytest
from scipy import stats

import mflow.flow
import mflow.tensor
from mflow.data import FlowBatch, sample_timestep_batch
from mflow.flow import (CFG_MODES, CfgConfig, LossConfig, _student_jvp, cfg_velocity,
                        interpolate, mfd_loss, mfd_target, rf_loss)
from mflow.nets import FieldNet, init_student_from_teacher, student_forward, teacher_forward
from mflow.tensor import Tensor


def make_teacher(seed=0, z_dim=3):
    return FieldNet("teacher", z_dim=z_dim, lr_dim=0, num_content=2, cond_dim=8,
                    time_dim=8, hidden=(16,), seed=seed)


def make_batch(rng, n=4, z_dim=3, same_ts=False):
    t = rng.random(n)
    s = t if same_ts else t + rng.random(n) * (1.0 - t)
    return FlowBatch(z0=rng.normal(size=(n, z_dim)), z1=rng.normal(size=(n, z_dim)),
                     z_lr=np.zeros((n, 0)), labels=rng.integers(0, 2, n),
                     t=t, s=s)


class TestInterpolate:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        z0, z1 = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        np.testing.assert_array_equal(interpolate(z0, z1, 0.0), z0)
        np.testing.assert_array_equal(interpolate(z0, z1, 1.0), z1)

    def test_midpoint_and_per_sample_t(self):
        z0 = np.zeros((3, 2))
        z1 = np.ones((3, 2))
        np.testing.assert_allclose(interpolate(z0, z1, 0.5), 0.5)
        out = interpolate(z0, z1, np.array([0.0, 0.25, 1.0]))
        np.testing.assert_allclose(out, [[0, 0], [0.25, 0.25], [1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros((2, 3)), np.zeros((2, 4)), 0.5)


class TestTimestepSampling:
    def test_ratio_zero_always_degenerate(self):
        rng = np.random.default_rng(1)
        t, s = sample_timestep_batch(rng, 200, 0.0)
        assert np.array_equal(s, t)

    def test_ratio_one_always_interval(self):
        rng = np.random.default_rng(2)
        t, s = sample_timestep_batch(rng, 500, 1.0)
        assert np.all((0.0 <= t) & (t <= s) & (s <= 1.0))
        assert np.mean(s > t) > 0.99

    def test_t_marginal_uniform(self):
        rng = np.random.default_rng(3)
        t, _ = sample_timestep_batch(rng, 2000, 0.5)
        assert stats.kstest(t, "uniform").pvalue > 1e-3

    def test_interval_fraction_matches_ratio(self):
        rng = np.random.default_rng(4)
        t, s = sample_timestep_batch(rng, 20000, 0.25)
        assert np.all(s >= t)
        assert np.mean(s > t) == pytest.approx(0.25, abs=0.02)

    def test_s_conditional_uniform_on_tail(self):
        # Given t and an interval draw, (s - t)/(1 - t) should be U[0, 1].
        rng = np.random.default_rng(5)
        t, s = sample_timestep_batch(rng, 20000, 1.0)
        live = t < 0.999
        q = (s[live] - t[live]) / (1.0 - t[live])
        assert stats.kstest(q, "uniform").pvalue > 1e-3


class TestConfigs:
    def test_cfg_validation(self):
        assert CfgConfig().mode in CFG_MODES
        with pytest.raises(ValueError):
            CfgConfig(mode="nonsense")
        with pytest.raises(ValueError):
            CfgConfig(w=-1.0)
        with pytest.raises(ValueError):
            CfgConfig(kappa=1.0)

    def test_loss_validation_and_default_huber_c(self):
        with pytest.raises(ValueError):
            LossConfig(metric="l1")
        with pytest.raises(ValueError):
            LossConfig(ratio_r=1.5)
        assert LossConfig().resolve_huber_c(4) == pytest.approx(0.06)
        assert LossConfig(huber_c=0.5).resolve_huber_c(4) == 0.5


class TestCfgVelocity:
    def parts(self, seed):
        rng = np.random.default_rng(seed)
        return (make_teacher(seed=seed), rng.normal(size=(3, 3)), rng.random(3),
                np.zeros((3, 0)), np.array([0, 1, 0]))

    def guided(self, teacher, z, t, z_lr, c, ref, w):
        v_c = teacher_forward(teacher, z, t, z_lr, c).data
        v_ref = teacher_forward(teacher, z, t, z_lr, ref).data
        return v_c + w * (v_c - v_ref)

    def test_gt_mode(self):
        rng = np.random.default_rng(0)
        z0, z1 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = cfg_velocity(None, z0, 0.1, None, 0, CfgConfig(mode="gt", w=0.0),
                           z0=z0, z1=z1)
        np.testing.assert_array_equal(out, z1 - z0)
        with pytest.raises(ValueError):
            cfg_velocity(None, z0, 0.1, None, 0, CfgConfig(mode="gt", w=0.0))

    def test_teacher_modes_unguided_at_w_zero(self):
        teacher, z, t, z_lr, c = self.parts(1)
        v_c = teacher_forward(teacher, z, t, z_lr, c).data
        for mode in ("teacher_null", "teacher_neg"):
            out = cfg_velocity(teacher, z, t, z_lr, c, CfgConfig(mode=mode, w=0.0))
            np.testing.assert_array_equal(out, v_c)

    def check_guides_against(self, mode, other, ref_name):
        # v_c + w (v_c - v_ref) with v_ref at the teacher's reserved id; the
        # other teacher mode must give something else.
        teacher, z, t, z_lr, c = self.parts(2)
        out = cfg_velocity(teacher, z, t, z_lr, c, CfgConfig(mode=mode, w=2.5))
        np.testing.assert_array_equal(
            out, self.guided(teacher, z, t, z_lr, c, getattr(teacher, ref_name), 2.5))
        assert not np.array_equal(
            out, cfg_velocity(teacher, z, t, z_lr, c, CfgConfig(mode=other, w=2.5)))

    def test_teacher_null_formula(self):
        self.check_guides_against("teacher_null", "teacher_neg", "null_id")

    def test_teacher_neg_formula(self):
        self.check_guides_against("teacher_neg", "teacher_null", "negative_id")

    def test_original_mf_formula(self):
        teacher = make_teacher(seed=2)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(3)
        z0, z1 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        z = interpolate(z0, z1, 0.4)
        cfg = CfgConfig(mode="original_mf", w=2.0, kappa=0.25)
        out = cfg_velocity(None, z, 0.4, np.zeros((2, 0)), np.array([0, 1]), cfg,
                           student=student, z0=z0, z1=z1)
        u_c = student_forward(student, z, 0.4, 0.4, np.zeros((2, 0)), np.array([0, 1])).data
        u_null = student_forward(student, z, 0.4, 0.4, np.zeros((2, 0)),
                                 np.array([student.null_id] * 2)).data
        expected = 2.0 * (z1 - z0) + 0.25 * u_c + (1.0 - 2.0 - 0.25) * u_null
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        with pytest.raises(ValueError):
            cfg_velocity(None, z, 0.4, None, 0, cfg)


class TestPseudoHuber:
    """mfd_loss(metric="pseudo_huber") is mean_i sqrt(||u_i - target_i||^2 + c^2) - c."""

    def parts(self, seed, same_ts=False):
        teacher = make_teacher(seed=seed)
        student = init_student_from_teacher(teacher)
        batch = make_batch(np.random.default_rng(seed), n=8, same_ts=same_ts)
        return student, teacher, batch

    def residual_norms_sq(self, student, teacher, batch, cfg):
        z_t = interpolate(batch.z0, batch.z1, batch.t)
        v = cfg_velocity(teacher, z_t, batch.t, batch.z_lr, batch.labels, cfg,
                         student=student, z0=batch.z0, z1=batch.z1)
        u, target = mfd_target(student, v, z_t, batch.t, batch.s, batch.z_lr, batch.labels)
        return np.sum((u.data - target.data) ** 2, axis=1)

    def test_zero_for_identical(self):
        # s == t and a student cloned from the teacher: the residual is exactly zero
        student, teacher, batch = self.parts(20, same_ts=True)
        val = mfd_loss(student, teacher, batch, CfgConfig(mode="teacher_null", w=0.0),
                       LossConfig()).item()
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        student, teacher, batch = self.parts(21)
        cfg = CfgConfig(mode="teacher_neg", w=6.0)
        sq = self.residual_norms_sq(student, teacher, batch, cfg)
        for huber_c, c in ((None, 0.03 * np.sqrt(3)), (0.5, 0.5)):
            expected = np.mean(np.sqrt(sq + c * c)) - c
            got = mfd_loss(student, teacher, batch, cfg, LossConfig(huber_c=huber_c)).item()
            assert expected > 1e-3
            assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_quadratic_near_zero_linear_far(self):
        student, teacher, batch = self.parts(22)
        cfg = CfgConfig(mode="teacher_neg", w=6.0)
        sq = self.residual_norms_sq(student, teacher, batch, cfg)
        wide = mfd_loss(student, teacher, batch, cfg, LossConfig(huber_c=1e4)).item()
        assert wide == pytest.approx(np.mean(sq) / 2e4, rel=1e-3)
        narrow = mfd_loss(student, teacher, batch, cfg, LossConfig(huber_c=1e-9)).item()
        assert narrow == pytest.approx(np.mean(np.sqrt(sq)), rel=1e-6)

    def test_invalid_c(self):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError):
                LossConfig(huber_c=c)


class TestRfLoss:
    def zero_teacher(self, z_dim):
        teacher = make_teacher(z_dim=z_dim)
        teacher.flat[:] = 0.0  # predicts exactly 0 everywhere
        return teacher

    def test_zero_for_perfect_oracle(self):
        batch = make_batch(np.random.default_rng(0))
        batch.z1 = batch.z0.copy()
        assert rf_loss(self.zero_teacher(3), batch).item() == 0.0

    def test_known_value_for_constant_offset(self):
        batch = make_batch(np.random.default_rng(1), n=4, z_dim=2)
        batch.z0 = np.round(batch.z0 * 8.0) / 8.0  # dyadic, so z1 - z0 is exactly 1
        batch.z1 = batch.z0 + 1.0
        # residual is all-ones: ||1||^2 = dim per sample
        assert rf_loss(self.zero_teacher(2), batch).item() == 2.0

    def test_decreases_under_gradient_step(self):
        teacher = make_teacher(seed=4)
        rng = np.random.default_rng(4)
        batch = make_batch(rng, n=16)
        loss0 = rf_loss(teacher, batch)
        loss0.backward()
        for p in teacher.params.values():
            if p.grad is not None:
                p.data -= 1e-3 * p.grad
        assert rf_loss(teacher, batch).item() < loss0.item()


class TestMfdTarget:
    def test_degenerate_interval_is_exactly_v_inst(self):
        teacher = make_teacher(seed=6)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        t = rng.random(4)
        _, target = mfd_target(student, v, z, t, t, np.zeros((4, 0)), 0)
        assert np.array_equal(target.data, v)  # bit-identical

    def test_jvp_matches_directional_finite_difference(self):
        # The t-derivative term is taken along the trajectory: perturb (z, t)
        # jointly by h (v_inst, 1) at fixed s.
        teacher = make_teacher(seed=7)
        student = init_student_from_teacher(teacher)
        # perturb s-embedder so u genuinely depends on s
        w = student.params["s_emb.W"]
        student.set_parameter("s_emb.W", Tensor(w.data + 0.3, requires_grad=True))
        rng = np.random.default_rng(7)
        z = rng.normal(size=(2, 3))
        v = rng.normal(size=(2, 3))
        t, s = 0.3, 0.8
        lr = np.zeros((2, 0))
        _, target = mfd_target(student, v, z, t, s, lr, 1)
        h = 1e-5
        up = student_forward(student, z + h * v, t + h, s, lr, 1).data
        dn = student_forward(student, z - h * v, t - h, s, lr, 1).data
        dudt = (up - dn) / (2 * h)
        np.testing.assert_allclose(target.data, v + (s - t) * dudt, rtol=1e-4, atol=1e-8)

    def test_student_jvp_matches_hand_built_duals(self):
        student = init_student_from_teacher(make_teacher(seed=9))
        rng = np.random.default_rng(9)
        z, v = rng.normal(size=(2, 5, 3))
        t = rng.random(5)
        s = t + rng.random(5) * (1.0 - t)
        lr, c = np.zeros((5, 0)), rng.integers(0, 2, 5)
        ref = student_forward(student, Tensor(z, tangent=v),
                              Tensor(t[:, None], tangent=np.ones((5, 1))),
                              Tensor(s[:, None], tangent=np.zeros((5, 1))), lr, c)
        u, dudt = _student_jvp(student, z, t, s, lr, c, v)
        np.testing.assert_array_equal(u.data, ref.data)
        np.testing.assert_array_equal(dudt, ref.tangent)

    @pytest.mark.parametrize("z_dim, lr_dim, num_content", [(2, 0, 1), (64, 16, 3)])
    def test_student_jvp_equals_the_dense_tangent_rules(self, monkeypatch, z_dim, lr_dim,
                                                        num_content):
        # gauss- and SR-shaped students; the s-embedding is drawn, so s matters
        student = FieldNet("student", z_dim, lr_dim, num_content, cond_dim=8, time_dim=8,
                           hidden=(16, 16), seed=10)
        rng = np.random.default_rng(10)
        z, v = rng.normal(size=(2, 6, z_dim))
        lr = rng.normal(size=(6, lr_dim))
        t = rng.random(6)
        s = t + rng.random(6) * (1.0 - t)
        c = rng.integers(0, num_content, 6)
        u, dudt = _student_jvp(student, z, t, s, lr, c, v)

        def dense(a, b, shape, left, right):
            # the former rule: a missing tangent is an explicit zero
            if a.tangent is None and b.tangent is None:
                return None
            ta = np.zeros_like(a.data) if a.tangent is None else a.tangent
            tb = np.zeros_like(b.data) if b.tangent is None else b.tangent
            return left(ta) + right(tb)

        monkeypatch.setattr(mflow.tensor, "_dual", dense)
        u_ref, dudt_ref = _student_jvp(student, z, t, s, lr, c, v)
        np.testing.assert_array_equal(u.data, u_ref.data)
        np.testing.assert_array_equal(dudt, dudt_ref)

    def test_target_is_constant(self):
        teacher = make_teacher(seed=8)
        student = init_student_from_teacher(teacher)
        _, target = mfd_target(student, np.ones((1, 3)), np.zeros((1, 3)), 0.1, 0.9,
                            np.zeros((1, 0)), 0)
        assert not target._parents and not target.requires_grad
        assert target.tangent is None


class TestMfdLoss:
    def test_teacher_gets_no_gradient(self):
        teacher = make_teacher(seed=9)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(9)
        batch = make_batch(rng, n=8)
        loss = mfd_loss(student, teacher, batch, CfgConfig(mode="teacher_null", w=1.0),
                        LossConfig())
        loss.backward()
        assert all(p.grad is None for p in teacher.params.values())
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in student.params.values())

    @pytest.mark.parametrize("metric", ["squared_l2", "pseudo_huber"])
    @pytest.mark.parametrize("mode", ["gt", "teacher_null"])
    def test_loss_carries_no_tangent(self, mode, metric):
        # du/dt leaves the student's dual pass as an array, so no op after it forms a tangent
        teacher = make_teacher(seed=12)
        student = init_student_from_teacher(teacher)
        batch = make_batch(np.random.default_rng(12), n=6)
        loss = mfd_loss(student, teacher, batch, CfgConfig(mode=mode, w=1.0),
                        LossConfig(metric=metric))
        assert loss.tangent is None

    def test_loss_nonnegative_and_finite(self):
        teacher = make_teacher(seed=10)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(10)
        batch = make_batch(rng, n=8)
        for metric in ("squared_l2", "pseudo_huber"):
            val = mfd_loss(student, teacher, batch, CfgConfig(mode="teacher_neg", w=6.0),
                           LossConfig(metric=metric)).item()
            assert np.isfinite(val) and val >= 0.0

    def test_degenerate_pairs_reduce_to_instantaneous_matching(self):
        # With s == t everywhere and an exact-teacher student, the loss is 0
        # up to the huber transform of a zero residual.
        teacher = make_teacher(seed=11)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(11)
        batch = make_batch(rng, n=6, same_ts=True)
        val = mfd_loss(student, teacher, batch, CfgConfig(mode="teacher_null", w=0.0),
                       LossConfig(metric="squared_l2")).item()
        assert val == 0.0

    def test_distillation_step_reduces_loss(self):
        teacher = make_teacher(seed=12)
        student = init_student_from_teacher(teacher)
        rng = np.random.default_rng(12)
        batch = make_batch(rng, n=16)
        cfg, lc = CfgConfig(mode="teacher_null", w=0.0), LossConfig(metric="squared_l2")
        loss0 = mfd_loss(student, teacher, batch, cfg, lc)
        loss0.backward()
        for name, p in student.params.items():
            if p.grad is not None:
                student.set_parameter(name, Tensor(p.data - 1e-3 * p.grad, requires_grad=True))
        assert mfd_loss(student, teacher, batch, cfg, lc).item() < loss0.item()


def _dense_node(value, tangent, parents, backward):
    """The former op result: parents and a backward rule on every node."""
    return Tensor(value, tangent=tangent, _parents=parents, _backward=backward)


def _tape_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestTapeUse:
    """cfg_velocity builds no tape; the losses drop constant nodes only."""

    def parts(self):
        rng = np.random.default_rng(31)
        teacher = FieldNet("teacher", z_dim=3, lr_dim=2, num_content=2, cond_dim=8,
                           time_dim=8, hidden=(16, 16), seed=4)
        student = init_student_from_teacher(teacher)
        student.flat[...] = rng.normal(0.0, 0.5, size=student.flat.shape)
        z0, z1 = rng.normal(size=(2, 5, 3))
        t = rng.random(5)
        return teacher, student, z0, z1, interpolate(z0, z1, t), t, rng.normal(size=(5, 2))

    @pytest.mark.parametrize("mode", CFG_MODES)
    def test_cfg_velocity_equals_the_taped_formula(self, mode):
        teacher, student, z0, z1, z, t, z_lr = self.parts()
        c = np.array([0, 1, 0, 1, 1])
        cfg = CfgConfig(mode=mode, w=2.5, kappa=0.25)
        out = cfg_velocity(teacher, z, t, z_lr, c, cfg, student=student, z0=z0, z1=z1)
        if mode == "gt":
            ref = z1 - z0
        elif mode == "original_mf":
            u_c = student_forward(student, z, t, t, z_lr, c)
            u_null = student_forward(student, z, t, t, z_lr, student.null_id)
            assert u_c._parents and u_null._parents
            ref = cfg.w * (z1 - z0) + cfg.kappa * u_c.data + (1.0 - cfg.w - cfg.kappa) * u_null.data
        else:
            ref_id = teacher.null_id if mode == "teacher_null" else teacher.negative_id
            v_c = teacher_forward(teacher, z, t, z_lr, c)
            v_ref = teacher_forward(teacher, z, t, z_lr, ref_id)
            assert v_c._parents and v_ref._parents
            ref = v_c.data + cfg.w * (v_c.data - v_ref.data)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("mode", ["teacher_null", "original_mf"])
    def test_cfg_velocity_nets_run_without_a_tape(self, mode, monkeypatch):
        teacher, student, z0, z1, z, t, z_lr = self.parts()
        results = []

        def spy(forward):
            def call(*args, **kwargs):
                results.append(forward(*args, **kwargs))
                return results[-1]
            return call

        monkeypatch.setattr(mflow.flow, "teacher_forward", spy(teacher_forward))
        monkeypatch.setattr(mflow.flow, "student_forward", spy(student_forward))
        cfg_velocity(teacher, z, t, z_lr, 0, CfgConfig(mode=mode, w=1.0), student=student,
                     z0=z0, z1=z1)
        assert len(results) == 2
        assert all(type(r) is np.ndarray for r in results)

    @pytest.mark.parametrize("mode", ["teacher_null", "teacher_neg", "original_mf"])
    def test_losses_drop_constant_nodes_only(self, mode, monkeypatch):
        teacher, student, z0, z1, _, t, z_lr = self.parts()
        rng = np.random.default_rng(32)
        batch = FlowBatch(z0=z0, z1=z1, z_lr=z_lr, labels=np.array([0, 1, 0, 1, 3]), t=t,
                          s=t + rng.random(5) * (1.0 - t))
        cfg = CfgConfig(mode=mode, w=1.5, kappa=0.25)

        def losses():
            out = []
            for loss in (mfd_loss(student, teacher, batch, cfg, LossConfig()),
                         rf_loss(teacher, batch)):
                for p in [*student.params.values(), *teacher.params.values()]:
                    p.grad = None
                loss.backward()
                out.append((_tape_nodes(loss), [p.grad for p in student.params.values()],
                            [p.grad for p in teacher.params.values()]))
            return out

        sparse = losses()
        monkeypatch.setattr(mflow.tensor, "_node", _dense_node)
        dense = losses()
        for (n, *grads), (n_ref, *grads_ref) in zip(sparse, dense):
            for got, ref in zip(grads, grads_ref):
                for g, r in zip(got, ref):
                    assert (g is None) == (r is None)
                    if g is not None:
                        np.testing.assert_array_equal(g, r)
        # per time embedding, the t leaf, c_noise freqs, their product and sincos
        # become one constant; rf_loss also reshapes its 1-d t
        assert (dense[0][0] - sparse[0][0], dense[1][0] - sparse[1][0]) == (6, 4)
