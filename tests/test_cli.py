import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mflow
import mflow.cli
from mflow.cli import run
from mflow.training import (CheckpointError, RunConfig, load_checkpoint, load_teacher,
                            params_digest, save_checkpoint)


def base_config(tmp_path, **kw):
    cfg = {"task": "gaussian", "seed": 1, "steps": 15, "batch_size": 8,
           "lr": 1e-3, "hidden": [8], "time_dim": 8, "cond_dim": 4,
           "cfg": {"mode": "teacher_null", "w": 0.0}}
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _modules_loaded_by(module: str, prefix: str) -> list[str]:
    """Names starting with ``prefix`` in sys.modules after a fresh interpreter imports ``module``."""
    code = (f"import json, sys, {module}; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    src = str(Path(mflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy alone; scipy is a test dependency
    assert _modules_loaded_by("mflow.cli", "scipy") == []


def test_data_module_loads_no_other_mflow_module():
    # datasets and batches stand apart from the nets, the losses and the engine
    assert _modules_loaded_by("mflow.data", "mflow.") == ["mflow.data"]


def test_every_command_starts_and_ends_handing_free_heap_back(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(mflow.cli, "_malloc_trim", calls.append)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"task": "gaussian", "seed": 2}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert run([]) == 1
    assert run(["gen-data", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "e")]) == 3
    assert calls == [0] * 6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_glibc_trim_is_found():
    assert mflow.cli._malloc_trim.restype is ctypes.c_int


class TestParsingAndErrors:
    def test_no_args_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["banana"]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "gaussian", "bogus": 1}))
        assert run(["train-teacher", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_set(self, tmp_path, capsys):
        assert run(["train-teacher", "--set", "nokey", "--out", str(tmp_path)]) == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train-teacher", "--set", "log_every=0"],
        ["distill", "--set", "log_every=0"],
        ["train-teacher", "--set", "ckpt_every=-1"],
        ["train-teacher", "--set", "time_dim=7"],
        ["train-teacher", "--set", "hidden=5"],
        ["train-teacher", "--set", "task=toysr", "--set", "hr_size=30"],
        ["train-teacher", "--set", "task=toysr", "--set", "hr_size=0"],
        ["train-teacher", "--set", "task=toysr", "--set", "hr_size=-4"],
        ["verify", "--set", "gauss_sigma=0"],
        ["eval", "--set", "gauss_sigma=-1"],
        ["sample", "--steps", "0"],
        ["sample", "--n", "0"],
        ["sample", "--n", "-1"],
        ["eval", "--steps", "0"],
        ["eval", "--n", "1"],
        ["verify", "--grid", "0"],
        ["train-teacher", "--set", "seed=-1"],
        ["train-teacher", "--set", "steps=1.5"],
        ["train-teacher", "--set", "batch_size=2.5"],
        ["train-teacher", "--set", "steps=true"],
        ["train-teacher", "--set", "cond_dim=-1"],
        ["train-teacher", "--set", "task=toysr", "--set", "num_content=0"],
        ["train-teacher", "--set", "neg_pair_prob=2"],
        ["train-teacher", "--set", "time_dim=0"],
        ["train-teacher", "--set", "task=gaussian", "--set", "gauss_mu=[]"],
        ["train-teacher", "--set", "lr=abc"],
        ["train-teacher", "--set", "task=gen2d"],
        ["train-teacher", "--set", "dist=ring"],
        ["verify", "--set", "task=toysr"],
    ])
    def test_out_of_range_value_is_one_usage_line(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("settings, message", [
        (["task=toysr", "train_pool=-3"], "train_pool must be >= 0"),
        (["task=gaussian", "train_pool=5"], "train_pool needs task toysr"),
    ], ids=["negative", "not_toysr"])
    def test_train_pool_is_refused(self, settings, message, tmp_path, capsys):
        argv = ["train-teacher", "--out", str(tmp_path)]
        for setting in settings:
            argv += ["--set", setting]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("setting, field", [
        ("cfg=5", "cfg"),
        ("cfg.bogus=1", "cfg"),
        ("loss=[1]", "loss"),
        ("hidden=[true,4]", "hidden"),
        ("cfg.w=abc", "cfg.w"),
        ("cfg.w=NaN", "cfg.w"),
        ("cfg.kappa=abc", "cfg.kappa"),
        ("loss.ratio_r=abc", "loss.ratio_r"),
        ("loss.huber_c=abc", "loss.huber_c"),
        ("lr=Infinity", "lr"),
        ("teacher_ckpt=5", "teacher_ckpt"),
    ])
    def test_malformed_field_is_one_line_naming_it(self, setting, field, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train-teacher", "--set", setting, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert field in err.split(":", 1)[1]
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("config_text, sets", [
        ('{"task": "gaussian",', []),
        (None, ["steps=3", "steps.x=1"]),
        ("[1, 2]", ["steps=3"]),
    ], ids=["malformed-json", "set-inside-a-number", "top-level-array"])
    def test_unusable_config_is_one_usage_line(self, config_text, sets, tmp_path, capsys):
        argv = ["train-teacher", "--out", str(tmp_path / "run")]
        if config_text is not None:
            (tmp_path / "c.json").write_text(config_text)
            argv += ["--config", str(tmp_path / "c.json")]
        for item in sets:
            argv += ["--set", item]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "run" / "config.json").exists()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run(["train-teacher", "--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path)]) == 3


class TestTrainAndDistill:
    def test_train_writes_resolved_config_and_ckpt(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["train-teacher", "--config", base_config(tmp_path), "--out", str(out)])
        assert code == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["task"] == "gaussian" and resolved["steps"] == 15
        assert (out / "teacher.ckpt").exists()

    def test_set_overrides_nested_keys(self, tmp_path):
        out = tmp_path / "run"
        code = run(["train-teacher", "--config", base_config(tmp_path), "--out", str(out),
                    "--set", "steps=5", "--set", "loss.ratio_r=0.25", "--seed", "9"])
        assert code == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["steps"] == 5
        assert resolved["loss"]["ratio_r"] == 0.25
        assert resolved["seed"] == 9

    def test_full_pipeline_train_distill_sample_eval(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = base_config(tmp_path)
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == 0
        assert run(["distill", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "student.ckpt").exists()
        assert run(["sample", "--config", cfg, "--out", str(out), "--n", "6",
                    "--steps", "2"]) == 0
        pts = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert pts.shape == (6, 2) and np.all(np.isfinite(pts))
        assert run(["eval", "--config", cfg, "--out", str(out), "--n", "64",
                    "--steps", "1", "2"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "N,metric_name,value,n_samples,seed"
        assert len(lines) == 5  # two metrics per step count

    def test_same_config_runs_bit_identical(self, tmp_path):
        cfg = base_config(tmp_path)
        run(["train-teacher", "--config", cfg, "--out", str(tmp_path / "a")])
        run(["train-teacher", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "teacher.ckpt").read_bytes()
        b = (tmp_path / "b" / "teacher.ckpt").read_bytes()
        assert a == b


class TestBadCheckpoints:
    """A bad checkpoint is exit code 3 with one stderr line, never a traceback."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        cfg = base_config(root)
        out = root / "run"
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == 0
        assert run(["distill", "--config", cfg, "--out", str(out)]) == 0
        return cfg, out

    @pytest.mark.parametrize("case", ["garbage", "truncated", "teacher", "mismatched"])
    def test_sample_refuses(self, trained, tmp_path, capsys, case):
        cfg, out = trained
        ckpt = tmp_path / "student.ckpt"
        raw = (out / "student.ckpt").read_bytes()
        if case == "garbage":
            ckpt.write_bytes(b"not a checkpoint at all")
        elif case == "truncated":
            ckpt.write_bytes(raw[:len(raw) // 2])
        elif case == "teacher":
            ckpt = out / "teacher.ckpt"
        else:
            ckpt = out / "student.ckpt"
            cfg = base_config(tmp_path, gauss_mu=[1.0, -0.5, 0.0])
        capsys.readouterr()
        code = run(["sample", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--ckpt", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("checkpoint error:") and err.count("\n") == 1

    def test_distill_refuses_mismatched_teacher(self, trained, tmp_path, capsys):
        _, out = trained
        cfg = base_config(tmp_path, gauss_mu=[1.0, -0.5, 0.0],
                          teacher_ckpt=str(out / "teacher.ckpt"))
        code = run(["distill", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "does not match" in capsys.readouterr().err

    def test_distill_refuses_config_unlike_teacher(self, trained, tmp_path, capsys):
        _, out = trained
        cfg = base_config(tmp_path, hidden=[8, 8], teacher_ckpt=str(out / "teacher.ckpt"))
        capsys.readouterr()
        code = run(["distill", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("checkpoint error:") and err.count("\n") == 1
        assert "hidden=[8, 8]" in err and "[8]" in err


class TestVerify:
    def test_verify_passes_and_writes_grid(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify", "--config", base_config(tmp_path), "--out", str(out),
                    "--grid", "4", "--steps", "512"])
        assert code == 0
        assert "max residual" in capsys.readouterr().out
        lines = (out / "residual_grid.csv").read_text().strip().splitlines()
        assert lines[0] == "t,s,max_resid,mean_resid"
        assert len(lines) > 1

    def test_nonfinite_residual_exits_2(self, tmp_path, capsys):
        # x - t mu overflows, so every residual is NaN or inf
        code = run(["verify", "--set", "gauss_mu=[1e308,1e308]", "--grid", "2",
                    "--steps", "16", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "identity residual is not finite\n"

    def test_a_nan_after_a_finite_cell_exits_2(self, tmp_path, monkeypatch, capsys):
        cells = [{"t": 0.0, "s": 0.5, "max_resid": 1e-6, "mean_resid": 1e-6, "skipped": False},
                 {"t": 0.0, "s": 1.0, "max_resid": float("nan"), "mean_resid": float("nan"),
                  "skipped": False}]
        monkeypatch.setattr(mflow.cli, "identity_residual_grid", lambda *a, **k: cells)
        assert run(["verify", "--grid", "2", "--out", str(tmp_path)]) == 2
        assert "max residual nan" in capsys.readouterr().out

    def test_sigma_whose_square_is_zero_is_one_usage_line(self, tmp_path, capsys):
        assert run(["verify", "--set", "gauss_sigma=1e-200", "--grid", "2", "--steps", "16",
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: gauss_sigma is so small that its square is 0\n"


class TestGenData:
    def test_toysr_pairs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "toysr", "seed": 3, "hr_size": 16}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "hr_000.pgm").exists() and (out / "lr_000.pgm").exists()
        assert (out / "manifest.csv").read_text().startswith("index,seed,class")

    def test_gaussian_points(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "gaussian", "gauss_mu": [3.0, -2.0],
                                   "gauss_sigma": 0.5, "seed": 4}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        pts = np.loadtxt(out / "points.csv", delimiter=",", skiprows=1)
        assert pts.shape == (2048, 2)
        np.testing.assert_allclose(pts.mean(axis=0), [3.0, -2.0], atol=0.05)
        np.testing.assert_allclose(pts.std(axis=0), [0.5, 0.5], atol=0.05)


class TestCheckpointMeta:
    def test_ckpt_records_config_digest(self, tmp_path):
        out = tmp_path / "run"
        run(["train-teacher", "--config", base_config(tmp_path), "--out", str(out)])
        _, meta = load_checkpoint(out / "teacher.ckpt")
        assert meta["role"] == "teacher"
        assert meta["step"] == 15
        assert len(meta["config_digest"]) == 64


class TestInspect:
    def test_prints_one_json_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = base_config(tmp_path, steps=3)
        assert run(["train-teacher", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["inspect", str(out / "teacher.ckpt")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        teacher = load_teacher(out / "teacher.ckpt")
        config = RunConfig.from_dict(json.loads((out / "config.json").read_text()))
        assert json.loads(lines[0]) == {
            "role": "teacher", "kind": "teacher", "step": 3, "adam_step": 3,
            "param_count": teacher.flat.size,
            "params_digest": params_digest(teacher.params),
            "config_digest": config.digest()}

    @pytest.fixture(scope="class")
    def teacher_ckpt(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inspect")
        assert run(["train-teacher", "--config", base_config(tmp, steps=2),
                    "--out", str(tmp / "run")]) == 0
        return tmp / "run" / "teacher.ckpt"

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("net_config"),
        lambda meta: meta["net_config"].update(depth=3),
        # a checkpoint cannot hand the constructor its own weights
        lambda meta: meta["net_config"].update(weights={}),
        lambda meta: meta["net_config"].update(kind="critic"),
    ], ids=["removed", "unknown-key", "weights-key", "unknown-kind"])
    def test_bad_net_config_is_refused(self, teacher_ckpt, edit, tmp_path, capsys):
        tensors, meta = load_checkpoint(teacher_ckpt)
        edit(meta)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, tensors, meta)
        with pytest.raises(CheckpointError):
            load_teacher(bad)
        capsys.readouterr()
        assert run(["inspect", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("checkpoint error:") and captured.err.count("\n") == 1

    def test_bad_file_exits_3_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        assert run(["inspect", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("checkpoint error:") and captured.err.count("\n") == 1
