"""Tests of the benchmark itself: BENCHMARK.json, result schema, tracer hygiene.

Runs on shrunken copies of the workloads, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_runner  # noqa: E402
from bench_metrics import ALL, END_TO_END, PER_LAYER  # noqa: E402
from bench_tracing import Tracer, self_times  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str):
    wl = WORKLOADS[name]
    base = {**wl.base, "hidden": [16, 16], "time_dim": 8, "cond_dim": 4}
    if wl.is_sr:
        base["train_pool"] = min(base["train_pool"], 8)
    return dataclasses.replace(wl, base=base, teacher={**wl.teacher, "steps": 3},
                               distill={**wl.distill, "steps": 2}, eval_n=4, requests=3)


def _mflow_attributes() -> dict:
    from bench_tracing import _mflow_owners
    return {(id(o), k): v for o in _mflow_owners() for k, v in vars(o).items()}


def _assert_unchanged(before: dict) -> None:
    after = _mflow_attributes()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(ALL)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [{"name": m.name, "unit": m.unit, "better": m.better,
                                   "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(spec["per_layer"]) <= 128 and 2 <= len(spec["workloads"]) <= 8


def test_every_layer_metric_names_its_target():
    e2e = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        assert set(m.target.split(",")) <= e2e, m.name
        assert m.workloads and set(m.workloads) <= set(WORKLOADS), m.name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_removes_its_wrappers(name, tmp_path):
    before = _mflow_attributes()
    out = bench_runner.run(tiny(name), seed=3, seconds=1, trace=True, out_root=tmp_path)
    _assert_unchanged(before)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out["manifest"]["failures"]
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    for m in PER_LAYER:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit and math.isfinite(value["value"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    useful = {"gauss": 0.5, "sr-pool": 1.0}[name]
    assert metrics["flow.cfg_velocity.useful_ratio"] == useful
    assert metrics["tensor.matmul.one_sided_tangent"] == 6 * 2  # per distill step
    assert (tmp_path / out["run_dir"].name / "spans.jsonl").is_file()


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    out = bench_runner.run(tiny("sr-pool"), seed=4, seconds=1, trace=False, out_root=tmp_path)
    result = out["result"]
    assert result["correct"], out["manifest"]["failures"]
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rounds = out["manifest"]["rounds"]
    assert len(rounds) >= bench_runner.MIN_ROUNDS
    # set-up probes spread over the run
    assert len(out["manifest"]["setup_probes"]) == bench_runner.PROBES_PER_ROUND * len(rounds)
    # timings are scaled to the nominal host speed; the unscaled ones stay in the manifest
    assert all(r["scales"].keys() == {*r["times"], "requests"} for r in rounds)
    assert out["manifest"]["raw_timings"].keys() < result["metrics"].keys()
    assert all("verify" not in r["times"] for r in rounds)  # verify runs on gauss only
    env = out["manifest"]["environment"]
    assert {"python", "numpy", "scipy", "openblas", "nproc", "thread_policy",
            "git_commit", "source_sha256"} <= set(env)


def test_failed_traced_run_still_reports_which_layer_raised(tmp_path, monkeypatch):
    import mflow.training

    def step(self, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(mflow.training.Adam, "step", step)
    out = bench_runner.run(tiny("gauss"), seed=3, seconds=1, trace=True, out_root=tmp_path)
    result = out["result"]
    assert not result["correct"] and result["failed"] >= 3
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    errors = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".errors")}
    assert errors["training.adam_step.errors"] == 1
    assert errors["training.train_teacher.errors"] == errors["cli.run.errors"] == 1
    assert errors["tensor.backward.errors"] == 0


def test_tracer_restores_originals_when_the_round_raises():
    before = _mflow_attributes()
    tracer = Tracer("t")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            import mflow.tensor
            assert mflow.tensor.Tensor.matmul is not before[(id(mflow.tensor.Tensor), "matmul")]
            raise RuntimeError("boom")
    _assert_unchanged(before)


def test_tracer_counts_calls_that_raise():
    import mflow.nets

    tracer = Tracer("t")
    with tracer.installed(), pytest.raises(ValueError):
        mflow.nets.teacher_forward(mflow.nets.FieldNet("student", 2, 0, 1, hidden=(4,)),
                                   [[0.0, 0.0]], 0.0, [[]], 0)
    assert [(s[0], s[5]) for s in tracer.spans] == [("nets.teacher_forward", True)]


def test_self_time_subtracts_direct_children_and_their_wrappers():
    spans = [["a", 0.0, 10.0, -1, None, False, 0.0],
             ["b", 1.0, 4.0, 0, None, False, 0.5],
             ["c", 2.0, 3.0, 1, None, False, 0.25],
             ["d", 5.0, 6.0, 0, None, False, 0.0]]
    assert self_times(spans) == [5.5, 1.75, 1.0, 1.0]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gauss", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
