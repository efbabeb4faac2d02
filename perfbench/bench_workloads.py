"""The workloads: generated configs and the fixed CLI pipeline of one round.

A round is what a user does once: train a teacher, distill a student,
sweep the step counts, draw samples, verify the identity against the
closed-form Gaussian flow (gauss only), then send sampling requests to the
student. Every round of a run takes its configs from ``round_seed(seed, r)``;
the program sees only the config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVAL_STEPS = (1, 2, 4)
VERIFY_ARGS = ("--grid", "6", "--steps", "256")
VERIFY_LIMIT = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict            # config keys shared by teacher and student
    teacher: dict         # teacher-only keys
    distill: dict         # student-only keys
    eval_n: int           # eval --n: samples (gauss) or held-out pairs (SR)
    requests: int         # timed sampling requests per round
    request_batch: int    # samples per request

    @property
    def is_sr(self) -> bool:
        return self.base["task"] == "toysr"

    def configs(self, seed: int) -> tuple[dict, dict]:
        """(train-teacher config, distill config) for one round seed."""
        return ({**self.base, **self.teacher, "seed": seed},
                {**self.base, **self.distill, "seed": seed})

    def pipeline(self, cfg_dir: Path, out: Path) -> list[tuple[str, list[str]]]:
        """The round's CLI commands, as (label, argv) in the order they run."""
        teacher = str(cfg_dir / "teacher.json")
        student = str(cfg_dir / "distill.json")
        o = ["--out", str(out)]
        commands = [
            ("train-teacher", ["train-teacher", "--config", teacher, *o]),
            ("distill", ["distill", "--config", student, *o]),
            ("eval", ["eval", "--config", student, *o, "--n", str(self.eval_n),
                      "--steps", *map(str, EVAL_STEPS)]),
            ("sample", ["sample", "--config", student, *o, "--n", "8"]),
        ]
        if not self.is_sr:  # verify checks the Gaussian oracle; it has no SR counterpart
            commands.append(("verify", ["verify", "--config", student,
                                        "--out", str(out / "verify"), *VERIFY_ARGS]))
        return commands


_GAUSS = {"task": "gaussian", "batch_size": 256, "hidden": [128, 128],
          "gauss_mu": [1.0, -0.5], "gauss_sigma": 1.0, "log_every": 100,
          "cfg": {"mode": "teacher_null", "w": 0.0}}
_SR = {"task": "toysr", "batch_size": 32, "hidden": [256, 256], "neg_pair_prob": 0.25,
       "lr": 1e-3, "lr_final": 2e-5, "log_every": 20}
_SR_LOSS = {"metric": "pseudo_huber", "ratio_r": 0.5}

WORKLOADS = {
    "gauss": Workload(
        name="gauss",
        why="tiny matmuls: per-op Python, tape and tangent bookkeeping dominate; "
            "closed-form quality and the oracle layer; w=0 teacher_null wastes a teacher call",
        base=_GAUSS,
        teacher={"steps": 350, "lr": 2e-3, "lr_final": 1e-4},
        distill={"steps": 175, "lr": 1e-3, "lr_final": 1e-5,
                 "loss": {"metric": "pseudo_huber", "huber_c": 0.5, "ratio_r": 0.5}},
        eval_n=4096, requests=2000, request_batch=256),
    "sr-pool": Workload(
        name="sr-pool",
        why="720k-param SR net trained from a pregenerated 1024-pair pool: wide BLAS matmuls, "
            "Adam and clipping, checkpoint bytes, pool builds; teacher_neg w=6 needs both "
            "teacher calls",
        base={**_SR, "train_pool": 1024},
        teacher={"steps": 40},
        distill={"steps": 40, "cfg": {"mode": "teacher_neg", "w": 6.0}, "loss": _SR_LOSS},
        eval_n=64, requests=2000, request_batch=1),
}


def round_seed(seed: int, r: int) -> int:
    """Config seed of round ``r`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0] >> 1)


def write_configs(wl: Workload, seed: int, cfg_dir: Path) -> tuple[dict, dict]:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    teacher, student = wl.configs(seed)
    for name, cfg in (("teacher.json", teacher), ("distill.json", student)):
        (cfg_dir / name).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return teacher, student


def warm_up(teacher_cfg: dict) -> None:
    """One teacher loss and backward on the workload's shapes: first-call costs."""
    from mflow.data import make_batch
    from mflow.flow import rf_loss
    from mflow.training import RunConfig

    config = RunConfig.from_dict(teacher_cfg)
    rng = np.random.default_rng(config.seed)
    batch = make_batch(config.dataset(), config.batch_size, rng, ratio_r=0.0)
    rf_loss(config.build_teacher(), batch).backward()
