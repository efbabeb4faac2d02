"""Metric tables: every name the benchmark prints, its unit, and what it guards.

``END_TO_END`` is what a user of the pipeline sees; an untraced run
(``--trace 0``) reports all of it. ``PER_LAYER`` comes from the traced run
(``--trace 1``). Each per-layer entry names the end-to-end metric it should
move and the workloads where that shows, so a change to one layer can be
checked against the prediction. ``BENCHMARK.json`` mirrors the name, unit
and direction of both tables; the tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("gauss", "sr-pool")
SR = ("sr-pool",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    meaning: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of the parent median
    target: str = ""            # per-layer only: the end-to-end metric it should move
    workloads: tuple = ALL      # per-layer only: where that effect should show


# The timings below marked "scaled" are wall times scaled to the nominal host speed
# (bench_speed.py); their unscaled values are in the run manifest.
END_TO_END = (
    Metric("setup_s", "s", "lower", "median cold start of a fresh process (imports, config "
           "generation, a first-call warm-up), probed once before each round; scaled",
           bound=0.25),
    Metric("pipeline_s", "s", "lower", "median wall time of one round's fixed CLI pipeline "
           "(train-teacher, distill, eval, sample; verify on gauss); scaled", bound=0.25),
    Metric("teacher_samples_per_s", "samples/s", "higher",
           "batch x steps / wall time of train-teacher; scaled", bound=0.25),
    Metric("distill_samples_per_s", "samples/s", "higher",
           "batch x steps / wall time of distill; scaled", bound=0.25),
    Metric("sample_per_s", "samples/s", "higher",
           "one-step student samples per second of request time (the mean request latency); "
           "scaled; the median latency is in the manifest", bound=0.25),
    Metric("sample_ms_p99", "ms", "lower", "99th-percentile latency of one sampling request, "
           "per 1000 requests, lower quartile over the run; scaled", bound=0.25),
    Metric("onestep_rmse", "rms", "lower",
           "one-step error: SR restorations against the HR images of the held-out eval pool, "
           "gauss samples against the oracle's exact flow map of the same noise; mean over "
           "the first five rounds", bound=0.2),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the benchmark process", bound=0.1),
)


# (module, attribute, span name): the calls the traced run wraps
TRACED = (
    ("mflow.tensor", "Tensor.backward", "tensor.backward"),
    ("mflow.tensor", "Tensor.matmul", "tensor.matmul"),
    ("mflow.tensor", "Tensor.__neg__", "tensor.neg"),
    ("mflow.tensor", "Tensor.__pow__", "tensor.pow"),
    ("mflow.nets", "teacher_forward", "nets.teacher_forward"),
    ("mflow.nets", "student_forward", "nets.student_forward"),
    ("mflow.nets", "FieldNet.set_parameter", "nets.set_parameter"),
    ("mflow.nets", "init_student_from_teacher", "nets.init_student_from_teacher"),
    ("mflow.flow", "rf_loss", "flow.rf_loss"),
    ("mflow.flow", "cfg_velocity", "flow.cfg_velocity"),
    ("mflow.flow", "_student_jvp", "flow.student_jvp"),
    ("mflow.flow", "mfd_loss", "flow.mfd_loss"),
    ("mflow.data", "make_batch", "data.make_batch"),
    ("mflow.data", "build_sr_pool", "data.build_sr_pool"),
    ("mflow.data", "gen_pattern", "data.gen_pattern"),
    ("mflow.data", "degrade", "data.degrade"),
    ("mflow.data", "extra_degrade", "data.extra_degrade"),
    ("mflow.training", "Adam.step", "training.adam_step"),
    ("mflow.training", "clip_gradients", "training.clip_gradients"),
    ("mflow.training", "save_checkpoint", "training.save_checkpoint"),
    ("mflow.training", "load_checkpoint", "training.load_checkpoint"),
    ("mflow.training", "params_digest", "training.params_digest"),
    ("mflow.training", "train_teacher", "training.train_teacher"),
    ("mflow.training", "distill_student", "training.distill_student"),
    ("mflow.sampling", "sample_student", "sampling.sample_student"),
    ("mflow.sampling", "sr_infer", "sampling.sr_infer"),
    ("mflow.sampling", "steps_sweep", "sampling.steps_sweep"),
    ("mflow.oracle", "identity_residual_grid", "oracle.identity_residual_grid"),
    ("mflow.cli", "run", "cli.run"),
)


def _layer(name, unit, better, target, workloads, meaning):
    return Metric(name, unit, better, meaning, target=target, workloads=workloads)


_THROUGHPUT = "teacher_samples_per_s,distill_samples_per_s"

PER_LAYER = (
    # tensor: the autodiff engine
    _layer("tensor.backward.ms", "ms", "lower", _THROUGHPUT, ("gauss",),
           "median time of one tape walk"),
    _layer("tensor.backward.nodes", "count", "lower", _THROUGHPUT, ("gauss",),
           "tape nodes visited by all backward calls"),
    _layer("tensor.matmul.calls", "count", "lower", "distill_samples_per_s", ("gauss", "sr-pool"),
           "Tensor.matmul calls"),
    _layer("tensor.matmul.ms", "ms", "lower", "distill_samples_per_s", ("gauss", "sr-pool"),
           "median time of one Tensor.matmul"),
    _layer("tensor.matmul.flops", "flop", "lower", "distill_samples_per_s", ("gauss", "sr-pool"),
           "matmul flops computed, tangent products included"),
    _layer("tensor.matmul.one_sided_tangent", "count", "lower", "distill_samples_per_s",
           ("gauss", "sr-pool"), "dual matmuls where only one operand has a tangent"),
    _layer("tensor.matmul.useful_tangent_ratio", "ratio", "higher", "distill_samples_per_s",
           ("gauss", "sr-pool"), "tangent products with a nonzero operand / tangent products paid"),
    _layer("tensor.neg.calls", "count", "lower", _THROUGHPUT, ("gauss",),
           "negation nodes, most of them built by a - b"),
    _layer("tensor.pow.calls", "count", "lower", _THROUGHPUT, ("gauss",),
           "power nodes, most of them built by a / b and sqrt"),
    # nets: the velocity fields
    _layer("nets.teacher_forward.calls", "count", "lower", "distill_samples_per_s", ALL,
           "teacher forward passes"),
    _layer("nets.teacher_forward.ms", "ms", "lower", "distill_samples_per_s", ALL,
           "median time of one teacher forward"),
    _layer("nets.student_forward.ms", "ms", "lower", "sample_per_s,sample_ms_p99", ALL,
           "median time of one student forward inside sampling"),
    _layer("nets.set_parameter.ms", "ms", "lower", _THROUGHPUT, SR,
           "median time of one FieldNet.set_parameter"),
    # flow: losses and guidance
    _layer("flow.rf_loss.ms", "ms", "lower", "teacher_samples_per_s", ALL,
           "median time of one flow-matching loss"),
    _layer("flow.cfg_velocity.ms", "ms", "lower", "distill_samples_per_s", ALL,
           "median time of one guidance velocity"),
    _layer("flow.cfg_velocity.teacher_calls", "count", "lower", "distill_samples_per_s", ALL,
           "teacher forwards per guidance velocity"),
    _layer("flow.cfg_velocity.useful_ratio", "ratio", "higher", "distill_samples_per_s",
           ("gauss",), "teacher calls whose output is not scaled by w=0 / teacher calls "
           "(1 when there are none)"),
    _layer("flow.student_jvp.ms", "ms", "lower", "distill_samples_per_s", ALL,
           "median time of one student dual (JVP) forward"),
    _layer("flow.mfd_loss.self_ms", "ms", "lower", "distill_samples_per_s", ALL,
           "median self time of one distillation loss"),
    # data: batches and pools
    _layer("data.make_batch.ms", "ms", "lower", _THROUGHPUT, SR,
           "median time of one training batch"),
    _layer("data.gen_pattern.calls", "count", "lower", "pipeline_s", SR,
           "procedural HR patterns generated"),
    _layer("data.degrade.calls", "count", "lower", "pipeline_s", SR,
           "LR degradations computed"),
    # training: optimizer, clipping, checkpoints
    _layer("training.adam_step.ms", "ms", "lower", _THROUGHPUT, SR,
           "median time of one Adam step"),
    _layer("training.clip_gradients.ms", "ms", "lower", _THROUGHPUT, SR,
           "median time of one global-norm clip"),
    _layer("training.save_checkpoint.ms", "ms", "lower", "pipeline_s", SR,
           "median time of one checkpoint write"),
    _layer("training.save_checkpoint.bytes", "bytes", "lower", "pipeline_s", SR,
           "bytes written by all checkpoint saves"),
    _layer("training.load_checkpoint.ms", "ms", "lower", "pipeline_s", SR,
           "median time of one checkpoint read"),
    # sampling: inference and sweeps
    _layer("sampling.sample_student.ms", "ms", "lower", "sample_per_s,sample_ms_p99", ALL,
           "median time of one sample_student call"),
    _layer("sampling.steps_sweep.s", "s", "lower", "pipeline_s", ALL,
           "time of the eval step-count sweeps"),
    # oracle: closed-form checks
    _layer("oracle.identity_residual_grid.s", "s", "lower", "pipeline_s", ("gauss",),
           "time of the verify residual grids"),
    # cli: command dispatch
    _layer("cli.run.self_s", "s", "lower", "pipeline_s", ALL,
           "median self time of one CLI command: config resolution and writes"),
    # self time of each layer over the whole traced round
    *(_layer(f"{layer}.self_s", "s", "lower", "pipeline_s", ALL,
             f"self time of all {layer} spans in the traced round")
      for layer in ("tensor", "nets", "flow", "data", "training", "sampling", "oracle", "cli")),
    # the tracing itself
    _layer("trace.spans", "count", "lower", "pipeline_s", ALL, "spans recorded in the traced round"),
    _layer("trace.wrapper_s", "s", "lower", "pipeline_s", ALL,
           "time the wrappers spent outside the calls they wrap (hooks, bookkeeping)"),
    _layer("trace.overhead_ratio", "ratio", "lower", "pipeline_s", ALL,
           "traced pipeline_s / untraced pipeline_s of the same round"),
    # calls that raised, for every wrapped function
    *(_layer(f"{span}.errors", "count", "lower", "pipeline_s", ALL, f"calls of {attr} that raised")
      for _, attr, span in TRACED),
)
