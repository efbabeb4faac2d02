"""Spans around calls into mflow, installed for one traced round and then removed.

The tracer replaces each function named in ``bench_metrics.TRACED`` by a
wrapper wherever mflow holds a reference to it: the defining module, every
mflow module that imported it by name, and class attributes such as
``Tensor.__matmul__``. A wrapper records one span (name, start, end, parent,
run id, a few attributes) in memory and calls the original unchanged.
``remove`` puts every original back; nothing in the program is edited.

A span's own extent covers only the wrapped call. The wrapper's bookkeeping
and attribute hooks (such as counting tape nodes before ``backward``) are
measured separately as the span's ``wrapper_s``, so they count toward
neither the span nor its parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from bench_metrics import PER_LAYER, TRACED

_NAME, _START, _END, _PARENT, _ATTRS, _ERROR, _WRAPPER = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _tape_nodes(args, kwargs):
    """Nodes backward() will visit: everything reachable through _parents."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return {"nodes": len(seen)}


def _matmul_shape(args, kwargs):
    a, b = args[0], _arg(args, kwargs, 1, "other")
    a_tan = a.tangent is not None
    b_tan = getattr(b, "tangent", None) is not None
    shape_a, shape_b = a.shape, getattr(b, "shape", ())
    if len(shape_a) != 2 or len(shape_b) != 2:
        return {"flops": 0, "tangents": 0}
    # the dual rule pays two more matmuls of the same size when either side has a tangent
    products = 3 if (a_tan or b_tan) else 1
    return {"flops": 2 * shape_a[0] * shape_a[1] * shape_b[1] * products,
            "tangents": a_tan + b_tan}


def _teacher_reference(args, kwargs):
    net, c = args[0], _arg(args, kwargs, 4, "c")
    ref = isinstance(c, int) and c in (net.null_id, net.negative_id)
    return {"ref": ref}


def _guidance_scale(args, kwargs):
    cfg = _arg(args, kwargs, 5, "cfg")
    return {"w": cfg.w, "mode": cfg.mode}


def _command(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return {"cmd": argv[0] if argv else ""}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


BEFORE = {"tensor.backward": _tape_nodes, "tensor.matmul": _matmul_shape,
          "nets.teacher_forward": _teacher_reference, "flow.cfg_velocity": _guidance_scale,
          "cli.run": _command}
AFTER = {"training.save_checkpoint": _file_bytes}


def _mflow_owners() -> list:
    """Every mflow module and every class defined in one."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "mflow" or n.startswith("mflow."))]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules + classes


class Tracer:
    """In-memory span recorder with install/remove of the mflow wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index, attrs, raised, wrapper seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            attrs = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs, False, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
                span[_WRAPPER] = span[_START] - entered
            if after:
                span[_ATTRS] = {**(attrs or {}), **after(args, kwargs, result)}
                span[_WRAPPER] += time.perf_counter() - span[_END]
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = _mflow_owners()
        for module_name, attr, name in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self.wrap(name, original)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def write(self, path: Path) -> None:
        """One JSON object per span; parent is an index into the file's lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs, raised, wrapper) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id, "attrs": attrs,
                                     "raised": raised, "wrapper_s": wrapper}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover, their wrappers included."""
    out = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            out[s[_PARENT]] -= s[_END] - s[_START] + s[_WRAPPER]
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def summarize(spans: list[list], overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from one traced round's spans."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[_NAME], []).append(i)
    selfs = self_times(spans)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][_END] - spans[i][_START]

    def under(i, ancestor):
        p = spans[i][_PARENT]
        while p >= 0:
            if spans[p][_NAME] == ancestor:
                return True
            p = spans[p][_PARENT]
        return False

    def children(i, name):
        return [j for j in by_name.get(name, []) if spans[j][_PARENT] == i]

    m: dict[str, float] = {}
    mm = idx("tensor.matmul")
    duals = [spans[i][_ATTRS]["tangents"] for i in mm if spans[i][_ATTRS]["tangents"]]
    m["tensor.backward.ms"] = _median_ms([dur(i) for i in idx("tensor.backward")])
    m["tensor.backward.nodes"] = sum(spans[i][_ATTRS]["nodes"] for i in idx("tensor.backward"))
    m["tensor.matmul.calls"] = len(mm)
    m["tensor.matmul.ms"] = _median_ms([dur(i) for i in mm])
    m["tensor.matmul.flops"] = sum(spans[i][_ATTRS]["flops"] for i in mm)
    m["tensor.matmul.one_sided_tangent"] = sum(1 for t in duals if t == 1)
    m["tensor.matmul.useful_tangent_ratio"] = sum(duals) / (2 * len(duals)) if duals else 1.0
    m["tensor.neg.calls"] = len(idx("tensor.neg"))
    m["tensor.pow.calls"] = len(idx("tensor.pow"))

    m["nets.teacher_forward.calls"] = len(idx("nets.teacher_forward"))
    m["nets.teacher_forward.ms"] = _median_ms([dur(i) for i in idx("nets.teacher_forward")])
    m["nets.student_forward.ms"] = _median_ms(
        [dur(i) for i in idx("nets.student_forward") if under(i, "sampling.sample_student")])
    m["nets.set_parameter.ms"] = _median_ms([dur(i) for i in idx("nets.set_parameter")])

    cfg = idx("flow.cfg_velocity")
    calls = useful = 0
    for i in cfg:
        scaled_out = spans[i][_ATTRS]["w"] == 0.0
        for j in children(i, "nets.teacher_forward"):
            calls += 1
            useful += not (scaled_out and spans[j][_ATTRS]["ref"])
    m["flow.rf_loss.ms"] = _median_ms([dur(i) for i in idx("flow.rf_loss")])
    m["flow.cfg_velocity.ms"] = _median_ms([dur(i) for i in cfg])
    m["flow.cfg_velocity.teacher_calls"] = calls / len(cfg) if cfg else 0.0
    m["flow.cfg_velocity.useful_ratio"] = useful / calls if calls else 1.0
    m["flow.student_jvp.ms"] = _median_ms([dur(i) for i in idx("flow.student_jvp")])
    m["flow.mfd_loss.self_ms"] = _median_ms([selfs[i] for i in idx("flow.mfd_loss")])

    m["data.make_batch.ms"] = _median_ms([dur(i) for i in idx("data.make_batch")])
    m["data.gen_pattern.calls"] = len(idx("data.gen_pattern"))
    m["data.degrade.calls"] = len(idx("data.degrade"))

    m["training.adam_step.ms"] = _median_ms([dur(i) for i in idx("training.adam_step")])
    m["training.clip_gradients.ms"] = _median_ms([dur(i) for i in idx("training.clip_gradients")])
    saves = idx("training.save_checkpoint")
    m["training.save_checkpoint.ms"] = _median_ms([dur(i) for i in saves])
    # a save that raised has no size
    m["training.save_checkpoint.bytes"] = sum((spans[i][_ATTRS] or {}).get("bytes", 0)
                                              for i in saves)
    m["training.load_checkpoint.ms"] = _median_ms([dur(i) for i in idx("training.load_checkpoint")])

    m["sampling.sample_student.ms"] = _median_ms([dur(i) for i in idx("sampling.sample_student")])
    m["sampling.steps_sweep.s"] = sum(dur(i) for i in idx("sampling.steps_sweep"))
    m["oracle.identity_residual_grid.s"] = sum(
        dur(i) for i in idx("oracle.identity_residual_grid"))
    m["cli.run.self_s"] = statistics.median([selfs[i] for i in idx("cli.run")] or [0.0])

    layer_self: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        layer = s[_NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    for metric in PER_LAYER:
        layer, _, rest = metric.name.partition(".")
        if rest == "self_s":
            m[metric.name] = layer_self.get(layer, 0.0)
    m["trace.spans"] = len(spans)
    m["trace.wrapper_s"] = sum(s[_WRAPPER] for s in spans)
    m["trace.overhead_ratio"] = overhead_ratio
    for _, _, name in TRACED:
        m[f"{name}.errors"] = sum(1 for i in idx(name) if spans[i][_ERROR])
    return m
