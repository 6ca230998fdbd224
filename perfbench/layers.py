"""The traced run: which package callables get spans, and the per-layer
metrics derived from those spans.

Every layer is a module of the package. A metric is named
`<module>.<function>.<quantity>`, or `<module>.<quantity>` for counts
that belong to the module as a whole. A layer that does no work in a
workload reports 0 for each of its metrics there.
"""

import bisect
import os

from tacforce import (autodiff, calibration, checkpoint, dataset, model, optim, sensor,
                      tasks, training)
from tracing import Patcher, spanned

TOOLS = ("big_sphere", "small_sphere", "cylinder", "triple_cylinder", "ring",
         "cross", "cube", "cone", "wedge", "ellipsoid")

# the autodiff ops with per-step metrics, and every op that can add a tape node
OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "conv2d",
       "conv_transpose2d", "leaky_relu", "reshape", "transpose", "slice_", "concat")
TAPE_OPS = OPS + ("sub", "neg", "sum_", "mean", "abs_", "square", "sqrt")

MB = 1024.0 * 1024.0


def _metric_table():
    rows = [("sensor.compute_contact.ms", "ms", "lower")]
    rows += [(f"sensor.compute_contact.{t}.ms", "ms", "lower") for t in TOOLS]
    rows += [
        ("sensor.compute_contact.calls", "count", "lower"),
        ("sensor.contact_px_fraction", "ratio", "higher"),
        ("sensor.oracle_force.ms", "ms", "lower"),
        ("sensor.render_tactile.ms", "ms", "lower"),
        ("sensor.depth_for_normal_force.ms", "ms", "lower"),
        ("dataset.run_indentation.ms", "ms", "lower"),
        ("dataset.generate_dataset.busy_fraction", "ratio", "higher"),
        ("dataset.preprocess.ms", "ms", "lower"),
        ("dataset.balance.ms", "ms", "lower"),
        ("dataset.store.ms", "ms", "lower"),
        ("dataset.load.ms", "ms", "lower"),
        ("dataset.faf1_mb", "MB", "lower"),
        ("training.make_training_arrays.ms_per_sample", "ms", "lower"),
        ("training.train_step.ms", "ms", "lower"),
        ("training.evaluate.ms", "ms", "lower"),
    ]
    for op in OPS:
        rows += [(f"autodiff.{op}.calls_per_step", "count", "lower"),
                 (f"autodiff.{op}.fwd_ms_per_step", "ms", "lower")]
    rows += [
        ("autodiff.tape_nodes_per_step", "count", "lower"),
        ("autodiff.backward.ms", "ms", "lower"),
        ("model.forward.ms", "ms", "lower"),
        ("model.predict_force.ms", "ms", "lower"),
        ("model.predict_force.ms_per_sample", "ms", "lower"),
        ("optim.step.ms", "ms", "lower"),
        ("optim.zero_grad.ms", "ms", "lower"),
        ("checkpoint.save_model.ms", "ms", "lower"),
        ("checkpoint.load_model.ms", "ms", "lower"),
        ("checkpoint.fafw_mb", "MB", "lower"),
        ("calibration.collect_calibration.ms_per_sample", "ms", "lower"),
        ("calibration.finetune.ms_per_step", "ms", "lower"),
        ("tasks.simulate_push.ms_per_frame", "ms", "lower"),
        ("tasks.net_estimator.ms_per_frame", "ms", "lower"),
        ("tasks.grasp_to_force.steps", "count", "lower"),
    ]
    return rows


METRICS = _metric_table()


# -- installing the spans -------------------------------------------------------

def _contact_attrs(args, kwargs, result):
    return {"tool": args[0].name, "px": int(result.mask.sum()),
            "px_cast": int(result.penetration.size)}


def _count(n):
    return {"n": int(n)}


def install(tracer):
    """Wrap the package's public callables; returns the Patcher to undo it."""
    p = Patcher("tacforce")

    def fn(module, attr, attrs=None):
        p.function(module, attr, spanned(tracer, f"{module.__name__[9:]}.{attr}", attrs))

    def meth(cls, attr, name, attrs=None):
        p.method(cls, attr, spanned(tracer, name, attrs))

    fn(sensor, "compute_contact", attrs=_contact_attrs)
    for attr in ("oracle_force", "render_tactile", "depth_for_normal_force"):
        fn(sensor, attr)

    fn(dataset, "generate_dataset")
    fn(dataset, "run_indentation")
    fn(dataset, "preprocess")
    fn(dataset, "balance")
    fn(dataset, "store", attrs=lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    fn(dataset, "load")

    fn(training, "make_training_arrays", attrs=lambda a, k, r: _count(len(a[0])))
    for attr in ("train", "train_step", "evaluate"):
        fn(training, attr)

    for op in TAPE_OPS:
        fn(autodiff, op, attrs=lambda a, k, r: {"tape": r.requires_grad and r.op != "leaf"})
    fn(autodiff, "backward")

    meth(model.ForceNet, "forward", "model.forward")
    meth(model.ForceNet, "predict_force", "model.predict_force",
         attrs=lambda a, k, r: _count(len(r)))

    meth(optim.Adam, "step", "optim.step")
    meth(optim.Adam, "zero_grad", "optim.zero_grad")

    fn(checkpoint, "save_model", attrs=lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    fn(checkpoint, "load_model")

    fn(calibration, "collect_calibration", attrs=lambda a, k, r: _count(len(r)))
    fn(calibration, "finetune", attrs=lambda a, k, r: _count(r.steps))

    fn(tasks, "simulate_push", attrs=lambda a, k, r: _count(len(r.samples)))
    estimate = spanned(tracer, "tasks.net_estimator.estimate",
                       lambda a, k, r: _count(len(a[0])))
    p.function(tasks, "net_estimator",
               lambda factory: lambda *a, **k: estimate(factory(*a, **k)))
    fn(tasks, "estimate_weight")
    fn(tasks, "grasp_to_force", attrs=lambda a, k, r: _count(r.steps))
    return p


# -- deriving the metrics ---------------------------------------------------------

def derive(spans, rounds, workers):
    """Per-layer metrics from the spans of the timed phase.

    `rounds` is how many rounds the timed phase ran, `workers` the
    dataset pool size.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def mean_ms(name):
        group = by_name.get(name, ())
        return 1e3 * total(name) / len(group) if group else 0.0

    def per_unit_ms(name):
        units = attr_sum(name, "n")
        return 1e3 * total(name) / units if units else 0.0

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    out = {}
    contacts = by_name.get("sensor.compute_contact", [])
    out["sensor.compute_contact.ms"] = mean_ms("sensor.compute_contact")
    for tool in TOOLS:
        mine = [s for s in contacts if s.attrs["tool"] == tool]
        out[f"sensor.compute_contact.{tool}.ms"] = (
            1e3 * sum(s.duration for s in mine) / len(mine) if mine else 0.0)
    out["sensor.compute_contact.calls"] = len(contacts) / rounds
    cast = attr_sum("sensor.compute_contact", "px_cast")
    out["sensor.contact_px_fraction"] = attr_sum("sensor.compute_contact", "px") / cast if cast else 0.0
    for name in ("sensor.oracle_force", "sensor.render_tactile", "sensor.depth_for_normal_force",
                 "dataset.run_indentation", "dataset.preprocess", "dataset.balance",
                 "dataset.store", "dataset.load"):
        out[f"{name}.ms"] = mean_ms(name)
    gen = total("dataset.generate_dataset")
    out["dataset.generate_dataset.busy_fraction"] = (
        total("dataset.run_indentation") / (gen * workers) if gen else 0.0)
    stores = by_name.get("dataset.store", ())
    out["dataset.faf1_mb"] = attr_sum("dataset.store", "bytes") / len(stores) / MB if stores else 0.0

    out["training.make_training_arrays.ms_per_sample"] = per_unit_ms("training.make_training_arrays")
    out["training.train_step.ms"] = mean_ms("training.train_step")
    out["training.evaluate.ms"] = mean_ms("training.evaluate")

    # ops inside a training step: train_step spans never overlap one another
    windows = sorted((s.start, s.end) for s in by_name.get("training.train_step", ()))
    starts = [a for a, _ in windows]
    steps = len(windows)

    def in_step(s):
        i = bisect.bisect_right(starts, s.start) - 1
        return i >= 0 and s.end <= windows[i][1]

    for op in OPS:
        mine = [s for s in by_name.get(f"autodiff.{op}", ()) if in_step(s)]
        out[f"autodiff.{op}.calls_per_step"] = len(mine) / steps if steps else 0.0
        out[f"autodiff.{op}.fwd_ms_per_step"] = (
            1e3 * sum(s.duration for s in mine) / steps if steps else 0.0)
    nodes = sum(1 for op in TAPE_OPS for s in by_name.get(f"autodiff.{op}", ())
                if s.attrs["tape"] and in_step(s))
    out["autodiff.tape_nodes_per_step"] = nodes / steps if steps else 0.0
    out["autodiff.backward.ms"] = mean_ms("autodiff.backward")

    out["model.forward.ms"] = mean_ms("model.forward")
    out["model.predict_force.ms"] = mean_ms("model.predict_force")
    out["model.predict_force.ms_per_sample"] = per_unit_ms("model.predict_force")
    out["optim.step.ms"] = mean_ms("optim.step")
    out["optim.zero_grad.ms"] = mean_ms("optim.zero_grad")

    out["checkpoint.save_model.ms"] = mean_ms("checkpoint.save_model")
    out["checkpoint.load_model.ms"] = mean_ms("checkpoint.load_model")
    saves = by_name.get("checkpoint.save_model", ())
    out["checkpoint.fafw_mb"] = attr_sum("checkpoint.save_model", "bytes") / len(saves) / MB if saves else 0.0

    out["calibration.collect_calibration.ms_per_sample"] = per_unit_ms("calibration.collect_calibration")
    out["calibration.finetune.ms_per_step"] = per_unit_ms("calibration.finetune")
    out["tasks.simulate_push.ms_per_frame"] = per_unit_ms("tasks.simulate_push")
    out["tasks.net_estimator.ms_per_frame"] = per_unit_ms("tasks.net_estimator.estimate")
    grasps = by_name.get("tasks.grasp_to_force", ())
    out["tasks.grasp_to_force.steps"] = attr_sum("tasks.grasp_to_force", "n") / len(grasps) if grasps else 0.0
    return out
