"""Command-line pipeline: every experiment is a subcommand writing CSV/SVG.

Subcommands
    dataset gen|balance|stats   build, rebalance, or summarize FAF1 files
    train                       fit the force estimator, save a checkpoint
    eval                        score checkpoints per (profile, tool) cell
    calibrate                   few-shot adapt a checkpoint to a new sensor
    task weigh|deform           run the downstream manipulation experiments

Every subcommand writes into --out and takes only the shared flags it
reads: --seed on all but eval and dataset stats, --profile on dataset
gen, calibrate and the tasks, and --config on train alone. With
--estimator net, eval reads every --checkpoint and a task exactly one;
with --estimator oracle a --checkpoint is refused. Each subcommand is
a pure function of its flags and --seed: re-runs overwrite the same
output files with byte-identical content. Numeric CSV cells carry 6
significant digits. Exit codes are listed in the --help epilog; 0 means
no error was raised, and a command that fails removes the --out
directory it created, parents included.
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

from . import dataset as ds
from . import svgplot
from .calibration import (FinetuneScope, collect_calibration, default_scope,
                          catastrophic_forgetting_check, finetune)
from .checkpoint import load_arrays, load_params, save_model
from .errors import (ContractError, DegenerateInputError, FormatError,
                     SafetyError, ShapeError, TacforceError, TaskFailure,
                     TrainingDiverged)
from .geometry import PoseRange
from .indenters import INDENTER_IDS, INDENTER_NAMES
from .model import ForceNet, ModelConfig
from .profiles import PROFILE_IDS, PROFILE_NAMES, get_profile
from .tasks import (CupModel, PushScenario, estimate_weight, grasp_to_force,
                    net_estimator, oracle_readout_estimator, simulate_push)
from .training import (TrainConfig, evaluate, make_training_arrays,
                       model_estimator, oracle_estimator, train)

EXIT_CODES = {
    ShapeError: 3,
    ContractError: 4,
    SafetyError: 5,
    DegenerateInputError: 6,
    FormatError: 7,
    TrainingDiverged: 8,
    TaskFailure: 9,
}

_ENCODERS = ("vit", "conv")


# -- small shared helpers -----------------------------------------------------

def _cell_text(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell_text(v) for v in row) + "\n")


def _out(args, name):
    return os.path.join(args.out, name)


def _fits(value, kind):
    """Whether a JSON value fits a config field of type ``kind``."""
    if isinstance(value, bool):  # a bool is an int to Python, not to the config
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _read_config(path):
    """The config file's sections, checked against the config dataclasses."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path!r} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"config {path!r} is not UTF-8: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError(f"config {path!r} must hold a JSON object")
    unknown = set(raw) - {"model", "train"}
    if unknown:
        raise ContractError(f"unknown config sections {sorted(unknown)}")
    for section, cls in (("model", ModelConfig), ("train", TrainConfig)):
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise FormatError(f"config section {section!r} must be a JSON object")
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        bad = set(values) - set(fields)
        if bad:
            raise ContractError(f"unknown {section} config keys {sorted(bad)}")
        if section == "train" and "seed" in values:
            raise ContractError("train.seed is not a config key; pass --seed")
        for key, value in values.items():
            if not _fits(value, fields[key]):
                raise ContractError(f"{section}.{key} must be a JSON "
                                    f"{fields[key].__name__}, got {value!r}")
    return raw


def _train_config(args, config):
    """The config's train section, with every flag given on the command line winning."""
    merged = dict(config.get("train", {}))
    for field in dataclasses.fields(TrainConfig):
        value = getattr(args, field.name)
        if value is not None:
            merged[field.name] = value
    return TrainConfig(**merged)


def _meta_arrays(config, normalizer):
    """Model architecture and depth scaling, stored beside the weights."""
    fields = (config.input_size, config.patch_size, config.embed_dim,
              config.depth, config.heads, config.mlp_ratio,
              config.decoder_channels, _ENCODERS.index(config.encoder))
    return {
        "meta.model": np.array(fields, dtype=np.float64),
        "meta.normalizer": np.array([normalizer.min_val, normalizer.max_val,
                                     normalizer.eps], dtype=np.float64),
    }


def _load_net(path):
    """Rebuild a network (architecture + weights + normalizer) from a file."""
    arrays = load_arrays(path)
    meta = arrays.get("meta.model")
    norm = arrays.get("meta.normalizer")
    if meta is None or norm is None:
        raise FormatError(f"checkpoint {path!r} lacks the meta.* records")
    if (meta.shape != (8,) or not np.isfinite(meta).all()
            or (meta != np.round(meta)).any()):
        raise FormatError(f"checkpoint {path!r}: meta.model must hold 8 whole numbers, "
                          f"got shape {meta.shape}")
    if norm.shape != (3,):
        raise FormatError(f"checkpoint {path!r}: meta.normalizer must hold 3 numbers, "
                          f"got shape {norm.shape}")
    fields = [int(v) for v in meta]
    if not 0 <= fields[7] < len(_ENCODERS):
        raise FormatError(f"checkpoint {path!r}: unknown encoder index {fields[7]}")
    try:
        config = ModelConfig(input_size=fields[0], patch_size=fields[1],
                             embed_dim=fields[2], depth=fields[3], heads=fields[4],
                             mlp_ratio=fields[5], decoder_channels=fields[6],
                             encoder=_ENCODERS[fields[7]])
        net = ForceNet(config, seed=0)
    except ContractError as exc:
        raise FormatError(f"checkpoint {path!r}: invalid meta.model: {exc}") from None
    load_params(arrays, net.named_params())
    normalizer = ds.DepthNormalizer(float(norm[0]), float(norm[1]), float(norm[2]))
    return net, normalizer, config


def _save_net(path, net, config, normalizer):
    save_model(path, net.named_params(), extra=_meta_arrays(config, normalizer))


def _eval_cells(samples, normalizer, size=32):
    """Group samples into named (profile, tool) cells of model-ready arrays."""
    groups = {}
    for s in samples:
        name = f"{PROFILE_NAMES[s.profile_id]}/{INDENTER_NAMES[s.indenter_id]}"
        groups.setdefault(name, []).append(s)
    return {name: make_training_arrays(group, normalizer, size=size)
            for name, group in sorted(groups.items())}


def _write_histogram(path, report):
    """Write the per-tool fz histogram of a `ds.stats` report; returns its rows."""
    rows = []
    for tool in sorted(report["per_indenter"]):
        entry = report["per_indenter"][tool]
        for b in sorted(entry["fz_bins"]):
            rows.append((tool, b * report["bin_width"],
                         (b + 1) * report["bin_width"], entry["fz_bins"][b]))
    write_csv(path, ("tool", "bin_lo_n", "bin_hi_n", "count"), rows)
    return rows


def _bin_ratio(report, lo=0.5, hi=12.0):
    """Max/min pooled count over nonempty fz bins inside [lo, hi] N."""
    width = report["bin_width"]
    pooled = {}
    for entry in report["per_indenter"].values():
        for b, c in entry["fz_bins"].items():
            if b * width >= lo - 1e-9 and (b + 1) * width <= hi + 1e-9:
                pooled[b] = pooled.get(b, 0) + c
    counts = [c for c in pooled.values() if c > 0]
    if not counts:
        return float("nan")
    return max(counts) / min(counts)


# -- dataset ------------------------------------------------------------------

def cmd_dataset_gen(args):
    tools = args.tool or ["big_sphere", "cube"]
    for name in tools:
        if name not in INDENTER_IDS:
            raise ContractError(f"unknown indenter {name!r}")
    if args.count < 0:
        raise ContractError("--count must be non-negative")
    ds.check_bin_width(args.bin)
    pose_range = PoseRange(*args.pose_range) if args.pose_range else PoseRange()
    ds.check_trajectory(args.step, args.f_max)
    if args.count == 0:
        samples = []
    else:
        samples = ds.generate_dataset(tools, list(args.profile), args.count,
                                      pose_range=pose_range, step=args.step,
                                      f_max=args.f_max, seed=args.seed)
    ds.store(samples, _out(args, "dataset.faf"))
    _write_histogram(_out(args, "histogram.csv"), ds.stats(samples, bin_width=args.bin))
    print(f"wrote {len(samples)} samples to {_out(args, 'dataset.faf')}")
    return 0


def cmd_dataset_balance(args):
    samples = ds.load(args.data)
    balanced = ds.balance(samples, bin_width=args.bin, seed=args.seed)
    ds.store(balanced, _out(args, "balanced.faf"))
    _write_histogram(_out(args, "histogram.csv"), ds.stats(balanced, bin_width=args.bin))
    print(f"balanced {len(samples)} -> {len(balanced)} samples")
    return 0


def cmd_dataset_stats(args):
    samples = ds.load(args.data)
    report = ds.stats(samples, bin_width=args.bin)
    for tool, lo, hi, count in _write_histogram(_out(args, "stats.csv"), report):
        print(f"{tool}  [{lo:.2f}, {hi:.2f}) N  {count}")
    if samples:
        forces = np.stack([s.force for s in samples])
        for k, axis in enumerate("xyz"):
            print(f"f{axis} range [{forces[:, k].min():.6g}, {forces[:, k].max():.6g}] N")
    ratio = _bin_ratio(report)
    print(f"count {report['count']}  bin ratio (0.5-12 N window) {ratio:.6g}")
    return 0


# -- train / eval -------------------------------------------------------------

def cmd_train(args):
    sections = _read_config(args.config)
    samples = ds.load(args.data)
    normalizer = ds.DepthNormalizer.from_samples(samples)
    model_fields = dict(sections.get("model", {}))
    if args.conv_encoder:
        model_fields["encoder"] = "conv"
    config = ModelConfig(**model_fields)
    data = make_training_arrays(samples, normalizer, size=config.input_size)
    cfg = _train_config(args, sections)
    net = ForceNet(config, seed=args.seed)
    curve = train(data, net, cfg)
    _save_net(_out(args, "model.fafw"), net, config, normalizer)
    write_csv(_out(args, "loss.csv"),
              ("epoch", "loss_force", "loss_depth", "loss_total"), curve)
    if len(curve):
        svgplot.line_plot([("L_F", curve[:, 0], curve[:, 1]),
                           ("L_D", curve[:, 0], curve[:, 2]),
                           ("L", curve[:, 0], curve[:, 3])],
                          title="training loss", xlabel="epoch", ylabel="loss",
                          path=_out(args, "loss.svg"))
    final = curve[-1, 3] if len(curve) else float("nan")
    print(f"trained {cfg.epochs} epochs on {len(samples)} samples, "
          f"final loss {final:.6g}")
    return 0


def _pooled_mae(report):
    total = sum(c["count"] for c in report.cells.values())
    mae = np.zeros(3)
    for c in report.cells.values():
        mae += c["count"] * np.asarray(c["mae"])
    return mae / total


def cmd_eval(args):
    samples = ds.load(args.data)
    summary = []
    if args.estimator == "oracle":
        cells = _eval_cells(samples, ds.DepthNormalizer.identity())
        report = evaluate(cells, oracle_estimator())
        labels = [("oracle", report)]
    else:
        if not args.checkpoint:
            raise ContractError("eval with the net estimator needs --checkpoint")
        labels = []
        seen = {}
        for path in args.checkpoint:
            net, normalizer, config = _load_net(path)
            cells = _eval_cells(samples, normalizer, size=config.input_size)
            report = evaluate(cells, model_estimator(net))
            stem = os.path.splitext(os.path.basename(path))[0]
            seen[stem] = seen.get(stem, 0) + 1
            label = stem if seen[stem] == 1 else f"{stem}-{seen[stem]}"
            labels.append((label, report))
    for label, report in labels:
        write_csv(_out(args, f"eval_{label}.csv"),
                  ("cell", "count", "normalized_error", "mae_x", "mae_y", "mae_z"),
                  report.rows())
        total = sum(c["count"] for c in report.cells.values())
        summary.append((label, total, report.mean_normalized_error,
                        *_pooled_mae(report)))
        print(f"{label}: normalized error {report.mean_normalized_error:.6g} "
              f"over {total} samples")
    write_csv(_out(args, "summary.csv"),
              ("model", "count", "normalized_error", "mae_x", "mae_y", "mae_z"),
              summary)
    return 0


# -- calibration ---------------------------------------------------------------

def cmd_calibrate(args):
    if len(args.profile) != 1:
        raise ContractError("calibrate expects exactly one --profile")
    profile_name = args.profile[0]
    net, normalizer, config = _load_net(args.checkpoint)
    net_before = None
    if args.data:
        # the forgetting table compares against the checkpoint as loaded
        net_before = ForceNet(config, seed=0)
        load_params({name: p.data.copy() for name, p in net.named_params().items()},
                    net_before.named_params())
    samples = collect_calibration(get_profile(profile_name), n=args.samples,
                                  seed=args.seed)
    if args.scope == "auto":
        scope = default_scope(profile_name)
    else:
        scope = FinetuneScope(args.scope)
    report = finetune(net, samples, normalizer, scope=scope, steps=args.steps,
                      lr=args.lr, seed=args.seed, holdout_frac=args.holdout)
    _save_net(_out(args, "calibrated.fafw"), net, config, normalizer)
    write_csv(_out(args, "calibration.csv"),
              ("profile", "scope", "steps", "samples", "pre_error", "post_error",
               "pre_fit_error", "post_fit_error"),
              [(profile_name, scope.value, report.steps, len(samples),
                report.pre_error, report.post_error, report.pre_fit_error,
                report.post_fit_error)])
    print(f"{profile_name} ({scope.value}, {report.steps} steps): "
          f"held-out force error {report.pre_error:.6g} -> {report.post_error:.6g} N")
    if args.data:
        cells = _eval_cells(ds.load(args.data), normalizer, size=config.input_size)
        deltas = catastrophic_forgetting_check(net_before, net, cells)
        write_csv(_out(args, "forgetting.csv"), ("cell", "error_increment_frac"),
                  sorted(deltas.items()))
    return 0


# -- downstream tasks -----------------------------------------------------------

def _task_estimator(args, profile):
    if len(args.profile) != 1:
        raise ContractError("tasks run on exactly one --profile")
    if args.estimator == "oracle":
        return oracle_readout_estimator(profile)
    if not args.checkpoint:
        raise ContractError("the net estimator needs --checkpoint")
    if len(args.checkpoint) > 1:
        raise ContractError(f"tasks read one --checkpoint, got {len(args.checkpoint)}")
    net, normalizer, _ = _load_net(args.checkpoint[0])
    return net_estimator(net, normalizer)


def cmd_task_weigh(args):
    profile_name = args.profile[0]
    profile = get_profile(profile_name)
    estimator = _task_estimator(args, profile)
    scenario = PushScenario(mass=args.mass, mu=args.mu, profile_name=profile_name,
                            n_frames=args.frames, ramp_frames=args.ramp,
                            noise_n=args.noise)
    if args.trials < 1:
        raise ContractError(f"--trials must be positive, got {args.trials}")
    traces = [simulate_push(scenario, seed=args.seed + t) for t in range(args.trials)]
    # each push goes through the estimator once; both weighings reuse its readings
    readings = {id(trace.samples): np.asarray(estimator(trace.samples), dtype=np.float64)
                for trace in traces}

    def recall(samples):
        return readings[id(samples)]

    rows = []
    series = []
    for t, trace in enumerate(traces):
        m_hat, rep = estimate_weight(trace, args.mu, recall)
        rows.append((f"{t + 1}", rep.estimated_force, m_hat, rep.mass_error))
        series.append((f"push {t + 1}", np.arange(len(trace.samples)),
                       recall(trace.samples)[:, 2]))
    mass, pooled = estimate_weight(traces, args.mu, recall)
    rows.append(("pooled", pooled.estimated_force, mass, pooled.mass_error))
    write_csv(_out(args, "weigh.csv"),
              ("trial", "estimated_force_n", "estimated_mass_kg", "mass_error_kg"),
              rows)
    svgplot.line_plot(series, title=f"pushes, m={args.mass} kg, mu={args.mu}",
                      xlabel="frame", ylabel="estimated F^z (N)",
                      path=_out(args, "weigh.svg"))
    print(f"estimated mass {mass:.6g} kg (true {args.mass} kg, "
          f"error {pooled.mass_error:.6g} kg)")
    return 0


def cmd_task_deform(args):
    profile_name = args.profile[0]
    profile = get_profile(profile_name)
    estimator = _task_estimator(args, profile)
    cup = CupModel(rim_noise_px=args.rim_noise)
    report = grasp_to_force(args.target, args.step_mm, estimator, cup=cup,
                            profile_name=profile_name, seed=args.seed)
    write_csv(_out(args, "deform.csv"),
              ("target_n", "achieved_n", "estimated_n", "steps",
               "deformation_pct", "estimated_deformation_pct"),
              [(args.target, report.true_force, report.estimated_force,
                report.steps, report.deformation_pct,
                report.estimated_deformation_pct)])
    steps = np.arange(report.steps + 1)
    grip = np.array([cup.grip_force(k * args.step_mm) for k in steps])
    svgplot.line_plot([("grip force", steps, grip),
                       ("target", steps, np.full(len(steps), args.target))],
                      title="grasp to force", xlabel="closure step",
                      ylabel="F^z (N)", path=_out(args, "deform.svg"))
    print(f"reached {report.true_force:.6g} N for target {args.target} N in "
          f"{report.steps} steps; deformation {report.deformation_pct:.6g}%")
    return 0


# -- parsing ------------------------------------------------------------------

def _epilog():
    lines = ["exit codes:", "  0  success"]
    for klass, code in sorted(EXIT_CODES.items(), key=lambda kv: kv[1]):
        lines.append(f"  {code}  {klass.__name__}: {klass.__doc__.splitlines()[0]}")
    lines.append("  1  unexpected failure, 2  usage error")
    return "\n".join(lines)


_BIN_HELP = "width of the F^z histogram bins, in N (default: %(default)s)"

# the --profile default of each subcommand that takes the flag
_DEFAULT_PROFILES = {
    "dataset": ("sensor1-gel1",),
    "calibrate": ("digit",),
    "task": ("digit",),
}


def _flag(*names, **kwargs):
    """A parent parser holding one shared flag."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*names, **kwargs)
    return parser


def build_parser():
    out = _flag("--out", default="out", help="output directory")
    seed = _flag("--seed", type=int, default=0, help="single seed driving every random draw")
    config = _flag("--config", default=None,
                   help="JSON file with optional 'model' and 'train' sections")
    profile = {command: _flag("--profile", action="append", default=None,
                              help="sensor profile name ("
                                   + ("repeatable; " if command == "dataset" else "")
                                   + f"default: {' '.join(names)})")
               for command, names in _DEFAULT_PROFILES.items()}

    top = argparse.ArgumentParser(
        prog="tacforce", description=__doc__, epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("dataset", help="build or inspect FAF1 datasets")
    dsub = p_data.add_subparsers(dest="action", required=True)

    p_gen = dsub.add_parser("gen", parents=[out, seed, profile["dataset"]],
                            help="simulate indentations")
    p_gen.add_argument("--tool", action="append", default=None,
                       help="indenter name (repeatable)")
    p_gen.add_argument("--count", type=int, default=8,
                       help="poses per (tool, profile) pair")
    p_gen.add_argument("--step", type=float, default=ds.DEFAULT_STEP_MM,
                       help="advance per trajectory step along the tool axis, "
                            "in mm (default: %(default)s)")
    p_gen.add_argument("--f-max", type=float, default=ds.DEFAULT_FORCE_LIMIT_N,
                       help="normal force that ends a trajectory, in N "
                            "(default: %(default)s)")
    p_gen.add_argument("--bin", type=float, default=ds.DEFAULT_BIN_WIDTH_N,
                       help=_BIN_HELP)
    p_gen.add_argument("--pose-range", type=float, nargs=5, default=None,
                       metavar=("X", "Y", "ROLL", "PITCH", "YAW"),
                       help="symmetric pose bounds: x and y offsets in mm, roll, pitch "
                            "and yaw in degrees (default: "
                            f"{' '.join(f'{v:g}' for v in dataclasses.astuple(PoseRange()))})")

    p_bal = dsub.add_parser("balance", parents=[out, seed],
                            help="cap per-bin counts at the median")
    p_bal.add_argument("--data", required=True)
    p_bal.add_argument("--bin", type=float, default=ds.DEFAULT_BIN_WIDTH_N,
                       help=_BIN_HELP)

    p_stats = dsub.add_parser("stats", parents=[out],
                              help="print per-bin counts and force ranges")
    p_stats.add_argument("--data", required=True)
    p_stats.add_argument("--bin", type=float, default=ds.DEFAULT_BIN_WIDTH_N,
                         help=_BIN_HELP)

    p_train = sub.add_parser("train", parents=[out, seed, config], help="fit the estimator")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--backbone-lr", type=float, default=None,
                         help="initial encoder learning rate; decayed 10x "
                              "for the last fifth of the epochs")
    p_train.add_argument("--head-lr", type=float, default=None,
                         help="initial learning rate of the force and depth heads; "
                              "decayed 10x for the last fifth of the epochs")
    p_train.add_argument("--alpha", type=float, default=None)
    p_train.add_argument("--beta-w", type=float, default=None)
    # given flags win over the config's train section; absent ones leave it be
    p_train.add_argument("--frozen-backbone", action="store_const", const=True,
                         default=None)
    p_train.add_argument("--no-decoder", dest="with_decoder", action="store_const",
                         const=False, default=None)
    p_train.add_argument("--conv-encoder", action="store_true")

    p_eval = sub.add_parser("eval", parents=[out], help="score checkpoints")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--checkpoint", action="append", default=None,
                        help="model file of the net estimator "
                             "(repeatable; one summary row each)")
    p_eval.add_argument("--estimator", choices=("net", "oracle"), default="net")

    p_cal = sub.add_parser("calibrate", parents=[out, seed, profile["calibrate"]],
                           help="few-shot adapt to a new sensor")
    p_cal.add_argument("--checkpoint", required=True)
    p_cal.add_argument("--data", default=None,
                       help="optional eval set for the forgetting table")
    p_cal.add_argument("--samples", type=int, default=100)
    p_cal.add_argument("--steps", type=int, default=200)
    p_cal.add_argument("--lr", type=float, default=1e-5)
    p_cal.add_argument("--holdout", type=float, default=0.2)
    p_cal.add_argument("--scope", default="auto",
                       choices=("auto",) + tuple(s.value for s in FinetuneScope))

    p_task = sub.add_parser("task", help="downstream manipulation experiments")
    tsub = p_task.add_subparsers(dest="action", required=True)

    p_weigh = tsub.add_parser("weigh", parents=[out, seed, profile["task"]],
                              help="estimate an object's mass from pushes")
    p_weigh.add_argument("--estimator", choices=("oracle", "net"), default="oracle")
    p_weigh.add_argument("--checkpoint", action="append", default=None,
                         help="model file of the net estimator (one)")
    p_weigh.add_argument("--trials", type=int, default=5)
    p_weigh.add_argument("--mass", type=float, default=1.0)
    p_weigh.add_argument("--mu", type=float, default=0.3)
    p_weigh.add_argument("--noise", type=float, default=0.0)
    p_weigh.add_argument("--frames", type=int, default=30)
    p_weigh.add_argument("--ramp", type=int, default=5)

    p_def = tsub.add_parser("deform", parents=[out, seed, profile["task"]],
                            help="close a gripper to a target force")
    p_def.add_argument("--target", type=float, required=True)
    p_def.add_argument("--estimator", choices=("oracle", "net"), default="oracle")
    p_def.add_argument("--checkpoint", action="append", default=None,
                       help="model file of the net estimator (one)")
    p_def.add_argument("--step-mm", type=float, default=0.05)
    p_def.add_argument("--rim-noise", type=float, default=0.0)
    return top


def _make_out_dir(path):
    """Create ``path`` and its missing parents, as ``os.path.abspath``
    reads them; returns the topmost directory made, or None."""
    top = None
    head = os.path.abspath(path)
    while not os.path.exists(head):
        top, head = head, os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return top


def _dispatch(args):
    if not os.access(args.out, os.W_OK):
        raise ContractError(f"output directory {args.out!r} is not writable")
    if getattr(args, "seed", 0) < 0:
        raise ContractError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "estimator", None) == "oracle" and args.checkpoint:
        raise ContractError("--checkpoint is not read with --estimator oracle")
    if "profile" in args:
        args.profile = tuple(args.profile or _DEFAULT_PROFILES[args.command])
        for name in args.profile:
            if name not in PROFILE_IDS:
                raise ContractError(f"unknown profile {name!r}")
    name = args.command + (f" {args.action}" if getattr(args, "action", None) else "")
    handlers = {
        "dataset gen": cmd_dataset_gen,
        "dataset balance": cmd_dataset_balance,
        "dataset stats": cmd_dataset_stats,
        "train": cmd_train,
        "eval": cmd_eval,
        "calibrate": cmd_calibrate,
        "task weigh": cmd_task_weigh,
        "task deform": cmd_task_deform,
    }
    return handlers[name](args)


def main(argv=None):
    args = build_parser().parse_args(argv)
    created = None
    code = 1
    try:
        created = _make_out_dir(args.out)
        code = _dispatch(args)
    except TacforceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CODES.get(type(exc), 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        # a failed command leaves no directory behind that it created
        if code != 0 and created is not None:
            shutil.rmtree(created, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
