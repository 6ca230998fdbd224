import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tacforce.errors as errors_mod
from tacforce.checkpoint import load_arrays, save_arrays
from tacforce.cli import EXIT_CODES, _load_net, build_parser, main
from tacforce.dataset import load
from tacforce.errors import ContractError, FormatError, SafetyError, TacforceError
from tacforce.model import ForceNet
from tacforce.sensor import GRAVITY_MS2

TINY = {"model": {"embed_dim": 16, "depth": 1, "heads": 2, "decoder_channels": 8},
        "train": {"epochs": 2, "batch_size": 8,
                  "backbone_lr": 1e-3, "head_lr": 1e-3}}

# (file bytes, error) for configs `train --config` must reject without a
# traceback: a non-object or non-UTF-8 file or section is a FormatError,
# an unknown key or a value whose JSON type does not fit its field a
# ContractError
BAD_CONFIGS = [
    (b'{"model": {"embed_dim": 16}, "mystery": {}}', ContractError),
    (b'{"train": {"not_a_knob": 1}}', ContractError),
    (b"{nope", FormatError),
    (b'{"model": {"encoder": "\xff"}}', FormatError),
    (b'{"model": 5}', FormatError),
    (b'{"train": [1]}', FormatError),
    (b'{"model": {"embed_dim": "16"}}', ContractError),
    (b'{"model": {"embed_dim": true}}', ContractError),
    (b'{"model": {"encoder": 1}}', ContractError),
    (b'{"train": {"epochs": 2.5}}', ContractError),
    (b'{"train": {"batch_size": "8"}}', ContractError),
    (b'{"train": {"head_lr": "0.1"}}', ContractError),
    (b'{"train": {"frozen_backbone": 1}}', ContractError),
    (b'{"train": {"seed": 7}}', ContractError),
    (b'{"train": {"head_lr": NaN}}', ContractError),
    (b'{"train": {"backbone_lr": Infinity}}', ContractError),
    (b'{"train": {"beta_w": -Infinity}}', ContractError),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small dataset and a tiny trained checkpoint, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    gen = root / "gen"
    rc = main(["dataset", "gen", "--out", str(gen), "--count", "2",
               "--tool", "small_sphere", "--tool", "cube", "--seed", "11",
               "--step", "0.4", "--f-max", "6"])
    assert rc == 0
    tr = root / "train"
    rc = main(["train", "--data", str(gen / "dataset.faf"), "--out", str(tr),
               "--config", str(cfg), "--seed", "3"])
    assert rc == 0
    return {"root": root, "config": cfg, "data": gen / "dataset.faf",
            "checkpoint": tr / "model.fafw", "train_dir": tr}


class TestExitCodes:
    def test_distinct_and_nonzero(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert all(c not in (0, 1, 2) for c in codes)

    def test_covers_every_error_type(self):
        concrete = {v for v in vars(errors_mod).values()
                    if isinstance(v, type) and issubclass(v, TacforceError)
                    and v is not TacforceError}
        assert concrete == set(EXIT_CODES)

    def test_documented_in_help(self):
        text = build_parser().format_help()
        for klass, code in EXIT_CODES.items():
            assert f"{code}  {klass.__name__}" in text


def test_package_imports_no_optimize_or_ndimage():
    """Importing every module, in a fresh interpreter, loads neither
    scipy.optimize nor scipy.ndimage: together they add about 25 MB to
    every process's resident floor, and the package uses scipy only for
    scipy.special.erf."""
    code = ("import importlib, pkgutil, sys, tacforce\n"
            "for m in pkgutil.iter_modules(tacforce.__path__):\n"
            "    importlib.import_module('tacforce.' + m.name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'ndimage'])))\n")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestDispatch:
    def test_unknown_profile_rejected(self, tmp_path):
        assert main(["task", "deform", "--out", str(tmp_path), "--target", "1",
                     "--profile", "nope"]) == EXIT_CODES[ContractError]

    def test_creates_out_dir(self, tmp_path):
        out = tmp_path / "deep" / "er"
        assert main(["dataset", "gen", "--out", str(out), "--count", "0"]) == 0
        assert os.path.isdir(out) and (out / "dataset.faf").exists()

    def test_failed_command_leaves_no_out_dir(self, tmp_path, capsys):
        # a 5 mm step lands below the 3 mm gel at once: exit 5
        failing = ["dataset", "gen", "--count", "1", "--tool", "cube", "--step", "5"]
        assert main([*failing, "--out", str(tmp_path / "new" / "X")]) == EXIT_CODES[SafetyError]
        assert os.listdir(tmp_path) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note").write_text("mine")
        assert main([*failing, "--out", str(kept)]) == EXIT_CODES[SafetyError]
        assert os.listdir(kept) == ["note"] and (kept / "note").read_text() == "mine"
        assert "Traceback" not in capsys.readouterr().err


class TestDatasetCommands:
    def test_gen_outputs(self, workdir):
        gen = workdir["root"] / "gen"
        assert (gen / "dataset.faf").exists()
        assert (gen / "dataset.faf.json").exists()
        lines = (gen / "histogram.csv").read_text().splitlines()
        assert lines[0] == "tool,bin_lo_n,bin_hi_n,count"
        assert len(lines) > 1

    def test_gen_rerun_byte_identical(self, workdir, tmp_path):
        rc = main(["dataset", "gen", "--out", str(tmp_path), "--count", "2",
                   "--tool", "small_sphere", "--tool", "cube", "--seed", "11",
                   "--step", "0.4", "--f-max", "6"])
        assert rc == 0
        assert (tmp_path / "dataset.faf").read_bytes() == \
               workdir["data"].read_bytes()

    def test_gen_count_zero_valid_empty(self, tmp_path):
        assert main(["dataset", "gen", "--out", str(tmp_path),
                     "--count", "0"]) == 0
        assert load(tmp_path / "dataset.faf") == []

    def test_gen_negative_count(self, tmp_path):
        assert main(["dataset", "gen", "--out", str(tmp_path),
                     "--count", "-1"]) == EXIT_CODES[ContractError]

    @pytest.mark.parametrize("flags, field", [
        (["--step", "nan"], "step"), (["--step", "inf"], "step"),
        (["--f-max", "nan"], "f_max"),
        (["--pose-range", "nan", "1", "1", "1", "1"], "pose range x"),
        (["--pose-range", "1", "inf", "1", "1", "1"], "pose range y")])
    def test_gen_non_finite_flag_named(self, tmp_path, capsys, flags, field):
        assert main(["dataset", "gen", "--out", str(tmp_path), "--count", "1",
                     *flags]) == EXIT_CODES[ContractError]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("pose_range", [None, ["0", "0", "0", "0", "0"]])
    def test_gen_step_past_the_gel_is_unsafe(self, tmp_path, capsys, pose_range):
        # a 5 mm step lands below the 3 mm gel at once, tilted or not
        flags = ["--pose-range", *pose_range] if pose_range else []
        assert main(["dataset", "gen", "--out", str(tmp_path), "--count", "1",
                     "--tool", "cube", "--step", "5", *flags]) == EXIT_CODES[SafetyError]
        err = capsys.readouterr().err
        assert err.startswith("error: the first step of 5.0 mm") and "3.0 mm gel" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("action, flag, text", [
        ("gen", "--step", "in mm (default: 0.05)"),
        ("gen", "--f-max", "in N (default: 15.0)"),
        ("gen", "--bin", "in N (default: 0.5)"),
        ("gen", "--pose-range", "in mm, roll, pitch and yaw in degrees (default: 4 4 10 10 180)"),
        ("balance", "--bin", "in N (default: 0.5)"),
        ("stats", "--bin", "in N (default: 0.5)")])
    def test_flag_help_gives_unit_and_default(self, action, flag, text):
        sub = build_parser()._subparsers._group_actions[0].choices["dataset"]
        parser = sub._subparsers._group_actions[0].choices[action]
        action = parser._option_string_actions[flag]
        assert (action.help % {"default": action.default}).endswith(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("action", ["gen", "balance", "stats"])
    def test_non_finite_bin_named(self, workdir, tmp_path, capsys, action, value):
        source = ["--count", "1"] if action == "gen" else ["--data", str(workdir["data"])]
        assert main(["dataset", action, "--out", str(tmp_path), *source,
                     f"--bin={value}"]) == EXIT_CODES[ContractError]
        err = capsys.readouterr().err
        assert err.startswith("error: bin width") and "Traceback" not in err
        assert not (tmp_path / "dataset.faf").exists()

    def test_gen_unknown_tool_or_profile(self, tmp_path):
        code = EXIT_CODES[ContractError]
        assert main(["dataset", "gen", "--out", str(tmp_path),
                     "--tool", "banana"]) == code
        assert main(["dataset", "gen", "--out", str(tmp_path),
                     "--profile", "banana"]) == code

    def test_balance_and_stats(self, workdir, tmp_path, capsys):
        rc = main(["dataset", "balance", "--data", str(workdir["data"]),
                   "--out", str(tmp_path), "--seed", "2"])
        assert rc == 0
        balanced = load(tmp_path / "balanced.faf")
        assert 0 < len(balanced) <= len(load(workdir["data"]))
        capsys.readouterr()
        rc = main(["dataset", "stats", "--data", str(tmp_path / "balanced.faf"),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fz range" in out and "bin ratio" in out
        assert (tmp_path / "stats.csv").exists()

    def test_stats_missing_file(self, tmp_path):
        assert main(["dataset", "stats", "--data", str(tmp_path / "no.faf"),
                     "--out", str(tmp_path)]) == 1


class TestTrain:
    def test_outputs(self, workdir):
        tr = workdir["train_dir"]
        lines = (tr / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_force,loss_depth,loss_total"
        assert len(lines) == 1 + TINY["train"]["epochs"]
        assert (tr / "loss.svg").read_text().startswith("<svg")
        net, normalizer, config = _load_net(str(tr / "model.fafw"))
        assert config.embed_dim == 16
        assert normalizer.max_val > normalizer.min_val

    def test_epochs_zero_equals_init(self, workdir, tmp_path):
        rc = main(["train", "--data", str(workdir["data"]), "--out",
                   str(tmp_path), "--config", str(workdir["config"]),
                   "--epochs", "0", "--seed", "3"])
        assert rc == 0
        net, _, config = _load_net(str(tmp_path / "model.fafw"))
        fresh = ForceNet(config, seed=3)
        for name, p in net.named_params().items():
            assert np.array_equal(p.data, fresh.named_params()[name].data)

    def test_rerun_byte_identical(self, workdir, tmp_path):
        rc = main(["train", "--data", str(workdir["data"]), "--out",
                   str(tmp_path), "--config", str(workdir["config"]),
                   "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "model.fafw").read_bytes() == \
               workdir["checkpoint"].read_bytes()
        assert (tmp_path / "loss.csv").read_bytes() == \
               (workdir["train_dir"] / "loss.csv").read_bytes()

    def test_conv_encoder_flag_persists(self, workdir, tmp_path):
        rc = main(["train", "--data", str(workdir["data"]), "--out",
                   str(tmp_path), "--config", str(workdir["config"]),
                   "--epochs", "1", "--conv-encoder", "--seed", "0"])
        assert rc == 0
        _, _, config = _load_net(str(tmp_path / "model.fafw"))
        assert config.encoder == "conv"

    def test_bad_config_rejected(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text, error in BAD_CONFIGS:
            bad.write_bytes(text)
            assert main(["train", "--data", str(workdir["data"]), "--out",
                         str(tmp_path), "--config", str(bad)]) == EXIT_CODES[error], text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, text
            if b"seed" in text:
                assert "--seed" in err

    def test_int_fits_a_float_field(self, workdir, tmp_path):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({"model": TINY["model"],
                                   "train": {**TINY["train"], "epochs": 0,
                                             "head_lr": 0}}), encoding="utf-8")
        assert main(["train", "--data", str(workdir["data"]), "--out",
                     str(tmp_path), "--config", str(cfg)]) == 0

    def test_config_ablation_keys_match_the_flags(self, workdir, tmp_path):
        cfg = tmp_path / "ablation.json"
        cfg.write_text(json.dumps({"model": TINY["model"],
                                   "train": {**TINY["train"], "with_decoder": False,
                                             "frozen_backbone": True}}),
                       encoding="utf-8")
        data = str(workdir["data"])
        assert main(["train", "--data", data, "--out", str(tmp_path / "config"),
                     "--config", str(cfg), "--seed", "3"]) == 0
        assert main(["train", "--data", data, "--out", str(tmp_path / "flags"),
                     "--config", str(workdir["config"]), "--no-decoder",
                     "--frozen-backbone", "--seed", "3"]) == 0
        by_config = (tmp_path / "config" / "model.fafw").read_bytes()
        assert by_config == (tmp_path / "flags" / "model.fafw").read_bytes()
        assert by_config != workdir["checkpoint"].read_bytes()


class TestEval:
    def test_net_requires_checkpoint(self, workdir, tmp_path):
        assert main(["eval", "--data", str(workdir["data"]), "--out",
                     str(tmp_path)]) == EXIT_CODES[ContractError]

    def test_oracle_all_zero(self, workdir, tmp_path):
        rc = main(["eval", "--data", str(workdir["data"]), "--out",
                   str(tmp_path), "--estimator", "oracle"])
        assert rc == 0
        lines = (tmp_path / "eval_oracle.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert [float(v) for v in cells[2:]] == [0.0, 0.0, 0.0, 0.0]

    def test_summary_row_per_checkpoint(self, workdir, tmp_path):
        ckpt = str(workdir["checkpoint"])
        rc = main(["eval", "--data", str(workdir["data"]), "--out",
                   str(tmp_path), "--checkpoint", ckpt, "--checkpoint", ckpt])
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("model,")
        assert lines[2].startswith("model-2,")
        assert (tmp_path / "eval_model.csv").exists()
        assert (tmp_path / "eval_model-2.csv").exists()


class TestCalibrate:
    def test_report_and_forgetting_table(self, workdir, tmp_path):
        rc = main(["calibrate", "--checkpoint", str(workdir["checkpoint"]),
                   "--out", str(tmp_path), "--steps", "3", "--samples", "12",
                   "--lr", "1e-3", "--seed", "4",
                   "--data", str(workdir["data"])])
        assert rc == 0
        lines = (tmp_path / "calibration.csv").read_text().splitlines()
        assert lines[0].startswith("profile,scope,steps")
        row = lines[1].split(",")
        assert row[0] == "digit" and row[1] == "regressor-head"
        deltas = (tmp_path / "forgetting.csv").read_text().splitlines()
        assert deltas[0] == "cell,error_increment_frac"
        assert len(deltas) > 1
        assert (tmp_path / "calibrated.fafw").exists()

    def test_steps_zero_identical_checkpoint(self, workdir, tmp_path):
        rc = main(["calibrate", "--checkpoint", str(workdir["checkpoint"]),
                   "--out", str(tmp_path), "--steps", "0", "--samples", "8"])
        assert rc == 0
        assert (tmp_path / "calibrated.fafw").read_bytes() == \
               workdir["checkpoint"].read_bytes()

    def test_explicit_scope(self, workdir, tmp_path):
        rc = main(["calibrate", "--checkpoint", str(workdir["checkpoint"]),
                   "--out", str(tmp_path), "--steps", "1", "--samples", "8",
                   "--scope", "final-layer"])
        assert rc == 0
        assert ",final-layer," in (tmp_path / "calibration.csv").read_text()

    @pytest.mark.parametrize("flag, value", [
        ("--holdout", "nan"), ("--holdout", "inf"), ("--holdout", "-0.5"),
        ("--holdout", "1"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1")])
    def test_bad_holdout_or_lr_named(self, workdir, tmp_path, capsys, flag, value):
        assert main(["calibrate", "--checkpoint", str(workdir["checkpoint"]),
                     "--out", str(tmp_path), "--samples", "20", "--steps", "3",
                     f"{flag}={value}"]) == EXIT_CODES[ContractError]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]}") and "Traceback" not in err
        assert not (tmp_path / "calibrated.fafw").exists()


class TestCheckpointMetadata:
    """Bad meta.model records map to FormatError (exit 7), not a traceback."""

    @staticmethod
    def _with_record(workdir, tmp_path, name, edit):
        """The trained checkpoint with record ``name`` replaced by edit(its list)."""
        arrays = load_arrays(str(workdir["checkpoint"]))
        arrays[name] = np.asarray(edit(arrays[name].tolist()), dtype=np.float64)
        path = tmp_path / "bad.fafw"
        save_arrays(str(path), arrays)
        return path

    @pytest.mark.parametrize("edit", [
        lambda m: m[:7],
        lambda m: m[:7] + [5.0],
        lambda m: m[:7] + [-1.0],
        lambda m: [m[0], 0.0] + m[2:],
        lambda m: [m[0], 5.0] + m[2:],
        lambda m: m[:4] + [0.0] + m[5:],
        lambda m: m[:2] + [float("nan")] + m[3:],
    ], ids=["short", "encoder-5", "encoder-minus-1", "patch-0", "patch-indivisible",
            "heads-0", "nan-embed"])
    def test_rejected_as_format_error(self, workdir, tmp_path, edit):
        path = self._with_record(workdir, tmp_path, "meta.model", edit)
        with pytest.raises(FormatError):
            _load_net(str(path))
        rc = main(["calibrate", "--checkpoint", str(path), "--out", str(tmp_path / "out"),
                   "--steps", "1", "--samples", "8"])
        assert rc == EXIT_CODES[FormatError]

    def test_short_normalizer_rejected(self, workdir, tmp_path):
        path = self._with_record(workdir, tmp_path, "meta.normalizer", lambda n: n[:2])
        with pytest.raises(FormatError, match="meta.normalizer"):
            _load_net(str(path))


class TestTasks:
    def test_weigh_oracle_within_quantization(self, tmp_path):
        mu = 0.2283
        rc = main(["task", "weigh", "--out", str(tmp_path), "--trials", "2",
                   "--mass", "1.0", "--mu", str(mu), "--seed", "5"])
        assert rc == 0
        lines = (tmp_path / "weigh.csv").read_text().splitlines()
        assert lines[-1].startswith("pooled,")
        err = float(lines[-1].split(",")[-1])
        assert err <= 0.04 / (mu * GRAVITY_MS2)
        assert (tmp_path / "weigh.svg").read_text().startswith("<svg")

    def test_weigh_net_needs_checkpoint(self, tmp_path):
        assert main(["task", "weigh", "--out", str(tmp_path),
                     "--estimator", "net"]) == EXIT_CODES[ContractError]

    def test_deform_row(self, tmp_path):
        rc = main(["task", "deform", "--out", str(tmp_path),
                   "--target", "1.74", "--seed", "5"])
        assert rc == 0
        lines = (tmp_path / "deform.csv").read_text().splitlines()
        assert lines[0].startswith("target_n,achieved_n")
        target, achieved, estimated, steps = lines[1].split(",")[:4]
        assert float(achieved) >= float(target)
        assert float(estimated) == float(achieved)
        assert int(steps) > 0
        assert (tmp_path / "deform.svg").exists()

    def test_deform_unreachable(self, tmp_path):
        assert main(["task", "deform", "--out", str(tmp_path),
                     "--target", "500"]) == \
            EXIT_CODES[errors_mod.TaskFailure]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("task, flag, field", [
        ("weigh", "--mass", "mass"), ("weigh", "--mu", "mu"), ("weigh", "--noise", "noise_n"),
        ("deform", "--target", "target"), ("deform", "--step-mm", "step_mm"),
        ("deform", "--rim-noise", "rim_noise_px")])
    def test_non_finite_flag_named(self, tmp_path, capsys, task, flag, field, value):
        extra = ["--target", "1"] if task == "deform" and flag != "--target" else []
        # the `=` form, since argparse reads a bare -inf as an option
        assert main(["task", task, "--out", str(tmp_path), *extra,
                     f"{flag}={value}"]) == EXIT_CODES[ContractError]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err

    def test_net_estimator_runs(self, workdir, tmp_path):
        rc = main(["task", "weigh", "--out", str(tmp_path), "--trials", "1",
                   "--frames", "8", "--ramp", "2", "--estimator", "net",
                   "--checkpoint", str(workdir["checkpoint"])])
        assert rc == 0
        assert (tmp_path / "weigh.csv").exists()


class TestInputSize:
    """Every command assembles its arrays at the checkpoint's input size."""

    def test_48_pixel_vit_end_to_end(self, workdir, tmp_path):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"model": {**TINY["model"], "input_size": 48,
                                             "patch_size": 8},
                                   "train": TINY["train"]}), encoding="utf-8")
        data = str(workdir["data"])
        assert main(["train", "--data", data, "--out", str(tmp_path / "train"),
                     "--config", str(cfg), "--seed", "3"]) == 0
        ckpt = str(tmp_path / "train" / "model.fafw")
        assert _load_net(ckpt)[2].input_size == 48
        assert main(["eval", "--data", data, "--out", str(tmp_path / "eval"),
                     "--checkpoint", ckpt]) == 0
        assert main(["calibrate", "--checkpoint", ckpt, "--out", str(tmp_path / "cal"),
                     "--steps", "2", "--samples", "8", "--lr", "1e-3",
                     "--data", data]) == 0
        assert main(["task", "weigh", "--out", str(tmp_path / "weigh"),
                     "--estimator", "net", "--checkpoint", ckpt, "--trials", "1",
                     "--frames", "6", "--ramp", "2"]) == 0
        assert main(["task", "deform", "--out", str(tmp_path / "deform"),
                     "--estimator", "net", "--checkpoint", ckpt,
                     "--target", "0"]) == 0


def _leaf_parsers(parser, prefix=()):
    """(command words, parser) of every subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*prefix, name))
            return
    yield " ".join(prefix), parser


def _run(argv, capsys):
    """(exit code, stderr) of one in-process CLI run."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().err


# the shared flags each subcommand does not read
DROPPED = [("dataset gen", "--config"), ("dataset balance", "--config"),
           ("dataset stats", "--config"), ("eval", "--config"), ("calibrate", "--config"),
           ("task weigh", "--config"), ("task deform", "--config"),
           ("dataset balance", "--profile"), ("dataset stats", "--profile"),
           ("train", "--profile"), ("eval", "--profile"),
           ("eval", "--seed"), ("dataset stats", "--seed")]

# flags that size the work: a huge value is a valid request for a long run
WORK_SIZE = {"--count", "--epochs", "--samples", "--steps", "--trials", "--frames"}


class TestFlagFuzz:
    """Every numeric flag of every subcommand, fed NaN, +-inf, a negative,
    zero and a huge value drawn from a fixed seed, exits with a documented
    code and no traceback. A usage or contract error (exit 2 or 4) names
    the flag, and a failed run leaves no --out behind. Each base command
    is small, so a run that passes validation ends in well under a second."""

    @staticmethod
    def bases(workdir):
        data, ckpt = str(workdir["data"]), str(workdir["checkpoint"])
        return {
            "dataset gen": ["dataset", "gen", "--count", "1", "--tool", "cube",
                            "--step", "0.4", "--f-max", "6"],
            "dataset balance": ["dataset", "balance", "--data", data],
            "dataset stats": ["dataset", "stats", "--data", data],
            "train": ["train", "--data", data, "--config", str(workdir["config"]),
                      "--epochs", "1"],
            "eval": ["eval", "--data", data, "--estimator", "oracle"],
            "calibrate": ["calibrate", "--checkpoint", ckpt, "--samples", "8", "--steps", "1"],
            "task weigh": ["task", "weigh", "--trials", "1", "--frames", "6", "--ramp", "2"],
            "task deform": ["task", "deform", "--target", "1"],
        }

    @staticmethod
    def values(rng, action):
        """The fuzz values of one flag, as command-line text."""
        out = ["nan", "inf", "-inf", "0"]
        if action.type is int:
            out.append(str(-int(rng.integers(1, 10**6))))
            if action.option_strings[0] not in WORK_SIZE:
                out.append(str(int(rng.integers(2**40, 2**62))))
        else:
            out.append(repr(-float(rng.uniform(0.0, 1e3))))
            out.append(repr(10.0 ** float(rng.uniform(6.0, 300.0))))
        return out

    def test_numeric_flags(self, workdir, tmp_path, capsys):
        bases = self.bases(workdir)
        leaves = dict(_leaf_parsers(build_parser()))
        assert set(leaves) == set(bases)
        documented = {0, 2, *EXIT_CODES.values()}
        rng = np.random.default_rng(1234)
        runs = 0
        for command, parser in leaves.items():
            for action in parser._actions:
                if action.type not in (int, float):
                    continue
                flag = action.option_strings[0]
                names = (flag, action.dest, action.dest.replace("_", " "))
                for value in self.values(rng, action):
                    if action.nargs == 5:
                        args = ["4", "4", "10", "10", "180"]
                        args[int(rng.integers(5))] = value
                        given = [flag, *args]
                    else:
                        given = [f"{flag}={value}"]
                    out = tmp_path / f"run{runs}" / "out"
                    argv = [*bases[command], *given, "--out", str(out)]
                    code, err = _run(argv, capsys)
                    runs += 1
                    assert code in documented, (argv, code, err)
                    assert "Traceback" not in err, argv
                    if code in (2, 4):
                        assert any(name in err for name in names), (argv, err)
                    if code != 0:
                        assert not out.parent.exists(), argv
        assert runs > 150

    @pytest.mark.parametrize("command, flag", DROPPED)
    def test_dropped_shared_flag_is_a_usage_error(self, workdir, tmp_path, capsys,
                                                  command, flag):
        argv = [*self.bases(workdir)[command], flag, "x", "--out", str(tmp_path / "out")]
        code, err = _run(argv, capsys)
        assert code == 2 and f"unrecognized arguments: {flag} x" in err
        assert not (tmp_path / "out").exists()
