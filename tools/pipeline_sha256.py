"""Hash every output of a small seeded CLI pipeline.

Runs the `tacforce` subcommands in a fresh temporary directory, from
dataset generation on all ten indenters (at the default pose range and
over the whole safe envelope) and on all ten profiles through training
(a tiny net, and one epoch of the default ViT), evaluation, calibration
(on digit and on a workbench gel) and the downstream tasks, and prints
one `sha256  name` line per output file and per command's stdout. Every
subcommand is a pure function of its flags and --seed, so two checkouts
that behave the same print the same lines; diff the output of two
checkouts to compare them:

    python3 tools/pipeline_sha256.py > a.txt
    (in the other checkout) python3 tools/pipeline_sha256.py > b.txt
    diff a.txt b.txt

The package is imported from the checkout's `src/`. Commands run with
single-threaded BLAS, since some outputs depend on the BLAS thread
count, and with paths relative to the temporary directory, so that
stdout does not carry it. A command that exits non-zero stops the run.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

TINY = {"model": {"embed_dim": 16, "depth": 1, "heads": 2, "decoder_channels": 8},
        "train": {"epochs": 2, "batch_size": 8, "backbone_lr": 1e-3, "head_lr": 1e-3}}

# the default ViT (embed 64, depth 4, heads 4: 16 features a head) for one
# epoch; gen's 184 samples make batches of 61, 61, 61 and 1, so a one-sample
# batch is hashed too
DEFAULT = {"train": {"epochs": 1, "batch_size": 61}}

CALIBRATE = ["--samples", "20", "--steps", "5", "--lr", "1e-3", "--seed", "9",
             "--data", "gen/dataset.faf"]
WEIGH = ["--trials", "1", "--frames", "8", "--ramp", "2", "--seed", "5"]
DEFORM = ["--target", "1.74", "--seed", "5"]
# about a dozen closure steps, and three pushes at the default 30 frames:
# each shows the same few task frames many times over (the net reads the
# frames' bytes, the oracle only their forces)
DEFORM_LONG = ["--target", "4.5", "--seed", "5"]
WEIGH_TRIALS = ["--trials", "3", "--seed", "5"]
# the two-epoch nets read about 0.21 N whatever the grip, so the net grasp
# aims below that
DEFORM_NET = ["--target", "0.2", "--seed", "5"]

# every indenter, so the hashes cover each tool's contact and render path
TOOLS = ("big_sphere", "small_sphere", "cylinder", "triple_cylinder", "ring", "cross",
         "cube", "cone", "wedge", "ellipsoid")

GEN = ["dataset", "gen", "--count", "2", *(a for t in TOOLS for a in ("--tool", t)),
       "--profile", "sensor1-gel1", "--profile", "digit",
       "--step", "0.4", "--f-max", "6", "--seed", "11"]

# the default step and force limit, so trajectories run for dozens of steps
# and span several of the blocks the collect path simulates together
GEN_LONG = ["dataset", "gen", "--count", "1", *(a for t in TOOLS for a in ("--tool", t)),
            "--profile", "sensor1-gel1", "--profile", "digit", "--seed", "11"]

# untilted presses in steps of 0.1875 mm (exact in binary): small_sphere
# reaches the 3 mm gel exactly at step 16, the last step of a block of 8,
# and cube stops on force inside a block
GEN_BLOCK_EDGES = ["dataset", "gen", "--count", "1", "--tool", "small_sphere",
                   "--tool", "cube", "--pose-range", "0", "0", "0", "0", "0",
                   "--step", "0.1875", "--seed", "11"]

# every built-in profile, so each one's resting background is hashed
PROFILES = (*(f"sensor{s}-gel{g}" for s in (1, 2, 3) for g in (1, 2, 3)), "digit")

GEN_PROFILES = ["dataset", "gen", "--count", "1", "--tool", "big_sphere",
                *(a for p in PROFILES for a in ("--profile", p)),
                "--step", "0.4", "--seed", "11"]

# (name, argv); each command writes to --out <name>
PIPELINE = [
    ("gen", GEN),
    # the whole safe envelope, so pad-edge and tilted contacts are rendered too
    ("gen-envelope", [*GEN, "--pose-range", "8", "8", "30", "30", "180"]),
    ("gen-long", GEN_LONG),
    ("gen-block-edges", GEN_BLOCK_EDGES),
    ("gen-profiles", GEN_PROFILES),
    ("balance", ["dataset", "balance", "--data", "gen/dataset.faf", "--seed", "2"]),
    ("stats", ["dataset", "stats", "--data", "balance/balanced.faf"]),
    ("train-vit", ["train", "--data", "gen/dataset.faf", "--config", "tiny.json",
                   "--seed", "3"]),
    ("train-conv", ["train", "--data", "gen/dataset.faf", "--config", "tiny.json",
                    "--conv-encoder", "--seed", "3"]),
    # the ablation flags, which override the config's train section
    ("train-ablation", ["train", "--data", "gen/dataset.faf", "--config", "tiny.json",
                        "--no-decoder", "--frozen-backbone", "--seed", "3"]),
    ("train-default", ["train", "--data", "gen/dataset.faf", "--config", "default.json",
                       "--seed", "3"]),
    ("eval-default", ["eval", "--data", "gen/dataset.faf",
                      "--checkpoint", "train-default/model.fafw"]),
    ("eval-net", ["eval", "--data", "gen/dataset.faf",
                  "--checkpoint", "train-vit/model.fafw",
                  "--checkpoint", "train-conv/model.fafw"]),
    ("eval-ablation", ["eval", "--data", "gen/dataset.faf",
                       "--checkpoint", "train-ablation/model.fafw"]),
    ("eval-oracle", ["eval", "--data", "gen/dataset.faf", "--estimator", "oracle"]),
    *[(f"calibrate-{enc}-{scope}",
       ["calibrate", "--checkpoint", f"train-{enc}/model.fafw", "--scope", scope,
        *CALIBRATE])
      for enc in ("vit", "conv")
      for scope in ("auto", "final-layer", "regressor-head", "full")],
    # a workbench gel of another stiffness than digit's, so the rig's
    # force-to-depth root is pinned on a second gel
    ("calibrate-vit-sensor2-gel2", ["calibrate", "--checkpoint", "train-vit/model.fafw",
                                    "--profile", "sensor2-gel2", *CALIBRATE]),
    ("weigh-oracle", ["task", "weigh", *WEIGH]),
    ("deform-oracle", ["task", "deform", *DEFORM]),
    ("deform-oracle-long", ["task", "deform", *DEFORM_LONG]),
    ("weigh-oracle-trials", ["task", "weigh", *WEIGH_TRIALS]),
    ("weigh-net-trials", ["task", "weigh", "--estimator", "net",
                          "--checkpoint", "train-vit/model.fafw", *WEIGH_TRIALS]),
    # the same pushes through the conv encoder, whose features depend on
    # the other rows of their batch, so it hashes the batches the net reads
    ("weigh-net-conv-trials", ["task", "weigh", "--estimator", "net",
                               "--checkpoint", "train-conv/model.fafw", *WEIGH_TRIALS]),
    *[(f"{task}-net-{enc}",
       ["task", task, "--estimator", "net", "--checkpoint", f"train-{enc}/model.fafw",
        *(WEIGH if task == "weigh" else DEFORM_NET)])
      for task in ("weigh", "deform")
      for enc in ("vit", "conv")],
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="pipeline-") as root:
        for fname, config in (("tiny.json", TINY), ("default.json", DEFAULT)):
            with open(os.path.join(root, fname), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        for name, argv in PIPELINE:
            cmd = [sys.executable, "-m", "tacforce.cli", *argv, "--out", name]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                sys.exit(f"{name}: exit {proc.returncode}: {' '.join(argv)}")
            print(f"{sha256(proc.stdout)}  {name}.stdout")
            for fname in sorted(os.listdir(os.path.join(root, name))):
                with open(os.path.join(root, name, fname), "rb") as fh:
                    print(f"{sha256(fh.read())}  {name}/{fname}")


if __name__ == "__main__":
    main()
