"""The benchmark's three workloads.

Each workload builds its inputs in `setup`, runs one round of work per
`round` call (the timed part), and checks that round's outputs in
`check`, outside the timed part. A run holds whole cycles of `cycle`
rounds, so every run measures the same mix of inputs. A round reports
how long it took, how many samples it processed, how many operations
it attempted and failed, and the durations of its steps: the unit of
latency the workload exposes to its user.

The package is driven only through its public functions, the ones the
CLI subcommands call.
"""

import dataclasses
import math
import os
import time

import numpy as np

import checks
from tacforce import autodiff as ad
from tacforce import calibration, checkpoint, dataset, model, tasks, training
from tacforce.errors import TaskFailure
from tacforce.geometry import PoseRange
from tacforce.indenters import INDENTER_IDS, INDENTER_NAMES, get_indenter
from tacforce.profiles import PROFILE_IDS, PROFILE_NAMES, get_profile
from tacforce.sensor import FORCE_QUANTUM_N, GRAVITY_MS2

now = time.perf_counter

WORKBENCH = tuple(n for n in PROFILE_NAMES if n != "digit")


def round_seed(seed, r, stream):
    """A 32-bit seed for stream `stream` of round `r`."""
    return int(np.random.SeedSequence([seed, r, stream]).generate_state(1)[0])


@dataclasses.dataclass
class Round:
    seconds: float = 0.0
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    steps: list = dataclasses.field(default_factory=list)  # seconds per step


# -- collect ---------------------------------------------------------------------

class Collect:
    """All ten tools on one workbench rig and on digit, then the data path.

    Round r uses the r-th of the nine workbench rigs, and a run holds
    whole cycles of the nine. A round draws one pose per (tool,
    profile) at the program's defaults. It calls `generate_dataset`
    once per tool, so each call gives the dataset pool two
    trajectories. The round then runs `balance`, `store`, `load`,
    `DepthNormalizer.from_samples` and `make_training_arrays` on what
    it made. A step is one of these fifteen calls. (With the ten
    `generate_dataset` calls alone, the slowest tool would be exactly
    a tenth of the steps, and the p90 would jump between it and the
    next tool from run to run.)
    """

    name = "collect"
    setup_repeats = 5   # a set-up of a fraction of a second needs a few more
    cycle = len(WORKBENCH)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.path = os.path.join(workdir, "collect.faf1")
        self.gaps = []

    def setup(self):
        profiles = {n: get_profile(n) for n in PROFILE_NAMES}
        for p in profiles.values():
            p.background()
        self.spheres = {INDENTER_IDS[n]: get_indenter(n).radius
                        for n in ("big_sphere", "small_sphere")}
        self.constants = {PROFILE_IDS[n]: (p.normal_stiffness, p.force_quantum,
                                           p.width_mm / 2.0, p.height_mm / 2.0, p.pixel_pitch)
                          for n, p in profiles.items()}
        # one trajectory per profile, so first-call set-up is not timed
        dataset.generate_dataset(("small_sphere",), ("digit", WORKBENCH[0]), 1, seed=self.seed)

    def round(self, r):
        out = Round()
        rig = WORKBENCH[r % len(WORKBENCH)]
        base = round_seed(self.seed, r, 1)

        def step(fn, *args, **kwargs):
            t0 = now()
            result = fn(*args, **kwargs)
            out.steps.append(now() - t0)
            return result

        raw = []
        for i, tool in enumerate(INDENTER_NAMES):
            raw += step(dataset.generate_dataset, (tool,), (rig, "digit"), 1, seed=base + i)
        kept = step(dataset.balance, raw, seed=base)
        step(dataset.store, kept, self.path)
        loaded = step(dataset.load, self.path)
        normalizer = step(dataset.DepthNormalizer.from_samples, loaded)
        arrays = step(training.make_training_arrays, loaded, normalizer)
        out.samples = len(raw)
        out.attempted = len(out.steps)
        self._last = (raw, kept, loaded, arrays)
        return out

    def check(self, r):
        raw, kept, loaded, arrays = self._last
        self._last = None
        problems, gaps = checks.sphere_loads(raw, self.spheres, self.constants)
        if r < self.cycle:
            # the first cycle only, so the figure has the same inputs however many
            # cycles a run holds
            self.gaps += gaps
        problems += checks.roundtrip(kept, loaded)
        problems += checks.balanced_subset(raw, kept, dataset.DEFAULT_BIN_WIDTH_N)
        problems += checks.training_arrays(arrays, loaded)
        return problems

    def force_error_pct(self):
        """Mean |F^z - cap load| of the first cycle's sphere samples, % of the
        15 N z range."""
        return 100.0 * float(np.mean(self.gaps)) / training.FORCE_RANGES[2]


# -- pretrain --------------------------------------------------------------------

TRAIN_TOOLS = ("small_sphere", "cube")
TRAIN_RIGS = ("sensor1-gel1", "sensor1-gel2", "sensor1-gel3")
HELDOUT_RIGS = tuple(f"sensor{s}-gel{g}" for s in (2, 3) for g in (1, 2, 3))
TRAIN_POSES = PoseRange(x=4.0, y=2.0, roll=6.0, pitch=6.0, yaw=180.0)
TRAIN_STEP_MM = 0.3
TRAIN_F_MAX = 6.0
TRAIN_SET_SEED = 21      # the cross-rig ablation's training set and net
PRETRAIN_EPOCHS = 8
PRETRAIN = training.TrainConfig(batch_size=32, epochs=PRETRAIN_EPOCHS,
                                backbone_lr=2e-3, head_lr=1e-2, seed=0)


class BatchClock(dict):
    """Training arrays that note the time of every batch fetch.

    `train` reads "images" once for the set size and then once per
    batch, so successive fetches bound the training steps. `train`
    exposes no per-step hook, so this leans on that access pattern; a
    change to it makes `steps` raise rather than mis-time.
    """

    def __init__(self, arrays):
        super().__init__(arrays)
        self.fetches = []

    def __getitem__(self, key):
        if key == "images":
            self.fetches.append(now())
        return super().__getitem__(key)

    def steps(self, end, expected):
        marks = self.fetches[1:] + [end]
        if len(marks) != expected + 1:
            raise RuntimeError(f"train fetched {len(self.fetches)} batches for "
                               f"{expected} steps; the step clock no longer fits it")
        return [b - a for a, b in zip(marks, marks[1:])]


def force_loss(net, images, forces, depths):
    pred_force, pred_depth = net.forward(images)
    return training.loss_total(
        training.loss_force(ad.Tensor(forces), pred_force),
        training.loss_depth(ad.Tensor(depths[:, None]), pred_depth), 1.0, 1.0)


DIRECTIONS = 3   # seeded directions of the gradient check
EPS = 1e-5       # central-difference step along a unit direction


def directional_derivatives(net, images, forces, depths, rng):
    """(tape, central-difference) derivative pairs of the training loss
    along seeded unit directions in the joint parameter space."""
    params = net.named_params()
    for p in params.values():
        p.grad = None
    ad.backward(force_loss(net, images, forces, depths))
    grads = {n: p.grad for n, p in params.items()}
    for p in params.values():
        p.grad = None
    saved = {n: p.data for n, p in params.items()}

    def loss_at(step, v):
        for n, p in params.items():
            p.data = saved[n] + step * v[n]
        with ad.no_grad():
            return float(force_loss(net, images, forces, depths).data)

    pairs = []
    try:
        for _ in range(DIRECTIONS):
            v = {n: rng.normal(size=a.shape) for n, a in saved.items()}
            scale = math.sqrt(sum(float((a * a).sum()) for a in v.values()))
            v = {n: a / scale for n, a in v.items()}
            tape = sum(float((grads[n] * v[n]).sum()) for n in params)
            pairs.append((tape, (loss_at(EPS, v) - loss_at(-EPS, v)) / (2.0 * EPS)))
    finally:
        for n, p in params.items():
            p.data = saved[n]
    return pairs


class Pretrain:
    """The default ViT with its depth decoder, trained at batch 32.

    The training set and the net are the cross-rig ablation's (two
    tools on the three rig-one gels, seed 21, net seed 0), so every run
    trains the same net; `--seed` draws the held-out set on the six
    unseen rigs and the gradient check's batch and directions. A round
    builds the net, trains it for a fixed number of epochs and scores
    it. A step is one training step.
    """

    name = "pretrain"
    setup_repeats = 3
    cycle = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        raw = dataset.generate_dataset(TRAIN_TOOLS, TRAIN_RIGS, 30, pose_range=TRAIN_POSES,
                                       step=TRAIN_STEP_MM, f_max=TRAIN_F_MAX,
                                       seed=TRAIN_SET_SEED)
        train_set = dataset.balance(raw, seed=TRAIN_SET_SEED)
        normalizer = dataset.DepthNormalizer.from_samples(train_set)
        self.data = training.make_training_arrays(train_set, normalizer)
        heldout = dataset.generate_dataset(TRAIN_TOOLS, HELDOUT_RIGS, 8, pose_range=TRAIN_POSES,
                                           step=TRAIN_STEP_MM, f_max=TRAIN_F_MAX,
                                           seed=round_seed(self.seed, 0, 2))
        cells = {}
        for s in heldout:
            cells.setdefault(PROFILE_NAMES[s.profile_id], []).append(s)
        self.eval_sets = {name: training.make_training_arrays(group, normalizer)
                          for name, group in sorted(cells.items())}

    def round(self, r):
        out = Round()
        n = len(self.data["images"])
        clock = BatchClock(self.data)
        net = model.ForceNet(model.ModelConfig(), seed=0)
        curve = training.train(clock, net, PRETRAIN)
        out.steps = clock.steps(now(), PRETRAIN_EPOCHS * -(-n // PRETRAIN.batch_size))
        report = training.evaluate(self.eval_sets, training.model_estimator(net))
        out.samples = n * PRETRAIN_EPOCHS
        out.attempted = 3
        self._last = (net, curve, report)
        return out

    def check(self, r):
        net, curve, report = self._last
        self._last = None
        error = report.mean_normalized_error
        self.error = 100.0 * error  # every round trains the same net
        problems = checks.finite_losses(curve)
        problems += checks.beats_constant(
            float(curve[-1, 1]), checks.constant_force_loss(self.data["forces"]),
            error, checks.constant_force_error(self.data["forces"], self.eval_sets,
                                               training.FORCE_RANGES))
        rng = np.random.default_rng(round_seed(self.seed, r, 3))
        batch = rng.choice(len(self.data["images"]), size=PRETRAIN.batch_size, replace=False)
        pairs = directional_derivatives(net, self.data["images"][batch],
                                        self.data["forces"][batch],
                                        self.data["depths"][batch], rng)
        for tape, fd in pairs:
            rel, ok = checks.directional_agreement(tape, fd)
            if not ok:
                problems.append(f"gradient: tape {tape:.6g} vs finite difference "
                                f"{fd:.6g} (rel {rel:.2e})")
        return problems

    def force_error_pct(self):
        return self.error


# -- deploy ----------------------------------------------------------------------

WEIGH_NET = model.ModelConfig(embed_dim=32, depth=2, heads=4, decoder_channels=16)
WEIGH_TRAIN = training.TrainConfig(batch_size=32, epochs=60, backbone_lr=2e-3,
                                   head_lr=1e-2, seed=0)
WEIGH_MASSES = (0.4, 0.55, 0.7, 0.85, 1.1, 1.3, 1.5, 1.7, 1.9, 2.05)
MU = 0.3
CALIBRATION_FRAMES = 100
FINETUNE = dict(scope=calibration.FinetuneScope.REGRESSOR_HEAD, steps=200, lr=1e-3)
# every round calibrates on the same captures: the calibrated error varies by
# about 5% from one capture set to the next, more than a median over a run's
# few rounds would smooth, and force_error_pct should move only with the
# arithmetic
CALIBRATION_SEED = 0
HELDOUT_FRAMES = 1200  # a 200-frame set's error varies ~10% from seed to seed
PUSHES = 5
GRASPS = 32   # so the control loop, which the step metrics time, is about half a round
GRASP_TARGETS_N = (1.5, 4.5)   # inside the 1.2-7.1 N pushes the net learned
GRASP_STEP_MM = 0.05


class EstimatorClock:
    """An estimator that notes when it is called and what it read."""

    def __init__(self, estimate):
        self.estimate = estimate
        self.calls = []
        self.readings = []

    def __call__(self, frames):
        self.calls.append(now())
        est = np.asarray(self.estimate(frames), dtype=np.float64)
        self.readings.append(float(est[:, 2].max()))
        return est

    def steps(self):
        return [b - a for a, b in zip(self.calls, self.calls[1:])]


class Deploy:
    """Reload a weighing net, calibrate it to digit, weigh and grasp.

    Set-up trains the weighing net as the weighing-closure acceptance
    test does (its pushes and seeds) and saves it. A round reloads the
    checkpoint twice, calibrates one copy to digit and saves it, weighs
    a 1 kg object from repeated pushes with the other, and closes
    grasp loops with it at seeded targets. A step is one grasp control
    step, timed between successive calls of the estimator. `--seed`
    draws the held-out digit captures, the grasp targets and the push
    seeds.
    """

    name = "deploy"
    setup_repeats = 3
    cycle = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.path = os.path.join(workdir, "weighing.fafw")
        self.calibrated_path = os.path.join(workdir, "calibrated.fafw")
        self.digit = get_profile("digit")

    def setup(self):
        pushes = []
        for k, mass in enumerate(WEIGH_MASSES):
            scenario = tasks.PushScenario(mass=mass, mu=MU, n_frames=16, ramp_frames=4,
                                          noise_n=0.2)
            pushes += tasks.simulate_push(scenario, seed=100 + k).samples
        normalizer = dataset.DepthNormalizer.from_samples(pushes)
        net = model.ForceNet(WEIGH_NET, seed=0)
        training.train(training.make_training_arrays(pushes, normalizer), net, WEIGH_TRAIN)
        self.meta = {"meta.normalizer": np.array([normalizer.min_val, normalizer.max_val,
                                                  normalizer.eps])}
        checkpoint.save_model(self.path, net.named_params(), extra=self.meta)
        self.net = net
        heldout = calibration.collect_calibration(self.digit, n=HELDOUT_FRAMES,
                                                  seed=round_seed(self.seed, 0, 4))
        self.heldout = training.make_training_arrays(heldout, normalizer)

    def _reload(self):
        net = model.ForceNet(WEIGH_NET, seed=0)
        extra = checkpoint.load_model(self.path, net.named_params())
        return net, dataset.DepthNormalizer(*(float(v) for v in extra["meta.normalizer"]))

    def targets(self, r):
        """One seeded target in each of GRASPS equal slices of the range,
        so every round closes about the same number of control steps."""
        lo, hi = GRASP_TARGETS_N
        u = np.random.default_rng(round_seed(self.seed, r, 5)).uniform(size=GRASPS)
        return lo + (hi - lo) * (np.arange(GRASPS) + u) / GRASPS

    def round(self, r):
        out = Round()
        net, normalizer = self._reload()
        tuned, _ = self._reload()
        rig = calibration.collect_calibration(self.digit, n=CALIBRATION_FRAMES,
                                              seed=CALIBRATION_SEED)
        report = calibration.finetune(tuned, rig, normalizer, seed=CALIBRATION_SEED, **FINETUNE)
        checkpoint.save_model(self.calibrated_path, tuned.named_params(), extra=self.meta)

        estimator = tasks.net_estimator(net, normalizer)
        push_seed = round_seed(self.seed, r, 7)
        known = tasks.simulate_push(tasks.PushScenario(mass=0.5, mu=MU), seed=push_seed)
        measured = float(np.asarray(estimator(known.samples))[known.const_mask, 2].mean())
        mu_hat = tasks.fit_friction(0.5, measured)
        traces = [tasks.simulate_push(tasks.PushScenario(mass=1.0, mu=MU), seed=push_seed + 1 + t)
                  for t in range(PUSHES)]
        mass, _ = tasks.estimate_weight(traces, mu_hat, estimator)
        # two loads, capture, finetune, save; the pushes; fit and weigh
        out.attempted = 5 + 1 + PUSHES + 2
        frames = len(rig) + len(known.samples) + sum(len(t.samples) for t in traces)

        grasps = []
        for target in self.targets(r):
            clock = EstimatorClock(estimator)
            out.attempted += 1
            try:
                result = tasks.grasp_to_force(float(target), GRASP_STEP_MM, clock)
            except TaskFailure:
                out.failed += 1
                result = None
            frames += 2 * len(clock.calls)
            out.steps += clock.steps()
            grasps.append((float(target), clock, result))
        out.samples = frames
        self._last = (net, tuned, report, mass, grasps)
        return out

    def check(self, r):
        net, tuned, report, mass, grasps = self._last
        self._last = None
        images = self.heldout["images"][:30]
        problems = checks.identical(self.net.predict_force(images), net.predict_force(images),
                                    "reloaded checkpoint")
        reference = {n: p.data for n, p in self.net.named_params().items()}
        problems += checks.finetune_scope(
            reference, {n: p.data for n, p in tuned.named_params().items()},
            lambda name: name.startswith("regressor."), report)
        problems += checks.weighed(mass, 1.0, 0.10, "net weighing")
        for target, clock, result in grasps:
            if result is not None:
                problems += checks.grasp_stop(clock.readings, target, result)
        if r == 0:
            # every round calibrates the same way, so the first one speaks for all
            self.error = 100.0 * training.evaluate(
                {"digit": self.heldout}, training.model_estimator(tuned)).mean_normalized_error
            problems += self._oracle_checks(r)
        return problems

    def _oracle_checks(self, r):
        """Quantized-truth readout: the weighing bound and the grasp overshoot."""
        oracle = tasks.oracle_readout_estimator(self.digit)
        push_seed = round_seed(self.seed, r, 9)
        traces = [tasks.simulate_push(tasks.PushScenario(mass=1.0, mu=MU), seed=push_seed + t)
                  for t in range(PUSHES)]
        mass, _ = tasks.estimate_weight(traces, MU, oracle)
        bound = FORCE_QUANTUM_N / (2.0 * MU * GRAVITY_MS2)
        problems = checks.weighed(mass, 1.0, bound + 1e-6, "oracle weighing")
        increment = tasks.CupModel().spring_n_per_mm * GRASP_STEP_MM
        for target in self.targets(r):
            clock = EstimatorClock(oracle)
            result = tasks.grasp_to_force(float(target), GRASP_STEP_MM, clock)
            problems += checks.grasp_stop(clock.readings, float(target), result)
            problems += checks.overshoot(result, float(target), increment)
        return problems

    def force_error_pct(self):
        return self.error


WORKLOADS = {w.name: w for w in (Collect, Pretrain, Deploy)}
