"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the verdict
lines stream; without -s they still appear for any failing test. The
suite is the slow one in this repo (roughly ten minutes on a single
core): it regenerates its datasets from scratch and trains several
small models end to end. Everything is seeded, so reruns are exact.
"""

import time

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce.calibration import (FinetuneScope, catastrophic_forgetting_check,
                                  collect_calibration, finetune)
from tacforce.checkpoint import load_arrays, load_model, save_arrays, save_model
from tacforce.dataset import (DepthNormalizer, balance, generate_dataset, load,
                              run_indentation, sample_poses, store)
from tacforce.errors import DegenerateInputError
from tacforce.geometry import PoseRange, euler_to_matrix, register_frames
from tacforce.indenters import get_indenter
from tacforce.model import ForceNet, ModelConfig
from tacforce.profiles import PROFILE_NAMES, get_profile
from tacforce.sensor import (FORCE_QUANTUM_N, GRAVITY_MS2, ToolPose, compute_contact,
                             oracle_force, quantize)
from tacforce.tasks import (CupModel, EllipseFit, PushScenario, RimObservation,
                            deformation_percent, estimate_weight, fit_ellipse,
                            fit_friction, grasp_to_force, net_estimator,
                            oracle_readout_estimator, simulate_push)
from tacforce.training import (TrainConfig, evaluate, loss_depth, loss_force,
                               loss_total, make_training_arrays,
                               model_estimator, train)


def _verdict(name, ok, detail):
    """Print exactly one pass/fail line for a guarantee, then assert it."""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _ellipse_points(a, b, angle_deg, center, n=50, seed=None):
    if seed is None:
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    else:
        theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n)
    c, s = np.cos(np.radians(angle_deg)), np.sin(np.radians(angle_deg))
    ex, ey = a * np.cos(theta), b * np.sin(theta)
    return np.column_stack([center[0] + c * ex - s * ey,
                            center[1] + s * ex + c * ey])


# -- gradients ----------------------------------------------------------------

def test_gradient_fidelity():
    """Analytic gradients match central finite differences everywhere.

    Every parameter tensor of a 2-block, width-64 network (both heads
    attached) is probed along three seeded random directions; the
    directional derivative from the tape must agree with the central
    difference to a relative error below 1e-4, and the whole check must
    finish inside two minutes.
    """
    t0 = time.monotonic()
    net = ForceNet(ModelConfig(embed_dim=64, depth=2), seed=3)
    rng = np.random.default_rng(42)
    # probe at a generic random point: the stock trunc-normal init leaves the
    # late decoder stages so close to their activation kinks (features ~1e-6)
    # that central differences would straddle them
    for p in net.named_params().values():
        p.data = rng.normal(0.0, 0.1, size=p.data.shape)
    images = rng.uniform(-1.0, 1.0, size=(2, 32, 32, 3))
    forces = rng.normal(0.0, 2.0, size=(2, 3))
    labels = rng.uniform(0.0, 1.0, size=(2, 1, 32, 32))

    def loss_value():
        with ad.no_grad():
            pf, pd = net.forward(images)
            total = loss_total(loss_force(ad.Tensor(forces), pf),
                               loss_depth(ad.Tensor(labels), pd), 1.0, 1.0)
        return float(total.data)

    params = net.named_params()
    pf, pd = net.forward(images)
    ad.backward(loss_total(loss_force(ad.Tensor(forces), pf),
                           loss_depth(ad.Tensor(labels), pd), 1.0, 1.0))
    grads = {n: p.grad.copy() for n, p in params.items()}
    assert all(g is not None for g in grads.values())

    eps = 1e-5
    dir_rng = np.random.default_rng(7)
    worst, worst_name = 0.0, "none"
    for name, p in params.items():
        for _ in range(3):
            v = dir_rng.normal(size=p.data.shape)
            v /= np.linalg.norm(v)
            analytic = float((grads[name] * v).sum())
            saved = p.data
            p.data = saved + eps * v
            hi = loss_value()
            p.data = saved - eps * v
            lo = loss_value()
            p.data = saved
            fd = (hi - lo) / (2.0 * eps)
            # derivatives below 1e-3 (~4e-5 of the loss) are compared on the
            # matching absolute bar, the usual atol arm of a gradient check
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-3)
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.monotonic() - t0
    _verdict("gradient fidelity", worst < 1e-4 and elapsed < 120.0,
             f"{len(params)} tensors x 3 directions, worst rel err "
             f"{worst:.2e} at {worst_name}, {elapsed:.1f}s")


# -- loss definitions ---------------------------------------------------------

def test_loss_definitions():
    """Losses reproduce hand values; zero depth weight is a bitwise no-op.

    The force loss is the batch mean of the residual's L1 norm, the
    depth loss the batch mean of the flattened residual's Euclidean
    norm, and the total their weighted sum. Training with the depth
    weight at zero must leave every parameter bitwise identical to a
    run with the decoder detached outright.
    """
    lf1 = float(loss_force(ad.Tensor(np.zeros((1, 3))),
                           ad.Tensor(np.array([[0.1, -0.2, 0.3]]))).data)
    lf2 = float(loss_force(ad.Tensor(np.zeros((2, 3))),
                           ad.Tensor(np.array([[0.1, -0.2, 0.3],
                                               [0.5, 0.0, -0.5]]))).data)
    ld = float(loss_depth(ad.Tensor(np.zeros((1, 1, 2, 2))),
                          ad.Tensor(np.full((1, 1, 2, 2), 0.5))).data)
    lt = float(loss_total(ad.Tensor(1.0), ad.Tensor(2.0), 0.5, 0.5).data)
    hand_ok = (lf1 == pytest.approx(0.6, abs=1e-12)
               and lf2 == pytest.approx(0.8, abs=1e-12)
               and ld == 1.0 and lt == 1.5)

    cfg = ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8)
    rng = np.random.default_rng(11)
    data = {"images": rng.uniform(-1.0, 1.0, size=(8, 32, 32, 3)),
            "forces": rng.normal(0.0, 2.0, size=(8, 3)),
            "depths": rng.uniform(0.0, 1.0, size=(8, 32, 32))}
    runs = {}
    for label, kwargs in (("weight-zero", dict(beta_w=0.0, with_decoder=True)),
                          ("detached", dict(with_decoder=False))):
        net = ForceNet(cfg, seed=6)
        train(data, net, TrainConfig(batch_size=4, epochs=3, backbone_lr=1e-3,
                                     head_lr=1e-3, seed=6, **kwargs))
        runs[label] = ({n: p.data.copy() for n, p in net.named_params().items()},
                       net.predict_force(data["images"]))
    wz, det = runs["weight-zero"], runs["detached"]
    bitwise = (all(np.array_equal(wz[0][n], det[0][n]) for n in wz[0])
               and np.array_equal(wz[1], det[1]))
    _verdict("loss definitions", hand_ok and bitwise,
             f"hand values {lf1:.1f}/{lf2:.1f}/{ld:.1f}/{lt:.1f} match; "
             f"zero-weight vs detached runs bitwise equal over "
             f"{len(wz[0])} tensors")


# -- overfit capacity ---------------------------------------------------------

def test_overfit_capacity():
    """A 16-sample set is memorised to train L_F < 0.05 N in 500 steps."""
    profile = get_profile("sensor1-gel1")
    poses = sample_poses(PoseRange(x=3, y=3, roll=3, pitch=3, yaw=180), 8, seed=5)
    samples = []
    for tool_name in ("small_sphere", "cube"):
        tool = get_indenter(tool_name)
        for i in range(8):
            run = run_indentation(tool, poses[i], profile, step=0.25,
                                  f_max=6.0, rng_seed=(17, i))
            samples.append(run[len(run) // 2])
    data = make_training_arrays(samples, DepthNormalizer.from_samples(samples))

    net = ForceNet(seed=1)
    # batch == set size, so one optimizer step per epoch: 500 steps total
    curve = train(data, net, TrainConfig(batch_size=16, epochs=500,
                                         backbone_lr=2e-3, head_lr=1e-2, seed=1))
    final = float(curve[-1, 1])
    below = np.nonzero(curve[:, 1] < 0.05)[0]
    first = int(below[0]) + 1 if below.size else 501
    _verdict("overfit capacity", final < 0.05,
             f"16 samples, train L_F {final:.4f} after 500 steps "
             f"(first below 0.05 at step {first})")


# -- oracle consistency -------------------------------------------------------

def test_oracle_consistency():
    """Foundation-model forces agree with independent references.

    The sphere readout must sit within one 0.04 N readout step of a
    4x-supersampled numerical integration at every depth in 0.1..2.0 mm;
    the flat-bottomed cube must match stiffness * depth * footprint
    area exactly (the analytic flat-punch load on this pixel grid).
    """
    prof = get_profile("sensor1-gel1")
    pose = ToolPose.from_array(np.zeros(6))
    sphere = get_indenter("big_sphere")
    worst = 0.0
    for d in np.arange(0.1, 2.01, 0.1):
        sim = oracle_force(compute_contact(sphere, pose, float(d), profile=prof),
                           prof)[2]
        fine = compute_contact(sphere, pose, float(d), profile=prof, scale=4)
        ref = prof.normal_stiffness * fine.displaced_volume
        worst = max(worst, abs(sim - ref))

    cube = get_indenter("cube")
    footprint = 676 * prof.pixel_area  # 26x26 pixel centers under the 10 mm face
    cube_exact = True
    for d in (0.3, 0.8, 1.5):
        contact = compute_contact(cube, pose, d, profile=prof)
        raw = prof.normal_stiffness * contact.displaced_volume
        closed = prof.normal_stiffness * d * footprint
        cube_exact = (cube_exact
                      and raw == pytest.approx(closed, abs=1e-12)
                      and oracle_force(contact, prof)[2]
                      == quantize(closed, prof.force_quantum))
    _verdict("oracle consistency",
             worst <= FORCE_QUANTUM_N and cube_exact,
             f"sphere vs 4x integration worst gap {worst:.4f} N over 20 depths "
             f"(allow {FORCE_QUANTUM_N}); cube matches flat-punch load exactly")


# -- histogram balancing ------------------------------------------------------

def test_histogram_balancing():
    """Balancing flattens a six-figure force histogram to ratio <= 1.2.

    Four tool shapes with per-shape lateral ranges produce a raw set of
    more than 1e5 samples whose normal-force histogram is then capped
    bin-by-bin; over bins fully inside [0.5, 12] N the max/min nonempty
    count ratio must not exceed 1.2.
    """
    plans = [
        ("cube", PoseRange(x=4.0, y=1.8, roll=3.0, pitch=3.0, yaw=180.0)),
        ("cross", PoseRange(x=4.0, y=1.8, roll=3.0, pitch=3.0, yaw=180.0)),
        ("cylinder", PoseRange(x=4.0, y=4.0, roll=3.0, pitch=3.0, yaw=180.0)),
        ("ring", PoseRange(x=4.0, y=2.5, roll=3.0, pitch=3.0, yaw=180.0)),
    ]
    samples = []
    for i, (tool, pose_range) in enumerate(plans):
        samples.extend(generate_dataset((tool,), ("sensor1-gel3",), 553,
                                        pose_range=pose_range, step=0.05,
                                        f_max=15.0, seed=100 + i))
    generated = len(samples)
    flat = balance(samples, seed=7)
    del samples

    fz = np.array([s.force[2] for s in flat])
    edges = np.arange(0.0, 15.5, 0.5)
    counts, _ = np.histogram(fz, bins=edges)
    window = counts[int(np.searchsorted(edges, 0.5)):
                    int(np.searchsorted(edges, 12.0))]
    nonempty = window[window > 0]
    ratio = float(nonempty.max() / nonempty.min())
    _verdict("histogram balancing",
             generated >= 100000 and nonempty.size > 0 and ratio <= 1.2,
             f"{generated} generated, {len(flat)} kept; {nonempty.size}/23 "
             f"window bins occupied, max/min ratio {ratio:.3f} (allow 1.2)")


# -- rigid registration -------------------------------------------------------

def test_rigid_registration():
    """1000 seeded round trips recover R and t to 1e-9; lines are refused."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        a = rng.normal(0.0, 10.0, size=(n, 3))
        rot = euler_to_matrix(*rng.uniform(-180.0, 180.0, size=3))
        t = rng.normal(0.0, 25.0, size=3)
        fit = register_frames(a, a @ rot.T + t)
        worst = max(worst, float(np.abs(fit.rotation - rot).max()),
                    float(np.abs(fit.translation - t).max()))
    line = np.outer(np.arange(5.0), np.array([1.0, 2.0, 3.0]))
    try:
        register_frames(line, line)
        rejected = False
    except DegenerateInputError:
        rejected = True
    _verdict("rigid registration", worst < 1e-9 and rejected,
             f"worst R/t recovery error {worst:.2e} over 1000 trials; "
             f"collinear input rejected: {rejected}")


# -- cross-rig ablation and calibration ---------------------------------------

ABLATION_CONFIG = ModelConfig()
ABLATION_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def ablation_runs():
    """Train with/without the depth decoder on three rigs; score six others.

    Shared by the ablation-ordering and calibration checks. Returns the
    per-seed held-out errors, the trained with-decoder nets, the shared
    normalizer, and the training samples (for forgetting deltas).
    """
    tools = ("small_sphere", "cube")
    pose_range = PoseRange(x=4.0, y=2.0, roll=6.0, pitch=6.0, yaw=180.0)
    train_rigs = ("sensor1-gel1", "sensor1-gel2", "sensor1-gel3")
    heldout_rigs = tuple(f"sensor{s}-gel{g}" for s in (2, 3) for g in (1, 2, 3))

    raw = generate_dataset(tools, train_rigs, 30, pose_range=pose_range,
                           step=0.3, f_max=6.0, seed=21)
    train_set = balance(raw, seed=21)
    test_set = generate_dataset(tools, heldout_rigs, 8, pose_range=pose_range,
                                step=0.3, f_max=6.0, seed=22)
    normalizer = DepthNormalizer.from_samples(train_set)
    data = make_training_arrays(train_set, normalizer)
    cells = {}
    for s in test_set:
        cells.setdefault(PROFILE_NAMES[s.profile_id], []).append(s)
    eval_sets = {name: make_training_arrays(group, normalizer)
                 for name, group in sorted(cells.items())}

    errors = {}
    nets = {}
    for seed in ABLATION_SEEDS:
        pair = {}
        for with_decoder in (True, False):
            net = ForceNet(ABLATION_CONFIG, seed=seed)
            train(data, net, TrainConfig(batch_size=32, epochs=30,
                                         backbone_lr=2e-3, head_lr=1e-2,
                                         seed=seed, with_decoder=with_decoder))
            report = evaluate(eval_sets, model_estimator(net))
            pair[with_decoder] = report.mean_normalized_error
            if with_decoder:
                nets[seed] = net
        errors[seed] = (pair[True], pair[False])
    return {"errors": errors, "nets": nets, "normalizer": normalizer,
            "train_set": train_set}


def test_ablation_ordering(ablation_runs):
    """Depth supervision transfers: decoder-trained nets generalise better.

    For each of three seeds, both variants train on the three rig-one
    gel profiles and are scored on the six unseen rig-two/rig-three
    profiles; the with-decoder variant's mean normalized error must be
    the lower (or equal) one in at least two of the three seeds.
    """
    errors = ablation_runs["errors"]
    wins = sum(1 for rd, r in errors.values() if rd <= r)
    detail = "; ".join(f"seed {s}: {rd:.4f} with vs {r:.4f} without"
                       for s, (rd, r) in sorted(errors.items()))
    _verdict("cross-rig ablation ordering", wins >= 2,
             f"with-decoder better in {wins}/3 seeds ({detail})")


def test_calibration_finetune(ablation_runs):
    """100 rig samples strictly improve the grazing-light profile, 3/3 seeds.

    The seed-0 pretrained net is finetuned (regressor head only) on 100
    calibration-rig captures rendered with the digit profile; held-out
    error must strictly drop for every finetune seed. The error
    increment back on the uncalibrated training rigs is reported but
    not bounded.
    """
    base = ablation_runs["nets"][0]
    normalizer = ablation_runs["normalizer"]
    cells = {}
    for s in ablation_runs["train_set"][:400]:
        cells.setdefault(PROFILE_NAMES[s.profile_id], []).append(s)
    eval_sets = {name: make_training_arrays(group, normalizer)
                 for name, group in sorted(cells.items())}
    digit = get_profile("digit")

    rows = []
    for seed in ABLATION_SEEDS:
        net = ForceNet(ABLATION_CONFIG, seed=0)
        base_params = base.named_params()
        for name, p in net.named_params().items():
            p.data = base_params[name].data.copy()
        rig = collect_calibration(digit, n=100, seed=seed)
        report = finetune(net, rig, normalizer,
                          scope=FinetuneScope.REGRESSOR_HEAD,
                          steps=200, lr=1e-3, seed=seed)
        deltas = catastrophic_forgetting_check(base, net, eval_sets)
        rows.append((seed, report.pre_error, report.post_error,
                     max(deltas.values())))
    improved = sum(1 for _, pre, post, _ in rows if post < pre)
    detail = "; ".join(
        f"seed {s}: {pre:.4f} -> {post:.4f}, worst uncalibrated increment "
        f"{fgt:+.0%}" for s, pre, post, fgt in rows)
    _verdict("calibration finetune", improved == 3,
             f"held-out error strictly reduced in {improved}/3 seeds ({detail})")


# -- weighing closure ---------------------------------------------------------

def test_weighing_closure():
    """Push-to-weigh recovers 1 kg within 10% (net) and one readout step (oracle).

    A small net trains on pushes of ten other masses, friction is
    fitted from one known-mass push, and five averaged pushes of the
    1 kg target must land within 10%. The quantized-truth readout path
    must stay within the half-quantum bound exactly.
    """
    mu = 0.3
    masses = [0.4, 0.55, 0.7, 0.85, 1.1, 1.3, 1.5, 1.7, 1.9, 2.05]
    train_samples = []
    for k, mass in enumerate(masses):
        scenario = PushScenario(mass=mass, mu=mu, n_frames=16, ramp_frames=4,
                                noise_n=0.2)
        train_samples.extend(simulate_push(scenario, seed=100 + k).samples)
    normalizer = DepthNormalizer.from_samples(train_samples)
    data = make_training_arrays(train_samples, normalizer)
    net = ForceNet(ModelConfig(embed_dim=32, depth=2, heads=4,
                               decoder_channels=16), seed=0)
    train(data, net, TrainConfig(batch_size=32, epochs=60, backbone_lr=2e-3,
                                 head_lr=1e-2, seed=0))
    estimator = net_estimator(net, normalizer)

    calib = simulate_push(PushScenario(mass=0.5, mu=mu), seed=900)
    measured = float(np.asarray(estimator(calib.samples))[calib.const_mask, 2].mean())
    mu_hat = fit_friction(0.5, measured)
    traces = [simulate_push(PushScenario(mass=1.0, mu=mu), seed=200 + t)
              for t in range(5)]
    m_net, _ = estimate_weight(traces, mu_hat, estimator)

    oracle = oracle_readout_estimator(get_profile("digit"))
    otraces = [simulate_push(PushScenario(mass=1.0, mu=mu), seed=300 + t)
               for t in range(5)]
    m_oracle, _ = estimate_weight(otraces, mu, oracle)
    bound = FORCE_QUANTUM_N / (2.0 * mu * GRAVITY_MS2)

    net_ok = abs(m_net - 1.0) <= 0.10
    oracle_ok = abs(m_oracle - 1.0) <= bound + 1e-6
    _verdict("weighing closure", net_ok and oracle_ok,
             f"net: {m_net:.4f} kg (error {abs(m_net - 1.0):.1%}, allow 10%, "
             f"fitted mu {mu_hat:.4f}); oracle: {m_oracle:.4f} kg (error "
             f"{abs(m_oracle - 1.0):.4f} kg, bound {bound:.4f})")


# -- ellipse, deformation, grasp ----------------------------------------------

def test_ellipse_and_grasp():
    """Rim geometry: exact fits, noisy fits, overshoot, scale invariance.

    Noise-free ellipse recovery must be 1e-9-relative on axes and
    center; sigma = 0.5 px noise on a ~100 px rim must stay inside 1%;
    the grasp controller may overshoot its target by at most one step's
    force increment; and the deformation percentage must be exactly
    invariant under uniform rescaling of the rim.
    """
    fit = fit_ellipse(_ellipse_points(10.33, 9.7, 30.0, (3, -2), seed=0))
    clean = max(abs(fit.a - 10.33) / 10.33, abs(fit.b - 9.7) / 9.7,
                abs(fit.center[0] - 3.0) / 3.0, abs(fit.center[1] + 2.0) / 2.0)

    noisy = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        theta = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
        pts = np.column_stack([100.0 * np.cos(theta), 80.0 * np.sin(theta)])
        nfit = fit_ellipse(pts + rng.normal(0.0, 0.5, pts.shape))
        noisy = max(noisy, abs(nfit.a - 100.0) / 100.0,
                    abs(nfit.b - 80.0) / 80.0)

    oracle = oracle_readout_estimator(get_profile("digit"))
    cup = CupModel()
    step_mm = 0.05
    increment = cup.spring_n_per_mm * step_mm
    report = grasp_to_force(1.74, step_mm, oracle, cup=cup)
    overshoot = report.true_force - 1.74

    pts = _ellipse_points(102.28, 98.0, 20.0, (5, 5), seed=4)
    rim_fit = fit_ellipse(pts)
    baseline = deformation_percent(RimObservation(points=pts, r0=100.0), rim_fit)
    scale_exact = all(
        deformation_percent(
            RimObservation(points=pts * s, r0=100.0 * s),
            EllipseFit(rim_fit.center, rim_fit.a * s, rim_fit.b * s,
                       rim_fit.angle_deg)) == baseline
        for s in (2.0, 4.0, 0.5))

    ok = (clean < 1e-9 and noisy < 0.01
          and 0.0 <= overshoot <= increment and scale_exact)
    _verdict("ellipse and grasp", ok,
             f"clean fit rel err {clean:.1e}; noisy worst {noisy:.2%}; "
             f"grasp overshoot {overshoot:.2f} N (allow {increment:.2f}); "
             f"deformation scale-invariant exactly: {scale_exact}")


# -- container formats --------------------------------------------------------

def test_container_formats(tmp_path):
    """Sample and weight containers round-trip bit-exactly, even empty."""
    samples = generate_dataset(("small_sphere",), ("sensor1-gel1",), 2,
                               pose_range=PoseRange(x=2, y=2, roll=2, pitch=2,
                                                    yaw=30),
                               step=0.5, f_max=4.0, seed=9)
    d1, d2 = tmp_path / "a.faf", tmp_path / "b.faf"
    store(samples, d1)
    back = load(d1)
    store(back, d2)
    data_ok = (back == samples and d1.read_bytes() == d2.read_bytes())

    e1, e2 = tmp_path / "e1.faf", tmp_path / "e2.faf"
    store([], e1)
    empty_back = load(e1)
    store(empty_back, e2)
    data_empty_ok = (empty_back == [] and e1.read_bytes() == e2.read_bytes())

    cfg = ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8)
    net = ForceNet(cfg, seed=4)
    w1, w2 = tmp_path / "a.fafw", tmp_path / "b.fafw"
    save_model(w1, net.named_params(), extra={"meta.model": np.arange(3.0)})
    clone = ForceNet(cfg, seed=5)
    leftover = load_model(w1, clone.named_params())
    save_model(w2, clone.named_params(), extra=leftover)
    weights_ok = (all(np.array_equal(p.data, q.data) for p, q in
                      zip(net.named_params().values(),
                          clone.named_params().values()))
                  and np.array_equal(leftover["meta.model"], np.arange(3.0))
                  and w1.read_bytes() == w2.read_bytes())

    we1, we2 = tmp_path / "e1.fafw", tmp_path / "e2.fafw"
    save_arrays(we1, {})
    save_arrays(we2, load_arrays(we1))
    weights_empty_ok = (load_arrays(we1) == {}
                        and we1.read_bytes() == we2.read_bytes())

    _verdict("container formats",
             data_ok and data_empty_ok and weights_ok and weights_empty_ok,
             f"samples ({len(samples)} and empty) and weights "
             f"({len(net.named_params())} tensors and empty) round-trip "
             f"byte-identically")
