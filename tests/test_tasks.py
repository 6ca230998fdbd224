import dataclasses

import numpy as np
import pytest

from tacforce import tasks, training
from tacforce.dataset import DepthNormalizer
from tacforce.errors import (ContractError, DegenerateInputError, SafetyError,
                             TaskFailure)
from tacforce.indenters import get_indenter
from tacforce.model import ForceNet, ModelConfig
from tacforce.profiles import PROFILE_IDS, PROFILE_NAMES, get_profile
from tacforce.sensor import (GRAVITY_MS2, ToolPose, compute_contact,
                             depth_for_normal_force, quantize, render_tactile)
from tacforce.tasks import (CupModel, EllipseFit, PushScenario, RimObservation,
                            TaskReport, deformation_percent, estimate_weight,
                            fit_ellipse, fit_friction, grasp_to_force,
                            net_estimator, oracle_readout_estimator,
                            simulate_push)

PROFILE = get_profile("digit")
ORACLE = oracle_readout_estimator(PROFILE)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def reference_press(tool, profile, fz, rng_seed):
    """The task frame simulated afresh, with no cache: the background at
    fz <= 0 on a noiseless profile, else the patch pressed untilted to
    the depth that gives fz (depth 0 at fz <= 0)."""
    if fz <= 0.0 and profile.noise_sigma == 0.0:
        image = profile.background()
        return image, np.zeros(image.shape[:2], dtype=np.float32), 0.0
    pose = ToolPose()
    depth = depth_for_normal_force(tool, pose, profile, max(fz, 0.0))
    contact = compute_contact(tool, pose, depth, profile=profile)
    image, depth_map = render_tactile(contact, profile, rng_seed=rng_seed)
    return image, depth_map, depth


def task_forces():
    """Every grasp lattice force up to the deformation cap, the ramp and
    steady forces of a few pushes, and zero."""
    cup = CupModel()
    cap = cup.max_strain / cup.strain_per_newton
    forces = []
    k = 0
    while cup.grip_force(k * 0.05) <= cap:
        forces.append(cup.grip_force(k * 0.05))
        k += 1
    for mass, mu in ((0.5, 0.3), (1.0, 0.3), (1.0, 0.2283), (2.05, 0.3)):
        scn = PushScenario(mass=mass, mu=mu)
        drag = scn.mu * scn.mass * GRAVITY_MS2
        forces += [scn.mass * scn.accel + drag, drag]
    return forces


def ellipse_points(a, b, angle_deg, center, n=50, seed=None, sigma=0.0):
    if seed is None:
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        rng = None
    else:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2 * np.pi, n)
    c, s = np.cos(np.radians(angle_deg)), np.sin(np.radians(angle_deg))
    ex, ey = a * np.cos(theta), b * np.sin(theta)
    pts = np.column_stack([center[0] + c * ex - s * ey,
                           center[1] + s * ex + c * ey])
    if sigma > 0:
        pts = pts + np.random.default_rng(seed or 0).normal(0, sigma, pts.shape)
    return pts


class TestPushScenario:
    def test_defaults_valid(self):
        scn = PushScenario()
        assert scn.n_frames > scn.ramp_frames

    @pytest.mark.parametrize("kwargs", [
        dict(mass=0.0), dict(mu=-0.1), dict(mu=1.6),
        dict(n_frames=5, ramp_frames=5), dict(ramp_frames=-1),
        dict(accel=-1.0), dict(noise_n=-0.1),
        dict(profile_name="nope"), dict(patch="nope"),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ContractError):
            PushScenario(**kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["mass", "mu", "accel", "noise_n"])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            PushScenario(**{field: value})


class TestSimulatePush:
    def test_constant_velocity_force_is_mu_m_g(self):
        trace = simulate_push(PushScenario(mass=1.0, mu=0.2283), seed=0)
        fz = trace.true_forces[trace.const_mask, 2]
        assert np.allclose(fz, 0.2283 * GRAVITY_MS2, atol=1e-6)
        assert abs(fz[0] - 2.24) < 5e-4

    def test_ramp_adds_inertial_force(self):
        scn = PushScenario(mass=1.0, mu=0.3, accel=0.5)
        trace = simulate_push(scn, seed=0)
        ramp = trace.true_forces[~trace.const_mask, 2]
        const = trace.true_forces[trace.const_mask, 2]
        assert np.allclose(ramp, const[0] + 0.5, atol=1e-6)

    def test_doubling_mass_doubles_force(self):
        a = simulate_push(PushScenario(mass=1.0, mu=0.25), seed=0)
        b = simulate_push(PushScenario(mass=2.0, mu=0.25), seed=0)
        assert np.allclose(b.true_forces[b.const_mask, 2],
                           2.0 * a.true_forces[a.const_mask, 2], rtol=1e-6)

    def test_zero_friction_zero_steady_force(self):
        trace = simulate_push(PushScenario(mass=1.0, mu=0.0), seed=3)
        assert not trace.true_forces[trace.const_mask, 2].any()
        bg = PROFILE.background()
        for s, const in zip(trace.samples, trace.const_mask):
            if const:
                assert np.array_equal(s.image, bg)
            else:
                assert not np.array_equal(s.image, bg)

    def test_trace_layout(self):
        scn = PushScenario(n_frames=12, ramp_frames=3)
        trace = simulate_push(scn, seed=1)
        assert len(trace.samples) == 12
        assert trace.const_mask.sum() == 9
        for s in trace.samples:
            assert s.profile_id == PROFILE_IDS["digit"]
            assert s.pose[2] <= 0.0

    def test_seeded_noise_reproducible(self):
        scn = PushScenario(mass=1.0, mu=0.3, noise_n=0.2)
        a = simulate_push(scn, seed=7)
        b = simulate_push(scn, seed=7)
        assert np.array_equal(a.true_forces, b.true_forces)
        c = simulate_push(scn, seed=8)
        assert not np.array_equal(a.true_forces, c.true_forces)

    def test_noise_is_zero_mean(self):
        scn = PushScenario(mass=1.0, mu=0.3, n_frames=205, ramp_frames=5,
                           noise_n=0.2)
        trace = simulate_push(scn, seed=5)
        fz = trace.true_forces[trace.const_mask, 2]
        assert abs(fz.mean() - 0.3 * GRAVITY_MS2) < 0.05

    def test_oracle_readout_quantizes_truth(self):
        trace = simulate_push(PushScenario(mass=1.0, mu=0.2283), seed=0)
        est = ORACLE(trace.samples)
        assert np.allclose(est[:, 2],
                           quantize(trace.true_forces[:, 2]), atol=1e-6)


class TestFitFriction:
    def test_arithmetic(self):
        assert fit_friction(1.0, 2.24) == pytest.approx(0.2283, abs=5e-5)

    def test_zero_force(self):
        assert fit_friction(2.0, 0.0) == 0.0

    def test_scaling_invariance(self):
        assert fit_friction(2.0, 4.48) == fit_friction(1.0, 2.24)

    def test_bad_mass(self):
        with pytest.raises(ContractError):
            fit_friction(0.0, 1.0)


class TestEstimateWeight:
    def test_requires_positive_mu(self):
        trace = simulate_push(PushScenario(), seed=0)
        with pytest.raises(ContractError):
            estimate_weight(trace, 0.0, ORACLE)

    def test_requires_traces(self):
        with pytest.raises(ContractError):
            estimate_weight([], 0.3, ORACLE)

    def test_oracle_closure_within_quantization(self):
        mu = 0.2283
        trace = simulate_push(PushScenario(mass=1.0, mu=mu), seed=0)
        m_hat, report = estimate_weight(trace, mu, ORACLE)
        assert abs(m_hat - 1.0) <= 0.04 / (mu * GRAVITY_MS2)
        assert report.estimated_mass == m_hat
        assert report.true_mass == 1.0
        assert report.mass_error == abs(m_hat - 1.0)

    def test_averaging_over_noisy_pushes(self):
        mu = 0.3
        scn = PushScenario(mass=1.0, mu=mu, noise_n=0.3)
        traces = [simulate_push(scn, seed=s) for s in range(5)]
        m_hat, report = estimate_weight(traces, mu, ORACLE)
        assert abs(m_hat - 1.0) < 0.1
        assert report.estimated_force == pytest.approx(
            m_hat * mu * GRAVITY_MS2, rel=1e-12)


class TestFitEllipse:
    def test_circle(self):
        fit = fit_ellipse(ellipse_points(10, 10, 0, (0, 0)))
        assert fit.a == pytest.approx(10.0, abs=1e-9)
        assert fit.b == pytest.approx(10.0, abs=1e-9)

    def test_noise_free_recovery(self):
        fit = fit_ellipse(ellipse_points(10.33, 9.7, 30.0, (3, -2), seed=0))
        assert abs(fit.a - 10.33) / 10.33 < 1e-9
        assert abs(fit.b - 9.7) / 9.7 < 1e-9
        assert fit.angle_deg == pytest.approx(30.0, abs=1e-6)
        assert fit.center[0] == pytest.approx(3.0, abs=1e-9)
        assert fit.center[1] == pytest.approx(-2.0, abs=1e-9)

    def test_permutation_invariance(self):
        pts = ellipse_points(10.33, 9.7, 45.0, (1, 2), seed=1)
        base = fit_ellipse(pts)
        shuffled = fit_ellipse(pts[np.random.default_rng(2).permutation(len(pts))])
        assert abs(base.a - shuffled.a) < 1e-9
        assert abs(base.b - shuffled.b) < 1e-9

    def test_rigid_motion_invariance(self):
        pts = ellipse_points(10.33, 9.7, 0.0, (0, 0), seed=3)
        base = fit_ellipse(pts)
        c, s = np.cos(0.7), np.sin(0.7)
        moved = pts @ np.array([[c, s], [-s, c]]) + np.array([13.0, -4.5])
        fit = fit_ellipse(moved)
        assert abs(fit.a - base.a) < 1e-9
        assert abs(fit.b - base.b) < 1e-9

    def test_noisy_recovery_within_one_percent(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
            pts = np.column_stack([100 * np.cos(theta), 80 * np.sin(theta)])
            pts = pts + rng.normal(0, 0.5, pts.shape)
            fit = fit_ellipse(pts)
            assert abs(fit.a - 100.0) / 100.0 < 0.01

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            fit_ellipse(ellipse_points(10, 8, 0, (0, 0))[:5])

    def test_collinear_rejected(self):
        line = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0) + 1.0])
        with pytest.raises(DegenerateInputError):
            fit_ellipse(line)

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_ellipse(np.ones((8, 2)))

    def test_bad_shape(self):
        with pytest.raises(ContractError):
            fit_ellipse(np.zeros((8, 3)))


class TestDeformation:
    def test_zero_when_unchanged(self):
        rim = RimObservation(points=ellipse_points(100, 100, 0, (0, 0)), r0=100.0)
        assert deformation_percent(rim, EllipseFit((0, 0), 100.0, 100.0, 0.0)) == 0.0

    def test_reference_operating_point(self):
        rim = RimObservation(points=ellipse_points(102.28, 98, 0, (0, 0)), r0=100.0)
        assert deformation_percent(rim) == pytest.approx(2.28, abs=1e-9)

    def test_dyadic_scale_invariance_exact(self):
        pts = ellipse_points(102.28, 98, 20.0, (5, 5), seed=4)
        rim = RimObservation(points=pts, r0=100.0)
        fit = fit_ellipse(pts)
        base = deformation_percent(rim, fit)
        for s in (2.0, 4.0, 0.5):
            scaled_rim = RimObservation(points=pts * s, r0=100.0 * s)
            scaled_fit = EllipseFit(fit.center, fit.a * s, fit.b * s, fit.angle_deg)
            assert deformation_percent(scaled_rim, scaled_fit) == base

    def test_refit_scale_invariance(self):
        pts = ellipse_points(102.28, 98, 20.0, (5, 5), seed=4)
        base = deformation_percent(RimObservation(points=pts, r0=100.0))
        scaled = deformation_percent(RimObservation(points=pts * 3.0, r0=300.0))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_rim_validation(self):
        with pytest.raises(ContractError):
            RimObservation(points=np.zeros((4, 2)), r0=10.0)
        with pytest.raises(ContractError):
            RimObservation(points=ellipse_points(10, 8, 0, (0, 0)), r0=0.0)
        with pytest.raises(DegenerateInputError):
            RimObservation(points=np.column_stack([np.arange(8.0), np.arange(8.0)]),
                           r0=10.0)


class TestGrasp:
    def test_zero_target_stops_open(self):
        report = grasp_to_force(0.0, 0.05, ORACLE)
        assert report.steps == 0
        assert report.true_force == 0.0

    @pytest.mark.parametrize("target", [-5.0, -1e-9])
    def test_negative_target_rejected(self, target):
        with pytest.raises(ContractError, match="target must be non-negative"):
            grasp_to_force(target, 0.05, ORACLE)

    def test_bad_step(self):
        with pytest.raises(ContractError):
            grasp_to_force(1.0, 0.0, ORACLE)

    def test_overshoot_within_one_step(self):
        cup = CupModel()
        step_mm = 0.05
        increment = cup.spring_n_per_mm * step_mm
        report = grasp_to_force(1.74, step_mm, ORACLE, cup=cup)
        assert report.true_force >= 1.74
        assert report.true_force - 1.74 <= increment
        assert report.steps == 5
        # step forces sit on the readout lattice, so the reading is exact
        assert report.estimated_force == pytest.approx(report.true_force, abs=1e-9)

    def test_deformation_reported_consistently(self):
        cup = CupModel()
        report = grasp_to_force(1.74, 0.05, ORACLE, cup=cup)
        assert report.deformation_pct == pytest.approx(
            100.0 * cup.strain_per_newton * report.true_force)
        assert report.estimated_deformation_pct == pytest.approx(
            report.deformation_pct, abs=1e-6)

    def test_noisy_rim_still_close(self):
        cup = CupModel(rim_noise_px=0.5)
        report = grasp_to_force(1.74, 0.05, ORACLE, cup=cup, seed=2)
        assert abs(report.estimated_deformation_pct - report.deformation_pct) < 1.0

    def test_unreachable_by_deformation_cap(self):
        with pytest.raises(TaskFailure):
            grasp_to_force(100.0, 0.05, ORACLE)

    def test_unreachable_by_gel_capacity(self):
        cup = CupModel(strain_per_newton=1e-4, max_strain=0.05)
        with pytest.raises(TaskFailure):
            grasp_to_force(60.0, 0.5, ORACLE, cup=cup)

    def test_cup_model_validation(self):
        with pytest.raises(ContractError):
            CupModel(spring_n_per_mm=0.0)
        with pytest.raises(ContractError):
            CupModel(rim_points=5)
        with pytest.raises(ContractError):
            CupModel(rim_noise_px=-0.1)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["r0_px", "spring_n_per_mm", "strain_per_newton",
                                       "max_strain", "rim_noise_px"])
    def test_cup_non_finite_field_named(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            CupModel(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["target", "step_mm"])
    def test_non_finite_argument_named(self, field, value):
        kwargs = {"target": 1.0, "step_mm": 0.05, field: value}
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            grasp_to_force(estimator=ORACLE, **kwargs)


class TestPressedFrameCache:
    """Noiseless task frames are simulated once and shared read-only."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        tasks._noiseless_press.cache_clear()
        yield
        tasks._noiseless_press.cache_clear()

    def test_matches_fresh_simulation_bytewise(self):
        tool = get_indenter("big_sphere")
        cases = []
        for profile in map(get_profile, PROFILE_NAMES):
            for fz in task_forces():
                try:
                    cases.append((profile, fz, reference_press(tool, profile, fz, None)))
                except SafetyError:
                    with pytest.raises(SafetyError):
                        tasks._pressed_sample(tool, profile, fz, rng_seed=0)
        # every profile shares one cache: the first pass simulates, the
        # second reads what the first stored
        for seed in (0, 1):
            for profile, fz, (image, depth_map, depth) in cases:
                s = tasks._pressed_sample(tool, profile, fz, rng_seed=seed)
                assert s.image.tobytes() == image.tobytes()
                assert s.depth.tobytes() == depth_map.tobytes()
                assert s.pose.tobytes() == np.array(
                    [0, 0, -depth, 0, 0, 0], dtype=np.float32).tobytes()
                assert s.force[2] == np.float32(fz)
        assert tasks._noiseless_press.cache_info().currsize == len(cases)

    @pytest.mark.parametrize("fz", [0.0, 2.0])
    def test_frames_are_shared_read_only(self, fz):
        tool = get_indenter("big_sphere")
        a = tasks._pressed_sample(tool, PROFILE, fz, rng_seed=(0, 0))
        b = tasks._pressed_sample(tool, PROFILE, fz, rng_seed=(0, 1))
        assert a.image is b.image and a.depth is b.depth
        for arr in (a.image, a.depth):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_noisy_profile_renders_per_seed(self):
        profile = PROFILE.replace(noise_sigma=2.5)
        tool = get_indenter("big_sphere")
        images = []
        for fz in (0.8, 2.94):
            for seed in ((0, 0), (0, 1), (1, 0)):
                s = tasks._pressed_sample(tool, profile, fz, rng_seed=seed)
                image, depth_map, _ = reference_press(tool, profile, fz, seed)
                assert s.image.tobytes() == image.tobytes()
                assert s.depth.tobytes() == depth_map.tobytes()
                images.append(s.image.tobytes())
        assert len(set(images)) == len(images)
        assert tasks._noiseless_press.cache_info().currsize == 0

    def test_noisy_zero_force_frame_carries_noise(self):
        profile = PROFILE.replace(noise_sigma=2.5)
        tool = get_indenter("big_sphere")
        frames = []
        for fz, seed in ((0.0, (0, 0)), (0.0, (0, 1)), (-0.3, (0, 0))):
            s = tasks._pressed_sample(tool, profile, fz, rng_seed=seed)
            image, depth_map, _ = reference_press(tool, profile, fz, seed)
            assert s.image.tobytes() == image.tobytes()
            assert s.depth.tobytes() == depth_map.tobytes()
            assert not s.depth.any() and s.force[2] == 0.0
            assert s.image.tobytes() != profile.background().tobytes()
            assert s.image.flags.writeable
            frames.append(s.image.tobytes())
        # each seed draws its own noise; the seed, not the force, sets it
        assert frames[0] != frames[1] and frames[0] == frames[2]
        assert tasks._noiseless_press.cache_info().currsize == 0

    def test_sealed_frames_own_their_bytes(self):
        s = tasks._pressed_sample(get_indenter("big_sphere"), PROFILE, 2.0, rng_seed=0)
        for arr in (s.image, s.depth):
            assert arr.base is None and not arr.flags.writeable

    def test_one_simulation_per_distinct_force(self, monkeypatch):
        pressed = []

        def counting(tool, pose, depth, profile=None):
            pressed.append(depth)
            return compute_contact(tool, pose, depth, profile=profile)
        monkeypatch.setattr(tasks, "compute_contact", counting)
        frames = []

        def estimator(samples):
            frames.extend(samples)
            return ORACLE(samples)
        report = grasp_to_force(1.74, 0.05, estimator)
        # steps 0..5 press a new force each, step 0 at depth 0
        assert report.steps == 5
        assert len(pressed) == len(set(pressed)) == 6 and pressed[0] == 0.0
        assert len(frames) == 12
        grasp_to_force(1.74, 0.05, estimator, seed=3)
        assert len(pressed) == 6
        trace = simulate_push(PushScenario(), seed=0)
        assert len(pressed) == 8
        assert len({id(s.image) for s in trace.samples}) == 2

    def test_force_inverts_from_the_sample_pose(self):
        tool = get_indenter("big_sphere")
        s = tasks._pressed_sample(tool, PROFILE, 2.0, rng_seed=0)
        depth = depth_for_normal_force(tool, s.pose, PROFILE, 2.0)
        assert np.float32(-depth) == s.pose[2] < 0.0

    def test_package_cache_clearing_reaches_it(self):
        tasks._pressed_sample(get_indenter("big_sphere"), PROFILE, 2.0, rng_seed=0)
        assert tasks._noiseless_press.cache_info().currsize == 1
        # what a benchmark set-up does to start cold
        for fn in list(vars(tasks).values()):
            if callable(getattr(fn, "cache_clear", None)):
                fn.cache_clear()
        assert tasks._noiseless_press.cache_info().currsize == 0


class TestNetEstimator:
    def test_shapes_and_finiteness(self, monkeypatch):
        monkeypatch.setattr(training, "PREDICT_CHUNK", 4)
        trace = simulate_push(PushScenario(n_frames=6, ramp_frames=2), seed=0)
        net = ForceNet(ModelConfig(embed_dim=16, depth=1, heads=2,
                                   decoder_channels=8), seed=0)
        est = net_estimator(net, DepthNormalizer.identity())
        out = est(trace.samples)
        assert out.shape == (6, 3)
        assert np.isfinite(out).all()


def tiny_net(encoder="vit"):
    return ForceNet(ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8,
                                encoder=encoder), seed=0)


def reference_estimate(net, normalizer, samples):
    """The net estimator with no memo: build every row, then predict."""
    arrays = training.make_training_arrays(samples, normalizer,
                                           size=net.config.input_size)
    return training.model_estimator(net)(arrays)


def distinct_frames(sample, n):
    """n writable frames, each the sample with its own first pixel."""
    out = []
    for k in range(n):
        image = sample.image.copy()
        image[0, 0, :2] = k % 256, k // 256
        out.append(dataclasses.replace(sample, image=image, depth=sample.depth.copy()))
    return out


def writable_copy(sample):
    return dataclasses.replace(sample, image=sample.image.copy(),
                               depth=sample.depth.copy())


class TestNetEstimatorMemo:
    """The net estimator builds each sealed frame's row once, bit for bit."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The sample lists each `make_training_arrays` call receives."""
        calls = []

        def counting(samples, normalizer, size=32):
            calls.append(list(samples))
            return training.make_training_arrays(samples, normalizer, size=size)
        monkeypatch.setattr(tasks, "make_training_arrays", counting)
        return calls

    @pytest.mark.parametrize("encoder", ["vit", "conv"])
    def test_matches_uncached_reference_bytewise(self, encoder):
        net = tiny_net(encoder)
        normalizer = DepthNormalizer.identity()
        est = net_estimator(net, normalizer)
        seen = []

        def checked(samples):
            out = est(samples)
            assert out.tobytes() == reference_estimate(net, normalizer, samples).tobytes()
            seen.append(len(samples))
            return out
        # grasps run to the deformation cap, twice, so the second reads the memo
        for seed in (0, 1):
            with pytest.raises(TaskFailure):
                grasp_to_force(50.0, 0.05, checked, seed=seed)
        for noise in (0.0, 0.4):
            checked(simulate_push(PushScenario(noise_n=noise), seed=2).samples)
        push = simulate_push(PushScenario(mass=0.7), seed=3).samples
        checked([writable_copy(push[0]), *push[:6], writable_copy(push[-1]), push[-1]])
        assert len(seen) > 30

    def test_one_build_per_distinct_frame(self, builds):
        est = net_estimator(tiny_net(), DepthNormalizer.identity())
        with pytest.raises(TaskFailure):
            grasp_to_force(50.0, 0.05, est)
        # every step shows one new frame to both fingers: one row per step
        assert builds and all(len(b) == 1 for b in builds)
        steps = len(builds)
        with pytest.raises(TaskFailure):
            grasp_to_force(50.0, 0.05, est, seed=4)
        assert len(builds) == steps
        # a noise-free push at a new mass: its two frames, in one call
        est(simulate_push(PushScenario(mass=0.9), seed=0).samples)
        assert len(builds) == steps + 1 and len(builds[-1]) == 2
        # the distinct misses of a call, writable frames included, go in
        # one call, in order of first appearance
        push = simulate_push(PushScenario(mass=1.3), seed=0).samples
        changed, = distinct_frames(push[0], 1)
        assert changed.image.tobytes() != push[0].image.tobytes()
        est([push[0], changed, *push[:3], push[-1], changed])
        assert len(builds) == steps + 2
        assert [id(s.image) for s in builds[-1]] == [
            id(push[0].image), id(changed.image), id(push[-1].image)]

    def test_writable_copy_of_stored_frame_hits(self, builds):
        est = net_estimator(tiny_net(), DepthNormalizer.identity())
        frame = simulate_push(PushScenario(), seed=0).samples[0]
        assert not frame.image.flags.writeable
        est([frame])
        copy = writable_copy(frame)
        assert copy.image.flags.writeable
        est([copy, copy])
        assert [len(b) for b in builds] == [1]

    def test_profile_id_is_in_the_key(self, builds):
        est = net_estimator(tiny_net(), DepthNormalizer.identity())
        frame = simulate_push(PushScenario(), seed=0).samples[-1]
        other = dataclasses.replace(frame, profile_id=PROFILE_IDS["sensor1-gel1"])
        assert other.image is frame.image and other.depth is frame.depth
        est([frame])
        est([other])
        est([frame, other])
        assert [len(b) for b in builds] == [1, 1]

    def test_image_shape_is_in_the_key(self, builds):
        net = tiny_net()
        est = net_estimator(net, DepthNormalizer.identity())
        frame = simulate_push(PushScenario(), seed=0).samples[-1]
        h, w, _ = frame.image.shape
        # the same bytes on the transposed grid
        other = dataclasses.replace(frame, image=frame.image.reshape(w, h, 3),
                                    depth=frame.depth.reshape(w, h))
        assert other.image.tobytes() == frame.image.tobytes()
        est([frame])
        out = est([other])
        assert [len(b) for b in builds] == [1, 1] and builds[-1][0] is other
        assert out.tobytes() == reference_estimate(
            net, DepthNormalizer.identity(), [other]).tobytes()

    def test_frame_changed_in_place_is_built_again(self, builds):
        net = tiny_net()
        est = net_estimator(net, DepthNormalizer.identity())
        frame = writable_copy(simulate_push(PushScenario(), seed=0).samples[-1])
        est([frame])
        frame.image[20:30, 20:30] = 0
        out = est([frame])
        assert [len(b) for b in builds] == [1, 1]
        assert out.tobytes() == reference_estimate(
            net, DepthNormalizer.identity(), [frame]).tobytes()

    def test_memo_holds_at_most_its_bound(self, builds):
        est = net_estimator(tiny_net(), DepthNormalizer.identity())
        frames = distinct_frames(simulate_push(PushScenario(), seed=0).samples[-1], 257)
        est(frames)
        # the newest entries are all kept, the oldest one is evicted
        est(frames[1:])
        assert len(builds) == 1
        est(frames[:1])
        assert len(builds) == 2 and builds[-1][0] is frames[0]

    def test_call_past_the_bound_returns_every_row(self, builds):
        net = tiny_net()
        est = net_estimator(net, DepthNormalizer.identity())
        frames = distinct_frames(simulate_push(PushScenario(), seed=0).samples[-1], 300)
        out = est(frames)
        assert out.tobytes() == reference_estimate(
            net, DepthNormalizer.identity(), frames).tobytes()
        # the newest 256 stay; the 44 before them were evicted
        est(frames[44:])
        assert len(builds) == 1
        est(frames[43:44])
        assert len(builds) == 2

    def test_reads_the_parameters_it_is_called_with(self):
        net = tiny_net()
        est = net_estimator(net, DepthNormalizer.identity())
        frames = simulate_push(PushScenario(), seed=0).samples[:2]
        before = est(frames)
        for p in net.head_params():
            p.data = p.data + 0.01
        after = est(frames)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == reference_estimate(
            net, DepthNormalizer.identity(), frames).tobytes()

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ContractError):
            net_estimator(tiny_net(), DepthNormalizer.identity())([])


class TestTaskReport:
    def test_errors_recomputed(self):
        report = TaskReport(kind="weighing", estimated_force=2.0, true_force=2.24,
                            estimated_mass=0.9, true_mass=1.0)
        assert report.mass_error == pytest.approx(0.1)
