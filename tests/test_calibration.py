import math

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce.calibration import (CalibrationRig, FinetuneScope,
                                  catastrophic_forgetting_check,
                                  collect_calibration, default_scope, finetune,
                                  rig_sample, scope_params, sphere_depth_for_force)
from tacforce.dataset import DepthNormalizer
from tacforce.errors import ContractError
from tacforce.indenters import INDENTER_IDS
from tacforce.model import ForceNet, ModelConfig
from tacforce.optim import Adam
from tacforce.profiles import PROFILE_IDS, PROFILES, get_profile
from tacforce.sensor import GRAVITY_MS2, quantize, sphere_normal_force
from tacforce.training import (loss_force, loss_total, make_training_arrays,
                               model_estimator, normalized_error)

TINY = ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8)
DIGIT = get_profile("digit")


@pytest.fixture(scope="module")
def calib_samples():
    return collect_calibration(DIGIT, CalibrationRig(), n=100, seed=3)


def snapshot(net):
    return {k: p.data.copy() for k, p in net.named_params().items()}


class TestRig:
    def test_default_is_valid(self):
        rig = CalibrationRig()
        forces = [quantize(m * GRAVITY_MS2) for m in rig.masses]
        assert min(f for f in forces if f > 0) <= 0.5
        assert max(forces) >= 10.0

    def test_narrow_mass_set_rejected(self):
        with pytest.raises(ContractError):
            CalibrationRig(masses=(0.05, 0.1))
        with pytest.raises(ContractError):
            CalibrationRig(masses=(1.02,))

    def test_tilt_shear_capped_at_one_newton(self):
        with pytest.raises(ContractError):
            CalibrationRig(max_tilt_deg=20.0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ContractError):
            CalibrationRig(masses=(-0.1, 1.02))
        with pytest.raises(ContractError):
            CalibrationRig(max_tilt_deg=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("masses", (0.05, float("nan"), 1.02)), ("masses", (0.05, float("inf"))),
        ("max_tilt_deg", float("nan")), ("max_tilt_deg", float("inf")),
        ("placement_mm", float("nan")), ("placement_mm", float("inf"))])
    def test_non_finite_fields_named(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            CalibrationRig(**{field: value})

    def test_depth_inversion_round_trip(self):
        for force in (0.5, 1.0, 4.0, 10.0):
            d = sphere_depth_for_force(force, DIGIT)
            back = sphere_normal_force(8.0, d, DIGIT.normal_stiffness)
            assert back == pytest.approx(force, abs=1e-9)
        assert sphere_depth_for_force(0.0, DIGIT) == 0.0

    def test_impossible_force_rejected(self):
        with pytest.raises(ContractError):
            sphere_depth_for_force(50.0, DIGIT)

    @pytest.mark.parametrize("force", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_force_named(self, force):
        with pytest.raises(ContractError, match="force must be finite"):
            sphere_depth_for_force(force, DIGIT)


def bracketed_functions(n, seed=0):
    """n seeded (f, a, b) whose f(a) and f(b) differ in sign: cubics,
    steep tanh steps, odd powers, staircases, each also scaled down into
    the subnormals, where the steps' divided differences underflow."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        kind = len(out) % 4
        c = rng.uniform(0.05, 0.95)
        if kind == 0:
            r = rng.uniform(-1, 2, size=3)
            f = lambda x, r=r: float((x - r[0]) * (x - r[1]) * (x - r[2]))
        elif kind == 1:
            f = lambda x, c=c, s=rng.uniform(1, 300): math.tanh(s * (x - c)) + 0.3
        elif kind == 2:
            f = lambda x, c=c, p=rng.choice([3.0, 7.0, 0.2]): math.copysign(abs(x - c) ** p, x - c)
        else:
            f = lambda x, c=c, k=int(rng.integers(2, 10)): math.floor(k * (x - c)) + 0.5
        scale = float(rng.choice([1.0, 1e-318, 1e-322]))
        g = lambda x, f=f, scale=scale: f(x) * scale
        b = float(rng.choice([1.0, 100.0, 1e5]))
        if g(0.0) != 0 and g(b) != 0 and math.copysign(1, g(0.0)) != math.copysign(1, g(b)):
            out.append((g, 0.0, b))
    return out


def test_brent_root_is_brentq_on_hard_functions():
    """Step for step, so every branch gives scipy's float: short steps
    refused for bisection, divisions by zero (which bisect), and the
    iteration cap, where both raise RuntimeError."""
    from scipy.optimize import brentq
    from tacforce.calibration import _brent_root
    # steep steps whose short steps the 3 |sbis| - delta bound refuses
    refused = [(lambda x, s=s, c=c: math.tanh(s * (x - c)) + 0.3, 0.0, 1.0)
               for s, c in ((3, 0.7), (8, 0.6), (16, 0.65), (28, 0.2))]
    for f, a, b in [*refused, *bracketed_functions(600)]:
        try:
            ref = brentq(f, a, b, xtol=1e-12)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                _brent_root(f, a, b, 1e-12)
            continue
        assert np.float64(_brent_root(f, a, b, 1e-12)).tobytes() == np.float64(ref).tobytes()


def test_depth_inversion_is_brentq_bit_for_bit():
    """The in-package Brent root is scipy's brentq(gap, 0, gel thickness,
    xtol=1e-12), the same float, on every profile: at the rig's masses,
    on a dense force grid up to and past what the gel takes, at F <= 0,
    and where the force is exactly the full-depth load (gap(top) == 0)."""
    from scipy.optimize import brentq
    rig_forces = [m * GRAVITY_MS2 for m in CalibrationRig().masses]
    for profile in PROFILES.values():
        top, k = profile.gel_thickness, profile.normal_stiffness
        full = sphere_normal_force(8.0, top, k)
        forces = [*rig_forces, *np.linspace(0.0, 30.0, 3001), -1.0, -0.0, full]
        for force in map(float, forces):
            if force > full:
                with pytest.raises(ContractError, match="exceeds"):
                    sphere_depth_for_force(force, profile)
                continue
            got = sphere_depth_for_force(force, profile)
            if force <= 0:
                assert got == 0.0
                continue
            ref = brentq(lambda d: sphere_normal_force(8.0, d, k) - force, 0.0, top,
                         xtol=1e-12)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (profile.name, force)
        assert sphere_depth_for_force(full, profile) == top


class TestCollect:
    def test_known_mass_gives_one_newton(self):
        s = rig_sample(DIGIT, CalibrationRig(), 0.102, np.random.default_rng(0))
        assert s.force[2] == np.float32(1.0)

    def test_zero_mass_is_background(self):
        s = rig_sample(DIGIT, CalibrationRig(), 0.0, np.random.default_rng(0))
        assert np.array_equal(s.image, DIGIT.background())
        assert np.array_equal(s.force, np.zeros(3, dtype=np.float32))
        assert not s.depth.any()

    def test_normal_labels_are_quantized_mass_forces(self, calib_samples):
        rig = CalibrationRig()
        lattice = {np.float32(quantize(m * GRAVITY_MS2, DIGIT.force_quantum))
                   for m in rig.masses}
        for s in calib_samples:
            assert s.force[2] in lattice

    def test_spans_five_mass_levels(self, calib_samples):
        assert len({float(s.force[2]) for s in calib_samples}) >= 5

    def test_shear_bounded(self, calib_samples):
        for s in calib_samples:
            assert np.hypot(s.force[0], s.force[1]) <= 1.0 + 2 * DIGIT.force_quantum

    def test_ids_and_render(self, calib_samples):
        for s in calib_samples:
            assert s.indenter_id == INDENTER_IDS["big_sphere"]
            assert s.profile_id == PROFILE_IDS["digit"]
            assert s.depth.max() > 0.0
            assert not np.array_equal(s.image, DIGIT.background())

    def test_seeded_determinism(self):
        a = collect_calibration(DIGIT, n=10, seed=7)
        b = collect_calibration(DIGIT, n=10, seed=7)
        assert a == b
        c = collect_calibration(DIGIT, n=10, seed=8)
        assert a != c


class TestFinetune:
    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            finetune(ForceNet(TINY), [], DepthNormalizer.identity())

    def test_mixed_profiles_rejected(self, calib_samples):
        other = rig_sample(get_profile("sensor1-gel1"), CalibrationRig(), 0.2,
                           np.random.default_rng(0))
        with pytest.raises(ContractError):
            finetune(ForceNet(TINY), [calib_samples[0], other],
                     DepthNormalizer.identity())

    def test_zero_steps_is_identity(self, calib_samples):
        net = ForceNet(TINY, seed=0)
        before = snapshot(net)
        report = finetune(net, calib_samples, DepthNormalizer.identity(), steps=0)
        after = snapshot(net)
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert report.pre_error == report.post_error

    def test_negative_steps_rejected(self, calib_samples):
        with pytest.raises(ContractError):
            finetune(ForceNet(TINY), calib_samples, DepthNormalizer.identity(),
                     steps=-1)

    def test_all_holdout_rejected(self, calib_samples):
        with pytest.raises(ContractError):
            finetune(ForceNet(TINY), calib_samples, DepthNormalizer.identity(),
                     holdout_frac=1.0)

    @pytest.mark.parametrize("field, value", [
        ("holdout_frac", float("nan")), ("holdout_frac", float("inf")),
        ("holdout_frac", -0.5), ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0)])
    def test_bad_holdout_or_lr_named(self, calib_samples, field, value):
        net = ForceNet(TINY)
        before = snapshot(net)
        with pytest.raises(ContractError, match=f"^{field} must be finite"):
            finetune(net, calib_samples, DepthNormalizer.identity(),
                     **{"steps": 3, "lr": 1e-3, field: value})
        assert all(np.array_equal(before[k], p.data) for k, p in net.named_params().items())

    @pytest.mark.parametrize("scope,prefixes", [
        (FinetuneScope.FINAL_LAYER, ("regressor.out.",)),
        (FinetuneScope.REGRESSOR_HEAD, ("regressor.",)),
    ])
    def test_scope_isolation(self, calib_samples, scope, prefixes):
        net = ForceNet(TINY, seed=1)
        before = snapshot(net)
        finetune(net, calib_samples, DepthNormalizer.identity(), scope=scope,
                 steps=8, lr=1e-3)
        for name, p in net.named_params().items():
            if name.startswith(prefixes):
                assert not np.array_equal(before[name], p.data), name
            else:
                assert np.array_equal(before[name], p.data), name

    def test_full_scope_moves_backbone_and_decoder(self, calib_samples):
        net = ForceNet(TINY, seed=2)
        before = snapshot(net)
        finetune(net, calib_samples, DepthNormalizer.identity(),
                 scope=FinetuneScope.FULL, steps=8, lr=1e-3)
        after = snapshot(net)
        changed = {k for k in after if not np.array_equal(before[k], after[k])}
        assert any(k.startswith("encoder.") for k in changed)
        assert any(k.startswith("decoder.") for k in changed)
        assert any(k.startswith("regressor.") for k in changed)

    def test_requires_grad_restored(self, calib_samples):
        net = ForceNet(TINY, seed=3)
        finetune(net, calib_samples, DepthNormalizer.identity(),
                 scope=FinetuneScope.FINAL_LAYER, steps=2, lr=1e-4)
        assert all(p.requires_grad for p in net.named_params().values())

    def test_monotone_benefit_at_small_lr(self, calib_samples):
        net = ForceNet(TINY, seed=4)
        report = finetune(net, calib_samples, DepthNormalizer.identity(),
                          scope=FinetuneScope.FINAL_LAYER, steps=200, lr=1e-5)
        assert report.post_fit_error <= report.pre_fit_error

    def test_default_scopes(self):
        assert default_scope("digit") is FinetuneScope.REGRESSOR_HEAD
        assert default_scope("sensor1-gel2") is FinetuneScope.FINAL_LAYER


def reference_finetune(net, samples, normalizer, scope, steps, lr, seed):
    """Head-scope finetune as a plain loop that runs the whole net on every
    batch and reads errors through model_estimator (batch 16, holdout 0.2)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_hold = int(round(0.2 * len(samples)))
    hold_idx, fit_idx = order[:n_hold], order[n_hold:]
    arrays = make_training_arrays(samples, normalizer)
    images, forces = arrays["images"], arrays["forces"]

    def error(idx):
        return normalized_error(forces[idx], model_estimator(net)({"images": images[idx]}))

    pre = (error(hold_idx), error(fit_idx))
    scoped = scope_params(net, scope)
    frozen = [p for k, p in net.named_params().items() if k not in scoped]
    for p in frozen:
        p.requires_grad = False
    opt = Adam([{"params": list(scoped.values()), "lr": lr}])
    done = 0
    while done < steps:
        epoch_order = fit_idx[rng.permutation(len(fit_idx))]
        for start in range(0, len(epoch_order), 16):
            if done == steps:
                break
            sel = epoch_order[start:start + 16]
            force_pred, _ = net.forward(images[sel], with_depth=False)
            l_f = loss_force(ad.Tensor(forces[sel]), force_pred)
            total = loss_total(l_f, ad.Tensor(0.0), 1.0, 0.0)
            opt.zero_grad()
            ad.backward(total)
            opt.step()
            done += 1
    for p in frozen:
        p.requires_grad = True
    return pre + (error(hold_idx), error(fit_idx))


class TestHeadScopeFeatureCache:
    @pytest.mark.parametrize("scope", [FinetuneScope.FINAL_LAYER,
                                       FinetuneScope.REGRESSOR_HEAD])
    def test_matches_per_batch_forward_bit_for_bit(self, calib_samples, scope):
        norm = DepthNormalizer.identity()
        net, ref = ForceNet(TINY, seed=5), ForceNet(TINY, seed=5)
        report = finetune(net, calib_samples, norm, scope=scope, steps=12, lr=1e-3,
                          seed=6)
        pre_hold, pre_fit, post_hold, post_fit = reference_finetune(
            ref, calib_samples, norm, scope, steps=12, lr=1e-3, seed=6)
        assert (report.pre_error, report.pre_fit_error) == (pre_hold, pre_fit)
        assert (report.post_error, report.post_fit_error) == (post_hold, post_fit)
        assert report.steps == 12 and report.scope is scope
        got, want = snapshot(net), snapshot(ref)
        assert all(np.array_equal(got[k], want[k]) for k in want)
        untouched = snapshot(ForceNet(TINY, seed=5))
        assert not np.array_equal(got["regressor.out.weight"],
                                  untouched["regressor.out.weight"])

    def test_encoder_calls_do_not_grow_with_steps(self, calib_samples):
        counts = []
        for steps in (1, 30):
            net = ForceNet(TINY, seed=7)
            calls = []

            def counting_encode(images, encode=net.encode, calls=calls):
                calls.append(len(images))
                return encode(images)

            net.encode = counting_encode
            finetune(net, calib_samples, DepthNormalizer.identity(),
                     scope=FinetuneScope.REGRESSOR_HEAD, steps=steps, lr=1e-3)
            counts.append(calls)
        assert counts[0] == counts[1]
        assert sum(counts[0]) == len(calib_samples)


class TestForgettingCheck:
    def _sets(self):
        rng = np.random.default_rng(5)
        return {
            "sensor1-gel1": {"images": rng.uniform(-1, 1, (4, 32, 32, 3)),
                             "forces": rng.uniform(0.5, 4, (4, 3))},
            "sensor2-gel2": {"images": rng.uniform(-1, 1, (4, 32, 32, 3)),
                             "forces": rng.uniform(0.5, 4, (4, 3))},
        }

    def test_identical_models_zero_deltas(self):
        net = ForceNet(TINY, seed=0)
        deltas = catastrophic_forgetting_check(net, net, self._sets())
        assert deltas == {"sensor1-gel1": 0.0, "sensor2-gel2": 0.0}

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ContractError):
            catastrophic_forgetting_check(ForceNet(TINY), ForceNet(), self._sets())

    def test_reports_all_cells_after_finetune(self, calib_samples):
        before = ForceNet(TINY, seed=6)
        after = ForceNet(TINY, seed=6)
        finetune(after, calib_samples, DepthNormalizer.identity(),
                 scope=FinetuneScope.FINAL_LAYER, steps=10, lr=1e-3)
        deltas = catastrophic_forgetting_check(before, after, self._sets())
        assert set(deltas) == {"sensor1-gel1", "sensor2-gel2"}
        assert all(np.isfinite(v) for v in deltas.values())
