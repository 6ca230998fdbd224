"""Few-shot sensor calibration against a known-mass rig.

A rig presses the big sphere into the gel under a set of reference
masses, so every captured frame carries an exact normal-force label
(quantized m*g). Mount tilt adds a small, bounded shear component.
Fine-tuning then adapts a pretrained force network to the new profile,
touching only the parameters inside an explicit scope.
"""

import dataclasses
import enum
import math
import sys

import numpy as np

from . import autodiff as ad
from .dataset import TactileSample
from .errors import ContractError
from .indenters import INDENTER_IDS, get_indenter
from .optim import Adam
from .profiles import PROFILE_IDS
from .sensor import (GRAVITY_MS2, ToolPose, compute_contact, quantize,
                     render_tactile, sphere_normal_force)
from .training import (loss_depth, loss_force, loss_total, make_training_arrays,
                       model_estimator, normalized_error, predict_in_chunks)

SPHERE_RADIUS_MM = 8.0


@dataclasses.dataclass(frozen=True)
class CalibrationRig:
    """Fixed big-sphere indenter loaded by reference masses.

    ``masses`` are in kg; a zero mass means an unloaded (background)
    capture. ``max_tilt_deg`` bounds the mount tilt, which converts a
    slice of the weight into shear.
    """

    masses: tuple = (0.0, 0.05, 0.102, 0.2, 0.35, 0.5, 0.75, 1.02)
    max_tilt_deg: float = 4.0
    placement_mm: float = 3.0

    def __post_init__(self):
        if not self.masses:
            raise ContractError("rig needs at least one mass")
        if not all(0 <= m < np.inf for m in self.masses):
            raise ContractError(
                f"masses must be finite and non-negative, got {self.masses}")
        forces = [quantize(m * GRAVITY_MS2) for m in self.masses]
        if min(forces) > 0.5 or max(forces) < 10.0:
            raise ContractError(
                f"rig forces span [{min(forces)}, {max(forces)}] N; "
                "they must cover at least [0.5, 10] N")
        if not 0 <= self.max_tilt_deg < np.inf:
            raise ContractError(
                f"max_tilt_deg must be finite and non-negative, got {self.max_tilt_deg}")
        shear = max(forces) * np.sin(np.radians(self.max_tilt_deg))
        if shear > 1.0:
            raise ContractError(f"max tilt yields {shear:.2f} N shear; limit is 1 N")
        if not 0 <= self.placement_mm < np.inf:
            raise ContractError(
                f"placement_mm must be finite and non-negative, got {self.placement_mm}")


# scipy.optimize.brentq's defaults: a relative tolerance of 4 eps and
# at most 100 iterations
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent_root(f, xa, xb, xtol):
    """A root of f in [xa, xb] by Brent's method, where f(xa) and f(xb)
    differ in sign or one of them is zero.

    This is scipy's ``brentq`` (its C ``brentq``) step for step, at its
    rtol and iteration cap: the same sign-bit bracket test, the same
    choice between inverse interpolation, extrapolation and bisection,
    and the same minimum step of +-delta, so it returns the same float.
    A division by zero, where C gets inf or nan and so bisects, bisects.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ContractError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short step is tried and taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"no root found in {_BRENT_MAXITER} iterations")


def sphere_depth_for_force(force, profile):
    """Invert the closed-form sphere/foundation law for the depth.

    ``force`` must be finite; a force the gel cannot take at full depth
    raises ContractError. The root is scipy's ``brentq(gap, 0, gel
    thickness, xtol=1e-12)``, bit for bit.
    """
    if not -np.inf < force < np.inf:
        raise ContractError(f"force must be finite, got {force}")
    if force <= 0:
        return 0.0
    force = float(force)
    top = profile.gel_thickness

    def gap(d):
        return sphere_normal_force(SPHERE_RADIUS_MM, d, profile.normal_stiffness) - force

    if gap(top) < 0:
        raise ContractError(
            f"{force:.2f} N exceeds what the gel takes at full depth")
    return _brent_root(gap, 0.0, top, xtol=1e-12)


def rig_sample(profile, rig, mass, rng):
    """One calibration frame: known-mass force label plus rendered image.

    The normal label is quantize(m*g) by construction. Tilt redirects
    the weight, producing a small quantized shear label. A zero mass
    presses to depth 0: the frame is the background with a zero depth
    map, plus readout noise on a noisy profile.
    """
    fz = quantize(mass * GRAVITY_MS2, profile.force_quantum)
    tool = get_indenter("big_sphere")
    x = rng.uniform(-rig.placement_mm, rig.placement_mm)
    y = rng.uniform(-rig.placement_mm, rig.placement_mm)
    tilt = rng.uniform(0.0, rig.max_tilt_deg)
    heading = rng.uniform(0.0, 2 * np.pi)
    seed = int(rng.integers(0, 2**63 - 1))
    depth = sphere_depth_for_force(mass * GRAVITY_MS2, profile)
    roll = tilt * np.cos(heading)
    pitch = tilt * np.sin(heading)
    contact = compute_contact(tool, ToolPose(x, y, roll, pitch, 0.0), depth, profile=profile)
    image, depth_map = render_tactile(contact, profile, rng_seed=seed)
    shear = mass * GRAVITY_MS2 * np.sin(np.radians(tilt))
    force = np.array([quantize(shear * np.cos(heading), profile.force_quantum),
                      quantize(shear * np.sin(heading), profile.force_quantum),
                      fz])
    pose = np.array([x, y, -depth, roll, pitch, 0.0])
    return TactileSample(image=image, depth=depth_map, force=force, pose=pose,
                         indenter_id=INDENTER_IDS["big_sphere"],
                         profile_id=PROFILE_IDS[profile.name])


def collect_calibration(profile, rig=None, n=100, seed=0):
    """Capture n frames at random placements over the rig's positive masses."""
    rig = rig or CalibrationRig()
    rng = np.random.default_rng(seed)
    masses = [m for m in rig.masses if m > 0]
    return [rig_sample(profile, rig, masses[int(rng.integers(len(masses)))], rng)
            for _ in range(n)]


class FinetuneScope(enum.Enum):
    FINAL_LAYER = "final-layer"
    REGRESSOR_HEAD = "regressor-head"
    FULL = "full"


def default_scope(profile_name):
    """Cross-type targets retune the whole regressor; same-type targets
    only need the output layer."""
    return (FinetuneScope.REGRESSOR_HEAD if profile_name == "digit"
            else FinetuneScope.FINAL_LAYER)


def scope_params(net, scope):
    named = net.named_params()
    if scope is FinetuneScope.FINAL_LAYER:
        return {k: p for k, p in named.items() if k.startswith("regressor.out.")}
    if scope is FinetuneScope.REGRESSOR_HEAD:
        return {k: p for k, p in named.items() if k.startswith("regressor.")}
    if scope is FinetuneScope.FULL:
        return named
    raise ContractError(f"unknown finetune scope {scope!r}")


@dataclasses.dataclass
class FinetuneReport:
    scope: FinetuneScope
    steps: int
    pre_error: float          # held-out slice, before
    post_error: float         # held-out slice, after
    pre_fit_error: float      # calibration (training) slice, before
    post_fit_error: float


def _force_error(net, images, forces):
    return normalized_error(forces, model_estimator(net)({"images": images}))


def _encode(net, images):
    """Encoder features of every image, no tape, in PREDICT_CHUNK-row passes."""
    return predict_in_chunks(lambda x: net.encode(x).data, images)


def _feature_error(net, features, forces):
    """_force_error from precomputed encoder features."""
    pred = predict_in_chunks(lambda f: net.regress(ad.Tensor(f)).data, features)
    return normalized_error(forces, pred)


def finetune(net, samples, normalizer, scope=FinetuneScope.FINAL_LAYER,
             steps=200, lr=1e-5, batch_size=16, seed=0, holdout_frac=0.2):
    """Adapt a pretrained net to one profile's calibration samples.

    Only parameters inside ``scope`` move; everything else is
    bit-identical afterwards. Head scopes train on the force loss
    alone; the full scope also keeps the depth reconstruction alive.
    Under a head scope the encoder is frozen, so every capture is
    encoded once up front and the steps and the error readings run
    the regressor on those cached features; the full scope runs the
    whole net per step. Returns a FinetuneReport with held-out error
    before and after. ``holdout_frac`` must lie in [0, 1) and ``lr`` be
    finite and non-negative.
    """
    if not samples:
        raise ContractError("no calibration samples")
    if len({s.profile_id for s in samples}) != 1:
        raise ContractError("calibration samples must come from one profile")
    if steps < 0:
        raise ContractError("steps must be non-negative")
    if not 0.0 <= holdout_frac < 1.0:
        raise ContractError(f"holdout_frac must be finite and in [0, 1), got {holdout_frac}")
    if not 0.0 <= lr < np.inf:
        raise ContractError(f"lr must be finite and non-negative, got {lr}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_hold = int(round(holdout_frac * len(samples)))
    hold_idx, fit_idx = order[:n_hold], order[n_hold:]
    if fit_idx.size == 0:
        raise ContractError("holdout fraction leaves no samples to fit")
    named = net.named_params()
    scoped = scope_params(net, scope)
    frozen = [p for k, p in named.items() if k not in scoped]
    with_depth = scope is FinetuneScope.FULL
    arrays = make_training_arrays(samples, normalizer, size=net.config.input_size)
    images, forces, depths = arrays["images"], arrays["forces"], arrays["depths"]
    if not with_depth:
        features = _encode(net, images)

    def error(idx):
        if with_depth:
            return _force_error(net, images[idx], forces[idx])
        return _feature_error(net, features[idx], forces[idx])

    def hold_error():
        return error(hold_idx) if n_hold else float("nan")

    pre_error = hold_error()
    pre_fit = error(fit_idx)

    for p in frozen:
        p.requires_grad = False
    try:
        opt = Adam([{"params": list(scoped.values()), "lr": lr}])
        done = 0
        while done < steps:
            epoch_order = fit_idx[rng.permutation(len(fit_idx))]
            for start in range(0, len(epoch_order), batch_size):
                if done == steps:
                    break
                sel = epoch_order[start:start + batch_size]
                if with_depth:
                    force_pred, depth_pred = net.forward(images[sel])
                else:
                    force_pred = net.regress(ad.Tensor(features[sel]))
                l_f = loss_force(ad.Tensor(forces[sel]), force_pred)
                if with_depth:
                    l_d = loss_depth(ad.Tensor(depths[sel][:, None]), depth_pred)
                else:
                    l_d = ad.Tensor(0.0)
                total = loss_total(l_f, l_d, 1.0, 1.0 if with_depth else 0.0)
                opt.zero_grad()
                ad.backward(total)
                opt.step()
                done += 1
    finally:
        for p in frozen:
            p.requires_grad = True

    return FinetuneReport(scope=scope, steps=steps,
                          pre_error=pre_error, post_error=hold_error(),
                          pre_fit_error=pre_fit, post_fit_error=error(fit_idx))


def catastrophic_forgetting_check(net_before, net_after, eval_sets):
    """Relative error increment per evaluation cell after calibration."""
    before_names = set(net_before.named_params())
    after_names = set(net_after.named_params())
    if before_names != after_names:
        raise ContractError("models do not share an architecture")
    deltas = {}
    for name, cell in eval_sets.items():
        e0 = _force_error(net_before, np.asarray(cell["images"], dtype=np.float64),
                          cell["forces"])
        e1 = _force_error(net_after, np.asarray(cell["images"], dtype=np.float64),
                          cell["forces"])
        if e0 == 0.0:
            deltas[name] = 0.0 if e1 == 0.0 else float("inf")
        else:
            deltas[name] = (e1 - e0) / e0
    return deltas
