"""Downstream demonstrations: weighing by pushing and grasp-to-force.

Weighing: slide an object at constant velocity, read the push force
through the tactile sensor, and recover the mass from f_p = mu * m * g.
The sensor's contact during a push is emulated by pressing a virtual
patch (a sphere or a flat face) into the gel deep enough that the
foundation model reproduces the required normal force.

Grasping: close a two-sensor gripper on a deformable cup in discrete
steps until either sensor's estimated normal force reaches a target,
then measure the rim's deformation by fitting an ellipse to its image.

Both tasks press the same patch, untilted, to a handful of forces over
and over: a noise-free push holds two forces over its frames, each
grasp step shows one force to both fingers, and every grasp walks the
same lattice of spring forces. A noiseless frame depends only on
(tool, profile, force), since the rendering seed feeds only the readout
noise, so each such frame is simulated once and shared read-only by
every sample that shows it; a shared frame is the frame a fresh
simulation gives, bit for bit. A profile with readout noise still
renders every frame from its own seed.

The net estimator likewise preprocesses each distinct frame once: it
memoizes model-ready image rows keyed on the frame's content (profile
id, image shape and image bytes), which is all a row depends on. The
array builder gives each row exactly what its sample gets alone, so a
memoized row is the row a fresh build gives, bit for bit, and the
network reads the same batch, row for row. Predictions are never
cached, since training and calibration give the parameters new values.
"""

import dataclasses
import functools
import math

import numpy as np

from .dataset import TactileSample
from .errors import ContractError, DegenerateInputError, SafetyError, TaskFailure
from .indenters import INDENTER_IDS, INDENTER_NAMES, get_indenter
from .profiles import PROFILE_IDS, get_profile
from .sensor import (GRAVITY_MS2, ToolPose, compute_contact,
                     depth_for_normal_force, quantize, render_tactile)
from .training import make_training_arrays, model_estimator

STRAIN_PER_NEWTON = 0.0228 / 1.74  # rim strain per Newton of grip force


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ContractError(f"{name} must be finite, got {value}")


# -- weighing by pushing ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PushScenario:
    """One sliding push: an object of known mass dragged over a table.

    The sensor looks along the push direction, so the contact normal
    carries the push force: m*accel while ramping up, mu*m*g once the
    velocity is constant. mu = 0 is allowed for the no-friction
    degenerate case even though a real slide needs mu > 0.
    """

    mass: float = 1.0
    mu: float = 0.3
    # digit by default: its grazing lights resolve the shallow ~1 mm dimple a
    # few-newton push makes, which the steeper workbench rigs render as flat
    profile_name: str = "digit"
    patch: str = "big_sphere"    # virtual contact patch pressed into the gel
    n_frames: int = 30
    ramp_frames: int = 5
    accel: float = 0.5           # m/s^2 during the ramp
    noise_n: float = 0.0         # sigma of zero-mean force noise, constant phase

    def __post_init__(self):
        for field in ("mass", "mu", "accel", "noise_n"):
            _require_finite(field, getattr(self, field))
        if self.mass <= 0:
            raise ContractError(f"mass must be positive, got {self.mass}")
        if not 0.0 <= self.mu <= 1.5:
            raise ContractError(f"friction coefficient mu must lie in [0, 1.5], got {self.mu}")
        if self.ramp_frames < 0 or self.n_frames <= self.ramp_frames:
            raise ContractError("scenario needs a constant-velocity segment: ramp_frames "
                                f"{self.ramp_frames} must be >= 0 and below n_frames "
                                f"{self.n_frames}")
        if self.accel < 0:
            raise ContractError(f"accel must be non-negative, got {self.accel}")
        if self.noise_n < 0:
            raise ContractError(f"noise_n must be non-negative, got {self.noise_n}")
        if self.profile_name not in PROFILE_IDS:
            raise ContractError(f"unknown profile {self.profile_name!r}")
        if self.patch not in INDENTER_NAMES:
            raise ContractError(f"unknown contact patch {self.patch!r}")


@dataclasses.dataclass
class PushTrace:
    """Rendered push: samples carry the *true* (unquantized) force in z."""

    scenario: PushScenario
    samples: list
    const_mask: np.ndarray

    @property
    def true_forces(self):
        return np.stack([s.force for s in self.samples]).astype(np.float64)


def _press(tool, profile, fz, rng_seed):
    """Simulate the untilted patch pressed to raw normal force fz:
    returns (image, depth map, indentation depth).

    At fz <= 0 the patch rests at depth 0 and presses nothing, so the
    frame is the background with a zero depth map, plus the readout
    noise of its own seed on a noisy profile.
    """
    pose = ToolPose()
    depth = depth_for_normal_force(tool, pose, profile, max(fz, 0.0))
    contact = compute_contact(tool, pose, depth, profile=profile)
    image, depth_map = render_tactile(contact, profile, rng_seed=rng_seed)
    return image, depth_map, depth


@functools.lru_cache(maxsize=256)
def _noiseless_press(tool, profile, fz):
    """``_press`` on a noiseless profile, simulated once per (tool,
    profile, fz) and returned read-only, since every caller shares it.

    The arrays are owned copies: ``render_tactile`` returns views into
    a writable block, through which a sealed frame could still change.
    """
    image, depth_map, depth = _press(tool, profile, fz, rng_seed=None)
    image, depth_map = image.copy(), depth_map.copy()
    image.flags.writeable = False
    depth_map.flags.writeable = False
    return image, depth_map, depth


def _pressed_sample(tool, profile, fz, rng_seed):
    """Render the virtual patch pressed to raw normal force fz.

    On a noiseless profile the seed changes nothing, so the frame is
    the one cached for (tool, profile, fz): its image and depth map
    are shared, read-only, with every other sample at that force, and
    equal bit for bit to a fresh simulation. A noisy profile renders
    the frame anew from ``rng_seed``.
    """
    if profile.noise_sigma > 0.0:
        image, depth_map, depth = _press(tool, profile, fz, rng_seed)
    else:
        image, depth_map, depth = _noiseless_press(tool, profile, float(fz))
    return TactileSample(
        image=image, depth=depth_map, force=np.array([0.0, 0.0, max(fz, 0.0)]),
        pose=np.array([0.0, 0.0, -depth, 0.0, 0.0, 0.0]),
        indenter_id=INDENTER_IDS[tool.name], profile_id=PROFILE_IDS[profile.name])


def simulate_push(scenario, seed=0):
    """Run one push; returns a PushTrace of rendered frames.

    A noise-free push on a noiseless profile shows only two forces, the
    ramp's and the steady drag, so it simulates two frames and shares
    them read-only across its samples; since the seed feeds only readout
    noise, each shared frame is the one a fresh simulation gives, bit
    for bit. A noisy profile renders every frame from its own seed (see
    ``_pressed_sample``).
    """
    profile = get_profile(scenario.profile_name)
    tool = get_indenter(scenario.patch)
    rng = np.random.default_rng(seed)
    drag = scenario.mu * scenario.mass * GRAVITY_MS2
    samples = []
    const_mask = np.zeros(scenario.n_frames, dtype=bool)
    for t in range(scenario.n_frames):
        if t < scenario.ramp_frames:
            fz = scenario.mass * scenario.accel + drag
        else:
            const_mask[t] = True
            fz = drag + (rng.normal(0.0, scenario.noise_n)
                         if scenario.noise_n > 0 else 0.0)
        samples.append(_pressed_sample(tool, profile, fz,
                                       rng_seed=(seed, t)))
    return PushTrace(scenario=scenario, samples=samples, const_mask=const_mask)


def fit_friction(mass, mean_force):
    """mu from a known mass and the measured steady push force."""
    if mass <= 0:
        raise ContractError("mass must be positive")
    return float(mean_force) / (mass * GRAVITY_MS2)


# -- estimators over sample lists --------------------------------------------

def oracle_readout_estimator(profile):
    """Reads the true contact force through the sensor's quantizer."""
    def estimate(samples):
        forces = np.stack([s.force for s in samples]).astype(np.float64)
        return quantize(forces, profile.force_quantum)
    return estimate


# model-ready rows one net estimator keeps, oldest stored evicted first:
# about 8.7 MB at input size 32 and digit's 48x64 frames, 256 times a
# 24.6 KB row plus its 9.2 KB key
_ROW_MEMO_SIZE = 256


def net_estimator(net, normalizer):
    """Runs rendered frames through the preprocessing and the network.

    The frames are assembled at the net's own `config.input_size`.

    The estimator memoizes the model-ready image row of each frame it
    reads, keyed on the frame's content: its profile id, image shape
    and image bytes. That is all a row depends on: `make_training_arrays`
    builds it from the image, the profile's background at the image's
    shape, and the size, and the depth map feeds only the depth rows,
    which the estimator discards. The task frames repeat: a grasp shows
    one frame to both fingers at every step and every grasp walks the
    same forces, and a noise-free push shows two frames over its thirty.
    Each call sends every distinct frame the memo lacks through one
    `make_training_arrays` call, which gives each row exactly what its
    sample gets alone, so a memoized row is the row a fresh build gives,
    bit for bit. The batch is assembled in the caller's row order, with
    the rows and row count it has without the memo (numpy rounds a
    one-row product apart from a batch), before the oldest entries past
    `_ROW_MEMO_SIZE` are evicted, so one call may need more rows than
    the memo keeps. Predictions are never cached: training and
    calibration give the same parameters new values, so only the inputs
    stay valid.
    """
    predict = model_estimator(net)
    size = net.config.input_size
    memo = {}

    def estimate(samples):
        if not samples:
            raise ContractError("cannot estimate forces of an empty sample list")
        keys = [(s.profile_id, s.image.shape, s.image.tobytes()) for s in samples]
        misses = {key: s for key, s in zip(keys, samples) if key not in memo}
        if misses:
            fresh = make_training_arrays(list(misses.values()), normalizer, size=size)
            # copies, so that an entry does not hold its whole build
            memo.update((key, row.copy()) for key, row in zip(misses, fresh["images"]))
        images = np.stack([memo[key] for key in keys])
        while len(memo) > _ROW_MEMO_SIZE:
            del memo[next(iter(memo))]
        return predict({"images": images})
    return estimate


# -- reports ------------------------------------------------------------------

@dataclasses.dataclass
class TaskReport:
    """Outcome of one task trial; errors are recomputed, not stored."""

    kind: str
    target: float = float("nan")
    estimated_force: float = float("nan")
    true_force: float = float("nan")
    estimated_mass: float = float("nan")
    true_mass: float = float("nan")
    deformation_pct: float = float("nan")
    estimated_deformation_pct: float = float("nan")
    steps: int = 0

    @property
    def mass_error(self):
        return abs(self.estimated_mass - self.true_mass)


def estimate_weight(traces, mu, estimator):
    """Recover the pushed object's mass from its steady-state frames.

    Accepts one PushTrace or a list of them (forces pool across all
    constant-velocity frames, the usual repeated-push averaging).
    """
    if mu <= 0:
        raise ContractError(f"weighing requires a positive friction coefficient mu, got {mu}")
    if isinstance(traces, PushTrace):
        traces = [traces]
    if not traces:
        raise ContractError("no push traces given")
    est_forces = []
    true_forces = []
    for trace in traces:
        est = np.asarray(estimator(trace.samples), dtype=np.float64)
        est_forces.append(est[trace.const_mask, 2])
        true_forces.append(trace.true_forces[trace.const_mask, 2])
    f_est = float(np.concatenate(est_forces).mean())
    f_true = float(np.concatenate(true_forces).mean())
    mass = f_est / (mu * GRAVITY_MS2)
    return mass, TaskReport(kind="weighing",
                            estimated_force=f_est, true_force=f_true,
                            estimated_mass=mass,
                            true_mass=traces[0].scenario.mass)


# -- ellipse fitting and deformation ------------------------------------------

@dataclasses.dataclass(frozen=True)
class EllipseFit:
    center: tuple
    a: float          # semi-major
    b: float          # semi-minor
    angle_deg: float  # major-axis direction


def fit_ellipse(points):
    """Direct least-squares conic fit constrained to an ellipse.

    Exact (to rounding) on noise-free samples of a true ellipse.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ContractError("points must be an (n, 2) array")
    if len(pts) < 6:
        raise ContractError("ellipse fitting needs at least 6 points")
    mean = pts.mean(axis=0)
    spread = pts - mean
    scale = np.abs(spread).max()
    if scale == 0.0 or np.linalg.matrix_rank(spread) < 2:
        raise DegenerateInputError("points are collinear or coincident")
    x, y = (spread / scale).T

    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("degenerate point configuration") from None
    m = s1 + s2 @ t
    m = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    vals, vecs = np.linalg.eig(m)
    cond = 4.0 * vecs[0] * vecs[2] - vecs[1] ** 2
    good = np.nonzero(cond > 0)[0]
    if good.size == 0:
        raise DegenerateInputError("no ellipse satisfies the constraint")
    a1 = np.real(vecs[:, good[0]])
    coeffs = np.concatenate([a1, t @ a1])  # A, B, C, D, E, F on scaled frame

    A, B, C, D, E, F = coeffs
    disc = B * B - 4 * A * C
    if disc >= 0:
        raise DegenerateInputError("fit degenerated to a non-ellipse conic")
    xc = (2 * C * D - B * E) / disc
    yc = (2 * A * E - B * D) / disc
    quad = np.array([[A, B / 2.0], [B / 2.0, C]])
    full = np.array([[A, B / 2.0, D / 2.0],
                     [B / 2.0, C, E / 2.0],
                     [D / 2.0, E / 2.0, F]])
    lam, axes_dirs = np.linalg.eigh(quad)
    k = -np.linalg.det(full) / np.linalg.det(quad)
    if np.any(k / lam <= 0):
        raise DegenerateInputError("fit degenerated to a non-ellipse conic")
    semi = np.sqrt(k / lam) * scale
    order = np.argsort(semi)[::-1]
    major_dir = axes_dirs[:, order[0]]
    angle = np.degrees(np.arctan2(major_dir[1], major_dir[0])) % 180.0
    center = tuple(np.array([xc, yc]) * scale + mean)
    return EllipseFit(center=center, a=float(semi[order[0]]),
                      b=float(semi[order[1]]), angle_deg=float(angle))


@dataclasses.dataclass(frozen=True)
class RimObservation:
    """Imaged cup-rim contour plus its unloaded reference radius."""

    points: np.ndarray
    r0: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 6:
            raise ContractError("rim needs at least 6 (x, y) points")
        if self.r0 <= 0:
            raise ContractError("reference radius must be positive")
        if np.linalg.matrix_rank(pts - pts.mean(axis=0)) < 2:
            raise DegenerateInputError("rim points have no 2D spread")


def deformation_percent(rim, fit=None):
    """Major-axis growth relative to the unloaded radius, in percent."""
    if fit is None:
        fit = fit_ellipse(rim.points)
    return 100.0 * (fit.a - rim.r0) / rim.r0


# -- grasp controller ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CupModel:
    """Deformable cup: a linear spring from gripper closure to grip
    force, and a linear rim strain per Newton."""

    r0_px: float = 100.0
    spring_n_per_mm: float = 8.0
    strain_per_newton: float = STRAIN_PER_NEWTON
    max_strain: float = 0.08
    rim_points: int = 72
    rim_noise_px: float = 0.0

    def __post_init__(self):
        for field in ("r0_px", "spring_n_per_mm", "strain_per_newton", "max_strain",
                      "rim_noise_px"):
            _require_finite(field, getattr(self, field))
        for field in ("r0_px", "spring_n_per_mm", "strain_per_newton", "max_strain"):
            if getattr(self, field) <= 0:
                raise ContractError(f"{field} must be positive")
        if self.rim_points < 6:
            raise ContractError("rim needs at least 6 points")
        if self.rim_noise_px < 0:
            raise ContractError(f"rim_noise_px must be non-negative, got {self.rim_noise_px}")

    def grip_force(self, closure_mm):
        return self.spring_n_per_mm * closure_mm

    def rim(self, force, rng=None):
        """Rim contour under a grip force: squeezed along y, bulging
        along x by the same linear strain."""
        strain = self.strain_per_newton * force
        theta = np.linspace(0.0, 2 * np.pi, self.rim_points, endpoint=False)
        pts = np.column_stack([self.r0_px * (1 + strain) * np.cos(theta),
                               self.r0_px * (1 - strain) * np.sin(theta)])
        if self.rim_noise_px > 0:
            if rng is None:
                raise ContractError("rim noise requires an rng")
            pts = pts + rng.normal(0.0, self.rim_noise_px, size=pts.shape)
        return pts


def grasp_to_force(target, step_mm, estimator, cup=None,
                   profile_name="digit", patch="big_sphere", seed=0):
    """Close a two-sensor gripper until an estimated F^z reaches target.

    Per step both sensors render the cup contact at the current grip
    force; the controller stops at the first step whose *estimated*
    max normal force reaches the target (step 0, gripper open, counts:
    a zero target stops before any closure). When the step force
    increments sit on the readout lattice the stop force overshoots by
    strictly less than one step's force increment.

    The step forces lie on the lattice spring * k * step_mm, so on a
    noiseless profile both fingers, and every later grasp with the same
    step, share one read-only frame per force, equal bit for bit to a
    fresh simulation since the seed feeds only readout noise; the
    estimator still reads both frames. A noisy profile renders each
    finger's frame from its own seed (see ``_pressed_sample``).
    """
    _require_finite("target", target)
    _require_finite("step_mm", step_mm)
    if step_mm <= 0:
        raise ContractError(f"step_mm must be positive, got {step_mm}")
    cup = cup or CupModel()
    profile = get_profile(profile_name)
    tool = get_indenter(patch)
    rng = np.random.default_rng(seed)
    force_cap = cup.max_strain / cup.strain_per_newton
    step = 0
    while True:
        true_force = cup.grip_force(step * step_mm)
        if true_force > force_cap:
            raise TaskFailure(
                f"target {target} N not reached before the {cup.max_strain:.0%} "
                "deformation cap")
        try:
            frames = [_pressed_sample(tool, profile, true_force, rng_seed=(seed, step, i))
                      for i in range(2)]
        except SafetyError:
            raise TaskFailure(
                f"target {target} N exceeds the gel capacity of {profile.name}") from None
        est = np.asarray(estimator(frames), dtype=np.float64)
        reading = float(est[:, 2].max())
        if reading >= target:
            break
        step += 1

    rim_rng = rng if cup.rim_noise_px > 0 else None
    rim = RimObservation(points=cup.rim(true_force, rng=rim_rng), r0=cup.r0_px)
    fit = fit_ellipse(rim.points)
    return TaskReport(kind="grasp", target=float(target),
                      estimated_force=reading, true_force=true_force,
                      deformation_pct=100.0 * cup.strain_per_newton * true_force,
                      estimated_deformation_pct=deformation_percent(rim, fit),
                      steps=step)
