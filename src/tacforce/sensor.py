"""Elastic-foundation contact and tactile image rendering.

The gel pad is a bed of independent springs over the profile's pixel
grid (64 x 48 pixels covering 24 x 18 mm by default). Pressing a rigid
tool to vertical depth d compresses each pixel column by the
penetration field

    delta(u, v) = max(0, -(lowest z of the tool over that column)),

computed exactly from the tool's line-solid intersection. Forces follow
from the displaced volume: the normal load is stiffness * volume, and
lateral drag of the tool (from pressing along a tilted axis) produces a
shear force capped by Coulomb friction. Readout forces are quantized to
the profile's force quantum, mimicking an F/T sensor's resolution.

Rendering shades the penetration field with the profile's directional
lights on top of the resting background; an untouched gel reproduces
the background exactly.

Three shortcuts skip work whose result is known, two batch it, and
none changes an output bit. The pixel-center grid of each grid
geometry is built once and cached read-only, since every contact on
that grid reads the same coordinates.

The contact casts only the rays that can touch the tool. A tool point
q (tool frame) lies below the gel when n . q <= m, with n the world up
direction in the tool frame and m = -t_z. For every lambda >= 0 its
reach along a world axis direction e then obeys

    e . q <= support(e - lambda n) + lambda m,

because the support function bounds the solid's convex hull, so the
least of a few such bounds (the Lagrangian dual of the cap's extent)
bounds the footprint of any tool; rays more than a pixel outside it
press nothing. ``compute_contacts`` casts the rays of several depths
of one pose in one call, each with the arithmetic it has in a
whole-grid cast.

Rendering shades only the contact's bounding box, grown
by two pixels: outside it the gel is flat, its normal is (0, 0, 1),
every light shines downward, so each light adds exactly +0.0 there and
the background byte comes back out of the round to uint8. The
two-pixel margin makes the crop's gradients equal the full frame's.
And ``render_contacts`` shades the frames of a trajectory together,
over the union of their boxes, so the per-call cost of each array
operation is paid once per batch instead of once per frame; every
operation is per pixel, so each frame gets its own numbers (see
``render_contacts``). Sensor noise touches every pixel, so a noisy
profile shades whole frames as before.
"""

import dataclasses
import functools

import numpy as np

from .errors import ContractError, SafetyError
from .geometry import euler_to_matrix

FORCE_QUANTUM_N = 0.04
GRAVITY_MS2 = 9.81

_MIN_AXIS_Z = 0.1  # pressing axis must keep some downward component


def quantize(force, quantum=FORCE_QUANTUM_N):
    """Snap a force (scalar or vector) onto the readout lattice."""
    if quantum <= 0.0:
        raise ContractError("force quantum must be positive")
    out = np.round(np.asarray(force, dtype=np.float64) / quantum) * quantum
    return float(out) if out.ndim == 0 else out


@dataclasses.dataclass(frozen=True)
class ToolPose:
    """Where the tool meets the gel: offsets in mm, angles in degrees.

    (x, y) place the tool axis on the pad (pad center is 0, 0); roll and
    pitch tilt it; yaw spins it about its own axis.
    """

    x: float = 0.0
    y: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    @classmethod
    def from_array(cls, arr):
        """The pose of a 6-vector (x, y, z, roll, pitch, yaw), the layout
        of a sample's ``pose`` and of ``sample_poses`` rows; z, the
        indentation, is not part of a ToolPose and is skipped."""
        x, y, _, roll, pitch, yaw = (float(v) for v in arr)
        return cls(x, y, roll, pitch, yaw)


@dataclasses.dataclass
class ContactState:
    """Geometry of one indentation, before any profile is applied."""

    penetration: np.ndarray  # (H, W) mm, zero outside the contact patch
    pose: ToolPose
    depth: float
    drag: np.ndarray         # (2,) lateral surface drag in mm
    pixel_area: float        # mm^2 per grid cell (differs when supersampled)

    @property
    def mask(self):
        return self.penetration > 0.0

    @property
    def displaced_volume(self):
        return float(self.penetration.sum() * self.pixel_area)


def _grid_geometry(profile):
    return profile.width_mm, profile.height_mm, profile.width_px, profile.height_px


@functools.lru_cache(maxsize=64)
def _grid(width_mm, height_mm, width_px, height_px, scale):
    """Read-only (uu, vv, points): the pixel-centre meshgrid in mm, each
    (H*scale, W*scale), and its (H*W*scale^2, 3) rows (u, v, 0) on the
    gel plane. Built once per grid geometry and ``scale``, then shared."""
    pitch = width_mm / width_px / scale
    u = -width_mm / 2 + pitch * (np.arange(width_px * scale) + 0.5)
    v = -height_mm / 2 + pitch * (np.arange(height_px * scale) + 0.5)
    uu, vv = np.meshgrid(u, v)
    points = np.stack([uu.ravel(), vv.ravel(), np.zeros(uu.size)], axis=1)
    for arr in (uu, vv, points):
        arr.flags.writeable = False
    return uu, vv, points


def tool_transform(indenter, pose, depth):
    """World rotation and translation placing the tool at the given pose.

    The tool is driven along its own (tilted) axis until the vertical
    indentation reaches ``depth``, so the contact point slides sideways
    by drag = -depth * w_xy / w_z where w is the world tool axis. The
    vertical placement uses the support function so the tool's lowest
    point sits exactly at z = -depth. ``depth`` may be a 1-D array, one
    placement per entry; translation and drag then get one row each.
    """
    rot = euler_to_matrix(pose.roll, pose.pitch, pose.yaw)
    axis = rot[:, 2]  # world direction of the tool's +z
    if axis[2] < _MIN_AXIS_Z:
        raise ContractError(
            f"tool axis nearly parallel to the gel (w_z={axis[2]:.3f}); cannot press"
        )
    depth = np.asarray(depth, dtype=np.float64)[..., None]
    drag = -depth * axis[:2] / axis[2]
    down = -rot.T @ np.array([0.0, 0.0, 1.0])
    tz = -depth + indenter.support(down)
    translation = np.concatenate([pose.x + drag[..., :1], pose.y + drag[..., 1:], tz], axis=-1)
    return rot, translation, drag


# Multipliers of the footprint bound (see `compute_contacts`). Any
# lambda >= 0 gives a sound bound; 0 is tight for flat faces and the
# larger ones for curved or pointed tips pressed shallow.
_BOUND_LAMBDAS = np.array([0.0, 0.5, 2.0, 8.0])


def _footprint(indenter, rot, translation, geometry, scale):
    """(K, rows, cols) mask, one frame per placement, of the pixels the
    tool can press: the pixel centres within the cap's reach along the
    world axes (see `compute_contacts`) grown by one pixel pitch.
    """
    width_mm, _, width_px, _ = geometry
    pitch = width_mm / width_px / scale
    # the tool-frame directions of world +u, +v, -u, -v
    axes = np.concatenate([rot[:2], -rot[:2]])
    arguments = axes[:, None, :] - _BOUND_LAMBDAS[:, None] * rot[2]
    support = np.array([[indenter.support(a) for a in row] for row in arguments])
    cap = -translation[:, 2]
    reach = (support + _BOUND_LAMBDAS * cap[:, None, None]).min(axis=-1)
    hi = translation[:, :2] + reach[:, :2] + pitch
    lo = translation[:, :2] - reach[:, 2:] - pitch
    uu, vv, _ = _grid(*geometry, scale)
    u, v = uu[0], vv[:, 0]
    in_rows = (lo[:, 1, None] <= v) & (v <= hi[:, 1, None])
    in_cols = (lo[:, 0, None] <= u) & (u <= hi[:, 0, None])
    return in_rows[:, :, None] & in_cols[:, None, :]


def check_safe_pose(indenter, pose):
    """Raise SafetyError unless ``pose`` lies in the tool's safe envelope."""
    if not indenter.safe_pose_range.contains(pose.x, pose.y, pose.roll, pose.pitch, pose.yaw):
        raise SafetyError(f"pose {pose} is outside the safe envelope for {indenter.name}")


def compute_contact(indenter, pose, depth, profile, scale=1):
    """Penetration field for a tool pressed to ``depth`` mm.

    The pad's grid and gel thickness come from ``profile``. Poses
    outside the tool's safe envelope and depths beyond the gel raise
    SafetyError before any geometry is evaluated. ``scale``
    supersamples the grid (for integration accuracy studies); the pixel
    area shrinks accordingly so volumes stay comparable.

    This is the one-depth case of ``compute_contacts``, which says which
    rays are cast and why the result is the full grid's, bit for bit.
    """
    return compute_contacts(indenter, pose, [depth], profile, scale)[0]


def compute_contacts(indenter, pose, depths, profile, scale=1):
    """Contacts of one tool at one pose pressed to each of ``depths`` mm.

    Returns one ContactState per depth. Every pixel column is a ray
    cast up through the tool; the tool is placed by ``tool_transform``
    and a ray's penetration is -s_min where it enters the solid below
    the gel surface. Only the rays that can touch are cast, all depths'
    in one ``line_min`` call, and each keeps the arithmetic it has in a
    whole-grid cast, so every field is the whole grid's, bit for bit;
    the other pixels are +0.0.

    Which rays can touch follows from ``support`` alone. A tool point q
    (tool frame) lies below the gel when n . q <= m, with n = R[2] the
    world up direction in the tool frame and m = -t_z. For a world axis
    direction e in {+-R[0], +-R[1]} and any lambda >= 0, such a point has

        e . q = (e - lambda n) . q + lambda n . q
              <= support(e - lambda n) + lambda m,

    since support bounds the solid's convex hull; so the minimum over a
    few lambda (the Lagrangian dual of the cap's extent along e) bounds
    the pressed footprint on each side, for any solid. The pose fixes
    the support values, so one table of them serves all depths, and
    each depth's m and translation give its bound. The pixel centres
    cast are those within the bound grown by one pixel pitch, so
    rounding in the bound or in a grazing ray cannot matter. Every ray
    is a row of one matrix product and of elementwise operations, so
    which other rays share its call does not change its bits, with one
    exception: numpy hands a one-row product to a BLAS vector routine
    that can round apart from the matrix product, so a cast of one ray
    in all casts that depth's whole grid instead.
    """
    depths = [float(d) for d in depths]
    for depth in depths:
        if not depth >= 0:
            raise ContractError(f"indentation depth must be >= 0, got {depth}")
        if depth > profile.gel_thickness:
            raise SafetyError(
                f"commanded depth {depth:.3f} mm exceeds the {profile.gel_thickness:.3f} mm gel"
            )
    check_safe_pose(indenter, pose)
    rot, translation, drag = tool_transform(indenter, pose, depths)
    geometry = _grid_geometry(profile)
    _, _, points = _grid(*geometry, scale)
    cast = _footprint(indenter, rot, translation, geometry, scale)
    flat = np.flatnonzero(cast)
    if flat.size == 1:
        cast[flat[0] // len(points)] = True
        flat = np.flatnonzero(cast)
    delta = np.zeros(cast.shape)
    if flat.size:
        placement, pixel = np.divmod(flat, len(points))
        origins = (np.take(points, pixel, axis=0)
                   - np.take(translation, placement, axis=0)) @ rot
        hit, smin = indenter.line_min(origins, rot.T @ np.array([0.0, 0.0, 1.0]))
        delta[cast] = np.where(hit & (smin < 0.0), -smin, 0.0)

    pitch = profile.pixel_pitch / scale
    return [ContactState(penetration=delta[k], pose=pose, depth=depth, drag=drag[k],
                         pixel_area=pitch * pitch)
            for k, depth in enumerate(depths)]


def oracle_force(contact, profile):
    """Ground-truth force readout (Fx, Fy, Fz) for a contact.

    Fz is the elastic-foundation load normal_stiffness * volume; shear
    follows the tool's lateral drag with a Coulomb cap; all three
    components are quantized to the profile's force quantum.
    """
    vol = contact.displaced_volume
    fz = profile.normal_stiffness * vol
    ft = profile.shear_stiffness * vol * contact.drag
    cap = profile.friction * fz
    norm = float(np.hypot(ft[0], ft[1]))
    if norm > cap and norm > 0.0:
        ft = ft * (cap / norm)
    return quantize(np.array([ft[0], ft[1], fz]), profile.force_quantum)


def sphere_normal_force(radius, depth, stiffness):
    """Closed-form elastic-foundation load for a sphere: k pi d^2 (R - d/3)."""
    if depth <= 0:
        return 0.0
    return float(stiffness * np.pi * depth * depth * (radius - depth / 3.0))


@functools.lru_cache(maxsize=256)
def _inversion_table(indenter, pose, profile):
    """Tabulated full-depth contact of an untilted tool, for inversion.

    Returns (csum, engaged_at, capacity, pixel_area): the read-only
    cumulative sums of the sorted pixel heights d0 - delta and the
    displaced column-sum at which the tool face reaches each height,
    the displaced column-sum at full depth d0, and the contact's pixel
    area (pitch * pitch).
    """
    d0 = profile.gel_thickness
    contact = compute_contact(indenter, pose, d0, profile=profile)
    delta = contact.penetration[contact.mask]
    heights = np.sort(d0 - delta)
    csum = np.concatenate([[0.0], np.cumsum(heights)])
    counts = np.arange(len(heights) + 1)
    # displaced column-sum when the tool face reaches height[m]
    engaged_at = counts[1:] * heights - csum[1:]
    csum.flags.writeable = False
    engaged_at.flags.writeable = False
    return csum, engaged_at, delta.sum(), contact.pixel_area


def depth_for_normal_force(indenter, pose, profile, fz):
    """Invert the foundation model: depth that yields raw load fz.

    Only valid for untilted poses: with zero roll/pitch the tool moves
    straight down, each pixel's penetration is max(0, d - h_i) for a
    fixed per-pixel height h_i, and the displaced volume is piecewise
    linear in d, so the inversion is exact. fz is the *unquantized*
    normal force normal_stiffness * volume.

    The sorted heights depend only on (indenter, pose, profile), so
    they are simulated once per such triple and cached; only the
    final search runs per call.
    """
    pose = pose if isinstance(pose, ToolPose) else ToolPose.from_array(np.asarray(pose))
    if pose.roll != 0.0 or pose.pitch != 0.0:
        raise ContractError("force inversion requires an untilted pose")
    if fz < 0.0:
        raise ContractError("normal force cannot be negative")
    if fz == 0.0:
        return 0.0
    csum, engaged_at, capacity, pixel_area = _inversion_table(indenter, pose, profile)
    target = fz / (profile.normal_stiffness * pixel_area)
    if target > capacity:
        raise SafetyError(
            f"{fz:.3f} N needs more volume than the gel offers at this pose")
    m = int(np.searchsorted(engaged_at, target, side="right"))
    m = max(m, 1)
    return float((target + csum[m]) / m)


def surface_normals(penetration, pixel_pitch):
    """Unit normals of the deformed gel surface, (..., H, W, 3).

    The surface height is -penetration; its upward normal is
    proportional to (d(delta)/du, d(delta)/dv, 1). Leading axes are
    frames, differenced independently.
    """
    gv, gu = np.gradient(penetration, pixel_pitch, axis=(-2, -1))
    # the length np.linalg.norm gives (gu, gv, 1), summed in its order,
    # (gu^2 + gv^2) + 1^2, without a reduction call per pixel
    norm = gu * gu
    norm += gv * gv
    norm += 1.0
    np.sqrt(norm, out=norm)
    return np.stack([gu / norm, gv / norm, 1.0 / norm], axis=-1)


# Margin grown around the contact's bounding box before shading. The
# crop's rim then lies two flat pixels out, where its one-sided
# differences and the full frame's central ones are both exactly 0, and
# the ring inside it sees the same neighbours as in the full frame.
_SHADE_MARGIN = 2


def _shade_box(penetration, whole_frame):
    """(rows, cols) slices of the pixels shading may change, or None.

    That is the bounding box of ``penetration > 0`` grown by
    ``_SHADE_MARGIN`` and clipped to the pad, or the whole frame when
    ``whole_frame`` is set.
    """
    h, w = penetration.shape
    if whole_frame:
        return slice(0, h), slice(0, w)
    mask = penetration > 0.0
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(max(rows[0] - _SHADE_MARGIN, 0), min(rows[-1] + _SHADE_MARGIN + 1, h)),
            slice(max(cols[0] - _SHADE_MARGIN, 0), min(cols[-1] + _SHADE_MARGIN + 1, w)))


def render_tactile(contact, profile, rng_seed=None):
    """Render a contact: returns (uint8 RGB image, float32 depth map).

    Shading is Lambertian off the deformed surface: each light adds
    gain * color * max(0, n . l) 8-bit counts, with l its propagation
    direction, so a flat (untouched) gel adds nothing and the background
    shows through unchanged. Walls of the dent facing a light catch its
    color. With a positive noise sigma, Gaussian readout noise seeded by
    ``rng_seed`` is added before the clamp to [0, 255].

    This is the one-contact case of ``render_contacts``, which says
    which pixels are shaded and why the result is the full-frame
    render, bit for bit.
    """
    images, depths = render_contacts([contact], profile, [rng_seed])
    return images[0], depths[0]


def render_contacts(contacts, profile, rng_seeds=None):
    """Render K contacts on one grid of one profile in a single pass.

    Returns (K, H, W, 3) uint8 images and (K, H, W) float32 depth maps;
    frame k is ``render_tactile(contacts[k], profile, rng_seeds[k])``,
    bit for bit. ``rng_seeds`` may be None for a noiseless profile.

    Only the union of the contacts' bounding boxes, each grown by two
    pixels, clipped to the pad, is shaded and written into copies of
    the background. That box holds each frame's own grown box, and
    outside a frame's own box its gel is flat: n = (0, 0, 1),
    n . l = l_z < 0 for every light (all sit above the gel plane), so
    each light adds +0.0 and a uint8 byte survives the float clamp and
    round unchanged. Inside it, ``np.gradient`` on the crop takes the
    same central differences as on the full frame, except on the crop's
    rim, where the full frame's differences of flat pixels and the
    crop's one-sided ones are both 0. Every step is elementwise or
    per pixel (a light's dot products are one matmul with a row per
    pixel), so shading K frames together gives each frame the numbers
    it gets alone, while each array operation runs once per batch
    instead of once per frame. Noise touches every pixel, so a noisy
    profile shades whole frames, drawing frame k's noise from its own
    ``rng_seeds[k]`` stream as ever; frames without contact and without
    noise are the background.
    """
    grids = {(c.penetration.shape, c.pixel_area) for c in contacts}
    if len(grids) != 1:
        raise ContractError("render_contacts needs one or more contacts on one grid")
    noisy = profile.noise_sigma > 0.0
    if noisy and (rng_seeds is None or any(seed is None for seed in rng_seeds)):
        raise ContractError("profile has sensor noise; pass rng_seed to render_tactile")
    penetration = np.stack([c.penetration for c in contacts])
    k, h, w = penetration.shape
    depths = penetration.astype(np.float32)
    images = np.empty((k, h, w, 3), dtype=np.uint8)
    images[:] = profile.background(h, w)
    box = _shade_box(penetration.max(axis=0), whole_frame=noisy)
    if box is None:
        return images, depths
    box = (slice(None), *box)
    # colour planes first, (3, K, h, w), so each light's per-channel
    # product runs over whole planes
    img = np.moveaxis(images[box], -1, 0).astype(np.float64)
    penetration = penetration[box]
    if (penetration > 0.0).any():
        normals = surface_normals(penetration, float(np.sqrt(contacts[0].pixel_area)))
        for light in profile.lights:
            lit = light.gain * np.maximum(normals @ light.direction(), 0.0)
            for plane, color in zip(img, light.color):
                plane += lit * color
    if noisy:
        for frame, seed in enumerate(rng_seeds):
            noise = np.random.default_rng(seed).normal(0.0, profile.noise_sigma,
                                                       size=(h, w, 3))
            img[:, frame] += np.moveaxis(noise, -1, 0)
    images[box] = np.moveaxis(np.rint(np.clip(img, 0.0, 255.0)).astype(np.uint8), 0, -1)
    return images, depths
