"""Sensor profiles: gel mechanics plus illumination.

A profile bundles everything that turns a contact into numbers: the
sensing area and pixel grid, the elastic-foundation stiffnesses, the
friction cap, the force readout quantum, the light rig, and the resting
background appearance. Built-in profiles cover a 3x3 grid of sensor
bodies (light rigs) and gel sheets (stiffness + background tint), plus
one compact two-light sensor with a much stiffer gel.
"""

import dataclasses
import functools

import numpy as np

from .errors import ContractError
from .resample import resize, tap_plan


@dataclasses.dataclass(frozen=True)
class Light:
    """One directional light: where it sits and what it emits.

    azimuth/elevation are degrees; the light at azimuth ``a`` sits on
    the ``a`` side of the sensor and shines toward the center, tilted
    ``elevation`` degrees above the gel plane. ``color`` is an RGB
    triple in [0, 1] and ``gain`` scales it into 8-bit intensity units,
    so a fully lit facet adds up to ``gain * color`` counts per channel.
    The elevation must lie in (0, 90]: every light shines down onto the
    gel, so a flat patch of it catches none (rendering relies on that).
    """

    azimuth: float
    elevation: float
    color: tuple
    gain: float

    def __post_init__(self):
        if not 0.0 < self.elevation <= 90.0:
            raise ContractError(
                f"light elevation must be in (0, 90] degrees, got {self.elevation}")

    def direction(self):
        """Unit propagation vector (points from the source into the scene)."""
        az = np.deg2rad(self.azimuth)
        el = np.deg2rad(self.elevation)
        return np.array([
            -np.cos(az) * np.cos(el),
            -np.sin(az) * np.cos(el),
            -np.sin(el),
        ])


@dataclasses.dataclass(frozen=True)
class SensorProfile:
    """Mechanics and optics of one sensor + gel combination."""

    name: str
    normal_stiffness: float   # N per mm^3 of displaced gel volume
    shear_stiffness: float    # N per mm^3 per mm of tangential drag
    friction: float           # Coulomb cap: |F_xy| <= friction * F_z
    gel_thickness: float = 3.0
    force_quantum: float = 0.04
    width_mm: float = 24.0    # sensing area
    height_mm: float = 18.0
    width_px: int = 64        # pixel grid
    height_px: int = 48
    lights: tuple = ()
    background_seed: int = 0
    background_level: float = 0.35
    background_amplitude: float = 0.08
    noise_sigma: float = 0.0  # readout noise, 8-bit counts

    def __post_init__(self):
        if self.normal_stiffness <= 0 or self.shear_stiffness <= 0:
            raise ContractError("gel stiffnesses must be positive")
        if self.friction < 0:
            raise ContractError("friction cap must be non-negative")
        if self.gel_thickness <= 0:
            raise ContractError("gel thickness must be positive")
        if self.force_quantum <= 0:
            raise ContractError("force quantum must be positive")
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ContractError("sensing area must be positive")
        if self.width_px < 2 or self.height_px < 2:
            raise ContractError("pixel grid must be at least 2x2")
        if len(self.lights) < 2:
            raise ContractError("a profile needs at least two lights")
        pitch_u = self.width_mm / self.width_px
        pitch_v = self.height_mm / self.height_px
        if abs(pitch_u - pitch_v) > 1e-9 * pitch_u:
            raise ContractError("pixels must be square (area and grid aspect must agree)")

    @property
    def pixel_pitch(self):
        """Pixel center spacing in mm (pixels are square)."""
        return self.width_mm / self.width_px

    @property
    def pixel_area(self):
        return self.pixel_pitch ** 2

    def background(self, height=None, width=None):
        """Resting image (H, W, 3) uint8: seeded low-frequency clouds.

        Deterministic in (seed, shape); every gel gets its own pattern
        and overall brightness so images identify the gel they came
        from. The returned array is cached and read-only.
        """
        height = self.height_px if height is None else height
        width = self.width_px if width is None else width
        return _render_background(self.background_seed, self.background_level,
                                  self.background_amplitude, height, width)

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


def _zoom_coords(n_in, n_out):
    """Where ``scipy.ndimage.zoom`` in grid mode samples an axis of n_in
    pixels for n_out outputs: (k + 0.5) * (n_in / n_out) - 0.5, with
    its arithmetic in its order."""
    return (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5


@functools.lru_cache(maxsize=256)
def _render_background(seed, level, amplitude, height, width):
    """The clouds are a 6x8 grid of seeded RGB values stretched over the
    image by bilinear interpolation; the numbers are
    ``scipy.ndimage.zoom(coarse, order=1, mode="nearest",
    grid_mode=True)``'s, bit for bit (the draws, -1 + 2u, are never
    -0.0, so the unchanged-shape exception in ``resample`` never
    applies)."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(-1.0, 1.0, size=(6, 8, 3))
    rows, cols, planes = coarse.shape
    plan = tap_plan(_zoom_coords(rows, height), rows, _zoom_coords(cols, width), cols)
    clouds = resize(coarse.reshape(rows * cols, planes), plan).reshape(height, width, planes)
    img = np.rint(np.clip(level + amplitude * clouds, 0.0, 1.0) * 255.0).astype(np.uint8)
    img.flags.writeable = False
    return img


def _rig_one():
    return (
        Light(0.0, 30.0, (1.0, 0.15, 0.1), 230.0),
        Light(120.0, 30.0, (0.1, 1.0, 0.15), 230.0),
        Light(240.0, 30.0, (0.15, 0.1, 1.0), 230.0),
    )


def _rig_two():
    return (
        Light(60.0, 25.0, (1.0, 0.3, 0.05), 204.0),
        Light(180.0, 25.0, (0.05, 0.9, 0.4), 204.0),
        Light(300.0, 25.0, (0.3, 0.05, 1.0), 204.0),
    )


def _rig_three():
    return (
        Light(0.0, 35.0, (1.0, 0.1, 0.1), 178.0),
        Light(90.0, 35.0, (0.1, 1.0, 0.1), 178.0),
        Light(180.0, 35.0, (0.1, 0.1, 1.0), 178.0),
        Light(270.0, 35.0, (0.8, 0.8, 0.6), 128.0),
    )


def _rig_digit():
    # near-grazing pair so a stiff gel's shallow dimples still catch light
    return (
        Light(90.0, 8.0, (0.2, 0.6, 1.0), 255.0),
        Light(270.0, 8.0, (1.0, 0.5, 0.2), 255.0),
    )


_GELS = {
    # stiffnesses in N/mm^3; softer gels look darker at rest
    "gel1": dict(normal_stiffness=0.08, shear_stiffness=0.025, background_level=0.32),
    "gel2": dict(normal_stiffness=0.06, shear_stiffness=0.020, background_level=0.40),
    "gel3": dict(normal_stiffness=0.10, shear_stiffness=0.030, background_level=0.48),
}

_RIGS = {"sensor1": _rig_one, "sensor2": _rig_two, "sensor3": _rig_three}


def _make_builtin():
    out = {}
    for si, (sname, rig) in enumerate(_RIGS.items()):
        for gi, (gname, gel) in enumerate(_GELS.items()):
            name = f"{sname}-{gname}"
            out[name] = SensorProfile(
                name=name,
                friction=0.3,
                lights=rig(),
                background_seed=1000 + 101 * si + 7 * gi,
                **gel,
            )
    out["digit"] = SensorProfile(
        name="digit",
        normal_stiffness=0.16,
        shear_stiffness=0.05,
        friction=0.3,
        lights=_rig_digit(),
        background_seed=4242,
        background_level=0.30,
        background_amplitude=0.06,
    )
    return out


PROFILES = _make_builtin()
PROFILE_NAMES = tuple(PROFILES)
PROFILE_IDS = {name: i for i, name in enumerate(PROFILE_NAMES)}


def get_profile(name):
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; choices: {', '.join(PROFILE_NAMES)}") from None

