"""Dataset plumbing: indentation trajectories, preprocessing, balancing,
and the FAF1 on-disk container.

A sample couples what the sensor saw (tactile image + gel depth map)
with what the tool did to it (force readout, end-effector pose, tool and
profile ids). Trajectories press a tool along its own axis in small
steps and record one sample per step until the normal force reaches a
limit or the gel runs out.

The FAF1 container is a little-endian binary format:

    magic b"FAF1" | version u16 | count u32 | count records

    record = height u16 | width u16
           | image  u8[h*w*3] | depth f32[h*w]
           | force f32[3] | pose f32[6]
           | indenter id u16 | profile id u16

``store`` also drops a JSON sidecar (same path + ".json") summarizing
counts per tool and per profile; ``load`` never needs it.
"""

import dataclasses
import functools
import json
import struct

import numpy as np
from scipy import ndimage

from .errors import ContractError, FormatError, ShapeError
from .geometry import PoseRange, euler_to_matrix
from .indenters import INDENTER_NAMES, get_indenter
from .profiles import PROFILE_NAMES, PROFILE_IDS, get_profile
from . import sensor

DEFAULT_STEP_MM = 0.05
DEFAULT_FORCE_LIMIT_N = 15.0
DEFAULT_BIN_WIDTH_N = 0.5


@dataclasses.dataclass(eq=False)
class TactileSample:
    """One recorded indentation step.

    ``pose`` is the 6-vector (x, y, z, roll, pitch, yaw) of the
    end-effector, with z = -(vertical indentation depth) so first touch
    sits at z = 0. Image dtype is uint8, everything else float32, which
    is exactly what the container stores.
    """

    image: np.ndarray       # (H, W, 3) uint8
    depth: np.ndarray       # (H, W) float32, >= 0
    force: np.ndarray       # (3,) float32 readout (Fx, Fy, Fz)
    pose: np.ndarray        # (6,) float32
    indenter_id: int
    profile_id: int

    def __post_init__(self):
        self.image = np.ascontiguousarray(self.image, dtype=np.uint8)
        self.depth = np.ascontiguousarray(self.depth, dtype=np.float32)
        self.force = np.ascontiguousarray(self.force, dtype=np.float32)
        self.pose = np.ascontiguousarray(self.pose, dtype=np.float32)
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise ShapeError("tactile image", self.image.shape, detail="expected (H, W, 3)")
        if self.depth.shape != self.image.shape[:2]:
            raise ShapeError("depth map", self.depth.shape, self.image.shape[:2])
        if self.force.shape != (3,) or self.pose.shape != (6,):
            raise ShapeError("sample vectors", self.force.shape, self.pose.shape)
        if not np.isfinite(self.force).all():
            raise ContractError("force readout must be finite")
        if not np.isfinite(self.depth).all():
            raise ContractError("depth map must be finite")
        if self.depth.min() < 0:
            raise ContractError("depth map must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, TactileSample):
            return NotImplemented
        return (
            self.indenter_id == other.indenter_id
            and self.profile_id == other.profile_id
            and np.array_equal(self.image, other.image)
            and np.array_equal(self.depth, other.depth)
            and np.array_equal(self.force, other.force)
            and np.array_equal(self.pose, other.pose)
        )

    def __repr__(self):
        name = INDENTER_NAMES[self.indenter_id]
        return (
            f"TactileSample({name}, profile={PROFILE_NAMES[self.profile_id]}, "
            f"F={self.force.round(3).tolist()})"
        )


@dataclasses.dataclass(frozen=True)
class DepthNormalizer:
    """Affine depth-to-[0,1] map with a small margin beyond the data range.

    Values inside [min_val - eps, max_val + eps] land strictly inside
    (0, 1); anything farther out saturates at the clamp.
    """

    min_val: float
    max_val: float
    eps: float

    def __post_init__(self):
        if not self.max_val > self.min_val:
            raise ContractError("depth normalizer needs max_val > min_val")
        if not self.eps > 0:
            raise ContractError("depth normalizer margin must be positive")

    @classmethod
    def from_samples(cls, samples, margin_frac=0.05):
        """Fit to a training set: data min/max with a 5% margin."""
        if not samples:
            raise ContractError("cannot fit a depth normalizer to an empty set")
        lo = min(float(s.depth.min()) for s in samples)
        hi = max(float(s.depth.max()) for s in samples)
        if not hi > lo:
            raise ContractError("depth maps are constant; normalizer would be degenerate")
        return cls(min_val=lo, max_val=hi, eps=margin_frac * (hi - lo))

    @classmethod
    def identity(cls):
        """The normalizer that maps [0, 1] onto itself."""
        return cls(min_val=0.1, max_val=0.9, eps=0.1)

    def normalize(self, depth):
        lo = self.min_val - self.eps
        hi = self.max_val + self.eps
        return np.clip((np.asarray(depth, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)


def sample_poses(pose_range, n, seed):
    """Draw n end-effector poses uniformly from the range box.

    Returns (n, 6) rows (x, y, 0, roll, pitch, yaw); the z column is
    zero because depth is commanded separately along the trajectory.
    """
    if n <= 0:
        raise ContractError(f"need a positive number of poses, got {n}")
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 6))
    for col, lim in ((0, pose_range.x), (1, pose_range.y), (3, pose_range.roll),
                     (4, pose_range.pitch), (5, pose_range.yaw)):
        if lim > 0:
            out[:, col] = rng.uniform(-lim, lim, size=n)
    return out


def run_indentation(indenter, pose, profile, step=DEFAULT_STEP_MM,
                    f_max=DEFAULT_FORCE_LIMIT_N, rng_seed=None):
    """Press the tool along its own axis and record one sample per step.

    Advancing j steps along the (tilted) end-effector z-axis indents the
    gel vertically by j * step * w_z, with w the world tool axis. The
    trajectory ends without recording as soon as the readout F^z reaches
    f_max, or when the next step would land deeper than the gel allows.
    """
    if step <= 0:
        raise ContractError(f"step must be positive, got {step}")
    tool_pose = pose if isinstance(pose, sensor.ToolPose) else sensor.ToolPose(
        x=float(pose[0]), y=float(pose[1]), roll=float(pose[3]),
        pitch=float(pose[4]), yaw=float(pose[5]))
    axis_z = euler_to_matrix(tool_pose.roll, tool_pose.pitch, tool_pose.yaw)[2, 2]
    indenter = get_indenter(indenter) if isinstance(indenter, str) else indenter
    samples = []
    j = 1
    while True:
        depth = j * step * axis_z
        if depth > profile.gel_thickness:
            break
        contact = sensor.compute_contact(indenter, tool_pose, depth, profile)
        force = sensor.oracle_force(contact, profile)
        if force[2] >= f_max:
            break
        image, depth_map = sensor.render_tactile(
            contact, profile, None if rng_seed is None else (rng_seed, j))
        samples.append(TactileSample(
            image=image,
            depth=depth_map,
            force=force,
            pose=np.array([tool_pose.x, tool_pose.y, -depth,
                           tool_pose.roll, tool_pose.pitch, tool_pose.yaw]),
            indenter_id=INDENTER_NAMES.index(indenter.name),
            profile_id=PROFILE_IDS[profile.name],
        ))
        j += 1
    return samples


@functools.lru_cache(maxsize=64)
def _resize_grid(in_h, in_w, out_h, out_w):
    """Read-only (2, out_h, out_w) sample coordinates (rr, cc) of a
    corner-aligned resize from (in_h, in_w)."""
    rows = np.linspace(0.0, in_h - 1.0, out_h)
    cols = np.linspace(0.0, in_w - 1.0, out_w)
    grid = np.array(np.meshgrid(rows, cols, indexing="ij"))
    grid.flags.writeable = False
    return grid


def _resize_bilinear(img, out_h, out_w):
    """Corner-aligned bilinear resize of (H, W) or (H, W, C)."""
    grid = _resize_grid(*img.shape[:2], out_h, out_w)
    if img.ndim == 2:
        return ndimage.map_coordinates(img, grid, order=1, mode="nearest")
    chans = [ndimage.map_coordinates(img[..., c], grid, order=1, mode="nearest")
             for c in range(img.shape[2])]
    return np.stack(chans, axis=-1)


def preprocess(image, background, depth, normalizer, size=32):
    """Model-ready (T', D') from a raw sample, both size x size.

    The image is background-subtracted into f64 [-1, 1], zero-padded to
    a square on its short side, and bilinear-resized (corner-aligned).
    The depth map is value-normalized and resized directly; it carries
    no background and needs no padding. One size serves both, since the
    decoder reconstructs depth at the encoder's input size. The resize's
    sample coordinates depend only on the input and output shapes, so
    they are computed once per shape pair and cached read-only; the
    interpolation reads the same numbers as when they were rebuilt.
    """
    image = np.asarray(image)
    background = np.asarray(background)
    depth = np.asarray(depth)
    if image.shape != background.shape:
        raise ShapeError("preprocess", image.shape, background.shape,
                         detail="image and background must match")
    if depth.shape != image.shape[:2]:
        raise ShapeError("preprocess", depth.shape, image.shape[:2],
                         detail="depth map must match the image grid")

    diff = (image.astype(np.float64) - background.astype(np.float64)) / 255.0
    diff = np.clip(diff, -1.0, 1.0)
    h, w = diff.shape[:2]
    side = max(h, w)
    padded = np.zeros((side, side, 3))
    top = (side - h) // 2
    left = (side - w) // 2
    padded[top:top + h, left:left + w] = diff
    t_out = _resize_bilinear(padded, size, size)

    d_out = _resize_bilinear(normalizer.normalize(depth), size, size)
    return t_out, d_out


def balance(samples, bin_width=DEFAULT_BIN_WIDTH_N, seed=0):
    """Flatten each tool's F^z histogram by capping over-full bins.

    Per indenter, samples are binned by normal force; every nonempty bin
    is capped at the median nonempty-bin count (rounded up) by seeded
    subsampling. Survivors keep their original order, so balancing is a
    pure subset operation.
    """
    if bin_width <= 0:
        raise ContractError(f"bin width must be positive, got {bin_width}")
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(samples), dtype=bool)
    by_tool = {}
    for i, s in enumerate(samples):
        by_tool.setdefault(s.indenter_id, []).append(i)
    for tool_id in sorted(by_tool):
        idx = np.array(by_tool[tool_id])
        bins = np.floor(np.array([float(samples[i].force[2]) for i in idx]) / bin_width)
        counts = {b: int((bins == b).sum()) for b in np.unique(bins)}
        cap = int(np.ceil(np.median(list(counts.values()))))
        for b in sorted(counts):
            members = idx[bins == b]
            if counts[b] > cap:
                members = rng.choice(members, size=cap, replace=False)
            keep[members] = True
    return [s for i, s in enumerate(samples) if keep[i]]


# -- FAF1 container ---------------------------------------------------------

_MAGIC = b"FAF1"
_VERSION = 1


def store(samples, path):
    """Write samples to a FAF1 file plus a JSON sidecar manifest."""
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<H", _VERSION)
    blob += struct.pack("<I", len(samples))
    for s in samples:
        h, w = s.depth.shape
        blob += struct.pack("<HH", h, w)
        blob += s.image.tobytes()
        blob += s.depth.astype("<f4").tobytes()
        blob += s.force.astype("<f4").tobytes()
        blob += s.pose.astype("<f4").tobytes()
        blob += struct.pack("<HH", s.indenter_id, s.profile_id)
    with open(path, "wb") as fh:
        fh.write(blob)
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(manifest(samples), fh, indent=2, sort_keys=True)
        fh.write("\n")


def manifest(samples):
    per_tool = {}
    per_profile = {}
    for s in samples:
        tool = INDENTER_NAMES[s.indenter_id]
        profile = PROFILE_NAMES[s.profile_id]
        per_tool[tool] = per_tool.get(tool, 0) + 1
        per_profile[profile] = per_profile.get(profile, 0) + 1
    return {
        "format": "FAF1",
        "version": _VERSION,
        "count": len(samples),
        "per_indenter": per_tool,
        "per_profile": per_profile,
    }


def _need(blob, offset, nbytes, what):
    if offset + nbytes > len(blob):
        raise FormatError(f"truncated while reading {what}", offset=offset)
    return blob[offset:offset + nbytes], offset + nbytes


def _finite(raw, k, what, offset):
    values = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError(f"record {k} {what} holds a non-finite value", offset=offset)
    return values


def load(path):
    """Read a FAF1 file back into a list of samples (bit-exact).

    A malformed file raises FormatError with the byte offset of the bad
    field: a truncated or empty record, trailing bytes, an unknown tool
    or profile id, a depth map with a negative or non-finite value, or
    a non-finite force or pose.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    raw, off = _need(blob, 0, 4, "magic")
    if raw != _MAGIC:
        raise FormatError(f"bad magic {raw!r}, expected {_MAGIC!r}", offset=0)
    raw, off = _need(blob, off, 2, "version")
    version = struct.unpack("<H", raw)[0]
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    raw, off = _need(blob, off, 4, "sample count")
    count = struct.unpack("<I", raw)[0]
    samples = []
    for k in range(count):
        raw, off = _need(blob, off, 4, f"record {k} dims")
        h, w = struct.unpack("<HH", raw)
        if h == 0 or w == 0:
            raise FormatError(f"record {k} has an empty {h}x{w} image", offset=off - 4)
        raw, off = _need(blob, off, h * w * 3, f"record {k} image")
        image = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
        raw, off = _need(blob, off, 4 * h * w, f"record {k} depth map")
        depth = np.frombuffer(raw, dtype="<f4").reshape(h, w)
        if not (np.isfinite(depth).all() and depth.min() >= 0):
            raise FormatError(f"record {k} depth map holds a negative or non-finite value",
                              offset=off - 4 * h * w)
        raw, off = _need(blob, off, 12, f"record {k} force")
        force = _finite(raw, k, "force", off - 12)
        raw, off = _need(blob, off, 24, f"record {k} pose")
        pose = _finite(raw, k, "pose", off - 24)
        raw, off = _need(blob, off, 4, f"record {k} ids")
        indenter_id, profile_id = struct.unpack("<HH", raw)
        if indenter_id >= len(INDENTER_NAMES):
            raise FormatError(f"record {k} has unknown indenter id {indenter_id}",
                              offset=off - 4)
        if profile_id >= len(PROFILE_NAMES):
            raise FormatError(f"record {k} has unknown profile id {profile_id}",
                              offset=off - 2)
        samples.append(TactileSample(image=image.copy(), depth=depth.copy(),
                                     force=force.copy(), pose=pose.copy(),
                                     indenter_id=indenter_id, profile_id=profile_id))
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after the last record",
                          offset=off)
    return samples


# -- bulk generation --------------------------------------------------------

def worker_count():
    """Threads `generate_dataset` runs on: always 1, the calling thread."""
    return 1


def generate_dataset(indenter_names, profile_names_, n_poses, pose_range=None,
                     step=DEFAULT_STEP_MM, f_max=DEFAULT_FORCE_LIMIT_N, seed=0):
    """Simulate trajectories for every (tool, profile) pair.

    Poses are drawn once per pair from ``pose_range`` with a seed
    derived from ``seed``, and the (tool, profile, pose) trajectories
    run one after another in that order, so the output is deterministic.
    """
    pose_range = pose_range or PoseRange()
    root = np.random.SeedSequence(seed)
    out = []
    for tool_name in indenter_names:
        for profile_name in profile_names_:
            pair_seed = root.spawn(1)[0]
            for p in sample_poses(pose_range, n_poses, pair_seed):
                out.extend(run_indentation(get_indenter(tool_name), p,
                                           get_profile(profile_name),
                                           step=step, f_max=f_max))
    return out


def stats(samples, bin_width=DEFAULT_BIN_WIDTH_N):
    """Histogram and range summary used by the CLI stats report."""
    report = {"count": len(samples), "bin_width": bin_width, "per_indenter": {}}
    for s in samples:
        name = INDENTER_NAMES[s.indenter_id]
        entry = report["per_indenter"].setdefault(
            name, {"count": 0, "fz_bins": {}, "fz_min": np.inf, "fz_max": -np.inf})
        fz = float(s.force[2])
        b = int(np.floor(fz / bin_width))
        entry["count"] += 1
        entry["fz_bins"][b] = entry["fz_bins"].get(b, 0) + 1
        entry["fz_min"] = min(entry["fz_min"], fz)
        entry["fz_max"] = max(entry["fz_max"], fz)
    return report
