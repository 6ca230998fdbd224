"""Dataset plumbing: indentation trajectories, preprocessing, balancing,
and the FAF1 on-disk container.

A sample couples what the sensor saw (tactile image + gel depth map)
with what the tool did to it (force readout, end-effector pose, tool and
profile ids). Trajectories press a tool along its own axis in small
steps and record one sample per step until the normal force reaches a
limit or the gel runs out.

The per-frame work is batched where it pays: a trajectory runs in
blocks of one size, each block's contacts simulated in one call
(``sensor.compute_contacts``) and its kept steps rendered in one call
(``sensor.render_contacts``), and ``preprocess_chunk`` preprocesses
many samples of one shape at once.
Every operation in these is per ray, per pixel, or a resize whose
arithmetic is ``scipy.ndimage.map_coordinates``' in its order, so each
sample gets exactly the bytes it gets alone; batching only pays each
array operation's per-call cost once per block instead of once per
frame. The stop rule still reads the steps' forces one at a time, so
the steps simulated past a stop are dropped unseen.

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
import itertools
import json
import os
import struct

import numpy as np

from .errors import ContractError, FormatError, SafetyError, ShapeError
from .geometry import PoseRange, euler_to_matrix
from .indenters import INDENTER_NAMES, get_indenter
from .profiles import PROFILE_NAMES, PROFILE_IDS, get_profile
from .resample import resize, tap_plan
from . import sensor

DEFAULT_STEP_MM = 0.05
DEFAULT_FORCE_LIMIT_N = 15.0
DEFAULT_BIN_WIDTH_N = 0.5

# Steps of a trajectory simulated, and then rendered, together. It
# bounds the contacts and shading buffers one block holds; at most this
# many minus one steps past the stop are simulated and dropped.
_BLOCK = 8


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


def check_trajectory(step, f_max):
    """Raise ContractError unless the step is finite and positive and
    the force limit a number."""
    if not 0 < step < np.inf:
        raise ContractError(f"step must be finite and positive, got {step}")
    if np.isnan(f_max):
        raise ContractError("force limit f_max must be a number, got nan")


def run_indentation(indenter, pose, profile, step=DEFAULT_STEP_MM,
                    f_max=DEFAULT_FORCE_LIMIT_N, rng_seed=None):
    """Press the tool along its own axis and record one sample per step.

    Advancing j steps along the (tilted) end-effector z-axis indents the
    gel vertically by j * step * w_z, with w the world tool axis. The
    trajectory ends without recording as soon as the readout F^z reaches
    f_max, or when the next step would land deeper than the gel allows.

    The steps run in blocks of ``_BLOCK``: a block's steps that fit in
    the gel are simulated in one ``sensor.compute_contacts`` call, the
    stop rule reads their forces in turn, and the steps before the
    first whose F^z reaches f_max are rendered in one
    ``sensor.render_contacts`` call, step j's noise seeded by
    (rng_seed, j). Each call gives every step the bytes it gets alone.
    A block cut short, by the force or by the gel, ends the trajectory
    (the depths grow with j, so the block after one the gel cut short
    is empty). ``pose`` is a ToolPose or a 6-vector (x, y, z, roll,
    pitch, yaw); ``step`` must be finite and positive, and ``f_max`` a
    number (inf never stops on force). A pose outside the tool's safe
    envelope, or a first step that already lands below the gel, raises
    SafetyError; a first step at or past f_max gives no samples.
    """
    check_trajectory(step, f_max)
    tool_pose = pose if isinstance(pose, sensor.ToolPose) else sensor.ToolPose.from_array(pose)
    indenter = get_indenter(indenter) if isinstance(indenter, str) else indenter
    sensor.check_safe_pose(indenter, tool_pose)
    axis_z = euler_to_matrix(tool_pose.roll, tool_pose.pitch, tool_pose.yaw)[2, 2]
    if step * axis_z > profile.gel_thickness:
        raise SafetyError(
            f"the first step of {step} mm already lands {step * axis_z:.3f} mm deep, "
            f"below the {profile.gel_thickness} mm gel")
    ids = dict(indenter_id=INDENTER_NAMES.index(indenter.name),
               profile_id=PROFILE_IDS[profile.name])
    samples = []
    for first in itertools.count(1, _BLOCK):
        depths = [depth for depth in (j * step * axis_z for j in range(first, first + _BLOCK))
                  if depth <= profile.gel_thickness]
        if not depths:
            break
        kept = []
        for depth, contact in zip(depths, sensor.compute_contacts(indenter, tool_pose,
                                                                  depths, profile)):
            force = sensor.oracle_force(contact, profile)
            if force[2] >= f_max:
                break
            kept.append((depth, contact, force))
        if kept:
            images, depth_maps = sensor.render_contacts(
                [contact for _, contact, _ in kept], profile,
                None if rng_seed is None else [(rng_seed, first + k) for k in range(len(kept))])
            for (depth, _, force), image, depth_map in zip(kept, images, depth_maps):
                # copies, so that a kept sample does not hold its whole block
                samples.append(TactileSample(
                    image=image.copy(),
                    depth=depth_map.copy(),
                    force=force,
                    pose=np.array([tool_pose.x, tool_pose.y, -depth,
                                   tool_pose.roll, tool_pose.pitch, tool_pose.yaw]),
                    **ids,
                ))
        if len(kept) < _BLOCK:
            break
    return samples


@functools.lru_cache(maxsize=64)
def _tap_plan(in_h, in_w, size):
    """Read-only ``resample.tap_plan`` of a corner-aligned bilinear
    resize of an (in_h, in_w) plane to (size, size).

    Its coordinates are those ``scipy.ndimage.map_coordinates`` reads
    at order 1, mode "nearest", for this resize: ``linspace(0, n - 1,
    size)`` on each axis.
    """
    return tap_plan(np.linspace(0.0, in_h - 1.0, size), in_h,
                    np.linspace(0.0, in_w - 1.0, size), in_w)


def preprocess(image, background, depth, normalizer, size=32):
    """Model-ready (T', D') from a raw sample, both size x size.

    The image is background-subtracted into f64 [-1, 1], zero-padded to
    a square on its short side, and bilinear-resized (corner-aligned).
    The depth map is value-normalized and resized directly; it carries
    no background and needs no padding. One size serves both, since the
    decoder reconstructs depth at the encoder's input size. This is the
    one-sample case of ``preprocess_chunk``.
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
    t_out, d_out = preprocess_chunk(image[..., None], background[..., None], depth[..., None],
                                    normalizer, size)
    return t_out[..., 0], d_out[..., 0]


def preprocess_chunk(images, backgrounds, depths, normalizer, size=32):
    """``preprocess`` on n samples of one shape at once, frames on the
    last axis.

    images are (H, W, 3, n), backgrounds (H, W, 3, n) or one shared
    (H, W, 3, 1), broadcast, and depths (H, W, n); returns
    (size, size, 3, n) and (size, size, n) float64. Each sample gets
    exactly the numbers it gets alone: the background difference,
    clip and depth normalization are elementwise, and the resize reads
    a cached ``_tap_plan`` per (shape, size) whose arithmetic is
    ``scipy.ndimage.map_coordinates(order=1, mode="nearest")``'s, in
    the same order, signed zeros included. With the frames (and the
    colour channels) innermost, every tap gathers whole rows, and each
    array operation runs once per chunk instead of once per plane. The
    padded buffer is sized to the n samples passed, so a one-sample
    call stays small.
    """
    h, w, n = depths.shape
    side = max(h, w)
    top = (side - h) // 2
    left = (side - w) // 2
    padded = np.zeros((side, side, 3, n))
    diff = padded[top:top + h, left:left + w]
    np.subtract(images, backgrounds, out=diff, dtype=np.float64)
    diff /= 255.0
    np.clip(diff, -1.0, 1.0, out=diff)
    t_out = resize(padded.reshape(side * side, 3 * n), _tap_plan(side, side, size))
    d_out = resize(normalizer.normalize(depths).reshape(h * w, n), _tap_plan(h, w, size))
    return t_out.reshape(size, size, 3, n), d_out.reshape(size, size, n)


def balance(samples, bin_width=DEFAULT_BIN_WIDTH_N, seed=0):
    """Flatten each tool's F^z histogram by capping over-full bins.

    Per indenter, samples are binned by normal force; every nonempty bin
    is capped at the median nonempty-bin count (rounded up) by seeded
    subsampling. Survivors keep their original order, so balancing is a
    pure subset operation.
    """
    check_bin_width(bin_width)
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
    """Write samples to a FAF1 file plus a JSON sidecar manifest.

    Records go to the open file one at a time, so storing holds no
    copy of the file in memory.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<HI", _VERSION, len(samples)))
        for s in samples:
            h, w = s.depth.shape
            fh.write(struct.pack("<HH", h, w))
            fh.write(s.image.tobytes())
            fh.write(s.depth.astype("<f4").tobytes())
            fh.write(s.force.astype("<f4").tobytes())
            fh.write(s.pose.astype("<f4").tobytes())
            fh.write(struct.pack("<HH", s.indenter_id, s.profile_id))
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


def _need(fh, size, offset, nbytes, what):
    """The next ``nbytes`` of the open file, in a buffer numpy can own."""
    if offset + nbytes > size:
        raise FormatError(f"truncated while reading {what}", offset=offset)
    raw = bytearray(nbytes)
    if fh.readinto(raw) != nbytes:  # the file shrank while it was read
        raise FormatError(f"truncated while reading {what}", offset=offset)
    return raw, offset + nbytes


def _finite(raw, k, what, offset):
    values = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError(f"record {k} {what} holds a non-finite value", offset=offset)
    return values


def load(path):
    """Read a FAF1 file back into a list of samples (bit-exact).

    Records are read from the open file one at a time, each field
    checked against the file's size before it is read, so loading holds
    no copy of the file in memory. A malformed file raises FormatError
    with the byte offset of the bad field: a truncated or empty record,
    trailing bytes, an unknown tool or profile id, a depth map with a
    negative or non-finite value, or a non-finite force or pose.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw, off = _need(fh, size, 0, 4, "magic")
        if raw != _MAGIC:
            raise FormatError(f"bad magic {bytes(raw)!r}, expected {_MAGIC!r}", offset=0)
        raw, off = _need(fh, size, off, 2, "version")
        version = struct.unpack("<H", raw)[0]
        if version != _VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        raw, off = _need(fh, size, off, 4, "sample count")
        count = struct.unpack("<I", raw)[0]
        samples = []
        for k in range(count):
            raw, off = _need(fh, size, off, 4, f"record {k} dims")
            h, w = struct.unpack("<HH", raw)
            if h == 0 or w == 0:
                raise FormatError(f"record {k} has an empty {h}x{w} image", offset=off - 4)
            raw, off = _need(fh, size, off, h * w * 3, f"record {k} image")
            image = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
            raw, off = _need(fh, size, off, 4 * h * w, f"record {k} depth map")
            depth = np.frombuffer(raw, dtype="<f4").reshape(h, w)
            if not (np.isfinite(depth).all() and depth.min() >= 0):
                raise FormatError(f"record {k} depth map holds a negative or non-finite "
                                  f"value", offset=off - 4 * h * w)
            raw, off = _need(fh, size, off, 12, f"record {k} force")
            force = _finite(raw, k, "force", off - 12)
            raw, off = _need(fh, size, off, 24, f"record {k} pose")
            pose = _finite(raw, k, "pose", off - 24)
            raw, off = _need(fh, size, off, 4, f"record {k} ids")
            indenter_id, profile_id = struct.unpack("<HH", raw)
            if indenter_id >= len(INDENTER_NAMES):
                raise FormatError(f"record {k} has unknown indenter id {indenter_id}",
                                  offset=off - 4)
            if profile_id >= len(PROFILE_NAMES):
                raise FormatError(f"record {k} has unknown profile id {profile_id}",
                                  offset=off - 2)
            samples.append(TactileSample(image=image, depth=depth, force=force, pose=pose,
                                         indenter_id=indenter_id, profile_id=profile_id))
    if off != size:
        raise FormatError(f"{size - off} trailing bytes after the last record", offset=off)
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


def check_bin_width(bin_width):
    """Raise ContractError unless the histogram bin width is finite and positive."""
    if not 0 < bin_width < np.inf:
        raise ContractError(f"bin width must be finite and positive, got {bin_width}")


def stats(samples, bin_width=DEFAULT_BIN_WIDTH_N):
    """Histogram and range summary used by the CLI stats report."""
    check_bin_width(bin_width)
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
