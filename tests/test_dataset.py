"""Trajectory generation, preprocessing, balancing, and the container.

Frozen expectations:

* cube pressed straight down covers 676 pixels (26 x 26 at 0.375 mm
  pitch), so each 0.1 mm step adds k * 676 * 0.375^2 * 0.1 N of load
  before quantization.
* the depth normalizer fit to [lo, hi] uses a 5% margin, so a map equal
  to lo everywhere lands at eps / (range + 2 eps) = 0.05 / 1.1.
"""

import itertools
import json
import os
import struct

import numpy as np
import pytest
from scipy import ndimage

from tacforce import dataset as ds
from tacforce import resample
from tacforce import sensor as sen
from tacforce import training
from tacforce.errors import ContractError, FormatError, SafetyError, ShapeError
from tacforce.geometry import PoseRange, euler_to_matrix
from tacforce.indenters import INDENTER_IDS, INDENTER_NAMES, get_indenter
from tacforce.profiles import PROFILE_IDS, PROFILE_NAMES, get_profile

GEL1 = get_profile("sensor1-gel1")


def make_sample(rng, h=12, w=16, fz=1.0, tool=0, profile=0):
    return ds.TactileSample(
        image=rng.integers(0, 255, size=(h, w, 3), dtype=np.uint8),
        depth=rng.uniform(0.0, 2.0, size=(h, w)).astype(np.float32),
        force=np.array([0.1, -0.2, fz], dtype=np.float32),
        pose=rng.normal(size=6).astype(np.float32),
        indenter_id=tool,
        profile_id=profile,
    )


class TestPoseRange:
    def test_defaults(self):
        r = PoseRange()
        assert (r.x, r.y, r.roll, r.pitch, r.yaw) == (4.0, 4.0, 10.0, 10.0, 180.0)

    def test_limits_enforced(self):
        with pytest.raises(ContractError):
            PoseRange(roll=31.0)
        with pytest.raises(ContractError):
            PoseRange(yaw=181.0)
        with pytest.raises(ContractError):
            PoseRange(x=-1.0)

    def test_contains_wraps_yaw(self):
        r = PoseRange(yaw=150.0)
        assert r.contains(0, 0, 0, 0, 213.0)  # -147 after wrapping
        assert not r.contains(0, 0, 0, 0, 170.0)


class TestSamplePoses:
    def test_all_zero_range_gives_origin_poses(self):
        poses = ds.sample_poses(PoseRange(0, 0, 0, 0, 0), 5, seed=3)
        np.testing.assert_array_equal(poses, np.zeros((5, 6)))

    def test_box_membership(self):
        r = PoseRange(x=4, y=3, roll=0, pitch=0, yaw=0)
        poses = ds.sample_poses(r, 200, seed=1)
        assert np.abs(poses[:, 0]).max() <= 4
        assert np.abs(poses[:, 1]).max() <= 3
        np.testing.assert_array_equal(poses[:, 2:], 0.0)

    def test_uniform_statistics(self):
        poses = ds.sample_poses(PoseRange(x=4), 10_000, seed=7)
        x = poses[:, 0]
        assert abs(x.mean()) < 0.15
        assert -4.0 <= x.min() <= -3.8
        assert 3.8 <= x.max() <= 4.0

    def test_deterministic_and_validated(self):
        a = ds.sample_poses(PoseRange(), 32, seed=11)
        b = ds.sample_poses(PoseRange(), 32, seed=11)
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ContractError):
            ds.sample_poses(PoseRange(), 0, seed=1)


class TestRunIndentation:
    def test_zero_force_budget_gives_empty_list(self):
        out = ds.run_indentation(get_indenter("cube"), sen.ToolPose(), GEL1, f_max=0.0)
        assert out == []

    def test_cube_force_staircase(self):
        # flat cube face: F^z per step is quantize(k * A * depth)
        out = ds.run_indentation(get_indenter("cube"), sen.ToolPose(), GEL1, step=0.1)
        area = 676 * GEL1.pixel_area
        q = GEL1.force_quantum
        expected = []
        j = 1
        while True:
            fz = np.round(GEL1.normal_stiffness * area * 0.1 * j / q) * q
            if fz >= 15.0:
                break
            expected.append(np.float32(fz))
            j += 1
        assert [s.force[2] for s in out] == expected
        assert len(out) > 10

    def test_tilt_accrues_shear(self):
        out = ds.run_indentation(get_indenter("cube"), sen.ToolPose(roll=10.0), GEL1,
                                 step=0.2)
        assert out
        assert any(abs(s.force[0]) + abs(s.force[1]) > 0 for s in out)

    def test_stops_at_gel_cap_without_error(self):
        # a small sphere never reaches 15 N in a 3 mm gel at this stiffness
        out = ds.run_indentation(get_indenter("small_sphere"), sen.ToolPose(), GEL1,
                                 step=0.5, f_max=1e9)
        assert 0 < len(out) <= 6

    def test_sample_fields(self):
        out = ds.run_indentation(get_indenter("cone"), sen.ToolPose(x=1.0, yaw=40.0),
                                 GEL1, step=0.3)
        s = out[2]
        assert s.image.dtype == np.uint8 and s.image.shape == (48, 64, 3)
        assert s.depth.dtype == np.float32 and s.depth.shape == (48, 64)
        assert s.indenter_id == INDENTER_IDS["cone"]
        assert s.profile_id == PROFILE_IDS["sensor1-gel1"]
        # pose z is minus the vertical depth of step 3
        assert s.pose[2] == pytest.approx(-0.9, abs=1e-6)
        assert s.pose[0] == pytest.approx(1.0)

    def test_depth_grows_along_the_trajectory(self):
        out = ds.run_indentation(get_indenter("big_sphere"), sen.ToolPose(pitch=8.0),
                                 GEL1, step=0.2)
        maxima = [float(s.depth.max()) for s in out]
        assert all(b > a for a, b in zip(maxima, maxima[1:]))

    def test_accepts_pose_rows(self):
        row = np.array([1.0, -0.5, 0.0, 5.0, -3.0, 60.0])
        out = ds.run_indentation(get_indenter("cube"), row, GEL1, step=0.4)
        assert out and out[0].pose[5] == pytest.approx(60.0)

    @pytest.mark.parametrize("pose", [sen.ToolPose(), sen.ToolPose(roll=30.0, pitch=30.0)])
    def test_first_step_below_the_gel_is_unsafe(self, pose):
        # 5 mm lands below the 3 mm gel even at the steepest tilt (3.75 mm deep)
        with pytest.raises(SafetyError, match=r"first step of 5\.0 mm.*3\.0 mm gel"):
            ds.run_indentation(get_indenter("cube"), pose, GEL1, step=5.0)

    def test_first_step_exactly_at_the_gel_is_safe(self):
        # 3 mm lands on the gel's floor: the force limit, not the gel, ends it
        out = ds.run_indentation(get_indenter("small_sphere"), sen.ToolPose(), GEL1,
                                 step=3.0, f_max=1e9)
        assert len(out) == 1 and out[0].pose[2] == np.float32(-3.0)

    @pytest.mark.parametrize("step", [0.5, 5.0])
    def test_pose_outside_the_envelope_is_unsafe_at_any_step(self, step):
        with pytest.raises(SafetyError, match="outside the safe envelope"):
            ds.run_indentation(get_indenter("cube"), sen.ToolPose(x=100.0), GEL1, step=step)

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ContractError, match="step"):
            ds.run_indentation(get_indenter("cube"), sen.ToolPose(), GEL1, step=step)

    def test_force_limit_must_be_a_number(self):
        with pytest.raises(ContractError, match="f_max"):
            ds.run_indentation(get_indenter("cube"), sen.ToolPose(), GEL1,
                               f_max=float("nan"))


def reference_trajectory(indenter, pose, profile, step, f_max):
    """(depth, force) of each accepted step, one contact at a time."""
    axis_z = euler_to_matrix(pose.roll, pose.pitch, pose.yaw)[2, 2]
    out = []
    for j in itertools.count(1):
        depth = j * step * axis_z
        if depth > profile.gel_thickness:
            return out
        force = sen.oracle_force(sen.compute_contact(indenter, pose, depth, profile), profile)
        if force[2] >= f_max:
            return out
        out.append((depth, force))


class TestSpeculativeBlocks:
    """`run_indentation` simulates contacts a block of steps ahead; the
    samples must be the step-by-step trajectory's wherever the stop
    falls in a block."""

    POSE = sen.ToolPose(x=0.5, y=-1.0, roll=6.0, pitch=-4.0, yaw=25.0)
    # the step that ends the trajectory: mid-block, a block's last, a
    # block's first
    STOPS = (ds._BLOCK + ds._BLOCK // 2, 2 * ds._BLOCK, ds._BLOCK + 1)

    def check(self, indenter, profile, step, f_max, stop):
        samples = ds.run_indentation(indenter, self.POSE, profile, step=step, f_max=f_max,
                                     rng_seed=5)
        expected = reference_trajectory(indenter, self.POSE, profile, step, f_max)
        assert len(samples) == len(expected) == stop - 1
        for j, (s, (depth, force)) in enumerate(zip(samples, expected), start=1):
            assert s.pose[2] == np.float32(-depth), j
            assert np.array_equal(s.force, force.astype(np.float32)), j
            contact = sen.compute_contact(indenter, self.POSE, depth, profile)
            image, depth_map = sen.render_tactile(contact, profile, rng_seed=(5, j))
            assert s.image.tobytes() == image.tobytes(), j
            assert s.depth.tobytes() == depth_map.tobytes(), j

    @pytest.mark.parametrize("stop", STOPS)
    def test_force_stop(self, stop):
        cube = get_indenter("cube")
        step = 0.1
        fz = [f[2] for _, f in reference_trajectory(cube, self.POSE, GEL1, step, np.inf)]
        assert len(fz) > stop and max(fz[:stop - 1]) < fz[stop - 1]
        self.check(cube, GEL1, step, fz[stop - 1], stop)

    @pytest.mark.parametrize("stop", STOPS)
    def test_gel_stop(self, stop):
        axis_z = euler_to_matrix(self.POSE.roll, self.POSE.pitch, self.POSE.yaw)[2, 2]
        step = GEL1.gel_thickness / (stop - 0.5) / axis_z
        self.check(get_indenter("small_sphere"), GEL1, step, np.inf, stop)

    @pytest.mark.parametrize("stop", STOPS)
    @pytest.mark.parametrize("on", ["force", "gel"])
    def test_simulates_no_block_past_the_stop(self, monkeypatch, on, stop):
        cube = get_indenter("cube")
        if on == "force":
            fz = [f[2] for _, f in reference_trajectory(cube, self.POSE, GEL1, 0.1, np.inf)]
            step, f_max = 0.1, fz[stop - 1]
            # the stop's whole block, and no more
            simulated = -(-stop // ds._BLOCK) * ds._BLOCK
        else:
            axis_z = euler_to_matrix(self.POSE.roll, self.POSE.pitch, self.POSE.yaw)[2, 2]
            step, f_max = GEL1.gel_thickness / (stop - 0.5) / axis_z, np.inf
            simulated = stop - 1
        calls = []
        compute_contacts = sen.compute_contacts

        def counting(indenter, pose, depths, profile=None, scale=1):
            calls.append(len(depths))
            return compute_contacts(indenter, pose, depths, profile, scale)
        monkeypatch.setattr(sen, "compute_contacts", counting)
        samples = ds.run_indentation(cube, self.POSE, GEL1, step=step, f_max=f_max)
        assert len(samples) == stop - 1
        # one call per block, none for the empty block after a full one
        full, rest = divmod(simulated, ds._BLOCK)
        assert calls == [ds._BLOCK] * full + [rest] * (rest > 0)


class TestDepthNormalizer:
    def test_fit_and_midband(self):
        norm = ds.DepthNormalizer(min_val=0.0, max_val=1.0, eps=0.05)
        lo_img = norm.normalize(np.zeros((4, 4)))
        np.testing.assert_allclose(lo_img, 0.05 / 1.1)

    def test_saturation_beyond_margin(self):
        norm = ds.DepthNormalizer(min_val=0.0, max_val=1.0, eps=0.05)
        assert norm.normalize(np.array([1.0 + 0.5]))[0] == 1.0
        assert norm.normalize(np.array([-0.5]))[0] == 0.0

    def test_from_samples_margin_is_five_percent(self):
        rng = np.random.default_rng(0)
        samples = [make_sample(rng) for _ in range(3)]
        lo = min(float(s.depth.min()) for s in samples)
        hi = max(float(s.depth.max()) for s in samples)
        norm = ds.DepthNormalizer.from_samples(samples)
        assert norm.min_val == lo and norm.max_val == hi
        assert norm.eps == pytest.approx(0.05 * (hi - lo))

    def test_degenerate_fits_rejected(self):
        with pytest.raises(ContractError):
            ds.DepthNormalizer(min_val=1.0, max_val=1.0, eps=0.1)
        with pytest.raises(ContractError):
            ds.DepthNormalizer.from_samples([])

    def test_identity_is_idempotent_on_clamped_maps(self):
        ident = ds.DepthNormalizer.identity()
        rng = np.random.default_rng(4)
        once = ident.normalize(rng.uniform(-0.5, 1.5, size=(6, 6)))
        np.testing.assert_array_equal(ident.normalize(once), once)


class TestPreprocess:
    def setup_method(self):
        self.norm = ds.DepthNormalizer.identity()

    def test_image_equal_to_background_gives_zeros(self):
        bg = GEL1.background()
        t, _ = ds.preprocess(bg, bg, np.zeros((48, 64)), self.norm)
        np.testing.assert_array_equal(t, 0.0)
        assert t.shape == (32, 32, 3)

    def test_uniform_depth_stays_uniform(self):
        bg = GEL1.background()
        norm = ds.DepthNormalizer(min_val=0.2, max_val=1.2, eps=0.05)
        _, d = ds.preprocess(bg, bg, np.full((48, 64), 0.2), norm)
        np.testing.assert_allclose(d, 0.05 / 1.1)
        assert d.shape == (32, 32)

    def test_output_ranges(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 255, size=(48, 64, 3), dtype=np.uint8)
        t, d = ds.preprocess(img, GEL1.background(), rng.uniform(0, 3, (48, 64)),
                             self.norm)
        assert t.min() >= -1.0 and t.max() <= 1.0
        assert d.min() >= 0.0 and d.max() <= 1.0

    def test_padding_is_centered(self):
        # a bright column at the left image edge must survive the pad
        bg = np.zeros((48, 64, 3), dtype=np.uint8)
        img = bg.copy()
        img[:, :2] = 255
        t, _ = ds.preprocess(img, bg, np.zeros((48, 64)), self.norm)
        assert t[:2, :, 0].max() == 0.0  # top rows are padding
        assert t[16, 0, 0] > 0.5         # mid-height left edge is content

    def test_shape_mismatch_rejected(self):
        bg = GEL1.background()
        with pytest.raises(ShapeError):
            ds.preprocess(bg[:40], bg, np.zeros((48, 64)), self.norm)
        with pytest.raises(ShapeError):
            ds.preprocess(bg, bg, np.zeros((40, 64)), self.norm)

    def test_matches_the_uncached_resize(self):
        # the resize grid is cached per shape pair; the numbers must be
        # those of a grid rebuilt on every call
        def reference_resize(img, out_h, out_w):
            rr, cc = np.meshgrid(np.linspace(0.0, img.shape[0] - 1.0, out_h),
                                 np.linspace(0.0, img.shape[1] - 1.0, out_w), indexing="ij")
            if img.ndim == 2:
                return ndimage.map_coordinates(img, [rr, cc], order=1, mode="nearest")
            return np.stack([ndimage.map_coordinates(img[..., c], [rr, cc], order=1,
                                                     mode="nearest")
                             for c in range(img.shape[2])], axis=-1)

        norm = ds.DepthNormalizer(min_val=0.0, max_val=2.5, eps=0.1)
        for profile, tool in ((GEL1, "ring"), (get_profile("digit"), "wedge")):
            contact = sen.compute_contact(get_indenter(tool), sen.ToolPose(1.0, -2.0, 5, 8, 40),
                                          1.7, profile)
            image, depth = sen.render_tactile(contact, profile)
            bg = profile.background()
            for size in (32, 48, 17):
                t, d = ds.preprocess(image, bg, depth, norm, size=size)
                diff = np.clip((image.astype(np.float64) - bg) / 255.0, -1.0, 1.0)
                padded = np.zeros((64, 64, 3))
                padded[8:56] = diff
                assert np.array_equal(t, reference_resize(padded, size, size))
                assert np.array_equal(d, reference_resize(norm.normalize(depth), size, size))

    def test_resize_grid_is_cached_read_only(self):
        plan = ds._tap_plan(48, 64, 32)
        assert ds._tap_plan(48, 64, 32) is plan
        assert len(plan) == 4
        for idx, w_row, w_col in plan:
            assert idx.shape == (32 * 32,) and w_row.shape == w_col.shape == (32 * 32, 1)
            assert not any(arr.flags.writeable for arr in (idx, w_row, w_col))

    def test_resize_is_corner_aligned(self):
        # corner-aligned bilinear maps the input corners onto the output
        # corners exactly
        ramp = np.tile(np.linspace(0.0, 1.0, 64), (64, 1))
        out = resample.resize(ramp.reshape(-1, 1), ds._tap_plan(64, 64, 32)).reshape(32, 32)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, -1] == pytest.approx(1.0, abs=1e-12)


def map_coordinates_preprocess(sample, normalizer, size):
    """`preprocess` as map_coordinates computes it, one plane at a time:
    the reference the chunked tap plans must match bit for bit."""
    h, w = sample.depth.shape
    bg = get_profile(PROFILE_NAMES[sample.profile_id]).background(h, w)
    side = max(h, w)
    padded = np.zeros((side, side, 3))
    top, left = (side - h) // 2, (side - w) // 2
    padded[top:top + h, left:left + w] = np.clip(
        (sample.image.astype(np.float64) - bg.astype(np.float64)) / 255.0, -1.0, 1.0)

    def resize(img):
        grid = np.meshgrid(np.linspace(0.0, img.shape[0] - 1.0, size),
                           np.linspace(0.0, img.shape[1] - 1.0, size), indexing="ij")
        return ndimage.map_coordinates(img, grid, order=1, mode="nearest")

    image = np.stack([resize(padded[..., c]) for c in range(3)], axis=-1)
    return image, resize(normalizer.normalize(sample.depth))


class TestChunkedPreprocess:
    """`make_training_arrays` preprocesses chunks of samples with tap
    plans; every row must be map_coordinates' bits, signed zeros
    included (compared as uint64)."""

    @pytest.fixture(scope="class")
    def samples(self):
        out = []
        for tool, profile, pose in (("ring", "sensor1-gel1", (1.0, -2.0, 0, 5, 8, 40)),
                                    ("wedge", "digit", (-3.0, 2.5, 0, -10, 4, 120)),
                                    ("cube", "sensor3-gel2", (8.0, -8.0, 0, 0, 0, 15))):
            out += ds.run_indentation(tool, pose, get_profile(profile), step=0.1)
        assert len(out) > training._PREPROCESS_CHUNK + 1
        return out

    @staticmethod
    def assert_rows_match(arrays, samples, normalizer, size):
        assert arrays["images"].shape == (len(samples), size, size, 3)
        for row, s in enumerate(samples):
            image, depth = map_coordinates_preprocess(s, normalizer, size)
            assert np.array_equal(arrays["images"][row].view(np.uint64),
                                  image.view(np.uint64)), (row, size)
            assert np.array_equal(arrays["depths"][row].view(np.uint64),
                                  depth.view(np.uint64)), (row, size)
            assert np.array_equal(arrays["forces"][row], s.force.astype(np.float64))

    def test_matches_map_coordinates(self, samples):
        norm = ds.DepthNormalizer.from_samples(samples)
        rng = np.random.default_rng(8)
        for n in (1, 2, training._PREPROCESS_CHUNK + 1):
            picked = [samples[i] for i in rng.choice(len(samples), n, replace=False)]
            for size in (16, 17, 32, 48):
                arrays = training.make_training_arrays(picked, norm, size=size)
                self.assert_rows_match(arrays, picked, norm, size)

    def test_mixed_shapes_keep_their_rows(self, samples):
        # four shapes interleaved; each row is its own sample's preprocess.
        # On the 7 x 10 one, 1 - (1 - t) differs from the fraction t,
        # so the second tap's weight must be map_coordinates' form.
        rng = np.random.default_rng(9)
        mixed = []
        for i, s in enumerate(samples[:2 * training._PREPROCESS_CHUNK]):
            h, w = ((48, 64), (30, 40), (64, 24), (7, 10))[i % 4]
            mixed.append(ds.TactileSample(
                image=rng.integers(0, 256, (h, w, 3), dtype=np.uint8),
                depth=rng.uniform(0.0, 2.0, (h, w)), force=s.force, pose=s.pose,
                indenter_id=s.indenter_id, profile_id=s.profile_id))
        norm = ds.DepthNormalizer(min_val=0.0, max_val=2.0, eps=0.1)
        for size in (16, 32):
            arrays = training.make_training_arrays(mixed, norm, size=size)
            self.assert_rows_match(arrays, mixed, norm, size)

    def test_one_sample_preprocess_is_the_chunk_row(self, samples):
        norm = ds.DepthNormalizer.from_samples(samples)
        arrays = training.make_training_arrays(samples[:3], norm, size=17)
        for row, s in enumerate(samples[:3]):
            t, d = ds.preprocess(s.image, get_profile(PROFILE_NAMES[s.profile_id]).background(),
                                 s.depth, norm, size=17)
            assert np.array_equal(t.view(np.uint64), arrays["images"][row].view(np.uint64))
            assert np.array_equal(d.view(np.uint64), arrays["depths"][row].view(np.uint64))


class TestBalance:
    def test_uniform_histogram_is_untouched(self):
        rng = np.random.default_rng(2)
        samples = [make_sample(rng, fz=0.1 + 0.5 * (i % 4)) for i in range(20)]
        assert ds.balance(samples, bin_width=0.5, seed=0) == samples

    def test_median_cap_100_10_10(self):
        rng = np.random.default_rng(3)
        samples = (
            [make_sample(rng, fz=0.25) for _ in range(100)]
            + [make_sample(rng, fz=0.75) for _ in range(10)]
            + [make_sample(rng, fz=1.25) for _ in range(10)]
        )
        out = ds.balance(samples, bin_width=0.5, seed=1)
        fz = np.array([s.force[2] for s in out])
        assert (fz < 0.5).sum() == 10
        assert ((fz >= 0.5) & (fz < 1.0)).sum() == 10
        assert (fz >= 1.0).sum() == 10

    def test_output_is_an_ordered_subset(self):
        rng = np.random.default_rng(4)
        samples = [make_sample(rng, fz=float(abs(rng.normal()))) for _ in range(60)]
        out = ds.balance(samples, bin_width=0.25, seed=5)
        positions = [samples.index(s) for s in out]
        assert positions == sorted(positions)

    def test_tools_are_balanced_independently(self):
        rng = np.random.default_rng(5)
        a = [make_sample(rng, fz=0.2, tool=0) for _ in range(30)]
        b = [make_sample(rng, fz=0.2, tool=1) for _ in range(3)]
        out = ds.balance(a + b, bin_width=0.5, seed=0)
        assert sum(s.indenter_id == 1 for s in out) == 3

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(6)
        samples = [make_sample(rng, fz=float(abs(rng.normal()))) for _ in range(80)]
        assert ds.balance(samples, seed=9) == ds.balance(samples, seed=9)

    @pytest.mark.parametrize("width", [0.0, -0.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("fn", [ds.balance, ds.stats])
    def test_bin_width_must_be_finite_and_positive(self, fn, width):
        samples = [make_sample(np.random.default_rng(7), fz=0.3)]
        with pytest.raises(ContractError, match="bin width"):
            fn(samples, bin_width=width)


class TestContainer:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.faf"
        ds.store([], path)
        assert path.read_bytes() == b"FAF1" + b"\x01\x00" + b"\x00\x00\x00\x00"
        assert ds.load(path) == []

    def test_single_sample_byte_stable(self, tmp_path):
        rng = np.random.default_rng(7)
        s = make_sample(rng)
        a, b = tmp_path / "a.faf", tmp_path / "b.faf"
        ds.store([s], a)
        ds.store(ds.load(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_many_samples_fieldwise(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = [make_sample(rng, h=6, w=8, tool=i % 3, profile=i % 2)
                   for i in range(200)]
        path = tmp_path / "many.faf"
        ds.store(samples, path)
        assert ds.load(path) == samples

    def test_sidecar_manifest(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = [make_sample(rng, tool=INDENTER_IDS["cube"]) for _ in range(4)]
        path = tmp_path / "d.faf"
        ds.store(samples, path)
        meta = json.loads((tmp_path / "d.faf.json").read_text())
        assert meta["count"] == 4
        assert meta["per_indenter"] == {"cube": 4}
        assert meta["format"] == "FAF1"

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.faf"
        path.write_bytes(b"NOPE" + b"\x01\x00" + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError) as err:
            ds.load(path)
        assert err.value.offset == 0

    def test_bad_version_offset_four(self, tmp_path):
        path = tmp_path / "bad.faf"
        path.write_bytes(b"FAF1" + b"\x09\x00" + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError) as err:
            ds.load(path)
        assert err.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "t.faf"
        ds.store([make_sample(rng)], path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError, match="truncated"):
            ds.load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "g.faf"
        ds.store([make_sample(rng)], path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            ds.load(path)

    @staticmethod
    def _second_record(tmp_path, patch_at, fmt, *values):
        """Store two samples and overwrite bytes of the second record, at
        ``patch_at`` from its start (or, if negative, from the file's end).
        Returns the path and the absolute offset written."""
        rng = np.random.default_rng(13)
        path = tmp_path / "r.faf"
        ds.store([make_sample(rng), make_sample(rng)], path)
        blob = bytearray(path.read_bytes())
        start = 10 + (len(blob) - 10) // 2  # after the 10-byte header and record 0
        at = start + patch_at if patch_at >= 0 else len(blob) + patch_at
        struct.pack_into(fmt, blob, at, *values)
        path.write_bytes(bytes(blob))
        return path, at

    @pytest.mark.parametrize("dims", [(0, 16), (12, 0)])
    def test_empty_image_rejected(self, tmp_path, dims):
        path, at = self._second_record(tmp_path, 0, "<HH", *dims)
        with pytest.raises(FormatError, match="record 1 has an empty") as err:
            ds.load(path)
        assert err.value.offset == at

    def test_unknown_indenter_id_rejected(self, tmp_path):
        path, at = self._second_record(tmp_path, -4, "<H", len(INDENTER_NAMES))
        with pytest.raises(FormatError, match="record 1 has unknown indenter id") as err:
            ds.load(path)
        assert err.value.offset == at

    def test_unknown_profile_id_rejected(self, tmp_path):
        path, at = self._second_record(tmp_path, -2, "<H", len(PROFILE_NAMES))
        with pytest.raises(FormatError, match="record 1 has unknown profile id") as err:
            ds.load(path)
        assert err.value.offset == at


    @pytest.mark.parametrize("patch_at, value, field", [
        (4 + 576 + 4 * 7, -1.0, "depth map"),   # 12x16 image: depth starts at 580
        (4 + 576 + 4 * 191, np.nan, "depth map"),
        (4 + 576 + 4 * 3, np.inf, "depth map"),
        (-32, np.inf, "force"),                 # force[2]; force starts 40 from the end
        (-24, np.nan, "pose"),                  # pose[1]; pose starts 28 from the end
    ], ids=["negative-depth", "nan-depth", "inf-depth", "inf-force", "nan-pose"])
    def test_bad_values_rejected_at_their_field(self, tmp_path, patch_at, value, field):
        field_start = {"depth map": 4 + 576, "force": -40, "pose": -28}[field]
        path, at = self._second_record(tmp_path, patch_at, "<f", value)
        with pytest.raises(FormatError, match=f"record 1 {field} holds a") as err:
            ds.load(path)
        assert err.value.offset == at - (patch_at - field_start)

    def test_sample_rejects_non_finite_depth(self):
        rng = np.random.default_rng(14)
        s = make_sample(rng)
        depth = s.depth.copy()
        depth[3, 4] = np.nan
        with pytest.raises(ContractError, match="finite"):
            ds.TactileSample(s.image, depth, s.force, s.pose, 0, 0)


class TestContainerFuzz:
    """Seeded corruption of a stored file. `load` either returns samples
    that store back to exactly the bytes it read (so they are the stored
    ones, corruption included) or raises FormatError; nothing else."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        rng = np.random.default_rng(15)
        samples = [make_sample(rng, h=3, w=4, tool=i % 3, profile=i % 2) for i in range(4)]
        path = tmp_path_factory.mktemp("fuzz") / "s.faf"
        ds.store(samples, path)
        return samples, path.read_bytes()

    @staticmethod
    def load_or_format_error(tmp_path, blob):
        path = tmp_path / "fuzzed.faf"
        path.write_bytes(blob)
        try:
            samples = ds.load(path)
        except FormatError:
            return None
        ds.store(samples, tmp_path / "again.faf")
        assert (tmp_path / "again.faf").read_bytes() == blob
        return samples

    def test_truncation_at_every_record_and_field_boundary(self, tmp_path, stored):
        samples, blob = stored
        record = (len(blob) - 10) // len(samples)
        fields = np.cumsum([0, 4, 3 * 4 * 3, 4 * 3 * 4, 12, 24])  # up to the ids
        cuts = sorted({*range(10), *(10 + k * record + f for k in range(len(samples))
                                     for f in fields)})
        for cut in cuts:
            assert self.load_or_format_error(tmp_path, blob[:cut]) is None, cut
        assert self.load_or_format_error(tmp_path, blob) == samples

    def test_seeded_byte_flips(self, tmp_path, stored):
        _, blob = stored
        rng = np.random.default_rng(16)
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(400):
            fuzzed = bytearray(blob)
            at = int(rng.integers(len(blob)))
            fuzzed[at] ^= int(rng.integers(1, 256))
            got = self.load_or_format_error(tmp_path, bytes(fuzzed))
            outcomes["rejected" if got is None else "loaded"] += 1
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0, outcomes

    def test_trailing_bytes(self, tmp_path, stored):
        samples, blob = stored
        rng = np.random.default_rng(17)
        record = blob[10:10 + (len(blob) - 10) // len(samples)]
        for extra in (b"\x00", bytes(rng.integers(0, 256, 7, dtype=np.uint8)), record):
            assert self.load_or_format_error(tmp_path, blob + extra) is None


class TestGenerate:
    def test_seeded_generation_is_deterministic(self):
        kw = dict(indenter_names=["cube", "small_sphere"],
                  profile_names_=["sensor1-gel1"], n_poses=2,
                  pose_range=PoseRange(x=2, y=2, roll=5, pitch=5, yaw=90),
                  step=0.4, seed=42)
        a = ds.generate_dataset(**kw)
        b = ds.generate_dataset(**kw)
        assert a == b
        assert len(a) > 0

    def test_stats_report(self):
        rng = np.random.default_rng(12)
        samples = [make_sample(rng, fz=0.3, tool=INDENTER_IDS["cube"]),
                   make_sample(rng, fz=0.8, tool=INDENTER_IDS["cube"])]
        rep = ds.stats(samples)
        cube = rep["per_indenter"]["cube"]
        assert cube["count"] == 2
        assert cube["fz_bins"] == {0: 1, 1: 1}
        assert cube["fz_min"] == pytest.approx(0.3)
