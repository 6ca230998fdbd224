"""Contact-model oracles: closed forms, invariances, and rendering.

Frozen expectations used below, each computed independently of the
implementation from the grid definition (64x48 pixels, 0.375 mm pitch):

* pixel centers inside a radius-4 disk at the origin: 360
* pixel centers inside the 10x10 square at the origin: 676 (26 x 26)
* midpoint-rule volume error for the big sphere at depth 1.2: about
  7.1e-4 relative on the native grid, 9.0e-6 at 4x supersampling
"""

import numpy as np
import pytest

from tacforce import dataset as ds
from tacforce import sensor as sen
from tacforce.errors import ContractError, SafetyError
from tacforce.geometry import euler_to_matrix
from tacforce.indenters import CATALOG, get_indenter
from tacforce.profiles import PROFILE_NAMES, get_profile

# near-zero quantum: rounding error is a few ulps, far below test tolerances
EXACT = get_profile("sensor1-gel1").replace(force_quantum=1e-15)


def center_pose(**kw):
    return sen.ToolPose(**kw)


class TestGrid:
    def test_pitch_is_square(self):
        assert sen.PIXEL_PITCH == pytest.approx(0.375)
        assert sen.GRID_HEIGHT_MM / sen.GRID_HEIGHT_PX == pytest.approx(sen.PIXEL_PITCH)

    def test_pixel_grid_shapes_and_extents(self):
        uu, vv = sen.pixel_grid()
        assert uu.shape == (48, 64)
        assert uu[0, 0] == pytest.approx(-12 + 0.1875)
        assert uu[0, -1] == pytest.approx(12 - 0.1875)
        assert vv[-1, 0] == pytest.approx(9 - 0.1875)

    def test_grid_is_centro_symmetric(self):
        uu, vv = sen.pixel_grid()
        np.testing.assert_allclose(uu, -uu[::-1, ::-1], atol=1e-12)
        np.testing.assert_allclose(vv, -vv[::-1, ::-1], atol=1e-12)

    def test_grids_are_cached_read_only(self):
        uu, vv = sen.pixel_grid()
        again = sen.pixel_grid(get_profile("digit"))  # same geometry as the default
        assert again[0] is uu and again[1] is vv
        fine = sen.pixel_grid(scale=2)
        assert fine[0].shape == (96, 128) and fine[0] is not uu
        for arr in (uu, vv, fine[0]):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            uu[0, 0] = 1.0

    def test_pose_from_array(self):
        # the (x, y, z, roll, pitch, yaw) layout of a sample's pose; z is skipped
        pose = sen.ToolPose(1.0, -2.0, 3.0, -4.0, 170.0)
        assert sen.ToolPose.from_array([1.0, -2.0, 9.0, 3.0, -4.0, 170.0]) == pose


class TestSphereClosedForm:
    def test_penetration_field_matches_pixelwise(self):
        contact = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 1.2)
        uu, vv = sen.pixel_grid()
        expected = sen.sphere_penetration(8.0, 1.2, np.hypot(uu, vv))
        np.testing.assert_allclose(contact.penetration, expected, atol=1e-10)

    def test_volume_against_analytic_load(self):
        contact = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 1.2)
        force = sen.oracle_force(contact, EXACT)
        analytic = sen.sphere_normal_force(8.0, 1.2, EXACT.normal_stiffness)
        assert force[2] == pytest.approx(analytic, rel=2e-3)
        np.testing.assert_allclose(force[:2], 0.0, atol=1e-12)

    def test_supersampling_tightens_the_quadrature(self):
        analytic = sen.sphere_normal_force(8.0, 1.2, EXACT.normal_stiffness)
        errs = {}
        for scale in (1, 4):
            contact = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 1.2,
                                          scale=scale)
            fz = sen.oracle_force(contact, EXACT)[2]
            errs[scale] = abs(fz - analytic) / analytic
        assert errs[1] < 2e-3
        assert errs[4] < 1e-4
        assert errs[1] / errs[4] > 4.0

    def test_small_sphere_too(self):
        contact = sen.compute_contact(get_indenter("small_sphere"), center_pose(), 0.8)
        fz = sen.oracle_force(contact, EXACT)[2]
        analytic = sen.sphere_normal_force(3.0, 0.8, EXACT.normal_stiffness)
        assert fz == pytest.approx(analytic, rel=5e-3)


class TestFlatFaceExactness:
    def test_cylinder_volume_is_exact(self):
        # flat face: penetration is exactly d on the 360 covered pixels
        d = 1.5
        contact = sen.compute_contact(get_indenter("cylinder"), center_pose(), d)
        assert int(contact.mask.sum()) == 360
        np.testing.assert_allclose(contact.penetration[contact.mask], d, atol=1e-12)
        assert contact.displaced_volume == pytest.approx(d * 360 * sen.PIXEL_AREA, abs=1e-12)

    def test_cube_volume_is_exact(self):
        d = 2.0
        contact = sen.compute_contact(get_indenter("cube"), center_pose(), d)
        assert int(contact.mask.sum()) == 676
        assert contact.displaced_volume == pytest.approx(d * 676 * sen.PIXEL_AREA, abs=1e-12)

    def test_cylinder_max_depth_equals_command(self):
        contact = sen.compute_contact(get_indenter("cylinder"), center_pose(), 2.2)
        assert contact.penetration.max() == pytest.approx(2.2, abs=1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_volume_grows_with_depth(self, name):
        pose = center_pose(roll=4.0, pitch=-6.0, yaw=25.0)
        vols = []
        for d in np.arange(0.3, 3.01, 0.3):
            c = sen.compute_contact(get_indenter(name), pose, float(d))
            vols.append(c.displaced_volume)
        diffs = np.diff(vols)
        assert (diffs > 0).all(), f"{name}: volumes not strictly increasing: {vols}"


class TestFrameConsistency:
    def test_half_turn_flips_the_field_exactly(self):
        tool = get_indenter("ellipsoid")
        a = sen.compute_contact(tool, sen.ToolPose(1.5, -2.25, 7.0, 12.0, 33.0), 1.8)
        b = sen.compute_contact(tool, sen.ToolPose(-1.5, 2.25, 7.0, 12.0, 213.0), 1.8)
        np.testing.assert_allclose(b.penetration, a.penetration[::-1, ::-1], atol=1e-9)

    def test_half_turn_negates_shear(self):
        tool = get_indenter("wedge")
        a = sen.compute_contact(tool, sen.ToolPose(0.5, 1.0, 5.0, 9.0, 40.0), 1.5)
        b = sen.compute_contact(tool, sen.ToolPose(-0.5, -1.0, 5.0, 9.0, 220.0), 1.5)
        fa = sen.oracle_force(a, EXACT)
        fb = sen.oracle_force(b, EXACT)
        np.testing.assert_allclose(fb, [-fa[0], -fa[1], fa[2]], atol=1e-9)

    def test_yaw_spins_shear_for_a_sphere(self):
        tool = get_indenter("big_sphere")
        forces = []
        for yaw in (0.0, 37.0, 123.0):
            c = sen.compute_contact(tool, sen.ToolPose(0, 0, 0.0, 10.0, yaw), 1.5)
            forces.append(sen.oracle_force(c, EXACT))
        fz = [f[2] for f in forces]
        mags = [np.hypot(f[0], f[1]) for f in forces]
        assert fz[1] == pytest.approx(fz[0], rel=5e-3)
        assert fz[2] == pytest.approx(fz[0], rel=5e-3)
        assert mags[1] == pytest.approx(mags[0], rel=5e-3)
        ang = [np.degrees(np.arctan2(f[1], f[0])) for f in forces]
        assert (ang[1] - ang[0]) % 360 == pytest.approx(37.0, abs=0.5)
        assert (ang[2] - ang[0]) % 360 == pytest.approx(123.0, abs=0.5)


class TestShear:
    def test_drag_follows_tilt(self):
        c = sen.compute_contact(get_indenter("cube"), center_pose(pitch=10.0), 2.0)
        np.testing.assert_allclose(c.drag, [-2.0 * np.tan(np.deg2rad(10.0)), 0.0], atol=1e-12)

    def test_uncapped_shear_is_linear_in_drag(self):
        c = sen.compute_contact(get_indenter("cube"), center_pose(pitch=5.0), 2.0)
        f = sen.oracle_force(c, EXACT)
        expected = EXACT.shear_stiffness * c.displaced_volume * c.drag
        np.testing.assert_allclose(f[:2], expected, atol=1e-12)
        assert np.hypot(*f[:2]) < EXACT.friction * f[2]

    def test_steep_tilt_hits_the_friction_cone(self):
        c = sen.compute_contact(get_indenter("cube"), center_pose(pitch=30.0), 2.0)
        f = sen.oracle_force(c, EXACT)
        uncapped = EXACT.shear_stiffness * c.displaced_volume * np.hypot(*c.drag)
        cap = EXACT.friction * f[2]
        assert uncapped > cap
        assert np.hypot(*f[:2]) == pytest.approx(cap, rel=1e-12)

    def test_superposition_for_disjoint_parts(self):
        # at a shared placement, the union's field is the sum of its
        # parts' fields (their xy columns never overlap at this tilt),
        # so the load superposes exactly
        triple = get_indenter("triple_cylinder")
        pose = center_pose(roll=3.0, pitch=8.0, yaw=15.0)
        rot, translation, _ = sen.tool_transform(triple, pose, 1.5)
        whole = reference_field(triple, rot, translation)
        parts = [reference_field(p, rot, translation) for p in triple.parts]
        assert all((p > 0).any() for p in parts)
        np.testing.assert_allclose(whole, np.sum(parts, axis=0), atol=1e-12)


def reference_field(indenter, rotation, translation, profile=None, scale=1):
    """The whole-grid cast: one ray up through the tool per pixel centre.
    `compute_contacts` must match it bit for bit."""
    uu, vv = sen.pixel_grid(profile, scale)
    points = np.stack([uu.ravel(), vv.ravel(), np.zeros(uu.size)], axis=1)
    origins = (points - translation) @ rotation
    hit, smin = indenter.line_min(origins, rotation.T @ np.array([0.0, 0.0, 1.0]))
    delta = np.zeros(uu.size)
    np.copyto(delta, -smin, where=hit & (smin < 0.0))
    return delta.reshape(uu.shape)


def reference_contact(indenter, pose, depth, profile=None, scale=1):
    """(penetration, drag) of the tool pressed to one depth, placed as
    ``tool_transform`` places it and cast over the whole grid."""
    rot = euler_to_matrix(pose.roll, pose.pitch, pose.yaw)
    axis = rot[:, 2]
    drag = -depth * axis[:2] / axis[2]
    tz = -depth + indenter.support(-rot.T @ np.array([0.0, 0.0, 1.0]))
    translation = np.array([pose.x + drag[0], pose.y + drag[1], tz])
    return reference_field(indenter, rot, translation, profile, scale), drag


# a pad smaller than the safe envelope, so boxes clip to its rim
SMALL_PAD = get_profile("digit").replace(width_mm=12.0, height_mm=9.0, width_px=32,
                                         height_px=24, gel_thickness=2.0)


class TestCulledCast:
    """`compute_contacts` casts only the rays inside its footprint bound;
    every field must be the whole-grid cast's, bit for bit."""

    POSES = [sen.ToolPose(yaw=20.0)]
    POSES += [sen.ToolPose(x=sx * 8.0, y=sy * 8.0, yaw=35.0) for sx in (-1, 1) for sy in (-1, 1)]
    POSES += [sen.ToolPose(x=-1.0, y=2.0, roll=sr * 30.0, pitch=sp * 30.0, yaw=70.0)
              for sr in (-1, 1) for sp in (-1, 1)]

    @staticmethod
    def depths(profile):
        gel = profile.gel_thickness
        return [0.0, 1e-12, gel / 2, gel]

    @pytest.mark.parametrize("tool", sorted(CATALOG))
    def test_matches_the_whole_grid_cast(self, tool):
        indenter = get_indenter(tool)
        profiles = [get_profile(name) for name in PROFILE_NAMES] + [SMALL_PAD]
        for profile in profiles:
            for scale in (1, 2):
                for pose in self.POSES:
                    depths = self.depths(profile)
                    contacts = sen.compute_contacts(indenter, pose, depths, profile, scale)
                    for depth, c in zip(depths, contacts):
                        where = f"{tool} {profile.name} {pose} d={depth} scale={scale}"
                        expected, drag = reference_contact(indenter, pose, depth, profile,
                                                           scale)
                        assert c.penetration.tobytes() == expected.tobytes(), where
                        assert c.drag.tobytes() == drag.tobytes(), where
                        assert c.depth == depth and c.pose == pose, where

    @pytest.mark.parametrize("tool", sorted(CATALOG))
    def test_bound_holds_every_pressed_pixel(self, tool):
        indenter = get_indenter(tool)
        rng = np.random.default_rng(17)
        for profile, scale in ((get_profile("sensor1-gel1"), 1), (SMALL_PAD, 1),
                               (get_profile("digit"), 2)):
            geometry = sen._grid_geometry(profile)
            for _ in range(12):
                pose = sen.ToolPose(*rng.uniform(-8.0, 8.0, 2), *rng.uniform(-30.0, 30.0, 2),
                                    rng.uniform(-180.0, 180.0))
                depths = np.sort(rng.uniform(0.0, profile.gel_thickness, 4))
                rot, translation, _ = sen.tool_transform(indenter, pose, depths)
                cast = sen._footprint(indenter, rot, translation, geometry, scale)
                for k, depth in enumerate(depths):
                    pressed = reference_contact(indenter, pose, depth, profile, scale)[0] > 0
                    assert not (pressed & ~cast[k]).any(), (tool, pose, depth)

    def test_bound_is_tight_on_a_shallow_sphere(self):
        # the cap of a big sphere pressed 0.05 mm is a disk of radius
        # sqrt(2 R d - d^2) = 0.89 mm; the bound's box is a few pixels wide
        indenter = get_indenter("big_sphere")
        rot, translation, _ = sen.tool_transform(indenter, sen.ToolPose(), [0.05])
        cast = sen._footprint(indenter, rot, translation, sen._grid_geometry(None), 1)
        assert cast.sum() <= 10 * 10

    def test_one_depth_is_the_batch_row(self):
        for tool in sorted(CATALOG):
            indenter = get_indenter(tool)
            pose = sen.ToolPose(x=2.0, y=-1.0, roll=12.0, pitch=-7.0, yaw=33.0)
            depths = [0.3, 1.1, 2.2]
            batch = sen.compute_contacts(indenter, pose, depths, EXACT)
            for depth, row in zip(depths, batch):
                alone = sen.compute_contact(indenter, pose, depth, EXACT)
                assert alone.penetration.tobytes() == row.penetration.tobytes(), tool
                assert alone.drag.tobytes() == row.drag.tobytes(), tool
                assert alone.pixel_area == row.pixel_area and alone.depth == row.depth

    def test_one_ray_casts_the_whole_grid(self, monkeypatch):
        # numpy hands a one-row product to a BLAS vector routine that can
        # round apart from the grid's matrix product, so a lone ray is
        # never cast alone
        indenter = get_indenter("small_sphere")
        pose = sen.ToolPose(x=1.0, y=-0.5, roll=9.0, pitch=4.0, yaw=30.0)
        expected, _ = reference_contact(indenter, pose, 1.0)
        row, col = np.unravel_index(np.argmax(expected), expected.shape)

        def one_pixel(indenter, rot, translation, geometry, scale):
            cast = np.zeros((len(translation), *expected.shape), dtype=bool)
            cast[-1, row, col] = True
            return cast

        monkeypatch.setattr(sen, "_footprint", one_pixel)
        c = sen.compute_contacts(indenter, pose, [0.5, 1.0])
        assert c[1].penetration.tobytes() == expected.tobytes()
        assert not c[0].penetration.any()

    def test_no_depths_no_contacts(self):
        assert sen.compute_contacts(get_indenter("cube"), sen.ToolPose(), []) == []


class TestQuantization:
    def test_forces_are_multiples_of_the_quantum(self):
        profile = get_profile("sensor1-gel1")
        c = sen.compute_contact(get_indenter("cone"), center_pose(pitch=7.0), 2.1)
        f = sen.oracle_force(c, profile)
        steps = f / profile.force_quantum
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_quantization_error_is_at_most_half_a_step(self):
        profile = get_profile("sensor1-gel1")
        c = sen.compute_contact(get_indenter("ring"), center_pose(pitch=6.0), 1.7)
        raw = sen.oracle_force(c, EXACT)
        q = sen.oracle_force(c, profile)
        assert np.abs(q - raw).max() <= profile.force_quantum / 2 + 1e-12


class TestSafety:
    def test_depth_beyond_gel_raises(self):
        with pytest.raises(SafetyError, match="exceeds"):
            sen.compute_contact(get_indenter("cube"), center_pose(), 3.2)

    def test_custom_gel_thickness(self):
        thin = get_profile("sensor1-gel1").replace(gel_thickness=1.0)
        with pytest.raises(SafetyError):
            sen.compute_contact(get_indenter("cube"), center_pose(), 1.5, profile=thin)

    def test_negative_depth_rejected(self):
        with pytest.raises(ContractError):
            sen.compute_contact(get_indenter("cube"), center_pose(), -0.1)

    def test_non_finite_depth_rejected(self):
        cube = get_indenter("cube")
        with pytest.raises(ContractError, match="depth"):
            sen.compute_contact(cube, center_pose(), float("nan"))
        with pytest.raises(ContractError, match="depth"):
            sen.compute_contacts(cube, center_pose(), [0.5, float("nan")])
        with pytest.raises(SafetyError, match="exceeds"):
            sen.compute_contacts(cube, center_pose(), [0.5, float("inf")])

    def test_pose_outside_safe_envelope_rejected(self):
        with pytest.raises(SafetyError, match="safe"):
            sen.compute_contact(get_indenter("cube"), center_pose(pitch=89.0), 0.5)
        with pytest.raises(SafetyError, match="safe"):
            sen.compute_contact(get_indenter("cube"), center_pose(x=9.5), 0.5)

    def test_sideways_axis_rejected_at_the_transform(self):
        with pytest.raises(ContractError, match="axis"):
            sen.tool_transform(get_indenter("cube"), center_pose(pitch=89.0), 0.5)

    def test_penetration_never_exceeds_depth(self):
        for name in ("big_sphere", "cube", "wedge", "ring"):
            c = sen.compute_contact(get_indenter(name), center_pose(roll=5.0, pitch=8.0), 2.5)
            assert c.penetration.max() <= 2.5 + 1e-9


class TestRendering:
    def test_untouched_gel_reproduces_background(self):
        profile = get_profile("sensor1-gel1")
        c = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 0.0)
        assert c.displaced_volume == 0.0
        img, depth = sen.render_tactile(c, profile)
        np.testing.assert_array_equal(img, profile.background(48, 64))
        assert depth.dtype == np.float32
        np.testing.assert_array_equal(depth, 0.0)

    def test_shape_dtype_determinism(self):
        profile = get_profile("sensor2-gel3")
        c = sen.compute_contact(get_indenter("cross"), center_pose(pitch=5.0), 1.5)
        a, da = sen.render_tactile(c, profile)
        b, db = sen.render_tactile(c, profile)
        assert a.shape == (48, 64, 3)
        assert a.dtype == np.uint8
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(da, db)
        np.testing.assert_allclose(da, c.penetration, atol=1e-6)

    def test_lit_side_matches_light_azimuth(self):
        # sensor1's red light sits at azimuth 0 (+x): the +x wall of a
        # spherical dent faces it and catches the red
        profile = get_profile("sensor1-gel1")
        c = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 1.5)
        img, _ = sen.render_tactile(c, profile)
        excess = img.astype(np.float64) - profile.background(48, 64).astype(np.float64)
        uu, vv = sen.pixel_grid()
        red = np.maximum(excess[..., 0], 0.0)
        assert red.sum() > 0
        com_u = float((red * uu).sum() / red.sum())
        assert com_u > 0.3
        # the blue light sits at azimuth 240: lower-left quadrant
        blue = np.maximum(excess[..., 2], 0.0)
        assert float((blue * uu).sum() / blue.sum()) < -0.1
        assert float((blue * vv).sum() / blue.sum()) < -0.1

    def test_light_colors_change_image_not_depth(self):
        a = get_profile("sensor1-gel1")
        swapped = tuple(
            lt.__class__(lt.azimuth, lt.elevation, tuple(reversed(lt.color)), lt.gain)
            for lt in a.lights
        )
        b = a.replace(lights=swapped)
        c = sen.compute_contact(get_indenter("big_sphere"), center_pose(), 1.5)
        img_a, depth_a = sen.render_tactile(c, a)
        img_b, depth_b = sen.render_tactile(c, b)
        np.testing.assert_array_equal(depth_a, depth_b)
        assert not np.array_equal(img_a, img_b)

    def test_normals_flat_and_unit(self):
        flat = np.zeros((48, 64))
        n = sen.surface_normals(flat, sen.PIXEL_PITCH)
        np.testing.assert_array_equal(n[..., 2], 1.0)
        c = sen.compute_contact(get_indenter("cone"), center_pose(), 2.0)
        n = sen.surface_normals(c.penetration, sen.PIXEL_PITCH)
        np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)

    def test_normals_match_the_linalg_norm_formula(self):
        # surface_normals sums the length elementwise; the bits must be
        # those of np.linalg.norm over the stacked (gu, gv, 1)
        rng = np.random.default_rng(12)
        fields = [np.maximum(rng.normal(0.0, 10.0 ** e, size=(3, 17, 23)), 0.0)
                  for e in range(-3, 2)]
        for tool in ("cone", "cross", "big_sphere"):
            pose = sen.ToolPose(x=1.0, roll=20.0, yaw=30.0)
            fields.append(sen.compute_contact(get_indenter(tool), pose, 1.3).penetration)
        for field in fields:
            got = sen.surface_normals(field, sen.PIXEL_PITCH)
            assert got.view(np.uint64).tobytes() == reference_normals(
                field, sen.PIXEL_PITCH).view(np.uint64).tobytes()

    def test_noise_needs_seed_and_is_reproducible(self):
        profile = get_profile("sensor1-gel1").replace(noise_sigma=2.0)
        c = sen.compute_contact(get_indenter("cube"), center_pose(), 1.0)
        with pytest.raises(ContractError, match="rng_seed"):
            sen.render_tactile(c, profile)
        a, _ = sen.render_tactile(c, profile, rng_seed=5)
        b, _ = sen.render_tactile(c, profile, rng_seed=5)
        other, _ = sen.render_tactile(c, profile, rng_seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, other)


def reference_normals(penetration, pixel_pitch):
    """Unit normals of the deformed gel, normalised by np.linalg.norm."""
    gv, gu = np.gradient(penetration, pixel_pitch, axis=(-2, -1))
    n = np.stack([gu, gv, np.ones_like(penetration)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return n


def reference_render(contact, profile, rng_seed=None):
    """The full-frame shader: every pixel shaded, then noised, then
    clamped and rounded. `render_tactile` must match it bit for bit."""
    h, w = contact.penetration.shape
    img = profile.background(h, w).astype(np.float64)
    if contact.mask.any():
        normals = reference_normals(contact.penetration, float(np.sqrt(contact.pixel_area)))
        for light in profile.lights:
            lam = np.maximum(normals @ light.direction(), 0.0)
            img += light.gain * lam[..., None] * np.asarray(light.color)
    if profile.noise_sigma > 0.0:
        img += np.random.default_rng(rng_seed).normal(0.0, profile.noise_sigma, size=img.shape)
    return np.rint(np.clip(img, 0.0, 255.0)).astype(np.uint8)


class TestBoxedRendering:
    """`render_tactile` shades only the contact's box; the bytes must be
    the full-frame shader's on every tool and profile."""

    POSES = {
        "centred": (sen.ToolPose(yaw=20.0), 1.2),
        "pad-edge": (sen.ToolPose(x=8.0, y=-8.0, yaw=35.0), 1.6),
        "tilted": (sen.ToolPose(x=-2.0, y=1.5, roll=30.0, pitch=-30.0, yaw=70.0), 1.4),
        "untouched": (sen.ToolPose(x=3.0), 0.0),
    }

    @pytest.mark.parametrize("tool", sorted(CATALOG))
    def test_matches_the_full_frame_shader(self, tool):
        indenter = get_indenter(tool)
        for k, name in enumerate(PROFILE_NAMES):
            for sigma in (0.0, 2.5):
                profile = get_profile(name).replace(noise_sigma=sigma)
                for label, (pose, depth) in self.POSES.items():
                    contact = sen.compute_contact(indenter, pose, depth, profile)
                    image, depth_map = sen.render_tactile(contact, profile, rng_seed=(k, 3))
                    expected = reference_render(contact, profile, rng_seed=(k, 3))
                    where = f"{tool} {name} sigma={sigma} {label}"
                    assert image.dtype == np.uint8 and image.flags.writeable, where
                    np.testing.assert_array_equal(image, expected, err_msg=where)
                    np.testing.assert_array_equal(
                        depth_map, contact.penetration.astype(np.float32), err_msg=where)

    def test_box_is_the_grown_contact_clipped_to_the_pad(self):
        pen = np.zeros((48, 64))
        pen[10:13, 20:30] = 0.5
        assert sen._shade_box(pen, whole_frame=False) == (slice(8, 15), slice(18, 32))
        pen[0, 63] = 0.1
        assert sen._shade_box(pen, whole_frame=False) == (slice(0, 15), slice(18, 64))
        assert sen._shade_box(np.zeros((48, 64)), whole_frame=False) is None
        assert sen._shade_box(np.zeros((48, 64)), whole_frame=True) == (slice(0, 48),
                                                                         slice(0, 64))

    def test_untouched_render_is_a_fresh_copy(self):
        profile = get_profile("digit")
        c = sen.compute_contact(get_indenter("cube"), center_pose(), 0.0, profile)
        a, _ = sen.render_tactile(c, profile)
        a[0, 0] = 0
        b, _ = sen.render_tactile(c, profile)
        np.testing.assert_array_equal(b, profile.background())


class TestBatchedRendering:
    """`render_contacts` shades a trajectory's frames together over the
    union of their boxes; each frame must be the bytes `render_tactile`
    gives it alone."""

    TRAJECTORIES = {
        "centred": sen.ToolPose(yaw=20.0),
        "pad-edge": sen.ToolPose(x=8.0, y=-8.0, yaw=35.0),
        "tilted": sen.ToolPose(x=-2.0, y=1.5, roll=30.0, pitch=-30.0, yaw=70.0),
        "tilted-back": sen.ToolPose(x=1.0, y=-0.5, roll=-30.0, pitch=30.0, yaw=-40.0),
    }
    DEPTHS = (0.0, 0.05, 0.4, 0.9, 1.6, 2.4)

    @pytest.mark.parametrize("tool", sorted(CATALOG))
    def test_matches_per_frame_renders(self, tool):
        indenter = get_indenter(tool)
        for k, name in enumerate(PROFILE_NAMES):
            for sigma in (0.0, 2.5):
                profile = get_profile(name).replace(noise_sigma=sigma)
                for label, pose in self.TRAJECTORIES.items():
                    contacts = [sen.compute_contact(indenter, pose, d, profile)
                                for d in self.DEPTHS]
                    seeds = [(k, j) for j in range(len(contacts))]
                    images, depths = sen.render_contacts(contacts, profile, seeds)
                    where = f"{tool} {name} sigma={sigma} {label}"
                    assert images.dtype == np.uint8 and depths.dtype == np.float32, where
                    for c, seed, image, depth in zip(contacts, seeds, images, depths):
                        alone, alone_depth = sen.render_tactile(c, profile, rng_seed=seed)
                        assert image.tobytes() == alone.tobytes(), where
                        assert depth.tobytes() == alone_depth.tobytes(), where

    def test_trajectory_blocks_match_per_frame_renders(self):
        # a trajectory longer than one render block, on a noisy profile
        profile = get_profile("sensor2-gel3").replace(noise_sigma=1.5)
        pose = sen.ToolPose(x=1.0, roll=10.0)
        samples = ds.run_indentation("big_sphere", pose, profile, step=0.05, rng_seed=4)
        assert len(samples) > 2 * ds._BLOCK
        axis_z = euler_to_matrix(pose.roll, pose.pitch, pose.yaw)[2, 2]
        for j, s in enumerate(samples, start=1):
            contact = sen.compute_contact(get_indenter("big_sphere"), pose, j * 0.05 * axis_z,
                                          profile)
            image, depth = sen.render_tactile(contact, profile, rng_seed=(4, j))
            assert s.image.tobytes() == image.tobytes(), j
            assert s.depth.tobytes() == depth.tobytes(), j

    def test_needs_one_grid_and_seeds_for_noise(self):
        profile = get_profile("digit")
        native = sen.compute_contact(get_indenter("cube"), center_pose(), 0.5, profile)
        fine = sen.compute_contact(get_indenter("cube"), center_pose(), 0.5, profile, scale=2)
        with pytest.raises(ContractError):
            sen.render_contacts([native, fine], profile)
        with pytest.raises(ContractError):
            sen.render_contacts([], profile)
        noisy = profile.replace(noise_sigma=1.0)
        with pytest.raises(ContractError):
            sen.render_contacts([native, native], noisy, [1, None])


class TestForceInversion:
    DIGIT = get_profile("digit")

    def test_round_trips_the_foundation_load(self):
        for name in ("big_sphere", "cube", "cone", "ring"):
            tool = get_indenter(name)
            pose = center_pose(x=0.5, y=-0.25, yaw=20.0)
            for fz in (0.3, 0.9, 1.5):  # the cone takes 1.77 N at full depth
                d = sen.depth_for_normal_force(tool, pose, self.DIGIT, fz)
                contact = sen.compute_contact(tool, pose, d, profile=self.DIGIT)
                load = self.DIGIT.normal_stiffness * contact.displaced_volume
                assert load == pytest.approx(fz, rel=1e-9), name

    def test_same_depth_after_cache_clear(self):
        tool, pose = get_indenter("cube"), center_pose(x=1.0, yaw=15.0)
        cached = [sen.depth_for_normal_force(tool, pose, self.DIGIT, fz) for fz in (0.5, 3.0)]
        sen._inversion_table.cache_clear()
        fresh = [sen.depth_for_normal_force(tool, pose, self.DIGIT, fz) for fz in (0.5, 3.0)]
        assert cached == fresh

    def test_one_simulation_per_tool_pose_profile(self, monkeypatch):
        calls = []

        def counting_contact(*args, compute_contact=sen.compute_contact, **kwargs):
            calls.append(args[:2])
            return compute_contact(*args, **kwargs)

        monkeypatch.setattr(sen, "compute_contact", counting_contact)
        sen._inversion_table.cache_clear()
        try:
            tool = get_indenter("big_sphere")
            for fz in (0.2, 1.0, 4.0, 1.0):
                sen.depth_for_normal_force(tool, center_pose(), self.DIGIT, fz)
            sen.depth_for_normal_force(tool, center_pose(y=1.0), self.DIGIT, 1.0)
        finally:
            sen._inversion_table.cache_clear()
        assert len(calls) == 2

    def test_cached_tables_are_read_only(self):
        csum, engaged_at, _, _ = sen._inversion_table(get_indenter("wedge"), center_pose(),
                                                      self.DIGIT)
        assert not csum.flags.writeable and not engaged_at.flags.writeable
        with pytest.raises(ValueError):
            csum[0] = 1.0

    def test_rejections(self):
        tool = get_indenter("cube")
        with pytest.raises(ContractError, match="untilted"):
            sen.depth_for_normal_force(tool, center_pose(roll=2.0), self.DIGIT, 1.0)
        with pytest.raises(ContractError, match="negative"):
            sen.depth_for_normal_force(tool, center_pose(), self.DIGIT, -1.0)
        assert sen.depth_for_normal_force(tool, center_pose(x=20.0), self.DIGIT, 0.0) == 0.0
        with pytest.raises(SafetyError, match="safe"):
            sen.depth_for_normal_force(tool, center_pose(x=20.0), self.DIGIT, 1.0)
        with pytest.raises(SafetyError, match="more volume"):
            sen.depth_for_normal_force(tool, center_pose(), self.DIGIT, 1e4)
