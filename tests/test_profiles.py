"""Profile registry and backgrounds."""

import numpy as np
import pytest
from scipy import ndimage

from tacforce import profiles as prof
from tacforce import resample
from tacforce.errors import ContractError


class TestRegistry:
    def test_builtin_count_and_names(self):
        assert len(prof.PROFILE_NAMES) == 10
        assert "sensor1-gel1" in prof.PROFILE_NAMES
        assert "sensor3-gel3" in prof.PROFILE_NAMES
        assert "digit" in prof.PROFILE_NAMES

    def test_ids_are_stable(self):
        assert [prof.PROFILE_IDS[n] for n in prof.PROFILE_NAMES] == list(range(10))

    def test_unknown_profile(self):
        with pytest.raises(KeyError, match="unknown profile"):
            prof.get_profile("sensor9-gel9")

    def test_gels_share_optics_differ_in_stiffness(self):
        a = prof.get_profile("sensor1-gel1")
        b = prof.get_profile("sensor1-gel2")
        assert a.lights == b.lights
        assert a.normal_stiffness != b.normal_stiffness

    def test_sensors_share_gel_differ_in_lights(self):
        a = prof.get_profile("sensor1-gel1")
        b = prof.get_profile("sensor2-gel1")
        assert a.normal_stiffness == b.normal_stiffness
        assert a.lights != b.lights

    def test_digit_is_two_lights_double_stiffness(self):
        d = prof.get_profile("digit")
        g1 = prof.get_profile("sensor1-gel1")
        assert len(d.lights) == 2
        assert d.normal_stiffness == pytest.approx(2.0 * g1.normal_stiffness)

    def test_grid_geometry(self):
        p = prof.get_profile("sensor1-gel1")
        assert (p.width_px, p.height_px) == (64, 48)
        assert (p.width_mm, p.height_mm) == (24.0, 18.0)
        assert p.pixel_pitch == pytest.approx(0.375)
        assert p.pixel_area == pytest.approx(0.375 ** 2)

    def test_invariants_enforced(self):
        base = prof.get_profile("sensor1-gel1")
        with pytest.raises(ContractError, match="stiffness"):
            base.replace(normal_stiffness=0.0)
        with pytest.raises(ContractError, match="quantum"):
            base.replace(force_quantum=0.0)
        with pytest.raises(ContractError, match="two lights"):
            base.replace(lights=base.lights[:1])
        with pytest.raises(ContractError, match="square"):
            base.replace(height_mm=20.0)


class TestLights:
    def test_direction_is_unit(self):
        for p in prof.PROFILES.values():
            for lt in p.lights:
                assert np.linalg.norm(lt.direction()) == pytest.approx(1.0)

    def test_direction_points_down_for_raised_lights(self):
        lt = prof.Light(azimuth=45.0, elevation=30.0, color=(1, 1, 1), gain=1.0)
        assert lt.direction()[2] < 0.0

    @pytest.mark.parametrize("elevation", [0.0, -10.0, 90.5])
    def test_lights_must_shine_down(self, elevation):
        with pytest.raises(ContractError, match="elevation"):
            prof.Light(azimuth=0.0, elevation=elevation, color=(1, 1, 1), gain=1.0)

    def test_source_side_sign(self):
        # a light at azimuth 0 sits on +x and travels toward -x
        lt = prof.Light(azimuth=0.0, elevation=20.0, color=(1, 1, 1), gain=1.0)
        d = lt.direction()
        assert d[0] < 0.0
        assert d[1] == pytest.approx(0.0, abs=1e-12)


class TestBackground:
    def test_shape_dtype_determinism(self):
        p = prof.get_profile("sensor1-gel1")
        a = p.background(48, 64)
        b = p.background(48, 64)
        assert a.shape == (48, 64, 3)
        assert a.dtype == np.uint8
        np.testing.assert_array_equal(a, b)

    def test_default_shape_follows_grid(self):
        p = prof.get_profile("sensor1-gel1")
        assert p.background().shape == (48, 64, 3)

    def test_profiles_get_distinct_patterns(self):
        imgs = [prof.get_profile(n).background(48, 64) for n in prof.PROFILE_NAMES]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                assert not np.array_equal(imgs[i], imgs[j])

    def test_gel_sets_brightness_order(self):
        means = [
            prof.get_profile(f"sensor1-gel{g}").background(48, 64).mean()
            for g in (1, 2, 3)
        ]
        assert means[0] < means[1] < means[2]

    def test_supersampled_shapes(self):
        p = prof.get_profile("sensor2-gel2")
        img = p.background(96, 128)
        assert img.shape == (96, 128, 3)


def reference_clouds(coarse, height, width):
    return ndimage.zoom(coarse, (height / coarse.shape[0], width / coarse.shape[1], 1.0),
                        order=1, mode="nearest", grid_mode=True)


class TestZoom:
    """The background's bilinear stretch is ndimage.zoom's (order 1, mode
    "nearest", grid mode), bit for bit."""

    # every height and width from 1 to 96 against a stride of 11 on the
    # other axis: down- and upsampling, odd ratios and the identity
    SHAPES = sorted({(a, b) for a in range(1, 97) for b in range(1, 97, 11)}
                    | {(b, a) for a in range(1, 97) for b in range(1, 97, 11)}
                    | {(6, 8)})

    def zoom(self, coarse, height, width):
        rows, cols, planes = coarse.shape
        plan = resample.tap_plan(prof._zoom_coords(rows, height), rows,
                                 prof._zoom_coords(cols, width), cols)
        return resample.resize(coarse.reshape(rows * cols, planes),
                               plan).reshape(height, width, planes)

    def test_matches_ndimage_zoom_over_shapes(self):
        coarse = np.random.default_rng(7).uniform(-1.0, 1.0, size=(6, 8, 3))
        for h, w in self.SHAPES:
            assert self.zoom(coarse, h, w).tobytes() == reference_clouds(coarse, h, w).tobytes()

    def test_matches_ndimage_zoom_with_zeros(self):
        # signed zeros too; at an unchanged shape ndimage returns its input
        # as it is, -0.0 included, where the taps sum to +0.0 (a uniform draw
        # on [-1, 1) is -1 + 2u, never -0.0, so backgrounds never differ)
        coarse = np.random.default_rng(8).uniform(-1.0, 1.0, size=(6, 8, 3))
        coarse[::2, ::3] = -0.0
        coarse[1::3, 1::2] = 0.0
        for h, w in self.SHAPES:
            got, ref = self.zoom(coarse, h, w), reference_clouds(coarse, h, w)
            if (h, w) == coarse.shape[:2]:
                assert np.array_equal(got, ref) and not np.signbit(got).any(where=got == 0)
            else:
                assert got.tobytes() == ref.tobytes(), (h, w)

    @pytest.mark.parametrize("name", prof.PROFILE_NAMES)
    def test_every_background_byte_equal(self, name):
        p = prof.get_profile(name)
        coarse = np.random.default_rng(p.background_seed).uniform(-1.0, 1.0, size=(6, 8, 3))
        for h, w in ((48, 64), (32, 32), (96, 128), (7, 5), (1, 1)):
            clouds = reference_clouds(coarse, h, w)
            ref = np.rint(np.clip(p.background_level + p.background_amplitude * clouds,
                                  0.0, 1.0) * 255.0).astype(np.uint8)
            assert p.background(h, w).tobytes() == ref.tobytes(), (h, w)
