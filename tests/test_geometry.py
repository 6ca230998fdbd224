"""Rotation conventions and rigid registration."""

import numpy as np
import pytest

from tacforce import geometry as geo
from tacforce.errors import ContractError, DegenerateInputError


class TestRotations:
    def test_axis_rotations_are_proper(self):
        for rot in (geo.rot_x(33.0), geo.rot_y(-71.0), geo.rot_z(190.0)):
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_rot_x_maps_y_to_z(self):
        np.testing.assert_allclose(geo.rot_x(90.0) @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    def test_rot_z_maps_x_to_y(self):
        np.testing.assert_allclose(geo.rot_z(90.0) @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_euler_composition_order(self):
        r, p, y = 12.0, -25.0, 140.0
        expected = geo.rot_z(y) @ geo.rot_y(p) @ geo.rot_x(r)
        np.testing.assert_allclose(geo.euler_to_matrix(r, p, y), expected, atol=1e-14)

    def test_extra_yaw_composes_on_the_left(self):
        base = geo.euler_to_matrix(10.0, 20.0, 30.0)
        spun = geo.euler_to_matrix(10.0, 20.0, 30.0 + 77.0)
        np.testing.assert_allclose(spun, geo.rot_z(77.0) @ base, atol=1e-12)

    def test_zero_angles_are_identity(self):
        np.testing.assert_array_equal(geo.euler_to_matrix(0.0, 0.0, 0.0), np.eye(3))


class TestRigidTransform:
    def test_apply_single_and_batch(self):
        t = geo.RigidTransform(geo.rot_z(90.0), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)
        batch = t.apply(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        np.testing.assert_allclose(batch, [[1, 1, 0], [0, 0, 0]], atol=1e-12)


def rms_residual(transform, a, b):
    """RMS distance between transformed A points and their B partners."""
    diff = transform.apply(a) - b
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


class TestRegistration:
    def make_pair(self, seed, n=8, noise=0.0):
        rng = np.random.default_rng(seed)
        truth = geo.RigidTransform(geo.euler_to_matrix(*rng.uniform(-90, 90, size=3)),
                                   rng.normal(size=3) * 5)
        a = rng.normal(size=(n, 3)) * 10
        b = truth.apply(a) + rng.normal(size=(n, 3)) * noise
        return truth, a, b

    def test_exact_recovery(self):
        truth, a, b = self.make_pair(11)
        fit = geo.register_frames(a, b)
        np.testing.assert_allclose(fit.rotation, truth.rotation, atol=1e-9)
        np.testing.assert_allclose(fit.translation, truth.translation, atol=1e-9)
        assert rms_residual(fit, a, b) < 1e-9

    def test_minimal_three_points(self):
        truth, a, b = self.make_pair(12, n=3)
        fit = geo.register_frames(a, b)
        assert rms_residual(fit, a, b) < 1e-9
        np.testing.assert_allclose(fit.rotation, truth.rotation, atol=1e-8)

    def test_noisy_fit_stays_close(self):
        truth, a, b = self.make_pair(13, n=40, noise=0.01)
        fit = geo.register_frames(a, b)
        assert rms_residual(fit, a, b) < 0.05
        np.testing.assert_allclose(fit.rotation, truth.rotation, atol=1e-2)

    def test_result_is_proper_rotation(self):
        # near-planar clouds tempt the SVD toward a reflection
        rng = np.random.default_rng(14)
        a = rng.normal(size=(12, 3))
        a[:, 2] *= 1e-4
        b = geo.RigidTransform(geo.euler_to_matrix(5.0, 88.0, -30.0), [1, 1, 1]).apply(a)
        fit = geo.register_frames(a, b)
        assert np.linalg.det(fit.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            geo.register_frames(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_points(self):
        line = np.outer(np.arange(5.0), [1.0, 2.0, 0.5])
        with pytest.raises(DegenerateInputError):
            geo.register_frames(line, line)

    def test_shape_mismatch(self):
        with pytest.raises(DegenerateInputError):
            geo.register_frames(np.zeros((4, 3)), np.zeros((5, 3)))


class TestPoseRangeFields:
    @pytest.mark.parametrize("field", ["x", "y", "roll", "pitch", "yaw"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_field_named(self, field, value):
        with pytest.raises(ContractError, match=f"pose range {field} "):
            geo.PoseRange(**{field: value})
