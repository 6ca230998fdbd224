"""Rotations, rigid transforms, and frame registration.

Angles are degrees everywhere at the API surface. The Euler convention
is extrinsic x-y-z: R = Rz(yaw) @ Ry(pitch) @ Rx(roll), so an extra yaw
composes on the left and spins the tool about the sensor normal without
changing its tilt.
"""

import dataclasses

import numpy as np

from .errors import ContractError, DegenerateInputError


def rot_x(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg):
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_matrix(roll, pitch, yaw):
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), angles in degrees."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


class RigidTransform:
    """Rotation-plus-translation map p -> R p + t."""

    def __init__(self, rotation=None, translation=None):
        self.rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=np.float64)
        self.translation = (
            np.zeros(3) if translation is None else np.asarray(translation, dtype=np.float64)
        )

    @classmethod
    def from_euler(cls, roll, pitch, yaw, translation=None):
        return cls(euler_to_matrix(roll, pitch, yaw), translation)

    def apply(self, points):
        """Transform one point (3,) or many (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def __repr__(self):
        return f"RigidTransform(t={self.translation.round(6).tolist()})"


def wrap_angle(deg):
    """Fold an angle in degrees into (-180, 180]."""
    wrapped = (float(deg) + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


@dataclasses.dataclass(frozen=True)
class PoseRange:
    """Symmetric bounds on tool placement over the pad.

    ``x`` and ``y`` cap the lateral offset in mm, ``roll`` and ``pitch``
    cap the tilt angles in degrees (at most 30 each, so the tool axis
    never comes close to grazing the gel), and ``yaw`` caps the spin
    about the tool axis (at most a half turn, which covers every
    distinct orientation up to symmetry).
    """

    x: float = 4.0
    y: float = 4.0
    roll: float = 10.0
    pitch: float = 10.0
    yaw: float = 180.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0 <= value < np.inf:
                raise ContractError(f"pose range {field.name} must be finite and "
                                    f"non-negative, got {value}")
        if self.roll > 30.0 or self.pitch > 30.0:
            raise ContractError("tilt ranges are capped at 30 degrees")
        if self.yaw > 180.0:
            raise ContractError("yaw range is capped at 180 degrees")

    def contains(self, x, y, roll, pitch, yaw):
        """True when the pose lies inside the box (yaw compared modulo 360)."""
        return (
            abs(x) <= self.x
            and abs(y) <= self.y
            and abs(roll) <= self.roll
            and abs(pitch) <= self.pitch
            and abs(wrap_angle(yaw)) <= self.yaw
        )


def register_frames(points_a, points_b):
    """Best-fit rigid transform mapping frame-A points onto frame-B points.

    Solves min_R,t sum ||R a_i + t - b_i||^2 by the SVD of the cross
    covariance of the centered point sets, with the usual determinant
    sign fix so the result is a proper rotation. Needs >= 3 points that
    are not collinear.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise DegenerateInputError(f"need matching (N,3) point sets, got {a.shape} and {b.shape}")
    if a.shape[0] < 3:
        raise DegenerateInputError("need at least 3 point pairs for a unique rigid fit")

    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    a0 = a - ca
    b0 = b - cb

    # collinearity check: second singular value of the centered cloud
    sv = np.linalg.svd(a0, compute_uv=False)
    if sv[1] < 1e-9 * max(sv[0], 1e-30) or sv[0] == 0.0:
        raise DegenerateInputError("points are collinear; rotation about their axis is free")

    h = a0.T @ b0
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    diag = np.diag([1.0, 1.0, d])
    rot = vt.T @ diag @ u.T
    t = cb - rot @ ca
    return RigidTransform(rot, t)


def registration_residual(transform, points_a, points_b):
    """RMS distance between transformed A points and their B partners."""
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    diff = transform.apply(a) - b
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
