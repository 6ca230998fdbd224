"""Rigid indentation tools ("indenters") in canonical pose.

Every tool is modeled in a canonical frame with its contact tip touching
z = 0 and the body extending upward (+z). The simulator uses two
geometric views of each tool:

* ``line_min(origins, direction)``: exact line-solid intersection. For
  each line o_i + s * dir it returns the smallest parameter s inside
  the solid. This is what the contact model uses: with lines mapped
  from vertical pixel columns, -s_min is the penetration depth.
* ``support(u)``: the support function max_{x in S} u . x, used to
  place a rotated tool so its lowest point sits exactly at the
  commanded indentation depth.

``contains(points)`` evaluates the defining inequalities directly and
is the ground truth both views are tested against.
"""
import numpy as np

from .geometry import PoseRange

_EPS = 1e-12


def _intersect(a, b):
    return np.maximum(a[0], b[0]), np.minimum(a[1], b[1])


def _slab(o, u, lo, hi):
    """Interval of s with lo <= o + s*u <= hi; o per-ray, u scalar."""
    o = np.asarray(o)
    if abs(u) < _EPS:
        inside = (o >= lo) & (o <= hi)
        slo = np.where(inside, -np.inf, np.inf)
        shi = np.where(inside, np.inf, -np.inf)
        return slo, shi
    a = (lo - o) / u
    b = (hi - o) / u
    return np.minimum(a, b), np.maximum(a, b)


def _quadratic_interval(A, B, C):
    """Solutions of A s^2 + B s + C <= 0 with scalar A, per-ray B and C.

    Returns a list of candidate (lo, hi) interval arrays; for A < 0 the
    solution set has two pieces per ray.
    """
    B = np.asarray(B)
    C = np.asarray(C)
    n = B.shape[0]
    if abs(A) < _EPS:
        # linear: B s + C <= 0
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        pos = B > _EPS
        neg = B < -_EPS
        flat = ~(pos | neg)
        hi = np.where(pos, -C / np.where(pos, B, 1.0), hi)
        lo = np.where(neg, -C / np.where(neg, B, 1.0), lo)
        # B ~ 0: all of R if C <= 0, else empty
        lo = np.where(flat & (C > 0), np.inf, lo)
        hi = np.where(flat & (C > 0), -np.inf, hi)
        return [(lo, hi)]
    disc = B * B - 4.0 * A * C
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    r1 = (-B - sq) / (2.0 * A)
    r2 = (-B + sq) / (2.0 * A)
    lo_r = np.minimum(r1, r2)
    hi_r = np.maximum(r1, r2)
    if A > 0:
        # inside between the roots; no real roots -> empty
        lo = np.where(ok, lo_r, np.inf)
        hi = np.where(ok, hi_r, -np.inf)
        return [(lo, hi)]
    # A < 0: outside the roots; no real roots -> everything
    lo1 = np.full(n, -np.inf)
    hi1 = np.where(ok, lo_r, np.inf)
    lo2 = np.where(ok, hi_r, -np.inf)
    hi2 = np.full(n, np.inf)
    return [(lo1, hi1), (lo2, hi2)]


def _pieces_min(pieces):
    """Smallest s over a union of interval pieces; (hit, smin)."""
    n = pieces[0][0].shape[0]
    best = np.full(n, np.inf)
    for lo, hi in pieces:
        valid = lo <= hi
        best = np.where(valid, np.minimum(best, lo), best)
    hit = np.isfinite(best)
    return hit, np.where(hit, best, np.nan)


class Indenter:
    """Base class; concrete tools fill in the geometry hooks."""

    name = "?"

    # Widest placement envelope the contact model will accept. Tilts
    # beyond 30 degrees or offsets that slide the tool off the pad are
    # rejected as unsafe rather than simulated badly.
    safe_pose_range = PoseRange(x=8.0, y=8.0, roll=30.0, pitch=30.0, yaw=180.0)

    def line_min(self, origins, direction):
        pieces = self._line_pieces(np.asarray(origins, dtype=np.float64),
                                   np.asarray(direction, dtype=np.float64))
        return _pieces_min(pieces)

    def _line_pieces(self, o, u):
        raise NotImplementedError

    def support(self, u):
        raise NotImplementedError

    def contains(self, points):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class Sphere(Indenter):
    def __init__(self, name, radius):
        self.name = name
        self.radius = float(radius)
        self.center = np.array([0.0, 0.0, self.radius])

    def _line_pieces(self, o, u):
        rel = o - self.center
        A = float(u @ u)
        B = 2.0 * rel @ u
        C = np.sum(rel * rel, axis=1) - self.radius**2
        return _quadratic_interval(A, B, C)

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        return float(u @ self.center + self.radius * np.linalg.norm(u))

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        return np.sum((p - self.center) ** 2, axis=-1) <= self.radius**2


class Cylinder(Indenter):
    """Axis-aligned (z) cylinder, optionally offset in the xy plane."""

    def __init__(self, name, radius, height, center_xy=(0.0, 0.0)):
        self.name = name
        self.radius = float(radius)
        self.height = float(height)
        self.cx, self.cy = float(center_xy[0]), float(center_xy[1])

    def _line_pieces(self, o, u):
        rx = o[:, 0] - self.cx
        ry = o[:, 1] - self.cy
        A = float(u[0] ** 2 + u[1] ** 2)
        B = 2.0 * (rx * u[0] + ry * u[1])
        C = rx * rx + ry * ry - self.radius**2
        if A < _EPS:
            inside = C <= 0.0
            radial = (np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf))
        else:
            radial = _quadratic_interval(A, B, C)[0]
        axial = _slab(o[:, 2], u[2], 0.0, self.height)
        return [_intersect(radial, axial)]

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        r_xy = float(np.hypot(u[0], u[1]))
        return float(u[0] * self.cx + u[1] * self.cy + self.radius * r_xy
                     + max(0.0, u[2] * self.height))

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        r2 = (p[..., 0] - self.cx) ** 2 + (p[..., 1] - self.cy) ** 2
        return (r2 <= self.radius**2) & (p[..., 2] >= 0.0) & (p[..., 2] <= self.height)


class Box(Indenter):
    """Axis-aligned box |x-cx|<=hx, |y-cy|<=hy, 0<=z<=height."""

    def __init__(self, name, half_x, half_y, height, center_xy=(0.0, 0.0)):
        self.name = name
        self.hx = float(half_x)
        self.hy = float(half_y)
        self.height = float(height)
        self.cx, self.cy = float(center_xy[0]), float(center_xy[1])

    def _line_pieces(self, o, u):
        ix = _slab(o[:, 0], u[0], self.cx - self.hx, self.cx + self.hx)
        iy = _slab(o[:, 1], u[1], self.cy - self.hy, self.cy + self.hy)
        iz = _slab(o[:, 2], u[2], 0.0, self.height)
        return [_intersect(_intersect(ix, iy), iz)]

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        return float(u[0] * self.cx + u[1] * self.cy
                     + self.hx * abs(u[0]) + self.hy * abs(u[1])
                     + max(0.0, u[2] * self.height))

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        return ((np.abs(p[..., 0] - self.cx) <= self.hx)
                & (np.abs(p[..., 1] - self.cy) <= self.hy)
                & (p[..., 2] >= 0.0) & (p[..., 2] <= self.height))


class Cone(Indenter):
    """Tip-down cone: apex at the origin, base of radius r at z = height."""

    def __init__(self, name, base_radius, height):
        self.name = name
        self.base_radius = float(base_radius)
        self.height = float(height)
        self.k = self.base_radius / self.height

    def _line_pieces(self, o, u):
        k2 = self.k**2
        A = float(u[0] ** 2 + u[1] ** 2 - k2 * u[2] ** 2)
        B = 2.0 * (o[:, 0] * u[0] + o[:, 1] * u[1] - k2 * o[:, 2] * u[2])
        C = o[:, 0] ** 2 + o[:, 1] ** 2 - k2 * o[:, 2] ** 2
        quad = _quadratic_interval(A, B, C)
        axial = _slab(o[:, 2], u[2], 0.0, self.height)
        return [_intersect(piece, axial) for piece in quad]

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        base = self.base_radius * float(np.hypot(u[0], u[1])) + u[2] * self.height
        return float(max(0.0, base))

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        r2 = p[..., 0] ** 2 + p[..., 1] ** 2
        z = p[..., 2]
        return (z >= 0.0) & (z <= self.height) & (r2 <= (self.k * z) ** 2)


class Wedge(Indenter):
    """Tip-down triangular prism: apex edge along y at z=0, flat top.

    Cross-section widens linearly: |x| <= (half_width/height) * z.
    """

    def __init__(self, name, half_width, half_length, height):
        self.name = name
        self.hw = float(half_width)
        self.hl = float(half_length)
        self.height = float(height)
        self.m = self.hw / self.height

    def _line_pieces(self, o, u):
        # two slanted half-spaces x <= m z and -x <= m z, plus y and z slabs
        inv = np.hypot(1.0, self.m)
        n1 = np.array([1.0, 0.0, -self.m]) / inv   # x - m z <= 0
        n2 = np.array([-1.0, 0.0, -self.m]) / inv  # -x - m z <= 0
        h1 = _halfspace(o, u, n1, 0.0)
        h2 = _halfspace(o, u, n2, 0.0)
        iy = _slab(o[:, 1], u[1], -self.hl, self.hl)
        iz = _slab(o[:, 2], u[2], 0.0, self.height)
        return [_intersect(_intersect(h1, h2), _intersect(iy, iz))]

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        verts = np.array([
            [0.0, -self.hl, 0.0],
            [0.0, self.hl, 0.0],
            [self.hw, -self.hl, self.height],
            [self.hw, self.hl, self.height],
            [-self.hw, -self.hl, self.height],
            [-self.hw, self.hl, self.height],
        ])
        return float((verts @ u).max())

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        z = p[..., 2]
        return ((z >= 0.0) & (z <= self.height)
                & (np.abs(p[..., 0]) <= self.m * z)
                & (np.abs(p[..., 1]) <= self.hl))


def _halfspace(o, u, normal, offset):
    """Interval of s with normal . (o + s u) <= offset."""
    num = offset - o @ normal
    den = float(u @ normal)
    n = o.shape[0]
    if abs(den) < _EPS:
        inside = num >= 0.0
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    s = num / den
    if den > 0:
        return np.full(n, -np.inf), s
    return s, np.full(n, np.inf)


class Ellipsoid(Indenter):
    """Ellipsoid with semi-axes (a, b, c), resting its lowest point on z=0."""

    def __init__(self, name, semi_axes):
        self.name = name
        self.axes = np.asarray(semi_axes, dtype=np.float64)
        self.center = np.array([0.0, 0.0, self.axes[2]])

    def _line_pieces(self, o, u):
        rel = (o - self.center) / self.axes
        us = u / self.axes
        A = float(us @ us)
        B = 2.0 * rel @ us
        C = np.sum(rel * rel, axis=1) - 1.0
        return _quadratic_interval(A, B, C)

    def support(self, u):
        u = np.asarray(u, dtype=np.float64)
        return float(u @ self.center + np.linalg.norm(self.axes * u))

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        rel = (p - self.center) / self.axes
        return np.sum(rel * rel, axis=-1) <= 1.0


class Union(Indenter):
    """Union of parts; used for the cross and the triple cylinder."""

    def __init__(self, name, parts):
        self.name = name
        self.parts = list(parts)

    def _line_pieces(self, o, u):
        pieces = []
        for part in self.parts:
            pieces.extend(part._line_pieces(o, u))
        return pieces

    def support(self, u):
        return max(part.support(u) for part in self.parts)

    def contains(self, points):
        out = self.parts[0].contains(points)
        for part in self.parts[1:]:
            out = out | part.contains(points)
        return out


class Ring(Indenter):
    """Hollow cylinder: outer radius minus a concentric through-hole."""

    def __init__(self, name, outer_radius, inner_radius, height):
        self.name = name
        self.outer = Cylinder(name + ".outer", outer_radius, height)
        self.inner_radius = float(inner_radius)
        self.height = float(height)
        self.outer_radius = float(outer_radius)

    def _line_pieces(self, o, u):
        (outer,) = self.outer._line_pieces(o, u)
        a0, a1 = outer
        # the hole is an infinite cylinder; within the outer slab that is exact
        A = float(u[0] ** 2 + u[1] ** 2)
        B = 2.0 * (o[:, 0] * u[0] + o[:, 1] * u[1])
        C = o[:, 0] ** 2 + o[:, 1] ** 2 - self.inner_radius**2
        if A < _EPS:
            in_hole = C <= 0.0
            b0 = np.where(in_hole, -np.inf, np.inf)
            b1 = np.where(in_hole, np.inf, -np.inf)
        else:
            b0, b1 = _quadratic_interval(A, B, C)[0]
        # subtract [b0, b1]: pieces [a0, min(a1,b0)] and [max(a0,b1), a1]
        p1 = (a0, np.minimum(a1, b0))
        p2 = (np.maximum(a0, b1), a1)
        return [p1, p2]

    def support(self, u):
        return self.outer.support(u)

    def contains(self, points):
        p = np.asarray(points, dtype=np.float64)
        r2 = p[..., 0] ** 2 + p[..., 1] ** 2
        return self.outer.contains(p) & (r2 >= self.inner_radius**2)


def _make_catalog():
    tools = [
        Sphere("big_sphere", radius=8.0),
        Sphere("small_sphere", radius=3.0),
        Cylinder("cylinder", radius=4.0, height=10.0),
        Union("triple_cylinder", [
            Cylinder("triple_cylinder.0", 1.8, 10.0,
                     center_xy=(5.0 * np.cos(np.deg2rad(a)), 5.0 * np.sin(np.deg2rad(a))))
            for a in (90.0, 210.0, 330.0)
        ]),
        Ring("ring", outer_radius=6.0, inner_radius=4.5, height=8.0),
        Union("cross", [
            Box("cross.x", half_x=7.0, half_y=2.0, height=6.0),
            Box("cross.y", half_x=2.0, half_y=7.0, height=6.0),
        ]),
        Box("cube", half_x=5.0, half_y=5.0, height=10.0),
        Cone("cone", base_radius=5.0, height=8.0),
        Wedge("wedge", half_width=4.0, half_length=6.0, height=6.0),
        Ellipsoid("ellipsoid", semi_axes=(6.0, 4.0, 3.0)),
    ]
    return {t.name: t for t in tools}


CATALOG = _make_catalog()
INDENTER_NAMES = tuple(CATALOG)
INDENTER_IDS = {name: i for i, name in enumerate(INDENTER_NAMES)}


def get_indenter(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown indenter {name!r}; choices: {', '.join(INDENTER_NAMES)}") from None

