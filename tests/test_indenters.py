"""Cross-checks between the two geometric views of every tool.

`contains` (raw inequalities) is treated as ground truth; `line_min`
entry points must agree with it, and the support function must
dominate every inside point.
"""

import numpy as np
import pytest

from tacforce import indenters as ind


ALL_NAMES = list(ind.INDENTER_NAMES)


@pytest.fixture(params=ALL_NAMES)
def tool(request):
    return ind.get_indenter(request.param)


def sample_box_points(rng, n=4000):
    pts = np.empty((n, 3))
    pts[:, 0] = rng.uniform(-11.0, 11.0, size=n)
    pts[:, 1] = rng.uniform(-11.0, 11.0, size=n)
    pts[:, 2] = rng.uniform(-3.0, 13.0, size=n)
    return pts


class TestCatalog:
    def test_names_and_ids_stable(self):
        assert ALL_NAMES == [
            "big_sphere", "small_sphere", "cylinder", "triple_cylinder",
            "ring", "cross", "cube", "cone", "wedge", "ellipsoid",
        ]
        assert [ind.INDENTER_IDS[n] for n in ALL_NAMES] == list(range(10))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown indenter"):
            ind.get_indenter("banana")


class TestCanonicalPlacement:
    def test_tip_touches_origin_plane(self, tool):
        # lowest point of every canonical tool is exactly at z = 0
        assert tool.support(np.array([0.0, 0.0, -1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_nothing_below_plane(self, tool):
        rng = np.random.default_rng(5)
        pts = sample_box_points(rng)
        below = pts[pts[:, 2] < -1e-9]
        assert not tool.contains(below).any()

    def test_diameter_at_most_twenty(self, tool):
        rng = np.random.default_rng(6)
        pts = sample_box_points(rng, n=6000)
        inside = pts[tool.contains(pts)]
        assert len(inside) > 30
        # max pairwise distance of inside samples
        diff = inside[:, None, :] - inside[None, :, :]
        diam = np.sqrt((diff**2).sum(-1)).max()
        assert diam <= 20.0


class TestSupport:
    def test_support_dominates_inside_points(self, tool):
        rng = np.random.default_rng(8)
        pts = sample_box_points(rng)
        inside = pts[tool.contains(pts)]
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert tool.support(u) >= (inside @ u).max() - 1e-9

    def test_support_is_tight_somewhere(self, tool):
        # the supporting value must be attained by the solid (within the
        # resolution of a dense boundary sampling through line queries)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            h = tool.support(u)
            # walk lines along -u from a far plane; entries give surface points
            grid = np.linspace(-12, 12, 41)
            gx, gy = np.meshgrid(grid, grid)
            # line_min covers the whole line, so the anchor's distance
            # along u moves no hit point; 25 mm clears every tool, since
            # each lies within 20 mm of its tip
            anchor = u * 25.0
            e1 = np.cross(u, [1.0, 0.3, 0.2])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(u, e1)
            origins = anchor + gx.ravel()[:, None] * e1 + gy.ravel()[:, None] * e2
            hit, smin = tool.line_min(origins, -u)
            if not hit.any():
                continue
            pts = origins[hit] + smin[hit, None] * (-u)
            attained = (pts @ u).max()
            assert attained <= h + 1e-9
            assert attained >= h - 0.8  # sampling slack on curved rims


class TestLineQueries:
    def test_entry_points_lie_on_the_boundary(self, tool):
        rng = np.random.default_rng(13)
        origins = sample_box_points(rng, n=2500)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        hit, smin = tool.line_min(origins, direction)
        pts = origins[hit] + smin[hit, None] * direction
        assert len(pts) > 20
        # line_min is the first inside parameter: just before the entry
        # the line is outside, just after it inside
        eps = 1e-7
        assert not tool.contains(pts - eps * direction).any()
        assert tool.contains(pts + eps * direction).all()

    def test_matches_brute_force_scan(self, tool):
        rng = np.random.default_rng(14)
        origins = sample_box_points(rng, n=300)
        origins[:, 2] = -2.0
        direction = np.array([0.05, -0.02, 1.0])
        direction /= np.linalg.norm(direction)
        hit, smin = tool.line_min(origins, direction)
        step = 0.01
        svals = np.arange(0.0, 18.0, step)
        for i in range(len(origins)):
            probe = origins[i] + svals[:, None] * direction
            scan = tool.contains(probe)
            if scan.any():
                s_first = svals[scan.argmax()]
                assert hit[i]
                assert smin[i] <= s_first + 1e-9
                assert smin[i] >= s_first - step - 1e-9

    def test_inside_origin_gives_nonpositive_entry(self, tool):
        rng = np.random.default_rng(15)
        pts = sample_box_points(rng)
        inside = pts[tool.contains(pts)][:200]
        hit, smin = tool.line_min(inside, np.array([0.0, 0.0, 1.0]))
        assert hit.all()
        assert (smin <= 1e-9).all()

    def test_vertical_miss_far_away(self, tool):
        origins = np.array([[50.0, 50.0, -5.0], [-40.0, 0.0, -5.0]])
        hit, smin = tool.line_min(origins, np.array([0.0, 0.0, 1.0]))
        assert not hit.any()
        assert np.isnan(smin).all()


class TestSpecificShapes:
    def test_sphere_vertical_entry_closed_form(self):
        sphere = ind.get_indenter("big_sphere")
        xs = np.array([0.0, 2.0, 4.0, 6.0])
        origins = np.stack([xs, np.zeros(4), np.zeros(4)], axis=1)
        hit, smin = sphere.line_min(origins, np.array([0.0, 0.0, 1.0]))
        assert hit.all()
        expected = 8.0 - np.sqrt(8.0**2 - xs**2)
        np.testing.assert_allclose(smin, expected, atol=1e-12)

    def test_ring_hole_is_open(self):
        ring = ind.get_indenter("ring")
        origins = np.array([
            [0.0, 0.0, -1.0],   # through the hole center
            [4.0, 0.0, -1.0],   # still inside the hole radius (4.5)
            [5.0, 0.0, -1.0],   # in the wall
            [6.3, 0.0, -1.0],   # outside
        ])
        hit, smin = ring.line_min(origins, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(hit, [False, False, True, False])
        assert smin[2] == pytest.approx(1.0)

    def test_ring_sideways_enters_near_wall(self):
        ring = ind.get_indenter("ring")
        origin = np.array([[-10.0, 0.0, 4.0]])
        hit, smin = ring.line_min(origin, np.array([1.0, 0.0, 0.0]))
        assert hit[0]
        assert smin[0] == pytest.approx(4.0)  # first touches the outer wall at x=-6

    def test_cone_steep_line(self):
        cone = ind.get_indenter("cone")  # base radius 5 at height 8
        origin = np.array([[3.0, 0.0, -1.0]])
        hit, smin = cone.line_min(origin, np.array([0.0, 0.0, 1.0]))
        assert hit[0]
        # the surface satisfies r = (5/8) z, so x=3 enters at z = 4.8
        assert smin[0] == pytest.approx(1.0 + 4.8)

    def test_triple_cylinder_is_union_of_parts(self):
        triple = ind.get_indenter("triple_cylinder")
        rng = np.random.default_rng(16)
        origins = sample_box_points(rng, n=800)
        direction = np.array([0.1, 0.05, 1.0])
        direction /= np.linalg.norm(direction)
        hit, smin = triple.line_min(origins, direction)
        hits = []
        mins = []
        for part in triple.parts:
            h, s = part.line_min(origins, direction)
            hits.append(h)
            mins.append(np.where(h, s, np.inf))
        any_hit = np.logical_or.reduce(hits)
        best = np.minimum.reduce(mins)
        np.testing.assert_array_equal(hit, any_hit)
        np.testing.assert_allclose(smin[hit], best[hit], atol=1e-12)

    def test_cube_face_entry(self):
        cube = ind.get_indenter("cube")
        origins = np.array([[1.0, -2.0, -3.0]])
        hit, smin = cube.line_min(origins, np.array([0.0, 0.0, 1.0]))
        assert hit[0] and smin[0] == pytest.approx(3.0)

    def test_wedge_apex_line(self):
        wedge = ind.get_indenter("wedge")
        # at x = 2 the slanted faces reach down to z = 2 / (4/6) = 3
        origins = np.array([[2.0, 0.0, 0.0]])
        hit, smin = wedge.line_min(origins, np.array([0.0, 0.0, 1.0]))
        assert hit[0] and smin[0] == pytest.approx(3.0)

    def test_ellipsoid_bottom(self):
        ell = ind.get_indenter("ellipsoid")
        origins = np.array([[0.0, 0.0, -2.0]])
        hit, smin = ell.line_min(origins, np.array([0.0, 0.0, 1.0]))
        assert hit[0] and smin[0] == pytest.approx(2.0)
