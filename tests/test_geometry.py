"""Geometry: projections, intersections, and the Monte-Carlo area oracles."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdof.geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Rings,
    Segment,
    ShadowInterval,
    ShadowPolygon,
    Sphere,
    circle_intersection_area,
    clip_rings,
    convex_polygon_intersection,
    direction_frames,
    interval_intersection,
    mesh_plate,
    mesh_sphere,
    ordered_map,
    polygon_area,
    project_rings,
    project_shape_2d,
    project_shape_3d,
    ring_areas,
    union_area,
    union_length,
)
from oracles import mc_lens_area, mc_polygon_intersection_area, random_convex_polygon

UNIT_SQUARE = ShadowPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def square_at(x0, y0, side=1.0):
    return ShadowPolygon(np.array([
        [x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]]))


# ---------------------------------------------------------------------------
# Projections


def test_segment_projection_edge_on_and_broadside():
    seg = Segment([0.0, 0.0], [1.0, 0.0])
    # direction along the segment: shadow degenerates to a point
    assert project_shape_2d(seg, Direction(0.0)).length == pytest.approx(0.0, abs=1e-15)
    # broadside illumination: full length
    assert project_shape_2d(seg, Direction(math.pi / 2)).length == pytest.approx(1.0)


def test_disc_projection_any_direction():
    disc = Disc([0.0, 0.0], 0.7)
    for phi in np.linspace(0, 2 * math.pi, 17):
        iv = project_shape_2d(disc, Direction(float(phi)))
        assert iv.lo == pytest.approx(-0.7)
        assert iv.hi == pytest.approx(0.7)


def test_diagonal_segment_projection():
    seg = Segment([0.0, 0.0], [1.0, 1.0])
    assert project_shape_2d(seg, Direction(0.0)).length == pytest.approx(1.0)


def test_sphere_shadow_is_polygonized_disc():
    sph = Sphere([0.3, -0.2, 1.4], 0.9)
    shadow = project_shape_3d(sph, Direction(0.7, theta=1.1))
    target = math.pi * 0.9**2
    assert shadow.area == pytest.approx(target, rel=2e-4)
    # refinement converges to the disc area
    fine = project_shape_3d(sph, Direction(0.7, theta=1.1), n_arc=4096)
    assert fine.area == pytest.approx(target, rel=1e-6)


def test_plate_shadow_normal_and_edge_on():
    plate = PlanarPolygon(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [0.0, 0.0, 1.0])
    assert project_shape_3d(plate, Direction(0.0, theta=0.0)).area == pytest.approx(1.0)
    edge_on = project_shape_3d(plate, Direction(0.0, theta=math.pi / 2))
    assert edge_on.is_empty
    assert edge_on.area == 0.0


@pytest.mark.parametrize("shape", [
    PlanarPolygon([[0, 0, 0], [1, 0, 0], [1.2, 0.8, 0], [0.1, 1, 0]], [0.0, 0.0, 1.0]),
    Sphere([0.3, -0.2, 1.4], 0.9),
    mesh_sphere([0.1, 0.0, 2.0], 0.5, 0.3),
], ids=["plate", "sphere", "mesh"])
def test_batched_projection_rows_match_single_directions(shape):
    # random directions plus both poles and an edge-on one for the plate
    rng = np.random.default_rng(3)
    angles = np.column_stack([rng.uniform(0, math.pi, 40), rng.uniform(0, 2 * math.pi, 40)])
    angles[:3] = [[0.0, 0.4], [math.pi, 1.3], [math.pi / 2, 0.2]]
    rings = project_rings(shape, direction_frames(angles)[1])
    for n, (theta, phi) in enumerate(angles):
        one = project_shape_3d(shape, Direction(float(phi), float(theta)))
        count = 0 if one.is_empty else one.vertices.shape[0]
        assert rings.count[n] == count
        column = rings.z[:, n]
        # vertex for vertex, then copies of the last vertex
        assert np.array_equal(column.real[:count], one.vertices[:, 0])
        assert np.array_equal(column.imag[:count], one.vertices[:, 1])
        if count:
            assert np.all(column[count:] == column[count - 1])


def test_projection_direction_sign_invariance():
    rng = np.random.default_rng(5)
    shapes2 = [Segment([0, 0], [1, 0.4]), Disc([0.5, -1.0], 0.3),
               ConvexPolygon(random_convex_polygon(rng))]
    for s in shapes2:
        for phi in rng.random(8) * 2 * math.pi:
            a = project_shape_2d(s, Direction(float(phi)))
            b = project_shape_2d(s, Direction(float((phi + math.pi) % (2 * math.pi))))
            assert a.length == pytest.approx(b.length, abs=1e-12)
    sph = Sphere([0.2, 0.1, 0.9], 0.5)
    plate = PlanarPolygon([[0, 0, 0], [1, 0, 0], [1, 1, 0.0], [0, 1, 0]], [0, 0, 1.0])
    for s3 in (sph, plate):
        for _ in range(8):
            theta = float(rng.random() * math.pi)
            phi = float(rng.random() * 2 * math.pi)
            a = project_shape_3d(s3, Direction(phi, theta=theta))
            b = project_shape_3d(
                s3, Direction((phi + math.pi) % (2 * math.pi), theta=math.pi - theta))
            assert a.area == pytest.approx(b.area, abs=1e-10)


# ---------------------------------------------------------------------------
# Interval intersection


def test_interval_intersections():
    iv = lambda a, b: ShadowInterval(a, b)
    assert interval_intersection(iv(0, 1), iv(0.5, 2)).length == pytest.approx(0.5)
    touching = interval_intersection(iv(0, 1), iv(1, 2))
    assert touching.length == 0.0 and touching.is_empty
    assert interval_intersection(iv(0, 2), iv(0.5, 1)).length == pytest.approx(0.5)


def test_interval_union_length():
    def union(*intervals):
        bounds = np.array(intervals, dtype=float).reshape(1, -1, 2)
        return float(union_length(bounds[..., 0], bounds[..., 1])[0])

    assert union((0, 1), (0.5, 2), (3, 4)) == pytest.approx(3.0)
    # an interval inside an earlier one adds nothing, and neither shortens the reach
    assert union((1, 2), (0, 5), (3, 4)) == pytest.approx(5.0)
    # an empty interval (hi <= lo) adds nothing
    assert union((1, 1)) == 0.0 and union((2, 1)) == 0.0


# ---------------------------------------------------------------------------
# Polygon intersection


def test_identical_squares():
    out = convex_polygon_intersection(UNIT_SQUARE, UNIT_SQUARE)
    assert out.area == pytest.approx(1.0, rel=1e-12)


def test_offset_squares():
    out = convex_polygon_intersection(UNIT_SQUARE, square_at(0.5, 0.5))
    assert out.area == pytest.approx(0.25, rel=1e-12)


def test_touching_squares_are_empty():
    out = convex_polygon_intersection(UNIT_SQUARE, square_at(1.0, 0.0))
    assert out.is_empty


def test_random_polygon_pair_against_monte_carlo():
    rng = np.random.default_rng(42)
    va = random_convex_polygon(rng, scale=2.0)
    vb = random_convex_polygon(rng, scale=2.0, center=(0.3, -0.2))
    area = convex_polygon_intersection(ShadowPolygon(va), ShadowPolygon(vb)).area
    est, sigma = mc_polygon_intersection_area(va, vb, 1_000_000, rng)
    assert abs(area - est) < 3 * sigma + 1e-12


def test_polygon_intersection_commutative_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = ShadowPolygon(random_convex_polygon(rng, scale=1.5))
        b = ShadowPolygon(random_convex_polygon(rng, scale=1.5, center=(0.2, 0.1)))
        ab = convex_polygon_intersection(a, b).area
        ba = convex_polygon_intersection(b, a).area
        assert ab == pytest.approx(ba, rel=1e-10, abs=1e-14)
        aa = convex_polygon_intersection(a, a).area
        assert aa == pytest.approx(a.area, rel=1e-12)
        # never exceeds either operand
        assert ab <= min(a.area, b.area) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0.2, 3.0), st.floats(-1.5, 1.5))
def test_batched_clip_commutative_and_bounded(seed, n, scale, offset):
    rng = np.random.default_rng(seed)
    a = Rings.of([ShadowPolygon(random_convex_polygon(rng, int(rng.integers(3, 12)), scale))
                  for _ in range(n)])
    b = Rings.of([ShadowPolygon(random_convex_polygon(rng, int(rng.integers(3, 12)), 1.5,
                                                      center=(offset, 0.3 * offset)))
                  for _ in range(n)])
    ab = clip_rings(a, b)[1]
    ba = clip_rings(b, a)[1]
    # the absolute floor is the clip's own emptiness threshold, 1e-12 scale**2
    np.testing.assert_allclose(ab, ba, rtol=1e-12, atol=1e-11)
    assert np.all(ab <= np.minimum(ring_areas(a.z), ring_areas(b.z)) * (1 + 1e-12))


def test_batched_clip_rows_match_one_row_clips():
    # one batch mixing every kind of pair; rows die at different edges, so the
    # batch shrinks to its live rows between edges
    rng = np.random.default_rng(7)
    tri = ShadowPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))
    edge_on = ShadowPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    hexagon = ShadowPolygon(random_convex_polygon(rng, 6, 1.0, center=(0.5, 0.5)))
    pairs = [
        (UNIT_SQUARE, square_at(0.0, 3.0)),  # disjoint: dies at the first edge
        (UNIT_SQUARE, square_at(3.0, 0.0)),  # disjoint: dies at the last edge
        (UNIT_SQUARE, square_at(1.0, 0.0)),  # touching along an edge
        (UNIT_SQUARE, square_at(1.0, 1.0)),  # touching at a corner
        (UNIT_SQUARE, square_at(0.25, 0.25, 0.5)),  # nested
        (square_at(0.25, 0.25, 0.5), UNIT_SQUARE),  # nested, the other way
        (UNIT_SQUARE, UNIT_SQUARE),  # identical
        (edge_on, UNIT_SQUARE),  # edge-on: count 0
        (UNIT_SQUARE, edge_on),
        (UNIT_SQUARE, square_at(0.5, 0.3)),  # partly overlapping
        (hexagon, tri),
        (tri, square_at(0.4, -0.5)),
        (hexagon, square_at(0.5, 0.5, 2.0)),
    ]
    a, b = Rings.of([p for p, _ in pairs]), Rings.of([q for _, q in pairs])
    batch, areas = clip_rings(a, b)
    assert (areas > 0).tolist() == [False] * 4 + [True] * 3 + [False] * 2 + [True] * 4
    for row, (p, q) in enumerate(pairs):
        one, one_area = clip_rings(Rings.of([p]), Rings.of([q]))
        count = one.count[0]
        assert batch.count[row] == count
        assert np.array_equal(batch.z[:count, row], one.z[:count, 0])
        assert areas[row] == one_area[0]
        assert areas[row] == (ring_areas(one.z[:, 0]) if count else 0.0)


def test_clip_of_permuted_columns_gives_permuted_areas():
    # every column is clipped on its own: reordering the batch only reorders
    # the results, bit for bit, dead and empty columns included
    rng = np.random.default_rng(21)
    polys_a = [ShadowPolygon(random_convex_polygon(rng, int(rng.integers(3, 12)), 1.0))
               for _ in range(30)]
    polys_b = [ShadowPolygon(random_convex_polygon(rng, int(rng.integers(3, 9)), 1.0,
                                                   center=rng.uniform(-2.5, 2.5, 2)))
               for _ in range(30)]
    polys_a[4] = ShadowPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # empty
    a, b = Rings.of(polys_a), Rings.of(polys_b)
    rings, areas = clip_rings(a, b)
    assert 0 < np.count_nonzero(areas) < areas.size
    perm = rng.permutation(areas.size)
    permuted, permuted_areas = clip_rings(Rings(a.z[:, perm], a.count[perm]),
                                          Rings(b.z[:, perm], b.count[perm]))
    assert permuted_areas.tobytes() == areas[perm].tobytes()
    assert np.array_equal(permuted.count, rings.count[perm])
    for col, src in enumerate(perm):
        count = rings.count[src]
        assert permuted.z[:count, col].tobytes() == rings.z[:count, src].tobytes()


def polygon_union_area(polys):
    return float(union_area([Rings.of([p]) for p in polys])[0])


def test_polygon_union_area_inclusion_exclusion():
    # two half-overlapping squares: union = 2 - 0.5
    parts = [UNIT_SQUARE, square_at(0.5, 0.0)]
    assert polygon_union_area(parts) == pytest.approx(1.5, rel=1e-12)
    # three stacked squares overlapping pairwise and triply
    parts = [UNIT_SQUARE, square_at(0.5, 0.0), square_at(0.25, 0.0)]
    assert polygon_union_area(parts) == pytest.approx(1.5, rel=1e-12)
    # nine squares in a row, each overlapping the next by 0.1: empty
    # intersections prune the inclusion-exclusion tree
    many = [square_at(0.9 * i, 0.0) for i in range(9)]
    exact = 0.9 * 9 + 0.1
    assert polygon_union_area(many) == pytest.approx(exact, rel=5e-3)


# ---------------------------------------------------------------------------
# Disc lens area


def test_lens_coincident_and_tangent():
    assert circle_intersection_area(1.3, 1.3, 0.0) == pytest.approx(math.pi * 1.3**2)
    assert circle_intersection_area(1.0, 0.5, 1.5) == 0.0
    # containment
    assert circle_intersection_area(2.0, 0.5, 1.0) == pytest.approx(math.pi * 0.25)


def test_lens_unit_discs_frozen_value_and_oracle():
    # analytic lens for a1 = a2 = 1, d = 1
    expected = 2.0 * (math.acos(0.5) - 0.5 * math.sqrt(0.75))
    value = circle_intersection_area(1.0, 1.0, 1.0)
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(1.2283696986087573, rel=1e-12)
    rng = np.random.default_rng(7)
    est, sigma = mc_lens_area(1.0, 1.0, 1.0, 10_000_000, rng)
    assert abs(value - est) < 3 * sigma


def test_lens_continuity_at_regime_boundaries():
    for a1, a2 in [(1.0, 1.0), (1.5, 0.4)]:
        for d0 in (abs(a1 - a2), a1 + a2):
            if d0 == 0.0:
                continue
            below = circle_intersection_area(a1, a2, max(d0 - 1e-9, 0.0))
            above = circle_intersection_area(a1, a2, d0 + 1e-9)
            assert abs(below - above) < 1e-6


def test_lens_monotone_in_distance():
    ds = np.linspace(0.0, 2.5, 40)
    vals = [circle_intersection_area(1.0, 0.8, float(d)) for d in ds]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# Construction validation


def test_shape_validation():
    with pytest.raises(ValueError):
        Segment([0, 0], [0, 0])
    with pytest.raises(ValueError):
        Disc([0, 0], 0.0)
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0], [2, 0]])  # collinear
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])  # CW order
    with pytest.raises(ValueError):
        Sphere([0, 0, 0], -1.0)
    with pytest.raises(ValueError):
        PlanarPolygon([[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0]], [0, 0, 1])


def test_mesh_plate_area():
    mesh = mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.25)
    assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-12)
    assert mesh.crossings == 1.0


def test_mesh_builders_match_loop_reference():
    # index loops the vectorized builders must reproduce exactly
    nu, nv = 4, 3
    plate_tris = []
    for i in range(nu):
        for j in range(nv):
            a, b = i * (nv + 1) + j, (i + 1) * (nv + 1) + j
            plate_tris += [[a, b, a + 1], [b, b + 1, a + 1]]
    plate = mesh_plate([0, 0, 0], [1, 0, 0], [0, 0.75, 0], 0.25)
    np.testing.assert_array_equal(plate.triangles, plate_tris)

    radius, n_theta, n_phi = 0.7, 5, 10
    sphere = mesh_sphere([0.1, 0.0, 2.0], radius, 2 * np.pi * radius / n_phi)
    verts, rows = [[0.0, 0.0, radius]], []
    for th in np.pi * np.arange(1, n_theta) / n_theta:
        rows.append(list(range(len(verts), len(verts) + n_phi)))
        for j in range(n_phi):
            ph = 2 * np.pi * j / n_phi
            verts.append(radius * np.array([math.sin(th) * math.cos(ph),
                                            math.sin(th) * math.sin(ph), math.cos(th)]))
    verts.append([0.0, 0.0, -radius])
    tris = [[0, rows[0][j], rows[0][(j + 1) % n_phi]] for j in range(n_phi)]
    for i in range(len(rows) - 1):
        for j in range(n_phi):
            a, b = rows[i][j], rows[i][(j + 1) % n_phi]
            c, d = rows[i + 1][j], rows[i + 1][(j + 1) % n_phi]
            tris += [[a, c, b], [b, c, d]]
    tris += [[len(verts) - 1, rows[-1][(j + 1) % n_phi], rows[-1][j]] for j in range(n_phi)]
    np.testing.assert_array_equal(sphere.vertices, np.asarray(verts) + [0.1, 0.0, 2.0])
    np.testing.assert_array_equal(sphere.triangles, tris)


def test_shoelace_orientation():
    assert polygon_area(UNIT_SQUARE.vertices) == pytest.approx(1.0)
    assert polygon_area(UNIT_SQUARE.vertices[::-1]) == pytest.approx(-1.0)


def test_clockwise_shadow_polygon_is_held_ccw():
    cw = ShadowPolygon(UNIT_SQUARE.vertices[::-1])
    assert not cw.is_empty
    assert cw.area == 1.0
    assert polygon_area(cw.vertices) == 1.0
    for a, b in ((cw, UNIT_SQUARE), (UNIT_SQUARE, cw), (cw, cw)):
        assert convex_polygon_intersection(a, b).area == pytest.approx(1.0, rel=1e-12)
    assert convex_polygon_intersection(cw, square_at(0.5, 0.5)).area == pytest.approx(0.25)


def _slow_consumer_run(threads):
    """ordered_map's traced peak and its spans started ahead of the consumer.

    Work is instant and the consumer, which fills a 16 MB result as dense()
    does, takes 1 ms per 64 kB block: every finished block that is not yet
    taken is held.
    """
    spans = list(range(256))
    started, ahead = [], []

    def work(span):
        started.append(span)
        return np.full(2**13, float(span))

    tracemalloc.start()
    try:
        out = np.zeros((len(spans), 2**13))
        for span, block in zip(spans, ordered_map(work, spans, threads)):
            ahead.append(len(started) - span - 1)
            time.sleep(1e-3)
            out[span] = block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out[:, 0], spans)  # in span order
    return peak, max(ahead)


def test_ordered_map_bounds_spans_in_flight():
    base, ahead = _slow_consumer_run(1)
    assert ahead == 0
    peak, ahead = _slow_consumer_run(2)
    # at most 2 * threads spans submitted and not taken: 4 blocks (256 kB) here,
    # where all 256 submitted at once held up to 16 MB
    assert ahead <= 4
    assert peak <= 1.1 * base
