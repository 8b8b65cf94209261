"""Shadow totals: quadrature vs closed forms, mesh integral, NDoF estimates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowdof import shadow
from shadowdof.errors import OrderingUndefinedError, PanelsTooCloseError, SpheresOverlapError
from shadowdof.geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Segment,
    Sphere,
    mesh_disc,
    mesh_plate,
    mesh_sphere,
)
from shadowdof.quadrature import circle_quadrature, scene_circle_quadrature, sphere_quadrature
from shadowdof.shadow import (
    MutualShadowResult,
    Region,
    _shadow_values,
    mesh_mutual_shadow,
    mutual_shadow_direction,
    ndof_from_shadow,
    reference_ndof,
    shadow_area_two_discs,
    shadow_area_two_spheres,
    shadow_length_two_lines,
    total_mutual_shadow,
    total_shadow,
    wavelength_for_ndof,
)


def two_lines(l1=1.0, l2=1.0, d=1.0):
    t = Region((Segment([-l1 / 2, 0.0], [l1 / 2, 0.0]),), "T")
    r = Region((Segment([-l2 / 2, d], [l2 / 2, d]),), "R")
    return t, r


def two_plates(side=1.0, d=1.0, shift=0.0):
    t = Region((PlanarPolygon(
        [[0, 0, 0], [side, 0, 0], [side, side, 0], [0, side, 0]], [0, 0, 1.0]),), "T")
    r = Region((PlanarPolygon(
        [[shift, 0, d], [side + shift, 0, d], [side + shift, side, d], [shift, side, d]],
        [0, 0, 1.0]),), "R")
    return t, r


# ---------------------------------------------------------------------------
# Per-direction values


def test_parallel_segments_broadside():
    t, r = two_lines()
    assert mutual_shadow_direction(t, r, Direction(math.pi / 2)) == pytest.approx(1.0)


def test_parallel_segments_disjoint_beyond_beta():
    # shadows separate once tan(phi) exceeds beta = (l1+l2)/(2d), phi from broadside
    t, r = two_lines(1.0, 1.0, 1.0)
    beta = 1.0
    phi_sep = math.pi / 2 - (math.atan(beta) + 0.05)
    assert mutual_shadow_direction(t, r, Direction(phi_sep)) == 0.0
    phi_in = math.pi / 2 - (math.atan(beta) - 0.05)
    assert mutual_shadow_direction(t, r, Direction(phi_in)) > 0.0


def test_reverse_ordering_gives_zero():
    t, r = two_lines()
    # direction pointing from R to T: transmitter does not precede receiver
    assert mutual_shadow_direction(t, r, Direction(-math.pi / 2)) == 0.0


def test_interleaved_parts_raise():
    t = Region((Disc([0.0, 0.0], 0.2), Disc([10.0, 0.0], 0.2)), "T")
    r = Region((Disc([5.0, 0.0], 0.2),), "R")
    with pytest.raises(OrderingUndefinedError):
        mutual_shadow_direction(t, r, Direction(0.0))


def test_sphere_containment_value():
    a_t, a_r, h = 1.0, 0.4, 5.0
    t = Region((Sphere([0, 0, 0], a_t),), "T")
    r = Region((Sphere([0, 0, h], a_r),), "R")
    theta1 = math.asin((a_t - a_r) / h)
    val = mutual_shadow_direction(t, r, Direction(0.3, theta=theta1 / 2))
    assert val == pytest.approx(math.pi * a_r**2, rel=1e-12)


# ---------------------------------------------------------------------------
# Two-line quadrature vs closed form


def test_two_lines_total_matches_closed_form():
    t, r = two_lines(1.0, 1.0, 1.0)
    msr = total_mutual_shadow(t, r, n_directions=4096)
    expected = 2.0 * (math.sqrt(2.0) - 1.0)
    assert msr.total == pytest.approx(expected, rel=1e-8)
    assert shadow_length_two_lines(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-15)


def test_two_lines_closed_form_limits():
    l1, l2 = 1.0, 0.7
    assert shadow_length_two_lines(l1, l2, 1e-4) == pytest.approx(2 * min(l1, l2), rel=1e-3)
    d = 1e4
    assert shadow_length_two_lines(l1, l2, d) == pytest.approx(l1 * l2 / d, rel=1e-3)


def test_total_symmetry_and_monotonicity():
    t, r = two_lines(1.0, 0.5, 0.8)
    a = total_mutual_shadow(t, r, n_directions=1024).total
    b = total_mutual_shadow(r, t, n_directions=1024).total
    assert a == pytest.approx(b, rel=1e-12)
    # enlarging the receiver never shrinks the total
    t2, r2 = two_lines(1.0, 0.8, 0.8)
    assert total_mutual_shadow(t2, r2, n_directions=1024).total >= a - 1e-12


def test_result_total_consistent_with_rows():
    t, r = two_lines()
    msr = total_mutual_shadow(t, r, n_directions=512)
    assert msr.total == pytest.approx(float(np.dot(msr.weights, msr.values)), rel=1e-12)
    assert msr.n_directions == 512


def test_result_rejects_a_total_off_its_weighted_sum():
    t, r = two_lines()
    msr = total_mutual_shadow(t, r, n_directions=512)
    fields = (msr.angles, msr.weights, msr.values, msr.dim, msr.rule)
    assert MutualShadowResult(msr.total, *fields).total == msr.total
    assert MutualShadowResult(msr.total * (1 + 5e-13), *fields).total > msr.total
    for total in (msr.total * (1 + 1e-11), msr.total + 1e-9, 0.0):
        with pytest.raises(ValueError, match="weighted sum"):
            MutualShadowResult(total, *fields)


def plate(z=0.0, side=1.0, x0=0.0, y0=0.0):
    return PlanarPolygon([[x0, y0, z], [x0 + side, y0, z], [x0 + side, y0 + side, z],
                          [x0, y0 + side, z]], [0, 0, 1.0])


# Each case exercises one kind of shadow value (interval overlap and union in
# 2D; plate clip, ring clip, disc lens, multi-part union and mesh hull in 3D);
# the totals are frozen from the earlier per-direction implementation.
ENGINE_CASES = {
    "plate-plate": (lambda: (Region((plate(0.0),)), Region((plate(1.0),)),
                             {"n_theta": 96, "n_phi": 192}), 0.6276312153993083),
    "plate-sphere-ring": (lambda: (Region((plate(0.0),)),
                                   Region((Sphere([0.5, 0.5, 2.0], 0.4),)),
                                   {"n_theta": 48, "n_phi": 96}), 0.11830922599538067),
    "sphere-sphere-lens": (lambda: (Region((Sphere([0, 0, 0], 1.0),)),
                                    Region((Sphere([0, 0, 3.0], 0.7),)),
                                    {"n_theta": 64, "n_phi": 16}), 0.5622361517172639),
    "sphere-stack-union": (lambda: (Region((Sphere([0, 0, 0], 0.5), Sphere([0, 0, 1.5], 0.5))),
                                    Region((Sphere([0, 0, 6.0], 0.5),)),
                                    {"n_theta": 12, "n_phi": 24}), 0.014292501479972724),
    "mesh-hull-plate": (lambda: (Region((mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.25),)),
                                 Region((plate(1.0),)),
                                 {"n_theta": 24, "n_phi": 48}), 0.6250656298322486),
    "plate-transmitter-only": (lambda: (Region((plate(0.0),)), None, {
        "quad": sphere_quadrature(24, 48, phi_range=(0.3, 0.3 + math.pi / 2))}),
        1.572951882559646),
    "disc-stack-union-2d": (lambda: (Region((Disc([0, 0], 0.5), Disc([0, 1.5], 0.5))),
                                     Region((Disc([0, 5.0], 0.5),)),
                                     {"n_directions": 1024}), 0.28770733537146403),
    "disc-triangle-2d": (lambda: (Region((Disc([0, 0], 0.5),)),
                                  Region((ConvexPolygon([[-0.5, 2], [0.5, 2], [0, 3]]),)),
                                  {"n_directions": 1024}), 0.48995732625372834),
}


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_engine_totals_and_single_directions(case):
    build, expected = ENGINE_CASES[case]
    t, r, kwargs = build()
    msr = total_mutual_shadow(t, r, **kwargs) if r is not None else total_shadow(t, **kwargs)
    assert msr.total == pytest.approx(expected, rel=1e-12)
    # a one-direction call is the same computation as the batched total
    pairs = list(msr.per_direction())
    picks = set(np.linspace(0, len(pairs) - 1, 5).astype(int)) | {int(np.argmax(msr.values))}
    for i in sorted(picks):
        direction, value = pairs[i]
        if r is None:
            assert _shadow_values(t, direction.angles)[0] == value
        else:
            assert mutual_shadow_direction(t, r, direction) == value


BATCH_CASES = {**ENGINE_CASES, "lines-2d": (lambda: (*two_lines(1.0, 0.5, 0.7),
                                                     {"n_directions": 1024}), None)}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_values_bit_identical_across_batch_sizes(case, monkeypatch):
    t, r, kwargs = BATCH_CASES[case][0]()
    compute = (lambda: total_mutual_shadow(t, r, **kwargs)) if r is not None \
        else (lambda: total_shadow(t, **kwargs))
    reference = compute()
    # the bytes of one direction's widest ring, as the engine sizes its batches
    if r is None:
        width = shadow._ring_width(t)
    else:
        width = 1 if shadow._sphere_pair(t, r) else shadow._ring_width(t, r)
    name = "_mutual_values" if r is not None else "_shadow_values"
    for directions in (1, 7, reference.n_directions):
        batches = []
        batch_values = getattr(shadow, name)
        monkeypatch.setattr(shadow, name,
                            lambda *a: batches.append(a[-1].shape[0]) or batch_values(*a))
        monkeypatch.setattr(shadow, "_BATCH_BYTES", directions * 16 * width)
        msr = compute()
        monkeypatch.setattr(shadow, name, batch_values)
        assert max(batches) == directions and sum(batches) == reference.n_directions
        assert np.array_equal(msr.values, reference.values)
        assert msr.total == reference.total


# ---------------------------------------------------------------------------
# Invariances of the 3D total (plate pairs at the 24x48 rule)

N_THETA, N_PHI = 24, 48
lengths = st.floats(0.3, 2.0)
offsets = st.floats(-1.5, 1.5)


def plate_pair(side_t, side_r, d, dx, dy):
    return Region((plate(0.0, side_t),), "T"), Region((plate(d, side_r, dx, dy),), "R")


def plate_total(t, r):
    return total_mutual_shadow(t, r, n_theta=N_THETA, n_phi=N_PHI).total


def moved(region, rot=np.eye(3), shift=np.zeros(3)):
    return Region(tuple(PlanarPolygon(p.vertices @ rot.T + shift, rot @ p.normal)
                        for p in region.parts), region.label)


@settings(max_examples=20, deadline=None)
@given(lengths, lengths, st.floats(0.2, 3.0), offsets, offsets)
# scenes with mirror-image cos(theta) panels and a remainder to split between them
@example(0.3046875, 0.375, 0.21875, 0.0, 1.0)
@example(0.3125, 0.375, 0.21875, 1.0, 1.0)
def test_total_symmetric_in_transmitter_and_receiver(side_t, side_r, d, dx, dy):
    t, r = plate_pair(side_t, side_r, d, dx, dy)
    assert plate_total(r, t) == pytest.approx(plate_total(t, r), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(lengths, lengths, st.floats(0.2, 3.0), offsets, offsets,
       st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)))
def test_total_invariant_under_translation(side_t, side_r, d, dx, dy, shift):
    t, r = plate_pair(side_t, side_r, d, dx, dy)
    moved_t, moved_r = (moved(x, shift=np.asarray(shift)) for x in (t, r))
    assert plate_total(moved_t, moved_r) == pytest.approx(plate_total(t, r), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(lengths, lengths, st.floats(0.2, 3.0), offsets, offsets, st.integers(1, N_PHI - 1))
def test_total_invariant_under_grid_rotation(side_t, side_r, d, dx, dy, k):
    # a rotation about z by a multiple of the azimuth step maps the rule onto itself
    t, r = plate_pair(side_t, side_r, d, dx, dy)
    a = 2.0 * math.pi * k / N_PHI
    rot = np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    turned_t, turned_r = (moved(x, rot=rot) for x in (t, r))
    assert plate_total(turned_t, turned_r) == pytest.approx(plate_total(t, r), rel=1e-12)


# ---------------------------------------------------------------------------
# Circle / far-field coverage


def test_solid_circle_full_coverage():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    msr = total_shadow(t, scene_circle_quadrature(list(t.parts), 256))
    assert msr.total == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_circle_partial_coverage_proportional():
    t = Region((Disc([0.0, 0.0], 1.0),), "T")
    quad = circle_quadrature(128, arc=(0.0, math.pi / 2))
    msr = total_shadow(t, quad=quad)
    assert msr.total == pytest.approx(math.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# Discs and spheres closed forms


def test_two_discs_closed_form_values_and_limits():
    a = 1.0
    val = shadow_area_two_discs(a, 2.0)
    expected = (math.pi**2 / 4.0) * (math.sqrt(8.0) - 2.0) ** 2
    assert val == pytest.approx(expected, rel=1e-15)
    assert shadow_area_two_discs(a, 1e-6) == pytest.approx(math.pi * (math.pi * a**2), rel=1e-3)
    d = 1e4
    assert shadow_area_two_discs(a, d) == pytest.approx((math.pi * a**2) ** 2 / d**2, rel=1e-3)


def test_two_spheres_overlap_rejected():
    with pytest.raises(SpheresOverlapError):
        shadow_area_two_spheres(1.0, 1.0, 1.5)


def test_two_spheres_paraxial_ratio():
    for ratio in (1.0, 0.5):
        a1, a2 = 1.0, ratio
        for mult, tol in ((4.0, 0.05), (10.0, 0.01)):
            h = mult * (a1 + a2)
            val = shadow_area_two_spheres(a1, a2, h)
            parax = math.pi**2 * a1**2 * a2**2 / h**2
            assert abs(val / parax - 1.0) < tol


def test_two_spheres_self_convergence():
    a1, a2, h = 1.0, 0.5, 4.0
    v1 = shadow_area_two_spheres(a1, a2, h, n_theta=1024)
    v2 = shadow_area_two_spheres(a1, a2, h, n_theta=2048)
    assert abs(v2 - v1) / v2 < 1e-6


def test_two_spheres_total_quadrature_far_limit():
    a1 = a2 = 0.5
    h = 50.0 * (a1 + a2)
    t = Region((Sphere([0, 0, 0], a1),), "T")
    r = Region((Sphere([0, 0, h], a2),), "R")
    msr = total_mutual_shadow(t, r, n_theta=384, n_phi=8)
    parax = math.pi**2 * a1**2 * a2**2 / h**2
    assert msr.total == pytest.approx(parax, rel=2e-3)
    # and against the dedicated theta quadrature (direction rule converges ~n^-3
    # here: the lens area has a sqrt kink in cos(theta) at the pole)
    assert msr.total == pytest.approx(shadow_area_two_spheres(a1, a2, h), rel=1e-5)


def test_quadrature_doubling_convergence_smooth_scenes():
    # spheres (3D)
    t = Region((Sphere([0, 0, 0], 1.0),), "T")
    r = Region((Sphere([0, 0, 3.0], 0.7),), "R")
    a = total_mutual_shadow(t, r, n_theta=64, n_phi=16).total
    b = total_mutual_shadow(t, r, n_theta=128, n_phi=32).total
    assert abs(b - a) / b < 1e-4
    # discs (2D)
    t2 = Region((Disc([0.0, 0.0], 1.0),), "T")
    r2 = Region((Disc([0.0, 3.0], 0.6),), "R")
    a2 = total_mutual_shadow(t2, r2, n_directions=512).total
    b2 = total_mutual_shadow(t2, r2, n_directions=1024).total
    assert abs(b2 - a2) / b2 < 1e-4


# ---------------------------------------------------------------------------
# Mesh surface integral


def test_mesh_discs_match_closed_form():
    a, d = 1.0, 2.0
    t = Region((mesh_disc([0, 0, 0], [0, 0, 1], a, a / 20),), "T")
    r = Region((mesh_disc([0, 0, d], [0, 0, 1], a, a / 20),), "R")
    val = mesh_mutual_shadow(t, r)
    assert val == pytest.approx(shadow_area_two_discs(a, d), rel=1e-2)


def test_mesh_plates_match_direction_quadrature():
    t, r = two_plates(1.0, 1.0)
    mesh_t = Region((mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.05),), "T")
    mesh_r = Region((mesh_plate([0, 0, 1.0], [1, 0, 0], [0, 1, 0], 0.05),), "R")
    quad_val = total_mutual_shadow(t, r, n_theta=96, n_phi=192).total
    mesh_val = mesh_mutual_shadow(mesh_t, mesh_r)
    assert mesh_val == pytest.approx(quad_val, rel=2e-2)


def test_mesh_resolution_refinement_stable():
    a, d = 1.0, 2.0
    coarse = mesh_mutual_shadow(
        Region((mesh_disc([0, 0, 0], [0, 0, 1], a, a / 15),), "T"),
        Region((mesh_disc([0, 0, d], [0, 0, 1], a, a / 15),), "R"))
    fine = mesh_mutual_shadow(
        Region((mesh_disc([0, 0, 0], [0, 0, 1], a, a / 30),), "T"),
        Region((mesh_disc([0, 0, d], [0, 0, 1], a, a / 30),), "R"))
    assert abs(fine - coarse) / fine < 5e-3


def test_mesh_spheres_match_theta_quadrature():
    # closed surfaces: crossing count 2 each; checks the 1/(xi_T xi_R) weighting
    a1, a2, h = 0.8, 0.5, 4.0
    t = Region((mesh_sphere([0, 0, 0], a1, a1 / 12),), "T")
    r = Region((mesh_sphere([0, 0, h], a2, a2 / 12),), "R")
    val = mesh_mutual_shadow(t, r)
    assert val == pytest.approx(shadow_area_two_spheres(a1, a2, h), rel=2e-2)


def test_mesh_panels_too_close():
    t = Region((mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.2),), "T")
    r = Region((mesh_plate([0, 0, 0.01], [1, 0, 0], [0, 1, 0], 0.2),), "R")
    with pytest.raises(PanelsTooCloseError):
        mesh_mutual_shadow(t, r)


def test_mesh_rejects_mixed_closed_and_open_parts():
    # a closed part counts each ray twice and an open one once: no one divisor fits
    closed = mesh_sphere([0, 0, 0], 0.5, 0.1)
    t = Region((closed, mesh_plate([2, 0, 0], [1, 0, 0], [0, 1, 0], 0.25)), "T")
    r = Region((mesh_plate([0, 0, 3], [1, 0, 0], [0, 1, 0], 0.25),), "R")
    with pytest.raises(ValueError, match="disagree"):
        mesh_mutual_shadow(t, r)
    with pytest.raises(ValueError, match="disagree"):
        mesh_mutual_shadow(r, t)


def test_mesh_threaded_identical():
    a, d = 1.0, 1.5
    t = Region((mesh_disc([0, 0, 0], [0, 0, 1], a, a / 10),), "T")
    r = Region((mesh_disc([0, 0, d], [0, 0, 1], a, a / 10),), "R")
    assert mesh_mutual_shadow(t, r, threads=1) == mesh_mutual_shadow(t, r, threads=8)
    for threads in (0, 2.5, True):
        with pytest.raises(ValueError, match="threads"):
            mesh_mutual_shadow(t, r, threads=threads)


# ---------------------------------------------------------------------------
# NDoF estimates


def test_ndof_circle_is_2ka():
    a, lam = 1.0, 0.125
    t = Region((Disc([0.0, 0.0], a),), "T")
    msr = total_shadow(t, scene_circle_quadrature(list(t.parts), 128))
    est = ndof_from_shadow(msr, lam, "scalar2d")
    k = 2 * math.pi / lam
    assert est.n_a == pytest.approx(4 * math.pi * a / lam, rel=1e-12)
    assert est.n_a == pytest.approx(2 * k * a, rel=1e-12)


def test_ndof_em_is_twice_scalar():
    scalar = ndof_from_shadow(2.37, 0.1, "scalar3d")
    em = ndof_from_shadow(2.37, 0.1, "em3d")
    assert em.n_a == 2.0 * scalar.n_a


def test_ndof_zero_shadow():
    assert ndof_from_shadow(0.0, 0.1, "scalar3d").n_a == 0.0


def test_reference_ndof_values():
    assert reference_ndof("weyl2d", length=1.0, wavelength=0.1) == pytest.approx(20.0)
    assert reference_ndof("paraxial3d", a_t=1.0, a_r=1.0, distance=10.0,
                          wavelength=0.1) == pytest.approx(1.0)
    # convex body: total shadow pi*A reproduces Weyl
    area = 2.4
    w = reference_ndof("weyl3d", area=area, wavelength=0.05)
    s = reference_ndof("shadow3d", shadow_area=math.pi * area, wavelength=0.05)
    assert w == pytest.approx(s, rel=1e-15)


def test_wavelength_for_ndof_and_roundtrip():
    a = 1.0
    t = Region((Disc([0.0, 0.0], a),), "T")
    msr = total_shadow(t, scene_circle_quadrature(list(t.parts), 64))
    lam = wavelength_for_ndof(msr, 100.0, "scalar2d")
    assert lam == pytest.approx(4 * math.pi * a / 100.0, rel=1e-12)
    assert wavelength_for_ndof(1.0, 100.0, "scalar3d") == pytest.approx(0.1, rel=1e-15)
    for model in ("scalar2d", "scalar3d", "em3d"):
        lam = wavelength_for_ndof(msr, 37.5, model)
        back = ndof_from_shadow(msr, lam, model)
        assert back.n_a == pytest.approx(37.5, rel=1e-12)
    # the model table gives the bits of the per-model formulas it replaced
    formulas = {
        "scalar2d": (lambda t, lam: t / lam, lambda t, n: t / n),
        "scalar3d": (lambda t, lam: t / lam ** 2, lambda t, n: math.sqrt(t / n)),
        "em3d": (lambda t, lam: 2.0 * (t / lam ** 2), lambda t, n: math.sqrt(2.0 * t / n)),
    }
    rng = np.random.default_rng(8)
    for total, x in 10.0 ** rng.uniform(-6, 6, size=(2000, 2)):
        total, x = float(total), float(x)
        for model, (n_a_of, wavelength_of) in formulas.items():
            assert ndof_from_shadow(total, x, model).n_a == n_a_of(total, x), model
            assert wavelength_for_ndof(total, x, model) == wavelength_of(total, x), model


# ---------------------------------------------------------------------------
# Regions


def test_region_validation_and_distance():
    with pytest.raises(ValueError):
        Region(())
    with pytest.raises(ValueError):
        Region((Segment([0, 0], [1, 0]), Sphere([0, 0, 0], 1.0)))


def test_multi_part_union_shadow():
    # two touching collinear segments behave like one longer segment
    t = Region((Segment([-1.0, 0.0], [0.0, 0.0]), Segment([0.0, 0.0], [1.0, 0.0])), "T")
    r = Region((Segment([-1.0, 1.0], [1.0, 1.0]),), "R")
    val = mutual_shadow_direction(t, r, Direction(math.pi / 2))
    assert val == pytest.approx(2.0, rel=1e-12)
    assert _shadow_values(t, Direction(math.pi / 2).angles)[0] == pytest.approx(2.0)
