"""Channel assembly: sampling, kernels, operator contracts."""

import math

import numpy as np
import pytest

from shadowdof.channel import (
    ChannelOperator,
    assemble_channel,
    green_2d,
    green_3d,
    green_dyadic_3d,
    ports_from_quadrature,
    sample_region,
)
from shadowdof.errors import (
    CoincidentPointsError,
    EmptySamplingError,
    NearFieldCutoffError,
    RegionsTooCloseError,
    TooLargeForDenseError,
)
from shadowdof.geometry import Disc, PlanarPolygon, Segment, Sphere
from shadowdof.quadrature import circle_quadrature, sphere_quadrature
from shadowdof.shadow import Region
from oracles import dyadic_fd, hankel2_0_asymptotic_abs, hankel2_0_series


# ---------------------------------------------------------------------------
# Sampling


def test_segment_sampling_inclusive_grid():
    region = Region((Segment([0.0, 0.0], [1.0, 0.0]),), "T")
    samples = sample_region(region, 0.2)
    assert samples.count == 6
    assert np.allclose(sorted(samples.points[:, 0]), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


def test_plate_sampling_grid():
    plate = PlanarPolygon([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [0, 0, 1.0])
    samples = sample_region(Region((plate,), "T"), 0.5)
    assert samples.count == 9


def test_disc_sampling_density():
    region = Region((Disc([0.0, 0.0], 1.0),), "T")
    samples = sample_region(region, 0.1)
    assert abs(samples.count - math.pi / 0.01) / (math.pi / 0.01) < 0.03


def test_sampling_empty():
    region = Region((Disc([0.0, 0.0], 0.01),), "T")
    with pytest.raises(EmptySamplingError):
        sample_region(region, 1.0)


def test_sampling_points_distinct():
    region = Region((Segment([0, 0], [1, 0]), Segment([1, 0], [2, 0])), "T")
    samples = sample_region(region, 0.25)
    assert len({tuple(p) for p in np.round(samples.points, 12)}) == samples.count


# ---------------------------------------------------------------------------
# Kernels


def test_green_2d_reciprocity_and_value():
    r, rp, k = np.array([0.3, -0.1]), np.array([1.4, 0.8]), 2.0
    assert green_2d(r, rp, k) == green_2d(rp, r, k)
    with pytest.raises(CoincidentPointsError):
        green_2d(r, r, k)


def test_green_2d_large_argument_asymptotic():
    k, dist = 1.0, 100.0
    val = green_2d([0.0, 0.0], [dist, 0.0], k)
    assert abs(val) == pytest.approx(0.25 * hankel2_0_asymptotic_abs(k * dist), rel=0.01)


def test_green_2d_small_argument_series():
    k, dist = 1.0, 1e-3
    val = green_2d([0.0, 0.0], [dist, 0.0], k)
    oracle = 0.25j * hankel2_0_series(k * dist)
    assert abs(val - oracle) / abs(oracle) < 1e-6


def test_green_3d_magnitude_phase_reciprocity():
    k = 2 * math.pi
    r, rp = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    val = green_3d(r, rp, k)
    assert abs(val) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    assert math.remainder(np.angle(val), 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert val == green_3d(rp, r, k)


def test_dyadic_symmetry_and_swap():
    k = 3.0
    r, rp = np.array([0.1, 0.4, -0.2]), np.array([1.0, -0.5, 0.7])
    g = green_dyadic_3d(r, rp, k)
    assert np.allclose(g, g.T, rtol=1e-13)
    assert np.allclose(g, green_dyadic_3d(rp, r, k).T, rtol=1e-13)


def test_dyadic_far_field_transverse():
    k = 1.0
    rv = np.array([1e3, 0.0, 0.0])  # kR = 1e3
    g = green_dyadic_3d(rv, np.zeros(3), k)
    rhat = np.array([1.0, 0.0, 0.0])
    longitudinal = abs(rhat @ g @ rhat)
    transverse = abs(g[1, 1])
    assert longitudinal / transverse < 1e-2


def test_dyadic_against_finite_differences():
    k = 1.0  # lambda = 2 pi, kR = 10
    r, rp = np.array([10.0, 0.0, 0.0]), np.zeros(3)
    step = 1e-5 * (2 * math.pi / k)
    fd = dyadic_fd(r, rp, k, step)
    g = green_dyadic_3d(r, rp, k)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-6


def test_dyadic_near_field_cutoff():
    with pytest.raises(NearFieldCutoffError):
        green_dyadic_3d([1e-4, 0, 0], [0, 0, 0], 1.0)
    with pytest.raises(CoincidentPointsError):
        green_dyadic_3d([0, 0, 0], [0, 0, 0], 1.0)


# ---------------------------------------------------------------------------
# Operator contracts


def _small_channel(kind="scalar2d", k=6.0):
    t = Region((Segment([-0.5, 0.0], [0.5, 0.0]),), "T")
    r = Region((Segment([-0.25, 1.0], [0.25, 1.0]),), "R")
    step = 2 * math.pi / k / 5
    return assemble_channel(sample_region(t, step), sample_region(r, step), k, kind)


def test_single_pair_scalar3d():
    from shadowdof.channel import SampleSet

    st = SampleSet(np.array([[0.0, 0.0, 0.0]]), 0.2)
    sr = SampleSet(np.array([[0.0, 0.0, 2.0]]), 0.2)
    op = assemble_channel(st, sr, 2 * math.pi)
    assert op.shape == (1, 1)
    expected = green_3d([0, 0, 2.0], [0, 0, 0.0], 2 * math.pi)
    assert op.dense()[0, 0] == pytest.approx(expected, rel=1e-14)


def test_swap_transmit_receive_spectrum_invariant():
    k = 6.0
    t = Region((Segment([-0.5, 0.0], [0.5, 0.0]),), "T")
    r = Region((Segment([-0.25, 1.0], [0.25, 1.0]),), "R")
    step = 2 * math.pi / k / 5
    st, sr = sample_region(t, step), sample_region(r, step)
    a = np.linalg.svd(assemble_channel(st, sr, k).dense(), compute_uv=False)
    b = np.linalg.svd(assemble_channel(sr, st, k).dense(), compute_uv=False)
    assert np.allclose(a, b, rtol=1e-12)


def test_adjoint_consistency():
    rng = np.random.default_rng(3)
    for op in (_small_channel("scalar2d"), _small_channel_farfield()):
        n_r, n_t = op.shape
        h_norm = op.frobenius_norm()
        for _ in range(20):
            x = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
            y = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
            lhs = np.vdot(y, op.apply(x))
            rhs = np.vdot(op.adjoint_apply(y), x)
            denom = np.linalg.norm(x) * np.linalg.norm(y) * h_norm
            assert abs(lhs - rhs) / denom < 1e-10


def _small_channel_farfield(k=6.0, n_ports=32):
    t = Region((Disc([0.0, 0.0], 0.6),), "T")
    ports = ports_from_quadrature(circle_quadrature(n_ports))
    return assemble_channel(sample_region(t, 2 * math.pi / k / 5), ports, k)


def test_dense_matches_matrix_free():
    op = _small_channel()
    dense = op.dense()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    assert np.allclose(dense @ x, op.apply(x), rtol=1e-12)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    assert np.allclose(dense.conj().T @ y, op.adjoint_apply(y), rtol=1e-12)


def test_threaded_apply_identical():
    op1 = _small_channel()
    op8 = ChannelOperator(op1.kind, op1.k, op1.tx_points, op1.rx_points, threads=8)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((op1.n_cols, 3)) + 1j * rng.standard_normal((op1.n_cols, 3))
    assert np.array_equal(op1.apply(x), op8.apply(x))
    y = rng.standard_normal(op1.n_rows) + 1j * rng.standard_normal(op1.n_rows)
    assert np.array_equal(op1.adjoint_apply(y), op8.adjoint_apply(y))
    assert np.array_equal(op1.dense(), op8.dense())
    assert op1.frobenius_norm() == op8.frobenius_norm()
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            ChannelOperator(op1.kind, op1.k, op1.tx_points, op1.rx_points, threads=threads)


def test_row_spans_bounded(monkeypatch):
    rng = np.random.default_rng(5)
    tx = rng.uniform(0.0, 1.0, (10_000, 3))
    rx = rng.uniform(0.0, 1.0, (600, 3)) + [0.0, 0.0, 2.0]
    op = ChannelOperator("scalar3d", 6.0, tx, rx)
    sizes = []
    row_block = ChannelOperator.row_block

    def recording(self, *args):
        block = row_block(self, *args)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(ChannelOperator, "row_block", recording)
    x = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    hx, hy = op.apply(x), op.adjoint_apply(y)
    op.frobenius_norm()
    dense = op.dense()
    assert sizes and max(sizes) <= 2**21
    assert sum(sizes) == 4 * op.n_rows * op.n_cols
    assert np.allclose(hx, dense @ x, rtol=1e-12, atol=0)
    assert np.allclose(hy, dense.conj().T @ y, rtol=1e-12, atol=0)


def test_regions_too_close():
    t = Region((Segment([0.0, 0.0], [1.0, 0.0]),), "T")
    r = Region((Segment([0.0, 0.05], [1.0, 0.05]),), "R")
    with pytest.raises(RegionsTooCloseError):
        assemble_channel(sample_region(t, 0.2), sample_region(r, 0.2), 5.0)


def test_full_scene_rotation_leaves_spectrum():
    k = 6.0
    t = Region((Segment([-0.5, 0.0], [0.5, 0.0]),), "T")
    r = Region((Segment([-0.25, 1.0], [0.25, 1.0]),), "R")
    step = 2 * math.pi / k / 5
    st, sr = sample_region(t, step), sample_region(r, step)
    ang = 0.83
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    from shadowdof.channel import SampleSet

    st_r = SampleSet(st.points @ rot.T, st.spacing)
    sr_r = SampleSet(sr.points @ rot.T, sr.spacing)
    a = np.linalg.svd(assemble_channel(st, sr, k).dense(), compute_uv=False)
    b = np.linalg.svd(assemble_channel(st_r, sr_r, k).dense(), compute_uv=False)
    assert np.allclose(a, b, rtol=1e-10)


def test_farfield_norm_rotation_invariant():
    k = 8.0
    op = _small_channel_farfield(k)
    ang = 1.234
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    from shadowdof.channel import SampleSet

    tx_rot = op.tx_points @ rot.T
    op_rot = ChannelOperator("farfield2d", k, tx_rot, op.ports)
    assert op.frobenius_norm() == pytest.approx(op_rot.frobenius_norm(), rel=1e-8)


def test_farfield_em_ports():
    k = 5.0
    t = Region((Sphere([0, 0, 0], 0.4),), "T")
    quad = sphere_quadrature(4, 8)
    ports = ports_from_quadrature(quad, polarized=True)
    op = assemble_channel(sample_region(t, 2 * math.pi / k / 5), ports, k)
    n_src = op.tx_points.shape[0]
    assert op.shape == (2 * quad.n, 3 * n_src)
    # polarization vectors are orthogonal to their propagation directions
    for p in ports:
        assert abs(p.pol_vector() @ p.direction.khat) < 1e-12
    # adjoint still consistent for the EM far-field kind
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    lhs = np.vdot(y, op.apply(x))
    rhs = np.vdot(op.adjoint_apply(y), x)
    assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y) * op.frobenius_norm()) < 1e-10


def test_green_functions_are_one_by_one_row_blocks():
    r, rp, k = [0.3, -0.2, 2.1], [0.1, 0.4, -0.3], 4.0
    for kind, green in (("scalar3d", green_3d), ("dyadic3d", green_dyadic_3d)):
        op = ChannelOperator(kind, k, [rp], [r])
        assert np.array_equal(op.row_block(0, op.n_rows), np.atleast_2d(green(r, rp, k)))
    op = ChannelOperator("scalar2d", k, [rp[:2]], [r[:2]])
    assert op.row_block(0, 1)[0, 0] == green_2d(r[:2], rp[:2], k)


def test_dyadic_channel_blocks():
    k = 4.0
    t = Region((Sphere([0, 0, 0], 0.3),), "T")
    r = Region((Sphere([0, 0, 3.0], 0.3),), "R")
    step = 2 * math.pi / k / 5
    st, sr = sample_region(t, step), sample_region(r, step)
    op = assemble_channel(st, sr, k, kind="dyadic3d")
    assert op.shape == (3 * sr.count, 3 * st.count)
    dense = op.dense()
    block = green_dyadic_3d(sr.points[0], st.points[0], k)
    assert np.allclose(dense[:3, :3], block, rtol=1e-13)


def test_row_block_source_span():
    k = 4.0
    step = 2 * math.pi / k / 5
    st = sample_region(Region((Sphere([0, 0, 0], 0.6),), "T"), step)
    sr = sample_region(Region((Sphere([0, 0, 3.0], 0.6),), "R"), step)
    ports = ports_from_quadrature(sphere_quadrature(4, 8), polarized=True)
    for op in (assemble_channel(st, sr, k), assemble_channel(st, sr, k, kind="dyadic3d"),
               assemble_channel(st, ports, k)):
        dense = op.dense()
        width = op.n_cols // st.count  # columns per source
        for lo, hi, s_lo, s_hi in ((0, op.n_rows, 0, 5), (2, 7, 5, st.count), (1, 4, 3, 4)):
            block = op.row_block(lo, hi, s_lo, s_hi)
            assert block.shape == (hi - lo, width * (s_hi - s_lo))
            assert np.allclose(block, dense[lo:hi, width * s_lo:width * s_hi], rtol=1e-14, atol=0)


def test_dense_cap():
    op = _small_channel()
    with pytest.raises(TooLargeForDenseError):
        op.dense(cap=4)


def test_mesh_region_per_triangle_sampling():
    from shadowdof.geometry import mesh_plate

    mesh = mesh_plate([0, 0, 0], [1, 0, 0], [0, 1, 0], 0.5)
    samples = sample_region(Region((mesh,), "T"), 0.1)
    # on the plate plane, roughly area/spacing^2 points, all inside the plate
    assert abs(samples.count - 100) / 100 < 0.3
    assert np.all(samples.points[:, 2] == 0.0)
    assert samples.points[:, 0].min() >= -1e-12 and samples.points[:, 0].max() <= 1 + 1e-12


def test_farfield_3d_norm_rotation_invariant():
    from scipy.spatial.transform import Rotation

    k = 5.0
    t = Region((Sphere([0.3, -0.1, 0.2], 0.4),), "T")
    ports = ports_from_quadrature(sphere_quadrature(8, 16))
    tx = sample_region(t, 2 * math.pi / k / 5)
    op = assemble_channel(tx, ports, k)
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    from shadowdof.channel import SampleSet

    op_rot = assemble_channel(SampleSet(tx.points @ rot.T, tx.spacing), ports, k)
    assert op.frobenius_norm() == pytest.approx(op_rot.frobenius_norm(), rel=1e-8)
