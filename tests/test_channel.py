"""Channel assembly: sampling, kernels, operator contracts."""

import math

import numpy as np
import pytest

from shadowdof import channel
from shadowdof.channel import (
    ChannelOperator,
    FarFieldPort,
    SampleSet,
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
from shadowdof.geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Segment,
    Sphere,
    mesh_sphere,
    points_in_convex_polygon,
    polygon_area,
)
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


def _reference_grid_1d(lo, hi, step):
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


def _reference_sample_shape(shape, step):
    # one hand-written lattice per shape kind, which the shared sampler must reproduce
    _grid_1d = _reference_grid_1d
    if isinstance(shape, Segment):
        e = shape.end - shape.start
        length = float(np.linalg.norm(e))
        t = _grid_1d(0.0, length, step) / length
        return shape.start[None, :] + t[:, None] * e[None, :]
    if isinstance(shape, Disc):
        lo, hi = shape.center - shape.radius, shape.center + shape.radius
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        keep = np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius + 1e-12
        return pts[keep]
    if isinstance(shape, ConvexPolygon):
        lo, hi = shape.vertices.min(axis=0), shape.vertices.max(axis=0)
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return pts[points_in_convex_polygon(pts, shape.vertices)]
    if isinstance(shape, Sphere):
        lo, hi = shape.center - shape.radius, shape.center + shape.radius
        axes = [_grid_1d(lo[i], hi[i], step) for i in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        keep = np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius + 1e-12
        return pts[keep]
    if isinstance(shape, PlanarPolygon):
        v, (e1, e2), flat = shape.vertices, shape.axes, shape.flat
        if polygon_area(flat) < 0:
            flat = flat[::-1]
        lo, hi = flat.min(axis=0), flat.max(axis=0)
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts2 = np.column_stack([gx.ravel(), gy.ravel()])
        keep = points_in_convex_polygon(pts2, flat)
        pts2 = pts2[keep]
        return v[0][None, :] + pts2[:, 0:1] * e1[None, :] + pts2[:, 1:2] * e2[None, :]
    chunks = []
    tri_pts = shape.vertices[shape.triangles]
    for a, b, c in tri_pts:
        t1 = b - a
        n1 = float(np.linalg.norm(t1))
        t1 = t1 / n1
        t2r = (c - a) - ((c - a) @ t1) * t1
        n2 = float(np.linalg.norm(t2r))
        t2 = t2r / n2
        flat = np.array([[0.0, 0.0], [n1, 0.0], [(c - a) @ t1, n2]])
        lo, hi = flat.min(axis=0), flat.max(axis=0)
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts2 = np.column_stack([gx.ravel(), gy.ravel()])
        keep = points_in_convex_polygon(pts2, flat)
        pts2 = pts2[keep]
        if pts2.size:
            chunks.append(a[None, :] + pts2[:, 0:1] * t1[None, :] + pts2[:, 1:2] * t2[None, :])
    return np.vstack(chunks) if chunks else np.zeros((0, 3))


# a convex quadrilateral in a tilted plane: (s, t) corners on the axes u and v
_U, _V = np.array([0.9, 0.3, 0.3]), np.array([-0.3, 0.7, 0.3])
_TILTED_RING = np.array([[0.1, 0.0, 0.2] + s * _U + t * _V
                         for s, t in ((0, 0), (1, 0.1), (0.9, 1), (-0.1, 0.8))])
_TILTED_NORMAL = np.cross(_U, _V)
SAMPLED_SHAPES = {
    "segment": Segment([0.1, -0.2], [1.3, 0.4]),
    "disc": Disc([0.13, -0.2], 0.7),
    "polygon": ConvexPolygon([[0.0, 0.0], [1.1, 0.1], [1.3, 0.8], [0.6, 1.2], [-0.1, 0.7]]),
    "sphere": Sphere([0.2, 0.1, -0.3], 0.6),
    "plate": PlanarPolygon(_TILTED_RING, _TILTED_NORMAL),
    "clockwise-plate": PlanarPolygon(_TILTED_RING[::-1], _TILTED_NORMAL),
    "mesh": mesh_sphere([0.0, 0.3, 0.1], 0.5, 0.2),
}


@pytest.mark.parametrize("spacing", [0.05, 0.1, 0.13, 0.3])
def test_sampler_matches_per_kind_reference(spacing):
    for name, shape in SAMPLED_SHAPES.items():
        got, lattice = channel._sample_shape(shape, spacing)
        want = _reference_sample_shape(shape, spacing)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        # each point at its lattice site: exactly on axis-aligned grids, to rounding elsewhere
        if name == "mesh":
            assert lattice is None
            assert sample_region(Region((shape,), "T"), spacing).lattice is None
        else:
            ulps = 0 if name in ("disc", "polygon", "sphere") else 4
            error = np.abs(got - (lattice.origin + lattice.index @ lattice.steps)).max()
            assert error <= ulps * np.finfo(float).eps * np.abs(got).max(), name
    # a multi-part region: each part's lattice, shared points kept once in first order
    parts = (Disc([0.0, 0.0], 0.5), ConvexPolygon([[0.0, -0.5], [1.0, -0.5], [1.0, 0.5],
                                                   [0.0, 0.5]]))
    pts = np.vstack([_reference_sample_shape(p, spacing) for p in parts])
    key = np.round(pts / (spacing * 1e-9)).astype(np.int64)
    want = pts[np.sort(np.unique(key, axis=0, return_index=True)[1])]
    got = sample_region(Region(parts, "T"), spacing)
    assert got.points.shape == want.shape and got.points.tobytes() == want.tobytes()
    assert got.lattice is None


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
        h_norm = np.linalg.norm(op.dense())
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


def test_threaded_apply_identical(monkeypatch):
    monkeypatch.setattr(channel, "_BLOCK_ROWS", 16)  # several spans for the rows route's pool
    monkeypatch.setattr(channel, "_FFT_CHUNK_ENTRIES", 1)  # one column per lattice chunk
    plates = assemble_channel(_plate_samples([0, 0, 0], _H), _plate_samples([0, 0, 1], _H), _K)
    for op1, threads, route in ((_small_channel(), 8, "lattice"),
                                (plates, np.int64(2), "lattice"),
                                (_fallback_random(), 8, "rows")):
        opn = ChannelOperator(op1.kind, op1.k, op1.tx, op1.rx, threads=threads)
        assert opn.route == op1.route == route
        assert type(opn.threads) is int and opn.threads == threads
        rng = np.random.default_rng(2)
        x = rng.standard_normal((op1.n_cols, 3)) + 1j * rng.standard_normal((op1.n_cols, 3))
        assert np.array_equal(op1.apply(x), opn.apply(x))
        y = rng.standard_normal(op1.n_rows) + 1j * rng.standard_normal(op1.n_rows)
        assert np.array_equal(op1.adjoint_apply(y), opn.adjoint_apply(y))
        assert np.array_equal(op1.dense(), opn.dense())
    for threads in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="threads"):
            ChannelOperator(op1.kind, op1.k, op1.tx, op1.rx, threads=threads)


def test_row_spans_bounded(monkeypatch):
    rng = np.random.default_rng(5)
    tx = rng.uniform(0.0, 1.0, (10_000, 3))
    rx = rng.uniform(0.0, 1.0, (600, 3)) + [0.0, 0.0, 2.0]
    op = ChannelOperator("scalar3d", 6.0, SampleSet(tx, 1.0), SampleSet(rx, 1.0))
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
    dense = op.dense()
    assert sizes and max(sizes) <= 2**21
    assert sum(sizes) == 3 * op.n_rows * op.n_cols
    assert np.allclose(hx, dense @ x, rtol=1e-12, atol=0)
    assert np.allclose(hy, dense.conj().T @ y, rtol=1e-12, atol=0)


def _plate_samples(origin, step, u=(1.0, 0.0, 0.0), v=(0.0, 1.0, 0.0), side=1.0):
    o, u, v = (np.asarray(a, dtype=float) for a in (origin, u, v))
    u, v = side * u, side * v
    plate = PlanarPolygon([o, o + u, o + u + v, o + v], np.cross(u, v) / side**2)
    return sample_region(Region((plate,), "P"), step)


def _samples(parts, step):
    return sample_region(Region(tuple(parts), "P"), step)


def _assert_matches_rows(op):
    """apply and adjoint_apply against the matrix that row_block evaluates."""
    dense = op.dense()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((op.n_cols, 4)) + 1j * rng.standard_normal((op.n_cols, 4))
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    for got, want in ((op.apply(x), dense @ x), (op.adjoint_apply(y), dense.conj().T @ y)):
        assert got.shape == want.shape
        assert np.all(np.isfinite(got))
        # measured at most 5.7e-15 (discs) on the cases below
        assert np.linalg.norm(got - want) <= 2e-14 * np.linalg.norm(want)


_K = 2 * math.pi / 0.25  # spacing lambda / 5 = 0.05
_H = 0.05

LATTICE_PAIRS = {
    "parallel-segments": lambda: (_samples([Segment([-0.5, 0.0], [0.5, 0.0])], _H),
                                  _samples([Segment([-0.2, 0.7], [0.4, 0.7])], _H)),
    "discs": lambda: (_samples([Disc([0.0, 0.0], 0.5)], _H),
                      _samples([Disc([0.3, 1.6], 0.4)], _H)),
    "convex-polygons": lambda: (
        _samples([ConvexPolygon([[0, 0], [1, 0], [0.6, 0.5], [0, 0.3]])], _H),
        _samples([ConvexPolygon([[0.2, 1], [1.1, 1.2], [0.5, 1.6]])], _H)),
    "parallel-plates": lambda: (_plate_samples([0, 0, 0], _H), _plate_samples([0, 0, 1], _H)),
    "shifted-plates": lambda: (_plate_samples([0, 0, 0], _H),
                               _plate_samples([0.37, 0.11, 1.03], _H, side=0.6)),
    "spheres": lambda: (_samples([Sphere([0, 0, 0], 0.3)], _H),
                        _samples([Sphere([0.1, 0.2, 1.0], 0.25)], _H)),
}


@pytest.mark.parametrize("name", list(LATTICE_PAIRS))
def test_lattice_route_matches_rows(name):
    tx, rx = LATTICE_PAIRS[name]()
    op = assemble_channel(tx, rx, _K)
    assert op.route == "lattice"
    _assert_matches_rows(op)


@pytest.mark.parametrize("name", ["parallel-plates", "spheres"])
def test_lattice_passes_do_not_depend_on_chunk_width(name, monkeypatch):
    # each column is transformed alone, so one column per chunk, the default
    # 2**17 grid entries (2 and 14 chunks here) and one chunk give the same bits,
    # and so do the chunks taken two at a time by the pool
    tx, rx = LATTICE_PAIRS[name]()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((tx.count, 120)) + 1j * rng.standard_normal((tx.count, 120))
    y = rng.standard_normal((rx.count, 120)) + 1j * rng.standard_normal((rx.count, 120))
    passes = []
    default = channel._FFT_CHUNK_ENTRIES
    for entries, threads in ((default, 1), (1, 1), (2**21, 1), (default, 2), (1, 2)):
        monkeypatch.setattr(channel, "_FFT_CHUNK_ENTRIES", entries)
        op = assemble_channel(tx, rx, _K, threads=threads)
        assert op.route == "lattice"
        passes.append((op.apply(x), op.adjoint_apply(y)))
    for hx, hy in passes:
        assert hx.flags.f_contiguous and hy.flags.f_contiguous  # the QR takes them uncopied
        assert hx.tobytes() == passes[0][0].tobytes()
        assert hy.tobytes() == passes[0][1].tobytes()


@pytest.mark.parametrize("sides", [(1.0, 0.6), (1.0, 1.0), (0.6, 1.0), None],
                         ids=["nr-below-nt", "nr-equals-nt", "nr-above-nt", "rows"])
def test_passes_in_place_match_out_of_place(sides, monkeypatch):
    # out over the input, as in the sketch's buffer: Fortran-order views from one
    # address.  One column per chunk at two threads keeps four chunks in flight
    # (441 and 169 points, a 36 x 36 grid: 101 columns per chunk by default)
    rng = np.random.default_rng(12)
    p = 250
    default = channel._FFT_CHUNK_ENTRIES
    for entries, threads in ((default, 1), (1, 1), (default, 2), (1, 2)):
        monkeypatch.setattr(channel, "_FFT_CHUNK_ENTRIES", entries)
        if sides is None:
            op1 = _fallback_random()
            op = ChannelOperator(op1.kind, op1.k, op1.tx, op1.rx, threads=threads)
        else:
            op = assemble_channel(_plate_samples([0, 0, 0], _H, side=sides[0]),
                                  _plate_samples([0, 0, 1], _H, side=sides[1]), _K,
                                  threads=threads)
        assert op.route == ("rows" if sides is None else "lattice")
        buf = np.empty((max(op.shape) + 1) * p, dtype=complex)
        for fn, n_in, n_out in ((op.apply, op.n_cols, op.n_rows),
                                (op.adjoint_apply, op.n_rows, op.n_cols)):
            v = rng.standard_normal((n_in, p)) + 1j * rng.standard_normal((n_in, p))
            for start, width in ((0, p), (1, p), (0, 1)):  # a shifted out overlaps otherwise
                shape = (n_in, p) if width == p else (n_in,)
                want = fn(v[:, :width].reshape(shape))
                src = buf[:n_in * width].reshape(shape, order="F")
                src[...] = v[:, :width].reshape(shape)
                kept = src.copy()
                assert np.array_equal(fn(src), want)
                assert np.array_equal(src, kept)  # without out the input is untouched
                out = buf[start:start + n_out * width].reshape(want.shape, order="F")
                got = fn(src, out=out)
                assert got is out
                assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="out"):
                fn(v, out=np.empty((n_out + 1, p), dtype=complex))
            # one contract on both routes: a vector or a matrix of columns
            for out in (None, np.empty((n_out, 2, 3), dtype=complex)):
                with pytest.raises(ValueError, match="a vector or a matrix"):
                    fn(v[:, :6].reshape(n_in, 2, 3), out=out)


def test_lattice_route_at_published_scale():
    # shifted plates at the spacing of N_a = 500 (141 x 141 points each, offsets
    # up to 140 steps, kR up to about 260): the sampler's own steps keep the
    # error at the rounding of kR, measured 9.4e-15 (apply) and 2.5e-14 (adjoint)
    h = 1.0 / 140
    op = assemble_channel(_plate_samples([0, 0, 0], h), _plate_samples([0.37, 0.11, 1.03], h),
                          2 * math.pi / (5 * h))
    assert op.route == "lattice"
    rng = np.random.default_rng(8)
    x = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    y = np.zeros(op.n_rows, dtype=complex)
    y[-200:] = rng.standard_normal(200)
    for got, want in ((op.apply(x)[:200], op.row_block(0, 200) @ x),
                      (op.adjoint_apply(y), op.row_block(op.n_rows - 200, op.n_rows).conj().T
                       @ y[-200:])):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _fallback_farfield():
    ports = ports_from_quadrature(circle_quadrature(32))
    return assemble_channel(_samples([Disc([0.0, 0.0], 0.5)], _H), ports, _K)


def _fallback_random():
    rng = np.random.default_rng(11)
    return ChannelOperator("scalar3d", _K, SampleSet(rng.uniform(0, 1, (300, 3)), _H),
                           SampleSet(rng.uniform(0, 1, (200, 3)) + [0.0, 0.0, 2.0], _H))


FALLBACKS = {
    "farfield-ports": _fallback_farfield,
    "endfire-plates": lambda: assemble_channel(
        _plate_samples([0, 0, 0], _H), _plate_samples([0, 0, 1], _H, v=(0.0, 0.0, 1.0)), _K),
    "random-points": _fallback_random,
    # one grid point per column on the diagonal: the offset box outgrows the pairs
    "diagonal-strips": lambda: assemble_channel(*(
        _samples([ConvexPolygon(np.array([[0, -0.02], [1, 0.98], [0.99, 1.01], [-0.01, 0.01]])
                                + [0.0, y])], _H) for y in (0.0, 0.5)), _K),
    # the second disc's grid starts 1.03 from the first's, not a multiple of 0.05
    "two-part-offset-grids": lambda: assemble_channel(
        _samples([Disc([0.0, 0.0], 0.5), Disc([1.03, 0.0], 0.5)], _H),
        _samples([Disc([0.3, 2.0], 0.4)], _H), _K),
    "dyadic": lambda: assemble_channel(_samples([Sphere([0, 0, 0], 0.15)], _H),
                                       _samples([Sphere([0.1, 0.2, 1.0], 0.1)], _H), _K,
                                       kind="dyadic3d"),
}


@pytest.mark.parametrize("name", list(FALLBACKS))
def test_lattice_fallbacks_stay_on_rows(name):
    assert FALLBACKS[name]().route == "rows"


def test_lattice_coincident_lattices():
    # two triangles facing across the diagonal x + y = 1, both sampled on the
    # grid of multiples of 0.1: the zero offset lies in the table's box, but no
    # pair realises it
    k, step = 2 * math.pi / 0.5, 0.1
    tx = _samples([ConvexPolygon([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8]])], step)
    rx = _samples([ConvexPolygon([[1.0, 0.2], [1.0, 1.0], [0.2, 1.0]])], step)
    lattices = tx.lattice, rx.lattice
    assert np.array_equal(lattices[0].steps, lattices[1].steps)
    tx_index, rx_index = (lat.index - lat.index.min(axis=0) for lat in lattices)
    corners = [lat.origin + lat.index.min(axis=0) @ lat.steps for lat in lattices]
    zero = (corners[0] - corners[1]) @ np.linalg.pinv(lattices[0].steps)
    assert np.allclose(zero, np.rint(zero), rtol=0, atol=1e-9)
    assert np.all(zero > -tx_index.max(axis=0) - 1)
    assert np.all(zero < rx_index.max(axis=0) + 1)
    op = assemble_channel(tx, rx, k)
    assert op.route == "lattice"
    _assert_matches_rows(op)


def test_source_lattice_runs_cover_every_source():
    # over 2**15 samples each, in 2D and on a tilted plate
    for shape in (Disc([0.1, -0.2], 0.5), SAMPLED_SHAPES["plate"]):
        tx = _samples([shape], 0.0045)
        assert tx.count > 2**15
        lattice = tx.lattice
        assert lattice.index.dtype == np.int32
        sites = lattice.origin + lattice.index @ lattice.steps
        # the sites match the points to rounding, as the closed-form Gram needs
        assert np.abs(sites - tx.points).max() <= 4 * np.finfo(float).eps * np.abs(tx.points).max()
        for axis, step in enumerate(lattice.steps):
            lo, hi = lattice.runs(axis)
            lengths = np.rint((hi - lo) @ step / (step @ step)).astype(np.int64)
            assert lengths.min() >= 1 and lengths.sum() == tx.count
            covered = np.vstack([start + np.arange(n)[:, None] * step
                                 for start, n in zip(lo, lengths)])
            covered = np.rint((covered - lattice.origin) @ np.linalg.pinv(lattice.steps))
            assert np.array_equal(np.unique(covered.astype(np.int64), axis=0),
                                  np.unique(lattice.index, axis=0))


def test_point_receivers_have_no_port_gram():
    tx, rx = LATTICE_PAIRS["discs"]()
    assert tx.lattice is not None
    assert assemble_channel(tx, rx, _K).port_gram() is None


def test_lattice_coincident_pair_raises():
    # segments sharing the point (0.2, 0): the realised zero offset is rejected
    tx, rx = _samples([Segment([0.0, 0.0], [0.2, 0.0])], 0.1), _samples(
        [Segment([0.2, 0.0], [0.4, 0.0])], 0.1)
    op = ChannelOperator("scalar2d", 5.0, tx, rx)
    assert tx.lattice is not None and rx.lattice is not None
    with pytest.raises(CoincidentPointsError):
        op.apply(np.ones(3))


def test_lattice_table_built_on_first_apply():
    # dense spectra read row blocks only, so they never plan or build the table
    op = _small_channel()
    op.dense()
    assert "_lattice_table" not in vars(op)
    assert op.route == "lattice"
    table = vars(op)["_lattice_table"]
    op.apply(np.ones(op.n_cols))
    assert vars(op)["_lattice_table"] is table


def test_lattice_frobenius_from_the_offset_table():
    # pair counts from the mask cross-correlation times |g|^2 over the table's
    # offsets, against the row blocks' sum over every entry of H
    op = assemble_channel(_plate_samples([0, 0, 0], _H),
                          _plate_samples([0.3, 0.2, 1], _H, side=0.6), _K)
    assert op.route == "lattice"
    assert op.lattice_frobenius_sq == pytest.approx(np.linalg.norm(op.dense()) ** 2, rel=1e-12,
                                                    abs=0)
    assert _fallback_random().lattice_frobenius_sq is None


# The lattice route on numpy alone: the same bits as scipy's fft and cdist


@pytest.mark.parametrize("grid, box", [((64, 128), (30, 70)), ((105, 88), (53, 41)),
                                       ((16, 32, 8), (9, 16, 3)), ((21, 15, 33), (11, 7, 20)),
                                       ((40,), (17,))],
                         ids=["2d-pow2", "2d-smooth", "3d-pow2", "3d-smooth", "1d-smooth"])
@pytest.mark.parametrize("batched", [False, True], ids=["whole", "columns"])
def test_fftn_is_scipys_bit_for_bit(grid, box, batched):
    import scipy.fft

    # batched as _convolve calls it: a leading axis of columns, not transformed
    shape = (3,) + grid if batched else grid
    axes = tuple(range(len(shape) - len(grid), len(shape)))
    rng = np.random.default_rng(21)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for inverse, reference in ((False, scipy.fft.fftn), (True, scipy.fft.ifftn)):
        work = x.copy()
        got = channel._fftn(work, inverse=inverse, batched=batched)
        assert got is work  # in place
        assert got.tobytes() == reference(x, axes=axes).tobytes()
    # boxed, as a lattice pass calls it: forward on an array zero outside the
    # box, inverse read inside the box; a zero line left untransformed stays
    # +0.0 where the full transform may give -0.0, so only what is read is compared
    inside = (slice(None),) * int(batched) + tuple(slice(0, n) for n in box)
    sparse = np.zeros_like(x)
    sparse[inside] = x[inside]
    got = channel._fftn(sparse.copy(), batched=batched, box=box)
    assert got.tobytes() == scipy.fft.fftn(sparse, axes=axes).tobytes()
    got = channel._fftn(x.copy(), inverse=True, batched=batched, box=box)
    full = scipy.fft.ifftn(x, axes=axes)
    assert got[inside].tobytes() == full[inside].tobytes()
    assert not np.array_equal(got, full)  # lines outside the box were skipped


def test_next_fast_len_is_scipys():
    import scipy.fft

    assert all(channel._next_fast_len(n) == scipy.fft.next_fast_len(n)
               for n in range(1, 2**16 + 1))


@pytest.mark.parametrize("name", ["discs", "shifted-plates", "spheres"])
def test_offset_norms_are_cdists(name):
    import scipy.spatial

    # offsets as the table forms them: the two lattices' corner gap plus
    # integer steps over the box of offsets
    tx, rx = (s.lattice for s in LATTICE_PAIRS[name]())
    reach = tx.index.max(axis=0) + rx.index.max(axis=0) + 1
    delta = np.indices(reach).reshape(len(reach), -1).T - tx.index.max(axis=0)
    offsets = rx.origin - tx.origin + delta @ tx.steps
    origin = np.zeros((1, offsets.shape[1]))
    assert np.array_equal(np.linalg.norm(offsets, axis=1),
                          scipy.spatial.distance.cdist(offsets, origin)[:, 0])


def test_lattice_zero_offset_raises_in_3d():
    # coplanar plates sharing the edge x = 1 on one lattice: their edge points coincide
    tx = _plate_samples([0, 0, 0], _H)
    rx = _plate_samples([1, 0, 0], _H)
    op = ChannelOperator("scalar3d", _K, tx, rx)
    assert tx.lattice is not None and rx.lattice is not None
    with pytest.raises(CoincidentPointsError):  # the table meets the zero offset
        op.apply(np.ones(op.n_cols))


SPACING_CASES = {
    # coplanar side by side: the boxes are 0.5 h and 1.5 h apart along x
    "coplanar-0.5h": lambda: (_plate_samples([0, 0, 0], _H),
                              _plate_samples([1 + 0.5 * _H, 0, 0], _H)),
    "coplanar-1.5h": lambda: (_plate_samples([0, 0, 0], _H),
                              _plate_samples([1 + 1.5 * _H, 0, 0], _H)),
    # perpendicular plates sharing the edge x = 1: the boxes touch
    "perpendicular-edge": lambda: (_plate_samples([0, 0, 0], _H),
                                   _plate_samples([1, 0, 0], _H, u=(0, 0, 1), v=(0, 1, 0))),
    # spheres 0.5 apart on each axis: the boxes overlap, the surfaces are 0.27 apart
    "diagonal-spheres": lambda: (_samples([Sphere([0, 0, 0], 0.3)], _H),
                                 _samples([Sphere([0.5, 0.5, 0.5], 0.3)], _H)),
}


@pytest.mark.parametrize("name, too_close, tree", [
    ("coplanar-0.5h", True, True), ("coplanar-1.5h", False, False),
    ("perpendicular-edge", True, True), ("diagonal-spheres", False, True)])
def test_spacing_check_raises_where_the_tree_alone_does(name, too_close, tree, monkeypatch):
    import scipy.spatial

    tx, rx = SPACING_CASES[name]()
    tree_class = scipy.spatial.cKDTree
    dist, _ = tree_class(tx.points).query(rx.points, k=1)
    assert (float(dist.min()) < _H * (1.0 - 1e-12)) == too_close  # the tree alone
    built = []
    monkeypatch.setattr(scipy.spatial, "cKDTree",
                        lambda points: built.append(points) or tree_class(points))
    if too_close:
        with pytest.raises(RegionsTooCloseError):
            assemble_channel(tx, rx, _K)
    else:
        assemble_channel(tx, rx, _K)
    assert bool(built) == tree  # the box gap alone settles only the 1.5 h case


@pytest.mark.parametrize("k", [0.0, -3.0, math.nan, math.inf])
def test_wavenumber_must_be_finite_and_positive(k):
    tx, rx = SampleSet([[0.0, 0.0]], 1.0), SampleSet([[0.0, 2.0]], 1.0)
    with pytest.raises(ValueError, match="wavenumber"):
        ChannelOperator("scalar2d", k, tx, rx)
    with pytest.raises(ValueError, match="wavenumber"):
        assemble_channel(tx, rx, k)


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
    op_rot = ChannelOperator("farfield2d", k, SampleSet(op.tx.points @ rot.T, op.tx.spacing),
                             op.ports)
    assert np.linalg.norm(op.dense()) == pytest.approx(np.linalg.norm(op_rot.dense()), rel=1e-8)


def test_farfield_em_ports():
    k = 5.0
    t = Region((Sphere([0, 0, 0], 0.4),), "T")
    quad = sphere_quadrature(4, 8)
    ports = ports_from_quadrature(quad, polarized=True)
    op = assemble_channel(sample_region(t, 2 * math.pi / k / 5), ports, k)
    n_src = op.tx.count
    assert op.shape == (2 * quad.n, 3 * n_src)
    # polarization vectors are orthogonal to their propagation directions
    for p in ports:
        assert all(abs(v @ p.direction.khat) < 1e-12 for v in p.direction.plane_basis())
    # adjoint still consistent for the EM far-field kind
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.n_cols) + 1j * rng.standard_normal(op.n_cols)
    y = rng.standard_normal(op.n_rows) + 1j * rng.standard_normal(op.n_rows)
    lhs = np.vdot(y, op.apply(x))
    rhs = np.vdot(op.adjoint_apply(y), x)
    h_norm = np.linalg.norm(op.dense())
    assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y) * h_norm) < 1e-10


@pytest.mark.parametrize("case", ["2d", "3d", "3d polarized"])
def test_farfield_port_arrays_equal_per_port_values(case):
    if case == "2d":
        ports, tx = ports_from_quadrature(circle_quadrature(37)), [[0.1, 0.2]]
    else:
        ports = ports_from_quadrature(sphere_quadrature(6, 12), polarized=case != "3d")
        # pole directions take the fixed (x, y) basis
        ports += [FarFieldPort(Direction(0.7, theta), 0.5, p.polarization)
                  for theta in (0.0, math.pi) for p in ports[:2]]
        tx = [[0.1, 0.2, 0.3]]
    op = ChannelOperator(f"farfield{case[:2]}", 3.0, SampleSet(tx, 1.0), ports)
    khats, sqrtw, *pols = op._receiver
    assert np.array_equal(khats, np.array([p.direction.khat for p in ports]))
    assert np.array_equal(sqrtw, np.array([math.sqrt(p.weight) for p in ports]))
    if case == "3d polarized":
        assert np.array_equal(pols[0], np.array([p.direction.plane_basis()[p.polarization == "phi"]
                                                 for p in ports]))
    else:
        assert pols == []


def test_green_functions_are_one_by_one_row_blocks():
    r, rp, k = [0.3, -0.2, 2.1], [0.1, 0.4, -0.3], 4.0
    for kind, green in (("scalar3d", green_3d), ("dyadic3d", green_dyadic_3d)):
        op = ChannelOperator(kind, k, SampleSet([rp], 1.0), SampleSet([r], 1.0))
        assert np.array_equal(op.row_block(0, op.n_rows), np.atleast_2d(green(r, rp, k)))
    op = ChannelOperator("scalar2d", k, SampleSet([rp[:2]], 1.0), SampleSet([r[:2]], 1.0))
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


def test_dense_cap(monkeypatch):
    op = _small_channel()
    entries = op.n_rows * op.n_cols
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries)
    assert op.dense().shape == op.shape
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries - 1)
    with pytest.raises(TooLargeForDenseError):
        op.dense()


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
    assert np.linalg.norm(op.dense()) == pytest.approx(np.linalg.norm(op_rot.dense()), rel=1e-8)
