"""Spectrum extraction: the dense Gram route, the randomized sketch, N_e and N_k."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from shadowdof import channel, spectra
from shadowdof.channel import (
    ChannelOperator,
    SampleSet,
    assemble_channel,
    ports_from_quadrature,
    sample_region,
)
from shadowdof.errors import AllZeroSpectrumError, TooLargeForDenseError
from shadowdof.geometry import Disc, PlanarPolygon, Segment, Sphere
from shadowdof.quadrature import circle_quadrature, sphere_quadrature
from shadowdof.shadow import Region
from shadowdof.spectra import (
    dense_entries,
    dense_spectrum,
    effective_ndof,
    knee_ndof,
    plan_spectrum,
    randomized_spectrum,
    spectrum_from_sigma,
)


def low_rank_plus_noise(rng, n=300, rank=50, noise=1e-6):
    u, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    s = np.linspace(1.0, 0.5, rank)
    noise_m = noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (u * s) @ v.conj().T + noise_m


# ---------------------------------------------------------------------------
# Dense spectra and the identities


def test_identity_matrix_spectrum():
    spec = dense_spectrum(np.eye(3, dtype=complex))
    assert np.allclose(spec.sigma, [1.0, 1.0, 1.0])
    assert np.allclose(spec.zeta, [1 / 3] * 3)
    assert spec.n_effective == pytest.approx(3.0, rel=1e-14)


def test_diag21_spectrum():
    spec = dense_spectrum(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(spec.sigma, [4.0, 1.0])
    assert spec.n_effective == pytest.approx(25.0 / 17.0, rel=1e-14)


def test_ideal_channel():
    n_a = 17
    sigma = np.ones(n_a)
    spec = spectrum_from_sigma(sigma, "dense")
    assert spec.n_effective == pytest.approx(n_a, rel=1e-14)
    assert np.allclose(spec.zeta, 1.0 / n_a)
    assert spec.n_knee == n_a


def test_effective_ndof_values():
    assert effective_ndof([1.0]) == pytest.approx(1.0)
    assert effective_ndof(np.ones(8)) == pytest.approx(8.0)
    assert effective_ndof([4.0, 1.0]) == pytest.approx(25.0 / 17.0, rel=1e-15)
    with pytest.raises(AllZeroSpectrumError):
        effective_ndof([0.0, 0.0])


def test_knee_geometric_sequence():
    zeta = 0.5 ** np.arange(1, 40)
    zeta = zeta / zeta.sum()
    assert knee_ndof(zeta) == 2


def test_zeta_identities_always_hold():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
        spec = dense_spectrum(m)
        assert abs(spec.zeta.sum() - 1.0) < 1e-12
        assert abs(float(spec.zeta @ spec.zeta) - 1.0 / spec.n_effective) < 1e-12
        nonzero = int(np.sum(spec.sigma > 0))
        assert 1.0 <= spec.n_effective <= nonzero + 1e-9


def test_scale_invariance():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((15, 25)) + 1j * rng.standard_normal((15, 25))
    a = dense_spectrum(m)
    b = dense_spectrum(3.7e4 * m)
    assert np.allclose(a.zeta, b.zeta, rtol=1e-12)
    assert a.n_effective == pytest.approx(b.n_effective, rel=1e-12)
    assert a.n_knee == b.n_knee


# ---------------------------------------------------------------------------
# The Gram route against the SVD


def _gram_case(name):
    """A channel operator (or matrix) of each shape and block kind the dense route streams."""
    if name == "ndarray":
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60)))
        v, _ = np.linalg.qr(rng.standard_normal((300, 60)) + 1j * rng.standard_normal((300, 60)))
        return (u * np.logspace(0, -8, 60)) @ v.conj().T  # graded spectrum down to 1e-16
    k2d = 2 * math.pi / 0.1
    tx2d = sample_region(Region((Segment([-0.2, 0.0], [0.2, 0.0]),), "T"), 0.02)
    if name == "wide-farfield":  # 96 x 1961
        disc = sample_region(Region((Disc([0.0, 0.0], 0.5),), "T"), 0.02)
        return assemble_channel(disc, ports_from_quadrature(circle_quadrature(96)), k2d)
    if name == "tall-points":  # 151 x 21, N_R > N_T
        rx = sample_region(Region((Segment([-1.5, 1.0], [1.5, 1.0]),), "R"), 0.02)
        return assemble_channel(tx2d, rx, k2d)
    if name == "square":  # 21 x 21
        rx = sample_region(Region((Segment([-0.2, 1.0], [0.2, 1.0]),), "R"), 0.02)
        return assemble_channel(tx2d, rx, k2d)
    if name == "polarized":  # 144 x 5208, three columns per source
        ball = sample_region(Region((Sphere([0, 0, 0], 0.3),), "T"), 0.04)
        ports = ports_from_quadrature(sphere_quadrature(6, 12), polarized=True)
        return assemble_channel(ball, ports, 2 * math.pi / 0.2)
    if name == "tall-farfield":  # 96 x 32, N_R > N_T
        disc = sample_region(Region((Disc([0.0, 0.0], 0.07),), "T"), 0.02)
        return assemble_channel(disc, ports_from_quadrature(circle_quadrature(96)), k2d)
    if name == "offset-grids":  # 64 x 968: the second disc's grid is not the first's
        discs = sample_region(Region((Disc([0.0, 0.0], 0.25), Disc([0.61, 0.0], 0.25)), "T"),
                              0.02)
        return assemble_channel(discs, ports_from_quadrature(circle_quadrature(64)), k2d)
    if name == "coarse-sources":  # 4 x 88 at spacing lambda / sqrt(2)
        # ports at 45 + 90 i degrees differ by sqrt(2) along an axis or by (sqrt(2),
        # sqrt(2)): their phase steps are whole turns on every axis (aliasing)
        disc = sample_region(Region((Disc([0.0, 0.0], 0.38),), "T"), 0.1 / math.sqrt(2))
        return assemble_channel(disc, ports_from_quadrature(circle_quadrature(4)), k2d)
    if name in ("mirror-plate", "plate-hemisphere"):  # 72 x 576 and 36 x 576
        # a planar lattice in 3D: over the whole sphere, ports at theta and
        # pi - theta mirror across it; over the upper hemisphere none do
        square = PlanarPolygon([[-0.6, -0.6, 3], [0.6, -0.6, 3], [0.6, 0.6, 3], [-0.6, 0.6, 3]],
                               [0, 0, 1.0])
        plate = sample_region(Region((square,), "T"), 0.05)
        thetas = (0.0, math.pi if name == "mirror-plate" else math.pi / 2)
        ports = ports_from_quadrature(sphere_quadrature(6 if name == "mirror-plate" else 3, 12,
                                                        theta_range=thetas))
        return assemble_channel(plate, ports, 2 * math.pi / 0.25)
    k3d = 4.0
    step = 2 * math.pi / k3d / 5
    ball = sample_region(Region((Sphere([0, 0, 0], 0.6),), "T"), step)
    square = PlanarPolygon([[-0.6, -0.6, 3], [0.6, -0.6, 3], [0.6, 0.6, 3], [-0.6, 0.6, 3]],
                           [0, 0, 1.0])
    plate = sample_region(Region((square,), "R"), step)
    if name == "dyadic-wide":  # 48 x 81
        return assemble_channel(ball, plate, k3d, kind="dyadic3d")
    return assemble_channel(plate, ball, k3d, kind="dyadic3d")  # dyadic-tall, 81 x 48


# case -> where its Gram matrix comes from: the closed form over lattice runs
# (far-field ports over lattice sources) or streamed blocks
GRAM_CASES = {"wide-farfield": "lattice", "tall-points": "rows", "square": "rows",
              "dyadic-wide": "rows", "dyadic-tall": "rows", "polarized": "lattice",
              "ndarray": "rows", "tall-farfield": "rows", "offset-grids": "rows",
              "coarse-sources": "rows", "mirror-plate": "rows", "plate-hemisphere": "lattice"}


@pytest.mark.parametrize("block_span", [256, 7], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("name", list(GRAM_CASES))
def test_gram_route_matches_svd(name, block_span, monkeypatch):
    h = _gram_case(name)
    matrix = h.dense() if isinstance(h, ChannelOperator) else h
    ref = spectrum_from_sigma(np.linalg.svd(matrix, compute_uv=False) ** 2, "dense")
    monkeypatch.setattr(spectra, "_BLOCK_SPAN", block_span)
    monkeypatch.setattr(channel, "_RUN_CHUNK", block_span)
    if isinstance(h, ChannelOperator):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense route materialized the operator")

        monkeypatch.setattr(ChannelOperator, "dense", refuse)
    if GRAM_CASES[name] == "lattice":
        def refuse_blocks(*args, **kwargs):
            raise AssertionError("the port Gram streamed blocks")

        monkeypatch.setattr(spectra, "_blocks", refuse_blocks)
    spec = dense_spectrum(h)
    assert spec.method == "dense"
    assert spec.route == GRAM_CASES[name]
    assert spec.sigma.shape[0] == min(matrix.shape)
    top = ref.sigma[0]
    assert np.all(np.abs(spec.sigma - ref.sigma) <= 1e-12 * top)
    # the absolute floor (about 1e-14 sigma_1 here) makes values near the top
    # relatively exact; far below it only the absolute bound holds
    upper = ref.sigma >= 1e-3 * top
    assert np.all(np.abs(spec.sigma[upper] - ref.sigma[upper]) <= 1e-10 * ref.sigma[upper])
    assert spec.n_effective == pytest.approx(ref.n_effective, rel=1e-12)
    assert spec.n_knee == ref.n_knee


@pytest.mark.parametrize("name,lattice", [("tall-farfield", True), ("offset-grids", False),
                                          ("coarse-sources", True), ("mirror-plate", True)])
def test_port_gram_streams_without_a_usable_closed_form(name, lattice):
    # N_R > N_T, no lattice, or a pair of distinct directions with rho = 1 on
    # every axis
    h = _gram_case(name)
    assert (h.tx.lattice is not None) == lattice
    if h.n_rows <= h.n_cols:
        assert h.port_gram() is None


def test_only_the_sampler_gives_sources_a_lattice():
    # a lattice cannot be passed in, and a copy of a sampled set drops it, so
    # sources off the sampler's grid always stream
    disc = sample_region(Region((Disc([0.0, 0.0], 0.5),), "T"), 0.02)
    with pytest.raises(TypeError):
        SampleSet(disc.points, disc.spacing, disc.lattice)
    copy = dataclasses.replace(disc)
    assert copy.lattice is None and np.array_equal(copy.points, disc.points)
    ports = ports_from_quadrature(circle_quadrature(96))
    assert assemble_channel(disc, ports, 2 * math.pi / 0.1).port_gram() is not None
    assert assemble_channel(copy, ports, 2 * math.pi / 0.1).port_gram() is None


def test_port_gram_pairs_of_one_direction_are_exact():
    # scalar: the diagonal is w N_T; polarized: theta/phi ports of one direction
    # give w N_T on the diagonal and their projection p_theta . p_phi = 0 off it
    for name in ("wide-farfield", "polarized"):
        h = _gram_case(name)
        gram = h.port_gram()
        sqrtw = np.sqrt([port.weight for port in h.ports])
        n_src = h.tx.count
        assert np.allclose(np.diag(gram), sqrtw**2 * n_src, rtol=1e-15, atol=0)
        if name == "polarized":
            pairs = gram[np.arange(0, h.n_rows, 2), np.arange(1, h.n_rows, 2)]
            assert np.all(np.abs(pairs) <= 1e-15 * sqrtw[::2] ** 2 * n_src)


def test_gram_route_cap_counts_gram_and_block(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK_SPAN", 7)
    monkeypatch.setattr(channel, "_RUN_CHUNK", 7)
    op = _gram_case("wide-farfield")
    n_rows, n_cols = op.shape
    entries = dense_entries(n_rows, n_cols)
    assert entries == n_rows**2 + 7 * n_rows < n_rows * n_cols
    h = op.dense()  # materialized under the full cap, so dense_spectrum refuses it itself
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries)
    assert dense_spectrum(op).sigma.shape[0] == n_rows
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries - 1)
    with pytest.raises(TooLargeForDenseError, match="dense route"):
        dense_spectrum(op)
    with pytest.raises(TooLargeForDenseError, match="dense route"):
        dense_spectrum(h)


def test_one_cap_moves_every_refusal(monkeypatch):
    # the plan, the materialized H and the sampler all read channel.DENSE_CAP_ENTRIES
    region = Region((Disc([0.0, 0.0], 0.5),), "T")
    samples = sample_region(region, 0.1)
    op = assemble_channel(samples, sample_region(Region((Disc([0.0, 2.0], 0.5),), "R"), 0.1),
                          6.0)
    assert plan_spectrum(op.shape, "dense", 10.0, 3.0).method == "dense"
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", op.n_rows * op.n_cols - 1)
    with pytest.raises(TooLargeForDenseError, match="use the randomized method"):
        plan_spectrum(op.shape, "dense", 10.0, 3.0)
    with pytest.raises(TooLargeForDenseError, match="dense .* channel matrix"):
        op.dense()
    assert sample_region(region, 0.1).count == samples.count
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", samples.count)
    with pytest.raises(TooLargeForDenseError, match="sampling a 11 x 11 grid box .* 88 bytes for each of its 121 points, 10648 bytes") as info:
        sample_region(region, 0.1)
    assert info.value.plan is None


def test_plan_resolves_auto_and_clamps_p(monkeypatch):
    dense = dense_entries(64, 484)
    assert plan_spectrum((64, 484), "dense", 10.0, 3.0) == ("dense", None, dense)
    sketch = plan_spectrum((64, 484), "randomized", 10.0, 3.0)
    assert sketch == ("randomized", 30, 484 * 30 + dense_entries(484, 30))
    assert plan_spectrum((64, 484), "randomized", 100.0, 3.0).p == 64  # min(N_R, N_T)
    assert plan_spectrum((64, 484), "randomized", 0.1, 0.5).p == 1  # N_a below 1 counts as 1
    assert plan_spectrum((64, 484), "auto", 10.0, 3.0).method == "dense"
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", dense - 1)
    with pytest.raises(TooLargeForDenseError, match="use the randomized method"):
        plan_spectrum((64, 484), "dense", 10.0, 3.0)
    with pytest.raises(TooLargeForDenseError, match="lower p_factor") as info:
        plan_spectrum((64, 484), "auto", 10.0, 3.0)
    assert info.value.plan == sketch
    assert plan_spectrum((64, 484), "auto", 2.0, 3.0).method == "randomized"


def test_sketch_cap_counts_buffer_gram_and_block(monkeypatch):
    rng = np.random.default_rng(5)
    h = rng.standard_normal((40, 90)) + 1j * rng.standard_normal((40, 90))
    p = 8
    entries = 90 * p + dense_entries(90, p)
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries)
    assert randomized_spectrum(h, p, seed=0).sigma.shape[0] == p
    monkeypatch.setattr(channel, "DENSE_CAP_ENTRIES", entries - 1)
    with pytest.raises(TooLargeForDenseError, match=f"{16 * entries} bytes") as info:
        randomized_spectrum(h, p, seed=0)
    assert info.value.plan == ("randomized", p, entries)


# ---------------------------------------------------------------------------
# Randomized sketch


def test_randomized_exact_low_rank():
    rng = np.random.default_rng(2)
    n, rank = 120, 8
    u, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    m = (u * np.linspace(2.0, 1.0, rank)) @ v.T
    spec = randomized_spectrum(m.astype(complex), p=20, seed=5, power_iters=0)
    ref = dense_spectrum(m.astype(complex))
    assert np.allclose(spec.sigma[:rank], ref.sigma[:rank], rtol=1e-10)


def test_randomized_low_rank_plus_noise():
    rng = np.random.default_rng(3)
    m = low_rank_plus_noise(rng, n=300, rank=50)
    ref = dense_spectrum(m)
    spec = randomized_spectrum(m, p=150, seed=11, power_iters=1)
    rel = np.abs(spec.sigma[:50] - ref.sigma[:50]) / ref.sigma[:50]
    assert rel.max() < 1e-3


def test_randomized_seed_reproducible():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((60, 80)) + 1j * rng.standard_normal((60, 80))
    a = randomized_spectrum(m, p=20, seed=42)
    b = randomized_spectrum(m, p=20, seed=42)
    assert np.array_equal(a.sigma, b.sigma)
    c = randomized_spectrum(m, p=20, seed=43)
    assert not np.array_equal(a.sigma, c.sigma)


def test_randomized_monotone_oversampling():
    # mean top-k error over 20 seeds never grows with the sketch size
    rng = np.random.default_rng(6)
    m = low_rank_plus_noise(rng, n=200, rank=40, noise=1e-4)
    ref = dense_spectrum(m).sigma[:40]
    mean_err = []
    for p in (50, 70, 120):
        errs = []
        for seed in range(20):
            spec = randomized_spectrum(m, p=p, seed=seed, power_iters=0)
            errs.append(float(np.max(np.abs(spec.sigma[:40] - ref) / ref)))
        mean_err.append(np.mean(errs))
    assert mean_err[0] >= mean_err[1] >= mean_err[2]


def test_randomized_dimension_check():
    m = np.zeros((5, 5), dtype=complex)
    with pytest.raises(ValueError):
        randomized_spectrum(m, p=9, seed=0)


def _former_sketch_sigma(h, p, seed, power_iters):
    """The sketch's former reduction: the same Philox draw and QR steps, then svd(W^H H)**2."""
    matrix = h.dense() if isinstance(h, ChannelOperator) else h
    rng = np.random.Generator(np.random.Philox(seed))
    n_cols = matrix.shape[1]
    a = (rng.standard_normal((n_cols, p)) + 1j * rng.standard_normal((n_cols, p))) / math.sqrt(2)
    w, _ = np.linalg.qr(matrix @ a)
    for _ in range(power_iters):
        w, _ = np.linalg.qr(matrix @ (matrix.conj().T @ w))
    return np.linalg.svd(w.conj().T @ matrix, compute_uv=False) ** 2


SKETCH_CASES = {
    "lattice": lambda: assemble_channel(
        sample_region(Region((Disc([0.0, 0.0], 0.4),), "T"), 0.05),
        sample_region(Region((Disc([0.3, 1.6], 0.3),), "R"), 0.05), 2 * math.pi / 0.25),
    "rows": lambda: _gram_case("wide-farfield"),
    "ndarray": lambda: _gram_case("ndarray"),
}


@pytest.mark.parametrize("name", list(SKETCH_CASES))
def test_randomized_ends_in_the_gram_eigensolve(name, monkeypatch):
    h = SKETCH_CASES[name]()
    if isinstance(h, ChannelOperator):
        assert h.route == name
    p = min(h.shape) // 2
    ref = np.sort(_former_sketch_sigma(h, p, seed=9, power_iters=1))[::-1]

    def refuse(*args, **kwargs):
        raise AssertionError("the sketch called an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    spec = randomized_spectrum(h, p=p, seed=9, power_iters=1)
    assert spec.method == f"randomized(P={p}, power_iters=1)"
    assert spec.seed == 9
    assert spec.sigma.shape[0] == p
    assert np.max(np.abs(spec.sigma - ref)) <= 1e-12 * ref[0]


@pytest.mark.parametrize("name", list(SKETCH_CASES))
def test_lu_power_step_matches_householder(name, monkeypatch):
    # P L spans the power step's Y, so the values are a QR-only sketch's up to
    # rounding: measured at most 2.0e-15 sigma_1 over these cases at one and two
    # power iterations; the bound leaves 5x
    h = SKETCH_CASES[name]()
    p = min(h.shape) // 2
    for power_iters in (1, 2):
        lu = randomized_spectrum(h, p=p, seed=9, power_iters=power_iters)
        with monkeypatch.context() as m:
            m.setattr(spectra, "_lu_basis", spectra._basis)
            ref = randomized_spectrum(h, p=p, seed=9, power_iters=power_iters)
        assert np.max(np.abs(lu.sigma - ref.sigma)) <= 1e-14 * ref.sigma[0]
        assert lu.n_knee == ref.n_knee
    if name == "lattice":  # the only route with ||H||_F^2 from the offset table
        expected = math.fsum(lu.sigma) / np.linalg.norm(h.dense()) ** 2
        assert lu.captured_energy == pytest.approx(expected, rel=1e-12, abs=0)
    else:
        assert lu.captured_energy is None


@pytest.mark.parametrize("power_iters", [1, 2, 3])
def test_lu_power_step_on_a_rank_deficient_matrix(power_iters):
    # rank 8 with P = 20: after eight steps the LU pivots on rounding noise, yet
    # P L keeps unit columns and the top 8 values hold (measured <= 1.9e-15)
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((120, 8)) + 1j * rng.standard_normal((120, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((120, 8)) + 1j * rng.standard_normal((120, 8)))
    m = (u * np.linspace(1.0, 0.3, 8)) @ v.conj().T
    ref = dense_spectrum(m).sigma[:8]
    spec = randomized_spectrum(m, p=20, seed=4, power_iters=power_iters)
    assert np.all(np.isfinite(spec.sigma))
    assert np.max(np.abs(spec.sigma[:8] - ref) / ref) < 1e-10


def test_no_power_step_takes_no_lu(monkeypatch):
    def refuse(y):
        raise AssertionError("a sketch without power iterations took an LU")

    monkeypatch.setattr(spectra, "_lu_basis", refuse)
    spec = randomized_spectrum(SKETCH_CASES["ndarray"](), p=10, seed=9, power_iters=0)
    assert spec.timings["lu_s"] == 0.0


@pytest.mark.parametrize("sides,threads,bound", [
    ((1.0, 1.0), 1, 1.4),  # measured 1.17
    ((1.0, 0.7), 2, 1.55),  # N_R < N_T, measured 1.37-1.40
    ((0.7, 1.0), 2, 1.55),  # N_R > N_T, measured 1.36-1.39
], ids=["equal", "nr-below-nt", "nr-above-nt"])
def test_sketch_holds_about_one_n_by_p_matrix(sides, threads, bound):
    # unit plates at d = 1 on the lattice route, N = 4096 a side and P = 300 as
    # squares_parallel.yaml, and a 0.7 plate (2025 points) facing one: the traced
    # peak, the table build included, in units of max(N_T, N_R) P 16 bytes.  The
    # sketch's one buffer holds every N x P matrix in turn (the test matrix, each
    # pass's result over its input, each basis in place); the rest is FFT chunks,
    # 2 * threads of them in flight, and P x P matrices.  Holding the test matrix
    # and each pass's result apart measured 2.17-2.24 at one thread (1.90 and 1.85
    # for the unequal pairs at two threads); with np.linalg.qr's copies too, 8.41
    h = 1.0 / 63
    sides_samples = []
    for z, side in zip((0.0, 1.0), sides):
        o = np.array([0.0, 0.0, z])
        plate = PlanarPolygon([o, o + [side, 0, 0], o + [side, side, 0], o + [0, side, 0]],
                              [0, 0, 1.0])
        sides_samples.append(sample_region(Region((plate,), "P"), h))
    op = assemble_channel(*sides_samples, 2 * math.pi / (5 * h), threads=threads)
    n, p = max(op.shape), 300
    assert op.route == "lattice" and n == 4096
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        spec = randomized_spectrum(op, p, seed=1, power_iters=1)
        total = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * n * p * 16
    assert set(spec.timings) == {"passes_s", "lu_s", "qr_s"}
    assert all(v > 0.0 for v in spec.timings.values())
    assert sum(spec.timings.values()) < total
