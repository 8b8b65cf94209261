"""Radiation modes, trace identity, effective area, and water-filling."""

import math

import numpy as np
import pytest

from shadowdof.capacity import (
    inverse_eigen_curve,
    max_effective_area,
    radiation_modes,
    trace_identity,
    waterfill,
)
from shadowdof.errors import AllZeroEfficienciesError, NotSPDError
from oracles import waterfill_grid_capacity_two


def random_spd(rng, n, spread=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eigs = rng.uniform(1.0, spread, n)
    return (q * eigs) @ q.conj().T


def random_f(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# Radiation modes


def test_identity_constraint_reduces_to_svd():
    rng = np.random.default_rng(0)
    f = random_f(rng, 6, 9)
    modes = radiation_modes(f, 1.0)
    svals = np.linalg.svd(f, compute_uv=False)
    assert np.allclose(modes.efficiencies, svals**2, rtol=1e-12)


def test_scaled_identity_scaling_law():
    rng = np.random.default_rng(1)
    f = random_f(rng, 5, 7)
    base = radiation_modes(f, 1.0)
    scaled = radiation_modes(f, 4.0)
    assert np.allclose(scaled.efficiencies, base.efficiencies / 4.0, rtol=1e-12)
    # currents scale by 1/2; normalized spectrum is unchanged
    assert np.allclose(np.linalg.norm(scaled.currents, axis=0),
                       np.linalg.norm(base.currents, axis=0) / 2.0, rtol=1e-12)
    za = base.efficiencies / base.efficiencies.sum()
    zb = scaled.efficiencies / scaled.efficiencies.sum()
    assert np.allclose(za, zb, rtol=1e-12)


def test_mode_orthogonality_relations():
    rng = np.random.default_rng(2)
    n_t = 8
    f = random_f(rng, 12, n_t)
    r_x = random_spd(rng, n_t)
    modes = radiation_modes(f, r_x)
    currents = modes.currents
    grammed = currents.conj().T @ r_x @ currents
    assert np.max(np.abs(grammed - np.eye(n_t))) < 1e-10
    fields = f @ currents
    overlap = fields.conj().T @ fields
    assert np.max(np.abs(overlap - np.diag(modes.efficiencies))) < 1e-10


def test_not_spd_rejected():
    rng = np.random.default_rng(3)
    f = random_f(rng, 4, 4)
    with pytest.raises(NotSPDError):
        radiation_modes(f, -1.0)
    with pytest.raises(NotSPDError):
        radiation_modes(f, np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(NotSPDError):
        radiation_modes(f, rng.standard_normal((4, 4)))  # not Hermitian


# ---------------------------------------------------------------------------
# Trace identity and effective area


def test_trace_identity_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows = int(rng.integers(3, 12))
        cols = int(rng.integers(3, 12))
        f = random_f(rng, rows, cols)
        lam2 = rng.uniform(0.5, 2.0, rows)
        r_x = random_spd(rng, cols)
        lhs, rhs, mismatch = trace_identity(f, lam2, r_x)
        assert mismatch < 1e-10


def test_trace_identity_frobenius_case():
    rng = np.random.default_rng(5)
    f = random_f(rng, 4, 6)
    lam2 = np.ones(4)
    lhs, rhs, mismatch = trace_identity(f, lam2, 1.0)
    assert lhs == pytest.approx(np.linalg.norm(f, "fro") ** 2, rel=1e-12)
    assert mismatch < 1e-12


def test_constraint_checked_and_factored_once_per_call(monkeypatch):
    rng = np.random.default_rng(7)
    f, lam2, r_x = random_f(rng, 5, 4), rng.uniform(0.5, 2.0, 5), random_spd(rng, 4)
    calls = {"radiation_modes": lambda r: radiation_modes(f, r),
             "trace_identity": lambda r: trace_identity(f, lam2, r),
             "max_effective_area": lambda r: max_effective_area(f[0], r, 0.3)}
    for name, call in calls.items():
        for bad, message in ((0.0, "positive"), (np.ones((4, 3)), "4 x 4|square"),
                             (rng.standard_normal((4, 4)), "Hermitian"),
                             (np.diag([1.0, 1.0, 1.0, -0.5]), "positive definite")):
            with pytest.raises(NotSPDError, match=message):
                call(bad)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))

    def refuse(*args, **kwargs):
        raise AssertionError("solved by LU instead of the Cholesky factor")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name, call in calls.items():
        factored.clear()
        call(r_x)
        assert len(factored) == 1, name


def test_max_effective_area_single_row():
    row = np.array([1.0 + 2.0j, -0.5j])
    lam = 0.25
    val = max_effective_area(row, 1.0, lam)
    assert val == pytest.approx(lam**2 * float(np.real(row.conj() @ row)), rel=1e-14)


def test_effective_area_sum_matches_trace():
    rng = np.random.default_rng(6)
    f = random_f(rng, 10, 6)
    lam2 = rng.uniform(0.5, 1.5, 10)
    r_x = random_spd(rng, 6)
    wavelength = 0.3
    total = math.fsum(
        lam2[p] * max_effective_area(f[p], r_x, wavelength) for p in range(10)
    ) / wavelength**2
    weighted = np.sqrt(lam2)[:, None] * f
    nu_sum = float(np.sum(radiation_modes(weighted, r_x).efficiencies))
    assert abs(total - nu_sum) / nu_sum < 1e-10


# ---------------------------------------------------------------------------
# Water-filling


def test_waterfill_single_mode():
    res = waterfill([1.0], 1.0)
    assert np.allclose(res.allocations, [1.0])
    assert res.capacity_bits == pytest.approx(1.0, rel=1e-14)


def test_waterfill_equal_modes():
    for gamma in (0.5, 1.0, 10.0):
        res = waterfill([1.0, 1.0], gamma)
        assert np.allclose(res.allocations, [0.5, 0.5])
        assert res.capacity_bits == pytest.approx(2 * math.log2(1 + gamma / 2), rel=1e-13)


def test_waterfill_against_grid_oracle():
    for gamma in (0.5, 1.0, 10.0):
        res = waterfill([1.0, 0.1], gamma)
        oracle = waterfill_grid_capacity_two(1.0, 0.1, gamma)
        assert abs(res.capacity_bits - oracle) < 1e-6


def test_waterfill_kkt_residuals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nu = rng.uniform(0.01, 2.0, int(rng.integers(2, 12)))
        gamma = float(rng.uniform(0.1, 20.0))
        res = waterfill(nu, gamma)
        assert abs(res.allocations.sum() - 1.0) < 1e-12
        assert np.all(res.allocations >= 0)
        active = res.allocations > 0
        kkt = res.allocations[active] + 1.0 / (gamma * nu[active]) - res.water_level
        assert np.max(np.abs(kkt)) < 1e-10
        if np.any(~active):
            assert np.all(1.0 / (gamma * nu[~active]) >= res.water_level - 1e-12)


def test_waterfill_monotonicity():
    nu = [1.0, 0.4, 0.05]
    caps = [waterfill(nu, g).capacity_bits for g in (0.5, 1.0, 2.0, 8.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))
    # raising one efficiency never hurts
    base = waterfill([1.0, 0.4], 2.0).capacity_bits
    assert waterfill([1.0, 0.5], 2.0).capacity_bits >= base
    # active set shrinks (weakly) as the SNR decreases
    counts = [waterfill([1.0, 0.3, 0.1, 0.03], g).active_count for g in (30.0, 3.0, 0.3, 0.03)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_waterfill_rejects_degenerate():
    with pytest.raises(AllZeroEfficienciesError):
        waterfill([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0], 0.0)


# ---------------------------------------------------------------------------
# Reciprocal eigenvalue curve


def test_inverse_eigen_curve():
    n_a = 10.0
    ideal = np.full(10, 0.1)
    assert np.allclose(inverse_eigen_curve(ideal, n_a), 1.0)
    assert inverse_eigen_curve(np.array([0.2]), n_a)[0] == pytest.approx(0.5)
    z = np.array([0.5, 0.3, 0.2, 0.0])
    curve = inverse_eigen_curve(z, 2.0)
    assert math.isinf(curve[-1])
    assert np.all(np.diff(curve[:-1]) >= 0)  # descending zeta gives ascending curve


def test_effective_area_full_circle_sum_rotation_invariant():
    from shadowdof.channel import SampleSet, assemble_channel, ports_from_quadrature, sample_region
    from shadowdof.geometry import Disc
    from shadowdof.quadrature import circle_quadrature
    from shadowdof.shadow import Region

    k, lam = 12.0, 2 * math.pi / 12.0
    t = Region((Disc([0.4, 0.0], 0.5),), "T")
    tx = sample_region(t, lam / 5)
    quad = circle_quadrature(64)
    ports = ports_from_quadrature(quad)
    rho = 2.0

    def full_sum(points):
        op = assemble_channel(SampleSet(points, tx.spacing), ports, k)
        f = op.dense() / np.sqrt(quad.weights)[:, None]  # strip the sqrt(weight) rows
        return math.fsum(
            quad.weights[p] * max_effective_area(f[p], rho, lam) for p in range(quad.n))

    base = full_sum(tx.points)
    ang = 0.9
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    rotated = full_sum(tx.points @ rot.T)
    assert rotated == pytest.approx(base, rel=1e-8)
    # consistency with the modal sum: sum_p w_p maxAeff / lambda^2 = sum(nu)
    op = assemble_channel(tx, ports, k)
    nu_sum = float(np.sum(radiation_modes(op.dense(), rho).efficiencies))
    assert base / lam**2 == pytest.approx(nu_sum, rel=1e-10)


def test_inverse_curve_scenario_steep_rise():
    from shadowdof.scenario import load_scenario, run_scenario

    config = load_scenario({
        "name": "lines", "dimension": 2,
        "transmitter": {"parts": [{"kind": "segment", "start": [-0.5, 0.0],
                                   "end": [0.5, 0.0]}]},
        "receiver": {"parts": [{"kind": "segment", "start": [-0.25, 1.0],
                                "end": [0.25, 1.0]}]},
        "target_ndof": 50, "spectrum": {"method": "dense", "seed": 0},
        "quadrature": {"n_directions": 2048}})
    summary, _, spec = run_scenario(config)
    curve = inverse_eigen_curve(spec.zeta, summary["n_a"])
    finite = curve[np.isfinite(curve)]
    assert np.all(np.diff(np.sort(finite)) >= 0)
    n_a = int(summary["n_a"])
    # steep rise past the knee: two decades within 20% of N_a
    assert curve[int(1.2 * n_a)] > 100 * curve[int(0.8 * n_a)]
