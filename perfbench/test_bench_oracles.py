"""Tests of the benchmark's reference computations (run: python -m pytest perfbench)."""

import math

import numpy as np
import pytest

from bench_oracles import (
    disc_sample_count,
    exchange_integral,
    exchange_integral_4d,
    frobenius_sq_scalar3d,
    hottel_opposed_rectangles,
    plate_samples,
    zeta_error_bound,
)

BASE = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def parallel(d):
    return ([0.0, 0.0, d], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def shifted(d):
    return ([d, 0.0, d], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def endfire(d):
    return ([0.0, 0.0, d], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


def test_hottel_unit_squares_at_unit_gap():
    assert hottel_opposed_rectangles(1.0, 1.0, 1.0) == pytest.approx(0.6277684243304, abs=1e-13)


@pytest.mark.parametrize("d", [0.1, 0.37, 1.0, 3.0, 10.0])
def test_exchange_matches_hottel(d):
    assert exchange_integral(BASE, parallel(d)) == pytest.approx(
        hottel_opposed_rectangles(1.0, 1.0, d), rel=1e-12)


def test_exchange_far_limit():
    # A_TR -> A_T A_R / d^2 for d >> l
    assert exchange_integral(BASE, parallel(1000.0)) * 1e6 == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("make", [parallel, shifted, endfire])
def test_exchange_matches_plain_4d_gauss(make):
    assert exchange_integral(BASE, make(1.0)) == pytest.approx(
        exchange_integral_4d(BASE, make(1.0)), rel=1e-7)


@pytest.mark.parametrize("make", [shifted, endfire])
@pytest.mark.parametrize("d", [0.1, 2.0])
def test_exchange_is_reciprocal(make, d):
    assert exchange_integral(BASE, make(d)) == pytest.approx(
        exchange_integral(make(d), BASE), rel=1e-10)


@pytest.mark.parametrize("make", [parallel, shifted, endfire])
def test_exchange_converged(make):
    coarse = exchange_integral(BASE, make(0.1))
    fine = exchange_integral(BASE, make(0.1), panel=0.0125, n_gauss=10)
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_plate_samples_grid():
    pts = plate_samples([0, 0, 1], [1, 0, 0], [0, 1, 0], 0.25)
    assert pts.shape == (25, 3)
    assert np.allclose(pts.min(axis=0), [0, 0, 1]) and np.allclose(pts.max(axis=0), [1, 1, 1])


def test_disc_sample_count_area():
    spacing = 0.01
    assert disc_sample_count(1.0, spacing) * spacing**2 == pytest.approx(math.pi, rel=1e-3)


def test_frobenius_pairs():
    tx = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rx = np.array([[0.0, 0.0, 2.0]])
    expected = (1 / 4 + 1 / 5) / (16 * math.pi**2)
    assert frobenius_sq_scalar3d(tx, rx, block=1) == pytest.approx(expected, rel=1e-15)


def test_zeta_error_bound_holds():
    rng = np.random.default_rng(7)
    n = 120
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.exp(-np.arange(n) / 15.0)
    h = (u * sv) @ v.T
    sigma = sv**2
    q, _ = np.linalg.qr(h @ rng.standard_normal((n, 40)))
    sketch = np.linalg.svd(q.T @ h, compute_uv=False) ** 2
    top = 20
    e, bound = zeta_error_bound(sketch, float(np.sum(h * h)), top)
    zeta, zeta_s = sigma / sigma.sum(), sketch / sketch.sum()
    err = np.max(np.abs(zeta_s[:top] - zeta[:top]) / zeta[:top])
    assert 0.0 < e < 1.0 and err <= bound
