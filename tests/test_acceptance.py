"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Shared expensive runs (the 3D squares channel) live in session fixtures.
"""

import math
import time

import numpy as np
import pytest

from shadowdof.capacity import trace_identity, waterfill
from shadowdof.channel import (
    FarFieldPort,
    assemble_channel,
    green_dyadic_3d,
    ports_from_quadrature,
    sample_region,
)
from shadowdof.geometry import (
    Disc,
    PlanarPolygon,
    Segment,
    ShadowPolygon,
    circle_intersection_area,
    convex_polygon_intersection,
    mesh_disc,
)
from shadowdof.quadrature import circle_quadrature, scene_circle_quadrature
from shadowdof.scenario import run_scenario
from shadowdof.shadow import (
    Region,
    mesh_mutual_shadow,
    shadow_area_two_discs,
    shadow_area_two_spheres,
    shadow_length_two_lines,
    total_mutual_shadow,
    total_shadow,
    wavelength_for_ndof,
)
from shadowdof.spectra import dense_spectrum, randomized_spectrum
from shadowdof.cli import write_spectrum_csv
from oracles import (
    dyadic_fd,
    mc_lens_area,
    mc_polygon_intersection_area,
    random_convex_polygon,
    waterfill_grid_capacity_two,
)


def _report(label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _two_lines(l1, l2, d):
    t = Region((Segment([-l1 / 2, 0.0], [l1 / 2, 0.0]),), "T")
    r = Region((Segment([-l2 / 2, d], [l2 / 2, d]),), "R")
    return t, r


def _spectrum_identities_ok(spec) -> bool:
    return (abs(spec.zeta.sum() - 1.0) < 1e-12
            and abs(float(spec.zeta @ spec.zeta) - 1.0 / spec.n_effective) < 1e-12)


# ---------------------------------------------------------------------------
# Shared expensive runs


@pytest.fixture(scope="session")
def squares_run():
    t = Region((PlanarPolygon([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [0, 0, 1.0]),), "T")
    r = Region((PlanarPolygon([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], [0, 0, 1.0]),), "R")
    msr = total_mutual_shadow(t, r, n_theta=96, n_phi=192)
    n_a = 100.0
    lam = wavelength_for_ndof(msr, n_a, "scalar3d")
    spacing = lam / 5.0
    op = assemble_channel(sample_region(t, spacing), sample_region(r, spacing),
                          2 * math.pi / lam)
    dense = dense_spectrum(op)
    p = int(3 * n_a)
    rand = randomized_spectrum(op, p, seed=7, power_iters=1)
    return {"n_a": n_a, "msr": msr, "dense": dense, "randomized": rand}


@pytest.fixture(scope="session")
def cylinder_run():
    a, n_a = 1.0, 100.0
    t = Region((Disc([0.0, 0.0], a),), "T")
    start = time.perf_counter()
    msr = total_shadow(t, scene_circle_quadrature(list(t.parts), 512))
    lam = wavelength_for_ndof(msr, n_a, "scalar2d")
    op = assemble_channel(sample_region(t, lam / 5.0),
                          ports_from_quadrature(circle_quadrature(512)),
                          2 * math.pi / lam)
    spec = dense_spectrum(op)
    elapsed = time.perf_counter() - start
    return {"n_a": n_a, "spec": spec, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_two_line_quadrature_vs_closed_form():
    worst_err, worst_time = 0.0, 0.0
    for l2 in (1.0, 0.5):
        for d in (0.1, 0.5, 1.0, 5.0):
            t, r = _two_lines(1.0, l2, d)
            start = time.perf_counter()
            total = total_mutual_shadow(t, r, n_directions=4096).total
            elapsed = time.perf_counter() - start
            exact = shadow_length_two_lines(1.0, l2, d)
            worst_err = max(worst_err, abs(total - exact) / exact)
            worst_time = max(worst_time, elapsed)
    ok = worst_err < 1e-6 and worst_time < 1.0
    _report("criterion 1 (two-line closed form, 4096 directions)", ok,
            f"worst rel err {worst_err:.2e} (< 1e-6), worst runtime {worst_time:.3f}s (< 1s)")


def test_criterion_02_limit_recovery():
    l1, l2 = 1.0, 0.5
    near = shadow_length_two_lines(l1, l2, 1e-4)
    far = shadow_length_two_lines(l1, l2, 1e4)
    err_near = abs(near - 2 * min(l1, l2)) / (2 * min(l1, l2))
    err_far = abs(far - l1 * l2 / 1e4) / (l1 * l2 / 1e4)
    a = 1.0
    disc_near = shadow_area_two_discs(a, 1e-4)
    disc_far = shadow_area_two_discs(a, 1e4)
    weyl = math.pi * (math.pi * a**2)
    parax = (math.pi * a**2) ** 2 / 1e8
    err_disc_near = abs(disc_near - weyl) / weyl
    err_disc_far = abs(disc_far - parax) / parax
    worst = max(err_near, err_far, err_disc_near, err_disc_far)
    _report("criterion 2 (closed-form limits)", worst < 1e-3,
            f"lines d->0 {err_near:.2e}, d->inf {err_far:.2e}, "
            f"discs d->0 {err_disc_near:.2e}, d->inf {err_disc_far:.2e} (all < 1e-3)")


def test_criterion_03_disc_closed_form_vs_mesh():
    a = 1.0
    worst_err, worst_time = 0.0, 0.0
    for d in (1.0, 2.0, 5.0):
        start = time.perf_counter()
        t = Region((mesh_disc([0, 0, 0], [0, 0, 1], a, a / 20),), "T")
        r = Region((mesh_disc([0, 0, d], [0, 0, 1], a, a / 20),), "R")
        val = mesh_mutual_shadow(t, r)
        elapsed = time.perf_counter() - start
        exact = shadow_area_two_discs(a, d)
        worst_err = max(worst_err, abs(val - exact) / exact)
        worst_time = max(worst_time, elapsed)
    ok = worst_err < 0.01 and worst_time < 30.0
    _report("criterion 3 (disc closed form vs mesh integral)", ok,
            f"worst rel err {worst_err:.2e} (< 1e-2), worst runtime {worst_time:.1f}s (< 30s)")


def test_criterion_04_two_sphere_paraxial():
    worst = {4.0: 0.0, 10.0: 0.0}
    for ratio in (1.0, 0.5):
        a1, a2 = 1.0, ratio
        for mult in (4.0, 10.0):
            h = mult * (a1 + a2)
            val = shadow_area_two_spheres(a1, a2, h)
            parax = math.pi**2 * a1**2 * a2**2 / h**2
            worst[mult] = max(worst[mult], abs(val / parax - 1.0))
    ok = worst[4.0] < 0.05 and worst[10.0] < 0.01
    _report("criterion 4 (two-sphere paraxial ratios)", ok,
            f"|ratio-1| at h=4(a1+a2): {worst[4.0]:.4f} (< 0.05), "
            f"at h=10(a1+a2): {worst[10.0]:.4f} (< 0.01)")


def test_criterion_05_cylinder_spectrum(cylinder_run):
    n_a = cylinder_run["n_a"]
    spec = cylinder_run["spec"]
    zn = spec.zeta * n_a
    n_plateau = int(0.8 * n_a)
    plateau_ok = bool(np.all((zn[:n_plateau] >= 0.5) & (zn[:n_plateau] <= 1.5)))
    ne_ok = abs(spec.n_effective - n_a) / n_a < 0.15
    decay_idx = math.ceil(1.3 * n_a) - 1
    decay_ok = spec.zeta[decay_idx] < 0.1 / n_a
    time_ok = cylinder_run["elapsed"] < 120.0
    ok = plateau_ok and ne_ok and decay_ok and time_ok
    _report("criterion 5 (cylinder spectrum, N_a=100, dense)", ok,
            f"N_e={spec.n_effective:.1f} (within 15% of {n_a:.0f}), "
            f"plateau zeta*Na in [{zn[:n_plateau].min():.2f}, {zn[:n_plateau].max():.2f}] "
            f"(within [0.5, 1.5]), zeta_{decay_idx + 1}={spec.zeta[decay_idx]:.2e} "
            f"(< {0.1 / n_a:.0e}), runtime {cylinder_run['elapsed']:.1f}s (< 120s)")
    assert _spectrum_identities_ok(spec)


def test_criterion_06_two_line_spectra_clustering():
    n_a = 50.0
    n_es, n_ks = [], []
    for d in (0.5, 1.0, 5.0):
        t, r = _two_lines(1.0, 0.5, d)
        msr = total_mutual_shadow(t, r, n_directions=2048)
        lam = wavelength_for_ndof(msr, n_a, "scalar2d")
        op = assemble_channel(sample_region(t, lam / 5.0), sample_region(r, lam / 5.0),
                              2 * math.pi / lam)
        spec = dense_spectrum(op)
        assert _spectrum_identities_ok(spec)
        n_es.append(spec.n_effective)
        n_ks.append(spec.n_knee)
    spread = (max(n_es) - min(n_es)) / min(n_es)
    knee_dev = max(abs(k - n_a) / n_a for k in n_ks)
    ok = spread < 0.20 and knee_dev <= 0.20
    _report("criterion 6 (two-line spectra clustering, N_a=50)", ok,
            f"N_e spread {spread:.3f} (< 0.20) over d/l in {{0.5, 1, 5}}, "
            f"max |N_k - N_a|/N_a = {knee_dev:.3f} (<= 0.20); N_e={n_es}, N_k={n_ks}")


def test_criterion_07_squares_spectra(squares_run):
    n_a = squares_run["n_a"]
    dense = squares_run["dense"]
    rand = squares_run["randomized"]
    zn = dense.zeta * n_a
    n_plateau = int(0.8 * n_a)
    plateau_ok = bool(np.all((zn[:n_plateau] >= 0.4) & (zn[:n_plateau] <= 1.6)))
    decay_idx = math.ceil(1.5 * n_a) - 1
    decay_ok = dense.zeta[decay_idx] < 0.1 / n_a
    top = int(n_a)
    zeta_err = float(np.max(np.abs(rand.zeta[:top] - dense.zeta[:top]) / dense.zeta[:top]))
    ne_err = abs(rand.n_effective - dense.n_effective) / dense.n_effective
    ok = plateau_ok and decay_ok and zeta_err < 1e-2 and ne_err < 0.01
    _report("criterion 7 (3D squares spectra, N_a=100)", ok,
            f"plateau zeta*Na in [{zn[:n_plateau].min():.2f}, {zn[:n_plateau].max():.2f}] "
            f"(within [0.4, 1.6]), zeta_{decay_idx + 1}={dense.zeta[decay_idx]:.2e} "
            f"(< {0.1 / n_a:.0e}); randomized P=300: max zeta err {zeta_err:.2e} (< 1e-2), "
            f"N_e err {ne_err:.2e} (< 1e-2)")
    assert _spectrum_identities_ok(dense) and _spectrum_identities_ok(rand)


def _arc_receiver_instance(rho_or_spd, rng):
    a = 1.0
    spacing = math.sqrt(math.pi / 300.0)  # N_T ~= 300 over the disc
    t = Region((Disc([0.0, 0.0], a),), "T")
    tx = sample_region(t, spacing)
    k = 2 * math.pi / (5.0 * spacing)
    quad = circle_quadrature(64, arc=(0.0, math.pi / 2))
    raw_ports = [FarFieldPort(d, 1.0) for d in quad.directions()]
    f_raw = assemble_channel(tx, raw_ports, k).dense()
    lam2 = quad.weights.copy()
    if rho_or_spd == "spd":
        n_t = f_raw.shape[1]
        q, _ = np.linalg.qr(rng.standard_normal((n_t, n_t))
                            + 1j * rng.standard_normal((n_t, n_t)))
        r_x = (q * rng.uniform(0.5, 2.0, n_t)) @ q.conj().T
    else:
        r_x = rho_or_spd
    return f_raw, lam2, r_x


def test_criterion_08_exact_identities():
    rng = np.random.default_rng(8)
    worst_trace = 0.0
    for _ in range(50):
        rows = int(rng.integers(3, 14))
        cols = int(rng.integers(3, 14))
        f = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        lam2 = rng.uniform(0.2, 2.0, rows)
        q, _ = np.linalg.qr(rng.standard_normal((cols, cols))
                            + 1j * rng.standard_normal((cols, cols)))
        r_x = (q * rng.uniform(0.5, 3.0, cols)) @ q.conj().T
        worst_trace = max(worst_trace, trace_identity(f, lam2, r_x)[2])
    for r_x in (1.0, 2.5, "spd"):
        f_raw, lam2, constraint = _arc_receiver_instance(r_x, rng)
        worst_trace = max(worst_trace, trace_identity(f_raw, lam2, constraint)[2])
    trace_ok = worst_trace < 1e-10

    worst_kkt, worst_cap = 0.0, 0.0
    for gamma in (0.5, 1.0, 10.0):
        res = waterfill([1.0, 0.1], gamma)
        active = res.allocations > 0
        nu = np.array([1.0, 0.1])
        kkt = np.abs(res.allocations[active] + 1.0 / (gamma * nu[active]) - res.water_level)
        worst_kkt = max(worst_kkt, float(kkt.max()))
        oracle = waterfill_grid_capacity_two(1.0, 0.1, gamma)
        worst_cap = max(worst_cap, abs(res.capacity_bits - oracle))
    water_ok = worst_kkt < 1e-10 and worst_cap < 1e-6

    ident_ok = True
    for _ in range(5):
        m = rng.standard_normal((25, 40)) + 1j * rng.standard_normal((25, 40))
        ident_ok &= _spectrum_identities_ok(dense_spectrum(m))
        ident_ok &= _spectrum_identities_ok(randomized_spectrum(m, 10, seed=3))
    ok = trace_ok and water_ok and ident_ok
    _report("criterion 8 (exact identities)", ok,
            f"trace mismatch {worst_trace:.2e} (< 1e-10, 50 random + 3 scenario), "
            f"waterfill KKT {worst_kkt:.2e} (< 1e-10), grid-oracle gap {worst_cap:.2e} "
            f"(< 1e-6), zeta identities to 1e-12: {ident_ok}")


def test_criterion_09_geometry_oracles():
    rng = np.random.default_rng(2024)
    n_poly_fail = 0
    for _ in range(100):
        va = random_convex_polygon(rng, scale=2.0)
        vb = random_convex_polygon(rng, scale=2.0,
                                   center=tuple(rng.uniform(-0.6, 0.6, 2)))
        area = convex_polygon_intersection(ShadowPolygon(va), ShadowPolygon(vb)).area
        est, sigma = mc_polygon_intersection_area(va, vb, 1_000_000, rng)
        if abs(area - est) >= 3 * sigma + 1e-12:
            n_poly_fail += 1
    n_lens_fail = 0
    for _ in range(100):
        a1, a2 = rng.uniform(0.3, 1.5, 2)
        d = float(rng.uniform(0.0, a1 + a2 + 0.3))
        val = circle_intersection_area(a1, a2, d)
        est, sigma = mc_lens_area(a1, a2, d, 1_000_000, rng)
        if abs(val - est) >= 3 * sigma + 1e-12:
            n_lens_fail += 1
    k = 1.0
    r = np.array([10.0, 0.0, 0.0])  # kR = 10
    fd = dyadic_fd(r, np.zeros(3), k, 1e-5 * 2 * math.pi / k)
    g = green_dyadic_3d(r, np.zeros(3), k)
    dyadic_err = float(np.max(np.abs(g - fd)) / np.max(np.abs(g)))
    ok = n_poly_fail == 0 and n_lens_fail == 0 and dyadic_err < 1e-6
    _report("criterion 9 (geometry and kernel oracles)", ok,
            f"polygon MC 3-sigma failures {n_poly_fail}/100, lens MC failures "
            f"{n_lens_fail}/100, dyadic vs finite differences {dyadic_err:.2e} (< 1e-6)")


def test_criterion_10_determinism(tmp_path):
    lines = {
        "name": "det", "dimension": 2,
        "transmitter": {"parts": [{"kind": "segment", "start": [-0.5, 0.0],
                                   "end": [0.5, 0.0]}]},
        "receiver": {"parts": [{"kind": "segment", "start": [-0.5, 1.0],
                                "end": [0.5, 1.0]}]},
        "target_ndof": 30,
        "spectrum": {"method": "randomized", "p_factor": 3.0, "seed": 11},
        "quadrature": {"n_directions": 1024},
    }
    from shadowdof.scenario import load_scenario

    config = load_scenario(lines)
    outputs = []
    for threads in (1, 8, 1):
        summary, _, spec = run_scenario(config, threads=threads)
        path = tmp_path / f"spectrum_{len(outputs)}.csv"
        write_spectrum_csv(path, spec, n_a=summary["n_a"])
        outputs.append(path.read_bytes())
    same = outputs[0] == outputs[1] == outputs[2]
    _report("criterion 10 (seeded determinism)", same,
            "spectrum CSV byte-identical across reruns and thread counts 1 vs 8: "
            f"{same}")
