"""Reference values computed apart from shadowdof.

Nothing here imports the package under test.  Each function works from
the geometry and the sampling convention stated in the project README:

* ``exchange_integral``: the total mutual shadow of two planar plates
  equals their exchange area (1/xi) * iint |n_T.R| |n_R.R| / |R|^4 dA_T dA_R
  with xi = 1 for planar patches.  The inner area integral over the
  receiver is done exactly by Lambert's edge formula, the outer one by a
  composite Gauss-Legendre rule over the transmitter.
  ``exchange_integral_4d`` is the plain composite Gauss rule over both
  plates, kept as a cross-check.
* ``hottel_opposed_rectangles``: Hottel's closed form for two directly
  opposed parallel rectangles.
* ``plate_samples`` / ``disc_sample_count`` / ``frobenius_sq_scalar3d``:
  the lambda/5 point grids (anchored at the bounding-box corner) and the
  squared Frobenius norm sum 1/(16 pi^2 R^2) of the scalar 3D channel.
* ``zeta_error_bound``: Rayleigh-Ritz interlacing bound on the relative
  error of sketched normalized eigenvalues (Halko, Martinsson & Tropp,
  SIAM Review 2011, sec. 10-11: projected singular values never exceed the
  true ones).
"""

from __future__ import annotations

import math

import numpy as np

_GRID_EPS = 1e-9  # a grid line within 1e-9 steps of the far edge is kept


# ---------------------------------------------------------------------------
# Plate-pair exchange integral


def _composite_gauss(breaks, panel: float, n_gauss: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], panels split at ``breaks``."""
    x0, w0 = np.polynomial.legendre.leggauss(n_gauss)
    cuts = sorted({0.0, 1.0, *(float(b) for b in breaks if 0.0 < b < 1.0)})
    xs, ws = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / panel)) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            xs.append(0.5 * (hi - lo) * x0 + 0.5 * (hi + lo))
            ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


def plate_vertices(origin, u, v) -> np.ndarray:
    o, u, v = (np.asarray(a, dtype=float) for a in (origin, u, v))
    return np.array([o, o + u, o + u + v, o + v])


def _plane_gap(verts: np.ndarray, origin: np.ndarray, normal: np.ndarray) -> float:
    return float(np.min(np.abs((verts - origin) @ normal)))


def exchange_integral(t_plate, r_plate, panel: float | None = None,
                      n_gauss: int = 8) -> float:
    """Exchange area of two parallelogram plates, each given as (origin, u, v).

    For a point P of the transmitter with unit normal n, Lambert's formula
    gives the receiver integral in closed form,
        int_R |n.R| |n_R.R| / |R|^4 dA_R = 1/2 |sum_i gamma_i n.g_i|,
    with gamma_i the angle that edge i subtends at P and g_i the unit
    normal of the plane through P and that edge.  It holds while each plate
    lies on one side of the other's plane.  The outer integral uses Gauss
    panels no wider than ``panel`` (default: a quarter of the plate gap,
    capped at a quarter of the plate side), split where the receiver's
    vertices project onto the transmitter.
    """
    t_origin, t_u, t_v = (np.asarray(a, dtype=float) for a in t_plate)
    r_verts = plate_vertices(*r_plate)
    normal = np.cross(t_u, t_v)
    area = float(np.linalg.norm(normal))
    normal /= area
    r_normal = np.cross(r_plate[1], r_plate[2])
    r_normal = r_normal / np.linalg.norm(r_normal)
    if panel is None:
        gap = max(_plane_gap(r_verts, t_origin, normal),
                  _plane_gap(plate_vertices(t_origin, t_u, t_v), r_verts[0], r_normal))
        panel = 0.25 * min(gap, 1.0)
    coords = np.linalg.lstsq(np.column_stack([t_u, t_v]), (r_verts - t_origin).T,
                             rcond=None)[0]
    s, ws = _composite_gauss(coords[0], panel, n_gauss)
    t, wt = _composite_gauss(coords[1], panel, n_gauss)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    points = t_origin + ss.reshape(-1, 1) * t_u + tt.reshape(-1, 1) * t_v
    weights = np.outer(ws, wt).ravel() * area
    edge_sum = np.zeros(points.shape[0])
    for i in range(len(r_verts)):
        a = r_verts[i] - points
        b = r_verts[(i + 1) % len(r_verts)] - points
        c = np.cross(a, b)
        c_norm = np.linalg.norm(c, axis=1)
        gamma = np.arctan2(c_norm, np.einsum("ij,ij->i", a, b))
        safe = np.where(c_norm > 0.0, c_norm, 1.0)
        edge_sum += np.where(c_norm > 0.0, gamma * (c @ normal) / safe, 0.0)
    return float(weights @ (0.5 * np.abs(edge_sum)))


def exchange_integral_4d(t_plate, r_plate, n_panels: int = 4, n_gauss: int = 6) -> float:
    """The same exchange area by a plain composite Gauss rule on both plates."""
    s, w = _composite_gauss((), 1.0 / n_panels, n_gauss)
    ss, tt = np.meshgrid(s, s, indexing="ij")
    w2 = np.outer(w, w).ravel()

    def nodes(plate):
        o, u, v = (np.asarray(a, dtype=float) for a in plate)
        n = np.cross(u, v)
        area = float(np.linalg.norm(n))
        pts = o + ss.reshape(-1, 1) * u + tt.reshape(-1, 1) * v
        return pts, w2 * area, n / area

    pt, wt, nt = nodes(t_plate)
    pr, wr, nr = nodes(r_plate)
    total = 0.0
    for i in range(pt.shape[0]):
        rv = pr - pt[i]
        r2 = np.einsum("ij,ij->i", rv, rv)
        total += wt[i] * float(wr @ (np.abs(rv @ nt) * np.abs(rv @ nr) / (r2 * r2)))
    return total


def hottel_opposed_rectangles(a: float, b: float, d: float) -> float:
    """Exchange area pi * a * b * F of directly opposed a x b rectangles at gap d."""
    x, y = a / d, b / d
    f = (2.0 / (math.pi * x * y)) * (
        0.5 * math.log((1 + x * x) * (1 + y * y) / (1 + x * x + y * y))
        + x * math.sqrt(1 + y * y) * math.atan(x / math.sqrt(1 + y * y))
        + y * math.sqrt(1 + x * x) * math.atan(y / math.sqrt(1 + x * x))
        - x * math.atan(x) - y * math.atan(y))
    return math.pi * a * b * f


# ---------------------------------------------------------------------------
# Sample grids and the Frobenius norm


def _grid_count(length: float, step: float) -> int:
    return int(math.floor(length / step + _GRID_EPS)) + 1


def plate_samples(origin, u, v, spacing: float) -> np.ndarray:
    """Grid points of a rectangular plate at the given spacing, from its origin corner."""
    o, u, v = (np.asarray(a, dtype=float) for a in (origin, u, v))
    lu, lv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    a = spacing * np.arange(_grid_count(lu, spacing)) / lu
    b = spacing * np.arange(_grid_count(lv, spacing)) / lv
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return o + aa.reshape(-1, 1) * u + bb.reshape(-1, 1) * v


def disc_sample_count(radius: float, spacing: float) -> int:
    """Grid points within a disc, grid anchored at its bounding-box corner."""
    n = _grid_count(2.0 * radius, spacing)
    x = -radius + spacing * np.arange(n)
    return int(np.count_nonzero(x[:, None] ** 2 + x[None, :] ** 2
                                <= (radius + 1e-12) ** 2))


def frobenius_sq_scalar3d(tx: np.ndarray, rx: np.ndarray, block: int = 512) -> float:
    """sum over all pairs of |exp(-jkR)/(4 pi R)|^2 = 1/(16 pi^2 R^2)."""
    partial = []
    for lo in range(0, rx.shape[0], block):
        diff = rx[lo:lo + block, None, :] - tx[None, :, :]
        partial.append(float(np.sum(1.0 / np.einsum("ijk,ijk->ij", diff, diff))))
    return math.fsum(partial) / (16.0 * math.pi ** 2)


# ---------------------------------------------------------------------------
# Sketch accuracy


def zeta_error_bound(sigma_sketch, frobenius_sq: float, n_top: int) -> tuple[float, float]:
    """Missed energy e = 1 - sum(sigma~)/||H||_F^2 and the bound it implies.

    The sketch's squared singular values sigma~_i never exceed the true
    sigma_i, and sum_i (sigma_i - sigma~_i) <= ||H||_F^2 - sum(sigma~), so
    each |zeta~_i - zeta_i| <= e and zeta_i >= (1 - e) zeta~_i.  The
    relative error of the top ``n_top`` normalized values is therefore at
    most e / ((1 - e) zeta~_{n_top}).  Returns (e, bound).
    """
    s = np.asarray(sigma_sketch, dtype=float)
    captured = math.fsum(s)
    e = 1.0 - captured / frobenius_sq
    zeta_min = float(s[n_top - 1]) / captured
    return e, max(e, 0.0) / ((1.0 - e) * zeta_min)
