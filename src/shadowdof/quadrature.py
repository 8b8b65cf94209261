"""Direction quadratures over circle arcs and sphere sectors.

All rules have strictly positive weights.  Besides the plain rules
(uniform midpoint on a circle arc, Gauss-Legendre in cos(theta) times
uniform midpoint in azimuth on a sphere sector), scene-adapted rules are
provided that split the angular domain at the directions where a shadow
changes non-smoothly (projected support points aligning, disc shadows
touching, transmit/receive ordering flipping).  Placing those angles at
panel boundaries keeps the integrand smooth inside every panel, which the
per-panel Gauss blocks then integrate to near machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    Disc,
    PlanarPolygon,
    Segment,
    Sphere,
    TriangleMesh,
    directions_of,
)

__all__ = [
    "DirectionQuadrature",
    "circle_quadrature",
    "sphere_quadrature",
    "scene_circle_quadrature",
    "scene_sphere_quadrature",
]

TWO_PI = 2.0 * math.pi

_MAX_GAUSS_BLOCK = 64


@dataclass(frozen=True)
class DirectionQuadrature:
    """Weighted direction set covering a circle arc or sphere sector."""

    dim: int
    angles: np.ndarray  # (N,) azimuth for dim=2; (N, 2) [theta, phi] for dim=3
    weights: np.ndarray  # (N,) positive
    rule: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.angles, dtype=float)
        if self.dim == 2 and a.ndim != 1:
            raise ValueError("2D quadrature needs a flat array of azimuth angles")
        if self.dim == 3 and (a.ndim != 2 or a.shape[1] != 2):
            raise ValueError("3D quadrature needs (N, 2) [theta, phi] angles")
        if w.shape[0] != a.shape[0]:
            raise ValueError("angle/weight count mismatch")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def coverage(self) -> float:
        return float(self.weights.sum())

    def directions(self):
        return directions_of(self.angles)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1] (leggauss is O(n^3))."""
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly n positive-weight Gauss nodes on [lo, hi], in blocks of <= 64."""
    counts = [_MAX_GAUSS_BLOCK] * (n // _MAX_GAUSS_BLOCK)
    if n % _MAX_GAUSS_BLOCK:
        counts.append(n % _MAX_GAUSS_BLOCK)
    width = (hi - lo) / n
    xs, ws = [], []
    x0 = lo
    for c in counts:
        x1 = x0 + width * c
        gx, gw = gauss_legendre(c)
        xs.append(0.5 * (x0 + x1) + 0.5 * (x1 - x0) * gx)
        ws.append(0.5 * (x1 - x0) * gw)
        x0 = x1
    return np.concatenate(xs), np.concatenate(ws)


def _allocate(n: int, lengths: np.ndarray) -> np.ndarray:
    """Equal node split across panels, remainder going to the longest panels.

    Panels are delimited by the integrand kinks, so within-panel Gauss blocks
    converge fast whatever the panel length; an equal split keeps narrow
    panels resolved (they can carry the whole integrand, e.g. the small
    overlap cone of far-separated spheres).  A mirror-symmetric panel set
    (panel i as long as panel p-1-i, to rounding) keeps a mirror-symmetric
    rule wherever the count allows one: the remainder goes to whole mirror
    pairs, longest first, and an odd node to the centre panel.
    """
    p = len(lengths)
    counts = np.full(p, n // p, dtype=int)
    extra = n - counts.sum()
    order = np.argsort(-lengths, kind="stable")
    if (p % 2 or extra % 2 == 0) and np.allclose(lengths, lengths[::-1], rtol=1e-12, atol=0):
        firsts = [i for i in order if 2 * i < p - 1][:extra // 2]
        order = firsts + [p - 1 - i for i in firsts] + [p // 2] * (extra % 2)
    counts[order[:extra]] += 1
    return counts


def _panelized_line(lo: float, hi: float, breaks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss nodes on [lo, hi] with panel boundaries at the given breaks."""
    pts = sorted({lo, hi, *(b for b in breaks if lo + 1e-13 < b < hi - 1e-13)})
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > 1e-12:
            merged.append(p)
    merged[-1] = hi
    panels = list(zip(merged[:-1], merged[1:]))
    if len(panels) > max(1, n // 4):
        panels = [(lo, hi)]
    lengths = np.array([b - a for a, b in panels])
    counts = _allocate(n, lengths)
    xs, ws = [], []
    for (a, b), c in zip(panels, counts):
        gx, gw = _gauss_nodes(a, b, int(c))
        xs.append(gx)
        ws.append(gw)
    return np.concatenate(xs), np.concatenate(ws)


# ---------------------------------------------------------------------------
# Plain rules


def circle_quadrature(n: int, arc: tuple[float, float] = (0.0, TWO_PI)) -> DirectionQuadrature:
    """Composite midpoint rule on a circle arc (uniform spacing)."""
    lo, hi = arc
    if not hi > lo:
        raise ValueError("arc must have positive extent")
    h = (hi - lo) / n
    phis = lo + (np.arange(n) + 0.5) * h
    return DirectionQuadrature(2, phis, np.full(n, h), "uniform-midpoint")


def sphere_quadrature(
    n_theta: int,
    n_phi: int,
    theta_range: tuple[float, float] = (0.0, math.pi),
    phi_range: tuple[float, float] = (0.0, TWO_PI),
    cos_breaks=(),
) -> DirectionQuadrature:
    """Gauss-Legendre in cos(theta) times uniform midpoint in azimuth.

    The solid-angle measure sin(theta) dtheta dphi is absorbed by quadrature
    in u = cos(theta), so the weights integrate f over the sector directly.
    """
    t_lo, t_hi = theta_range
    u_lo, u_hi = math.cos(t_hi), math.cos(t_lo)
    if not u_hi > u_lo:
        raise ValueError("theta range must have positive extent")
    us, wu = _panelized_line(u_lo, u_hi, cos_breaks, n_theta)
    ring = circle_quadrature(n_phi, phi_range)
    thetas = np.arccos(np.clip(us, -1.0, 1.0))
    angles = np.column_stack([np.repeat(thetas, n_phi), np.tile(ring.angles, n_theta)])
    weights = np.repeat(wu, n_phi) * np.tile(ring.weights, n_theta)
    rule = "gl-midpoint" if not len(tuple(cos_breaks)) else "panelized-gl-midpoint"
    return DirectionQuadrature(3, angles, weights, rule)


# ---------------------------------------------------------------------------
# Scene-adapted rules


def _features_2d(shapes):
    feats = []
    for s in shapes:
        if isinstance(s, Segment):
            feats.append((s.start, 0.0))
            feats.append((s.end, 0.0))
        elif isinstance(s, ConvexPolygon):
            feats.extend((v, 0.0) for v in s.vertices)
        elif isinstance(s, Disc):
            feats.append((s.center, s.radius))
        else:
            raise TypeError(f"not a 2D shape: {type(s).__name__}")
    return feats


def _circle_events(shapes, perpendicular_pairs) -> list[float]:
    """Azimuths where some shadow endpoint pair aligns or an ordering flips."""
    feats = _features_2d(shapes)
    events = set()
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            (u, ru), (v, rv) = feats[i], feats[j]
            delta = v - u
            rho = float(np.hypot(delta[0], delta[1]))
            if rho < 1e-14:
                continue
            alpha = math.atan2(delta[0], delta[1])
            for s in {ru + rv, -(ru + rv), ru - rv, rv - ru}:
                if abs(s) > rho:
                    continue
                beta = math.acos(min(1.0, max(-1.0, s / rho)))
                events.add((beta - alpha) % TWO_PI)
                events.add((-beta - alpha) % TWO_PI)
    for a, b in perpendicular_pairs:
        delta = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        if np.hypot(delta[0], delta[1]) < 1e-14:
            continue
        alpha = math.atan2(delta[1], delta[0])
        events.add((alpha + 0.5 * math.pi) % TWO_PI)
        events.add((alpha - 0.5 * math.pi) % TWO_PI)
    return sorted(events)


def scene_circle_quadrature(
    shapes,
    n: int,
    perpendicular_pairs=(),
    arc: tuple[float, float] = (0.0, TWO_PI),
) -> DirectionQuadrature:
    """n-direction rule on a circle arc with panel boundaries at shadow kinks."""
    lo, hi = arc
    events = _circle_events(shapes, perpendicular_pairs)
    # map events into [lo, hi] (angles are 2*pi periodic)
    breaks = []
    for e in events:
        k = math.floor((lo - e) / TWO_PI)
        cand = e + k * TWO_PI
        while cand < hi:
            if cand > lo:
                breaks.append(cand)
            cand += TWO_PI
    if len(breaks) > max(1, n // 4):
        return circle_quadrature(n, arc)
    phis, weights = _panelized_line(lo, hi, breaks, n)
    return DirectionQuadrature(2, phis, weights, "panelized-gauss")


def _bounding_circle(shape) -> tuple[np.ndarray, float]:
    if isinstance(shape, Sphere):
        return shape.center, shape.radius
    if isinstance(shape, (PlanarPolygon, TriangleMesh)):
        c = shape.vertices.mean(axis=0)
        return c, float(np.linalg.norm(shape.vertices - c[None, :], axis=1).max())
    raise TypeError(f"not a 3D shape: {type(shape).__name__}")


def _sphere_cos_events(shapes) -> list[float]:
    """cos(theta) panel boundaries bracketing where pair shadows can interact.

    Shadows of a pair with center offset Delta (length h) overlap only while
    the angle between the direction and Delta stays below asin(sum of
    bounding radii / h), i.e. within a theta band around Delta's polar angle
    (and its mirror).  For true spheres the containment angle adds an exact
    inner kink circle; for axial stacks the ordering flips at the equator.
    """
    events = set()
    circles = [_bounding_circle(s) for s in shapes]  # raises TypeError for a shape not 3D
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            a, b = shapes[i], shapes[j]
            (ca, ra), (cb, rb) = circles[i], circles[j]
            delta = cb - ca
            h = float(np.linalg.norm(delta))
            if h < 1e-14:
                continue
            theta_delta = math.acos(max(-1.0, min(1.0, delta[2] / h)))
            candidates = [ra + rb]
            if isinstance(a, Sphere) and isinstance(b, Sphere):
                candidates.append(abs(a.radius - b.radius))
            for s in candidates:
                if s <= 0 or s >= h:
                    continue
                alpha = math.asin(s / h)
                for base in (theta_delta, math.pi - theta_delta):
                    for theta in (base - alpha, base + alpha):
                        if 0.0 < theta < math.pi:
                            events.add(math.cos(theta))
            if np.hypot(delta[0], delta[1]) <= 1e-12 * h:
                events.add(0.0)  # axial stack: ordering flips at the equator
    return sorted(events)


def scene_sphere_quadrature(shapes, n_theta: int, n_phi: int) -> DirectionQuadrature:
    """Whole-sphere rule with cos(theta) panels at sphere-shadow kink circles."""
    return sphere_quadrature(n_theta, n_phi, cos_breaks=_sphere_cos_events(shapes))
