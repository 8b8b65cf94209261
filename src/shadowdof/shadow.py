"""Mutual shadow totals, closed forms, the mesh surface integral, and NDoF estimates.

The mutual shadow of a transmitting and a receiving region at one
illumination direction is the overlap of their projected shadows, counted
only when the transmitter precedes the receiver along the propagation
direction (the reverse shadow is excluded).  Integrating the overlap over
all directions gives the total mutual shadow length L_TR (2D) or area
A_TR (3D), from which the analytic NDoF estimate follows:

    N_a = L_TR / lambda          (2D, one polarization)
    N_a = A_TR / lambda**2       (3D scalar)
    N_a = 2 A_TR / lambda**2     (3D electromagnetic, two polarizations)
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import OrderingUndefinedError, PanelsTooCloseError, SpheresOverlapError
from .geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Segment,
    Sphere,
    TriangleMesh,
    convex_polygon_intersection,
    direction_frames,
    intersect_rings,
    lens_areas,
    points_in_convex_polygon,
    project_rings,
    project_shape_3d,
    shape_centroid,
    support_intervals,
    union_area,
    union_length,
)
from .quadrature import (
    DirectionQuadrature,
    gauss_legendre,
    scene_circle_quadrature,
    scene_sphere_quadrature,
)

__all__ = [
    "Region",
    "MutualShadowResult",
    "NdofEstimate",
    "mutual_shadow_direction",
    "transmitter_shadow_direction",
    "total_mutual_shadow",
    "total_shadow",
    "shadow_length_two_lines",
    "shadow_area_two_discs",
    "shadow_area_two_spheres",
    "mesh_mutual_shadow",
    "ndof_from_shadow",
    "reference_ndof",
    "wavelength_for_ndof",
    "region_min_distance",
    # the per-direction geometry forms of the batched kernels, re-exported
    "project_shape_3d",
    "convex_polygon_intersection",
]

NDOF_MODELS = ("scalar2d", "scalar3d", "em3d")

_CHUNK = 512  # directions per batch; bounds the batch arrays, results do not depend on it


@dataclass(frozen=True, eq=False)
class Region:
    """A transmitter or receiver support made of one or more shapes."""

    parts: tuple
    label: str = "T"

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("region needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts of a region must share the dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def dimension(self) -> int:
        return self.parts[0].dimension

    @property
    def centroids(self) -> list[np.ndarray]:
        return [shape_centroid(p) for p in self.parts]


@dataclass(frozen=True, eq=False)
class MutualShadowResult:
    """Weighted per-direction mutual shadow values and their total."""

    total: float
    angles: np.ndarray  # (N,) phi or (N, 2) [theta, phi]
    weights: np.ndarray
    values: np.ndarray
    dim: int
    rule: str

    def __post_init__(self):
        recomputed = math.fsum(w * v for w, v in zip(self.weights, self.values))
        scale = max(abs(self.total), 1e-300)
        if abs(recomputed - self.total) > 1e-12 * scale:
            raise ValueError("total does not match the weighted sum of per-direction values")

    @property
    def n_directions(self) -> int:
        return self.weights.shape[0]

    def per_direction(self):
        if self.dim == 2:
            for phi, v in zip(self.angles, self.values):
                yield Direction(float(phi)), float(v)
        else:
            for (theta, phi), v in zip(self.angles, self.values):
                yield Direction(float(phi), float(theta)), float(v)


@dataclass(frozen=True)
class NdofEstimate:
    n_a: float
    model: str
    wavelength: float


# ---------------------------------------------------------------------------
# Batched shadow engine: every value comes from one batch of directions (a
# per-direction call is a batch of one); per-direction arithmetic is
# elementwise or summed in a fixed order, so no value depends on its batch.


def _ordering(khats: np.ndarray, t_cents, r_cents) -> np.ndarray:
    """Per direction: True when every transmitter part precedes every receiver part.

    Raises OrderingUndefinedError when the part centroids interleave.
    """
    kt = np.einsum("nk,pk->np", khats, np.asarray(t_cents))
    kr = np.einsum("nk,pk->np", khats, np.asarray(r_cents))
    forward = kt.max(axis=1) <= kr.min(axis=1)
    if not np.all(forward | (kr.max(axis=1) <= kt.min(axis=1))):
        raise OrderingUndefinedError(
            "transmitter and receiver parts interleave along the illumination direction"
        )
    return forward


def _mutual_values(T: Region, R: Region, angles: np.ndarray, n_arc: int) -> np.ndarray:
    """Mutual shadow measure of T and R for a batch of directions."""
    khats, frames = direction_frames(angles)
    values = np.zeros(khats.shape[0])
    forward = np.flatnonzero(_ordering(khats, T.centroids, R.centroids))
    if not forward.size:
        return values
    frames = frames[forward]
    if T.dimension == 2:
        t_iv = [support_intervals(p, frames) for p in T.parts]
        r_iv = [support_intervals(p, frames) for p in R.parts]
        lo = np.stack([np.maximum(a[0], b[0]) for a in t_iv for b in r_iv], axis=1)
        hi = np.stack([np.minimum(a[1], b[1]) for a in t_iv for b in r_iv], axis=1)
        values[forward] = union_length(lo, hi)
    elif len(T.parts) == len(R.parts) == 1 \
            and isinstance(T.parts[0], Sphere) and isinstance(R.parts[0], Sphere):
        t, r = T.parts[0], R.parts[0]
        offset = np.einsum("k,nkj->nj", t.center - r.center, frames)
        values[forward] = lens_areas(t.radius, r.radius, np.sqrt((offset * offset).sum(axis=1)))
    else:
        st = [project_rings(p, frames, n_arc) for p in T.parts]
        sr = [project_rings(p, frames, n_arc) for p in R.parts]
        values[forward] = union_area([intersect_rings(a, b)[0] for a in st for b in sr])
    return values


def _shadow_values(T: Region, angles: np.ndarray, n_arc: int) -> np.ndarray:
    """Shadow measure of the transmitter alone for a batch of directions."""
    frames = direction_frames(angles)[1]
    if T.dimension == 2:
        lo, hi = zip(*(support_intervals(p, frames) for p in T.parts))
        return union_length(np.stack(lo, axis=1), np.stack(hi, axis=1))
    return union_area([project_rings(p, frames, n_arc) for p in T.parts])


def _angles(region: Region, direction: Direction) -> np.ndarray:
    if direction.is_3d != (region.dimension == 3):
        raise ValueError("direction dimension does not match the regions")
    return direction.angles


def mutual_shadow_direction(T: Region, R: Region, direction: Direction, n_arc: int = 256) -> float:
    """Overlap measure of the T and R shadows at one illumination direction.

    Counted only when the transmitter casts onto the receiver (every T part
    centroid precedes every R part centroid along the direction); raises
    OrderingUndefinedError when the part centroids interleave.
    """
    if T.dimension != R.dimension:
        raise ValueError("regions must share the dimension")
    return float(_mutual_values(T, R, _angles(T, direction), n_arc)[0])


def transmitter_shadow_direction(T: Region, direction: Direction, n_arc: int = 256) -> float:
    """Shadow measure of the transmitter alone (far-field receiver)."""
    return float(_shadow_values(T, _angles(T, direction), n_arc)[0])


# ---------------------------------------------------------------------------
# Direction-quadrature totals


def _integrate(quad: DirectionQuadrature, batch_values) -> tuple[float, np.ndarray]:
    """Per-direction values in fixed-size batches and their weighted sum."""
    values = np.concatenate([batch_values(quad.angles[lo:lo + _CHUNK])
                             for lo in range(0, quad.n, _CHUNK)])
    return math.fsum(quad.weights * values), values


def scene_quadrature(T: Region, R: Region | None, n_directions: int = 4096,
                     n_theta: int = 128, n_phi: int = 256,
                     arc=None) -> DirectionQuadrature:
    """Default direction rule for a scene, panelized at its shadow kinks."""
    shapes = list(T.parts) + (list(R.parts) if R is not None else [])
    if T.dimension == 2:
        pairs = []
        if R is not None:
            pairs = [(ct, cr) for ct in T.centroids for cr in R.centroids]
        kwargs = {} if arc is None else {"arc": arc}
        return scene_circle_quadrature(shapes, n_directions, perpendicular_pairs=pairs, **kwargs)
    kwargs = {}
    if arc is not None:
        kwargs = {"theta_range": arc[0], "phi_range": arc[1]}
    return scene_sphere_quadrature(shapes, n_theta, n_phi, **kwargs)


def total_mutual_shadow(T: Region, R: Region, quad: DirectionQuadrature | None = None,
                        n_directions: int = 4096, n_theta: int = 128, n_phi: int = 256,
                        threads: int = 1, n_arc: int = 256) -> MutualShadowResult:
    """Total mutual shadow L_TR (2D) or A_TR (3D) over a direction quadrature.

    ``threads`` has no effect: the directions are evaluated in vectorized
    batches, so the result is the same for every thread count.
    """
    if T.dimension != R.dimension:
        raise ValueError("regions must share the dimension")
    if quad is None:
        quad = scene_quadrature(T, R, n_directions, n_theta, n_phi)
    if (quad.dim == 2) != (T.dimension == 2):
        raise ValueError("quadrature dimension does not match the regions")
    total, values = _integrate(quad, lambda angles: _mutual_values(T, R, angles, n_arc))
    return MutualShadowResult(total, quad.angles, quad.weights, values, quad.dim, quad.rule)


def total_shadow(T: Region, quad: DirectionQuadrature | None = None,
                 n_directions: int = 4096, n_theta: int = 128, n_phi: int = 256,
                 threads: int = 1, n_arc: int = 256) -> MutualShadowResult:
    """Total transmitter shadow over a (possibly partial) far-field coverage.

    ``threads`` has no effect, as in ``total_mutual_shadow``.
    """
    if quad is None:
        quad = scene_quadrature(T, None, n_directions, n_theta, n_phi)
    if (quad.dim == 2) != (T.dimension == 2):
        raise ValueError("quadrature dimension does not match the regions")
    total, values = _integrate(quad, lambda angles: _shadow_values(T, angles, n_arc))
    return MutualShadowResult(total, quad.angles, quad.weights, values, quad.dim, quad.rule)


# ---------------------------------------------------------------------------
# Closed forms


def shadow_length_two_lines(l1: float, l2: float, d: float) -> float:
    """Total mutual shadow length of two parallel lines separated by d.

    L_TR = 2 d (sqrt(1 + beta**2) - sqrt(1 + delta**2)) with
    beta = (l1 + l2)/(2 d) and delta = |l1 - l2|/(2 d); the limits are
    2 min(l1, l2) as d -> 0 and l1 l2 / d as d -> infinity.
    """
    if l1 <= 0 or l2 <= 0 or d <= 0:
        raise ValueError("lengths and separation must be positive")
    beta = (l1 + l2) / (2.0 * d)
    delta = abs(l1 - l2) / (2.0 * d)
    return 2.0 * d * (math.sqrt(1.0 + beta * beta) - math.sqrt(1.0 + delta * delta))


def shadow_area_two_discs(a: float, d: float) -> float:
    """Total mutual shadow area of two parallel coaxial discs with radius a.

    A_TR = (pi**2/4) (sqrt(4 a**2 + d**2) - d)**2, approaching pi * A for
    d -> 0 and A**2/d**2 for d -> infinity (A = pi a**2).
    """
    if a <= 0 or d <= 0:
        raise ValueError("radius and separation must be positive")
    root = math.sqrt(4.0 * a * a + d * d)
    return (math.pi ** 2 / 4.0) * (root - d) ** 2


def shadow_area_two_spheres(a1: float, a2: float, h: float, n_theta: int = 2048) -> float:
    """Total mutual shadow area of two spheres with center distance h.

    Containment contributes 2 pi**2 min(a1,a2)**2 (1 - cos theta1); the
    partial-overlap band theta1..theta2 (sin theta1 = |a1-a2|/h,
    sin theta2 = (a1+a2)/h) is integrated with weight 2 pi sin(theta)
    using the two-disc lens area at center distance d = h sin(theta).
    """
    if a1 <= 0 or a2 <= 0:
        raise ValueError("radii must be positive")
    if h <= a1 + a2:
        raise SpheresOverlapError("sphere separation must exceed the sum of radii")
    theta1 = math.asin(abs(a1 - a2) / h)
    theta2 = math.asin((a1 + a2) / h)
    amin = min(a1, a2)
    contained = 2.0 * math.pi ** 2 * amin * amin * (1.0 - math.cos(theta1))
    xs, ws = gauss_legendre(n_theta)
    theta = 0.5 * (theta1 + theta2) + 0.5 * (theta2 - theta1) * xs
    w = 0.5 * (theta2 - theta1) * ws
    vals = lens_areas(a1, a2, h * np.sin(theta)) * np.sin(theta)
    return contained + 2.0 * math.pi * float(w @ vals)


# ---------------------------------------------------------------------------
# Mesh surface integral


def _gather_panels(region: Region):
    cents, areas, normals, diams = [], [], [], []
    for part in region.parts:
        if not isinstance(part, TriangleMesh):
            raise TypeError("mesh_mutual_shadow needs TriangleMesh parts; "
                            "mesh spheres/discs/plates first")
        cents.append(part.centroids)
        areas.append(part.areas)
        normals.append(part.normals)
        p = part.vertices[part.triangles]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
        diams.append(np.linalg.norm(e, axis=2).max(axis=1))
    return (np.vstack(cents), np.concatenate(areas), np.vstack(normals), np.concatenate(diams))


def _region_crossings(region: Region, override) -> float:
    if override is not None:
        return float(override)
    values = {p.crossings for p in region.parts}
    if len(values) != 1:
        raise ValueError("parts disagree on ray-crossing count; pass xi explicitly")
    return values.pop()


def mesh_mutual_shadow(T: Region, R: Region, xi_t: float | None = None,
                       xi_r: float | None = None, threads: int = 1) -> float:
    """Total mutual shadow area from the panel-pair surface integral.

    Midpoint rule over triangle pairs of |n_T (dot) R| |n_R (dot) R| / |R|**4
    times the panel areas.  The double surface integral counts every ray
    once per boundary crossing, so the sum is divided by the crossing counts
    xi_T xi_R (2 for closed convex surfaces, 1 for planar patches).
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    ct, at, nt, dt = _gather_panels(T)
    cr, ar, nr, dr = _gather_panels(R)
    xt = _region_crossings(T, xi_t)
    xr = _region_crossings(R, xi_r)

    def work(lo: int, hi: int) -> float:
        rvec = cr[None, :, :] - ct[lo:hi, None, :]  # (m, n, 3)
        dist = np.linalg.norm(rvec, axis=2)
        limit = 2.0 * np.maximum.outer(dt[lo:hi], dr)
        if np.any(dist < limit):
            raise PanelsTooCloseError(
                "panel centroids closer than twice the local panel diameter; refine the mesh")
        num = np.abs(np.einsum("mj,mnj->mn", nt[lo:hi], rvec)) \
            * np.abs(np.einsum("nj,mnj->mn", nr, rvec))
        vals = num / dist ** 4 * at[lo:hi, None] * ar[None, :]
        return float(vals.sum())

    spans = [(lo, min(lo + 128, ct.shape[0])) for lo in range(0, ct.shape[0], 128)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        partials = list(pool.map(lambda s: work(*s), spans))
    return math.fsum(partials) / (xt * xr)


# ---------------------------------------------------------------------------
# NDoF estimates


def _total_of(msr) -> float:
    return float(msr.total) if isinstance(msr, MutualShadowResult) else float(msr)


def ndof_from_shadow(msr, wavelength: float, model: str) -> NdofEstimate:
    """Analytic NDoF from a total mutual shadow: L/lambda, A/lambda**2, or 2A/lambda**2."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    total = _total_of(msr)
    if model == "scalar2d":
        n_a = total / wavelength
    elif model == "scalar3d":
        n_a = total / wavelength ** 2
    elif model == "em3d":
        n_a = 2.0 * (total / wavelength ** 2)
    else:
        raise ValueError(f"unknown NDoF model {model!r}; expected one of {NDOF_MODELS}")
    return NdofEstimate(n_a, model, wavelength)


def wavelength_for_ndof(msr, n_a: float, model: str) -> float:
    """Wavelength that makes the shadow-based NDoF equal n_a (inverse of ndof_from_shadow)."""
    if n_a <= 0:
        raise ValueError("target NDoF must be positive")
    total = _total_of(msr)
    if total <= 0:
        raise ValueError("total mutual shadow must be positive")
    if model == "scalar2d":
        return total / n_a
    if model == "scalar3d":
        return math.sqrt(total / n_a)
    if model == "em3d":
        return math.sqrt(2.0 * total / n_a)
    raise ValueError(f"unknown NDoF model {model!r}; expected one of {NDOF_MODELS}")


def reference_ndof(kind: str, **params) -> float:
    """Closed-form NDoF references (Weyl, total-shadow, paraxial)."""
    lam = params.get("wavelength")
    if lam is None or lam <= 0:
        raise ValueError("wavelength must be positive")

    def positive(name):
        v = params.get(name)
        if v is None or v <= 0:
            raise ValueError(f"{name} must be positive")
        return float(v)

    if kind == "weyl2d":
        return 2.0 * positive("length") / lam
    if kind == "weyl3d":
        return math.pi * positive("area") / lam ** 2
    if kind == "shadow2d":
        return positive("shadow_length") / lam
    if kind == "shadow3d":
        return positive("shadow_area") / lam ** 2
    if kind == "paraxial2d":
        return positive("l_t") * positive("l_r") / (positive("distance") * lam)
    if kind == "paraxial3d":
        return positive("a_t") * positive("a_r") / (positive("distance") ** 2 * lam ** 2)
    raise ValueError(f"unknown reference kind {kind!r}")


# ---------------------------------------------------------------------------
# Region separation (validation helper)


def _boundary_points(shape, n: int = 128) -> np.ndarray:
    if isinstance(shape, Segment):
        t = np.linspace(0.0, 1.0, n)[:, None]
        return shape.start[None, :] * (1 - t) + shape.end[None, :] * t
    if isinstance(shape, (ConvexPolygon, PlanarPolygon)):
        v = shape.vertices
        t = np.linspace(0.0, 1.0, max(2, n // v.shape[0]), endpoint=False)[None, :, None]
        return (v[:, None] * (1 - t) + np.roll(v, -1, axis=0)[:, None] * t).reshape(-1, v.shape[1])
    if isinstance(shape, Disc):
        t = 2 * np.pi * np.arange(n) / n
        return shape.center[None, :] + shape.radius * np.column_stack([np.cos(t), np.sin(t)])
    if isinstance(shape, Sphere):
        m = max(4, int(math.sqrt(n)))
        th = np.pi * (np.arange(m) + 0.5) / m
        ph = 2 * np.pi * np.arange(m) / m
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        offs = np.column_stack([
            (np.sin(tt) * np.cos(pp)).ravel(),
            (np.sin(tt) * np.sin(pp)).ravel(),
            np.cos(tt).ravel(),
        ])
        return shape.center[None, :] + shape.radius * offs
    if isinstance(shape, TriangleMesh):
        return shape.vertices
    raise TypeError(f"not a shape: {type(shape).__name__}")


def _point_inside(shape, pts: np.ndarray) -> np.ndarray:
    if isinstance(shape, (Disc, Sphere)):
        return np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius
    if isinstance(shape, ConvexPolygon):
        return points_in_convex_polygon(pts, shape.vertices)
    return np.zeros(pts.shape[0], dtype=bool)


def region_min_distance(T: Region, R: Region, n_boundary: int = 256) -> float:
    """Approximate minimum distance between two regions (0 when overlapping).

    Boundary-sampled; accurate to the boundary sampling density, which is
    sufficient for the disjointness validation it backs.
    """
    from scipy.spatial.distance import cdist

    t_pts = [(_boundary_points(p, n_boundary), p) for p in T.parts]
    r_pts = [(_boundary_points(p, n_boundary), p) for p in R.parts]
    best = math.inf
    for pa, sa in t_pts:
        for pb, sb in r_pts:
            if np.any(_point_inside(sb, pa)) or np.any(_point_inside(sa, pb)):
                return 0.0
            best = min(best, float(cdist(pa, pb).min()))
    return best
