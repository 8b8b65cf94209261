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
from dataclasses import dataclass

import numpy as np

from .errors import OrderingUndefinedError, PanelsTooCloseError, SpheresOverlapError
from .geometry import (
    N_ARC_DEFAULT,
    Direction,
    PlanarPolygon,
    Sphere,
    TriangleMesh,
    convex_polygon_intersection,
    direction_frames,
    directions_of,
    intersect_rings,
    lens_areas,
    ordered_map,
    project_rings,
    project_shape_3d,
    shape_centroid,
    support_intervals,
    thread_count,
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
    "total_mutual_shadow",
    "total_shadow",
    "shadow_length_two_lines",
    "shadow_area_two_discs",
    "shadow_area_two_spheres",
    "mesh_mutual_shadow",
    "ndof_from_shadow",
    "reference_ndof",
    "wavelength_for_ndof",
    # the per-direction geometry forms of the batched kernels: the engine does not
    # call them, but perfbench/bench_trace.py patches them in this module
    "project_shape_3d",
    "convex_polygon_intersection",
]

# NDoF model -> (factor, power): N_a = factor * total / wavelength**power; the
# power is the dimension minus one, and each dimension's first model is its default
NDOF_MODELS = {"scalar2d": (1.0, 1), "scalar3d": (1.0, 2), "em3d": (2.0, 2)}

# A batch takes as many directions as rings of the widest part fit in this many
# bytes, one complex128 per vertex: 1024 directions for plates, 16 for 256-gon
# sphere outlines.  On the 16 plate-pair totals of shadow_sweep (2-core Xeon,
# medians of 30 in-process rounds) 32, 64, 128 and 256 KiB took 0.082, 0.071,
# 0.074 and 0.072 s a round, and one total's arrays peaked at 0.61, 1.07, 1.74
# and 1.79 MB under tracemalloc.  Sphere outlines gain from larger batches (a
# plate against a sphere, 4608 directions: 0.086 s at 64 KiB, 0.075 s at
# 128 KiB), but no workload runs them.  No value depends on the batch.
_BATCH_BYTES = 2**16


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
        recomputed = math.fsum(self.weights * self.values)
        scale = max(abs(self.total), 1e-300)
        if abs(recomputed - self.total) > 1e-12 * scale:
            raise ValueError("total does not match the weighted sum of per-direction values")

    @property
    def n_directions(self) -> int:
        return self.weights.shape[0]

    def per_direction(self):
        return zip(directions_of(self.angles), map(float, self.values))


@dataclass(frozen=True)
class NdofEstimate:
    n_a: float
    model: str
    wavelength: float


# ---------------------------------------------------------------------------
# Batched shadow engine: every value comes from one batch of directions (a
# per-direction call is a batch of one).  A batch's 3D shadows are geometry.Rings,
# complex x + iy vertex-major with one column per direction, so each step along
# the vertex axis is one operation across the batch.  Per-direction arithmetic
# is elementwise or summed in a fixed order, so no value depends on its batch.


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


def _mutual_values(T: Region, R: Region, angles: np.ndarray) -> np.ndarray:
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
    elif _sphere_pair(T, R):
        t, r = T.parts[0], R.parts[0]
        offset = np.einsum("k,nkj->nj", t.center - r.center, frames)
        values[forward] = lens_areas(t.radius, r.radius, np.sqrt((offset * offset).sum(axis=1)))
    else:
        st = [project_rings(p, frames) for p in T.parts]
        sr = [project_rings(p, frames) for p in R.parts]
        pairs = [intersect_rings(a, b) for a in st for b in sr]
        # one pair's clip areas are its union area, bit for bit
        values[forward] = pairs[0][1] if len(pairs) == 1 else union_area([p for p, _ in pairs])
    return values


def _shadow_values(T: Region, angles: np.ndarray) -> np.ndarray:
    """Shadow measure of the transmitter alone for a batch of directions."""
    frames = direction_frames(angles)[1]
    if T.dimension == 2:
        lo, hi = zip(*(support_intervals(p, frames) for p in T.parts))
        return union_length(np.stack(lo, axis=1), np.stack(hi, axis=1))
    return union_area([project_rings(p, frames) for p in T.parts])


def mutual_shadow_direction(T: Region, R: Region, direction: Direction) -> float:
    """Overlap measure of the T and R shadows at one illumination direction.

    Counted only when the transmitter casts onto the receiver (every T part
    centroid precedes every R part centroid along the direction); raises
    OrderingUndefinedError when the part centroids interleave.
    """
    if T.dimension != R.dimension:
        raise ValueError("regions must share the dimension")
    if direction.is_3d != (T.dimension == 3):
        raise ValueError("direction dimension does not match the regions")
    return float(_mutual_values(T, R, direction.angles)[0])


# ---------------------------------------------------------------------------
# Direction-quadrature totals


def _sphere_pair(T: Region, R: Region) -> bool:
    """One sphere on each side: the overlap is a lens, and no ring is built."""
    return len(T.parts) == len(R.parts) == 1 \
        and isinstance(T.parts[0], Sphere) and isinstance(R.parts[0], Sphere)


def _ring_width(*regions: Region) -> int:
    """Vertices of the widest projected ring; a 2D interval's (lo, hi) counts as one.

    A mesh counts as its vertices up to the width of a sphere outline: its
    shadow is one Qhull ring per direction, far shorter than a fine mesh's
    vertex list, and smaller batches would only add per-batch work to it.
    """
    def width(shape):
        if isinstance(shape, Sphere):
            return N_ARC_DEFAULT
        if isinstance(shape, TriangleMesh):
            return min(shape.vertices.shape[0], N_ARC_DEFAULT)
        return shape.vertices.shape[0] if isinstance(shape, PlanarPolygon) else 1
    return max(width(p) for region in regions for p in region.parts)


def _integrate(T: Region, quad: DirectionQuadrature, width: int,
               batch_values) -> MutualShadowResult:
    """The rule's per-direction values and their weighted sum.

    A batch holds as many directions as rings of ``width`` vertices fit in
    _BATCH_BYTES.
    """
    if (quad.dim == 2) != (T.dimension == 2):
        raise ValueError("quadrature dimension does not match the regions")
    step = max(1, _BATCH_BYTES // (16 * width))
    values = np.concatenate([batch_values(quad.angles[lo:lo + step])
                             for lo in range(0, quad.n, step)])
    return MutualShadowResult(math.fsum(quad.weights * values), quad.angles, quad.weights,
                              values, quad.dim, quad.rule)


def scene_quadrature(T: Region, R: Region, n_directions: int, n_theta: int,
                     n_phi: int) -> DirectionQuadrature:
    """Direction rule for a transmitter-receiver scene, panelized at its shadow kinks."""
    shapes = list(T.parts) + list(R.parts)
    if T.dimension == 2:
        pairs = [(ct, cr) for ct in T.centroids for cr in R.centroids]
        return scene_circle_quadrature(shapes, n_directions, perpendicular_pairs=pairs)
    return scene_sphere_quadrature(shapes, n_theta, n_phi)


def total_mutual_shadow(T: Region, R: Region, n_directions: int = 4096, n_theta: int = 128,
                        n_phi: int = 256) -> MutualShadowResult:
    """Total mutual shadow L_TR (2D) or A_TR (3D) over the scene's direction rule.

    The rule has n_directions azimuths in 2D and n_theta x n_phi directions in 3D.
    """
    if T.dimension != R.dimension:
        raise ValueError("regions must share the dimension")
    quad = scene_quadrature(T, R, n_directions, n_theta, n_phi)
    width = 1 if _sphere_pair(T, R) else _ring_width(T, R)
    return _integrate(T, quad, width, lambda angles: _mutual_values(T, R, angles))


def total_shadow(T: Region, quad: DirectionQuadrature) -> MutualShadowResult:
    """Total transmitter shadow over a (possibly partial) far-field coverage."""
    return _integrate(T, quad, _ring_width(T), lambda angles: _shadow_values(T, angles))


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


def _region_crossings(region: Region) -> float:
    values = {p.crossings for p in region.parts}
    if len(values) != 1:
        raise ValueError("parts disagree on ray-crossing count (closed and open meshes mixed)")
    return values.pop()


def mesh_mutual_shadow(T: Region, R: Region, threads: int = 1) -> float:
    """Total mutual shadow area from the panel-pair surface integral.

    Midpoint rule over triangle pairs of |n_T (dot) R| |n_R (dot) R| / |R|**4
    times the panel areas.  The double surface integral counts every ray
    once per boundary crossing, so the sum is divided by the crossing counts
    xi_T xi_R (2 for closed convex surfaces, 1 for planar patches).
    """
    threads = thread_count(threads)
    ct, at, nt, dt = _gather_panels(T)
    cr, ar, nr, dr = _gather_panels(R)
    xt = _region_crossings(T)
    xr = _region_crossings(R)

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
    return math.fsum(ordered_map(lambda s: work(*s), spans, threads)) / (xt * xr)


# ---------------------------------------------------------------------------
# NDoF estimates


def _total_of(msr) -> float:
    return float(msr.total) if isinstance(msr, MutualShadowResult) else float(msr)


def _model(model: str) -> tuple[float, int]:
    if model not in NDOF_MODELS:
        raise ValueError(f"unknown NDoF model {model!r}; expected one of {tuple(NDOF_MODELS)}")
    return NDOF_MODELS[model]


def ndof_from_shadow(msr, wavelength: float, model: str) -> NdofEstimate:
    """Analytic NDoF from a total mutual shadow: L/lambda, A/lambda**2, or 2A/lambda**2."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    total = _total_of(msr)
    factor, power = _model(model)
    return NdofEstimate(factor * (total / wavelength ** power), model, wavelength)


def wavelength_for_ndof(msr, n_a: float, model: str) -> float:
    """Wavelength that makes the shadow-based NDoF equal n_a (inverse of ndof_from_shadow)."""
    if n_a <= 0:
        raise ValueError("target NDoF must be positive")
    total = _total_of(msr)
    if total <= 0:
        raise ValueError("total mutual shadow must be positive")
    factor, power = _model(model)
    scaled = factor * total / n_a
    return scaled if power == 1 else math.sqrt(scaled)


def reference_ndof(kind: str, **params) -> float:
    """Closed-form NDoF references (Weyl, total-shadow, paraxial)."""
    def positive(name):
        v = params.get(name)
        if v is None or v <= 0:
            raise ValueError(f"{name} must be positive")
        return float(v)

    lam = positive("wavelength")
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
