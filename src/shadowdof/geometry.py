"""Shape primitives, directional projections, and shadow intersections.

Shapes are validated at construction; every operation below may assume a
valid shape.  Projections map a shape onto the axis (2D) or plane (3D)
orthogonal to an illumination direction; intersections of the resulting
shadow regions are exact for intervals and convex polygons.  ``ordered_map``
is the package's one thread pool (row spans, lattice chunks, mesh panels).
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy  # submodules load on first attribute use (tests/test_imports.py)

__all__ = [
    "Direction",
    "Segment",
    "ConvexPolygon",
    "Disc",
    "TriangleMesh",
    "Sphere",
    "PlanarPolygon",
    "ShadowInterval",
    "ShadowPolygon",
    "project_shape_2d",
    "project_shape_3d",
    "interval_intersection",
    "convex_polygon_intersection",
    "circle_intersection_area",
    "convex_hull_2d",
    "polygon_area",
    "shape_centroid",
    "mesh_plate",
    "mesh_disc",
    "mesh_sphere",
]

# Default number of vertices when a sphere/disc outline is polygonized.
# A regular inscribed 256-gon has a relative area deficit below 1e-4.
N_ARC_DEFAULT = 256

_UNIT_TOL = 1e-12


def _as_array(x, dim, name):
    a = np.asarray(x, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components")
    return a


@dataclass(frozen=True)
class Direction:
    """Illumination direction: azimuth ``phi`` (2D) plus polar ``theta`` (3D)."""

    phi: float
    theta: float | None = None

    @property
    def is_3d(self) -> bool:
        return self.theta is not None

    @property
    def angles(self) -> np.ndarray:
        """This direction as a one-row batch for ``direction_frames``."""
        if self.theta is None:
            return np.array([self.phi], dtype=float)
        return np.array([[self.theta, self.phi]], dtype=float)

    @property
    def khat(self) -> np.ndarray:
        return direction_frames(self.angles)[0][0]

    @property
    def phat(self) -> np.ndarray:
        """2D projection axis perpendicular to the direction."""
        if self.theta is not None:
            raise ValueError("phat is defined for 2D directions only")
        return direction_frames(self.angles)[1][0]

    def plane_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal (theta_hat, phi_hat) basis of the projection plane."""
        if self.theta is None:
            raise ValueError("plane basis is defined for 3D directions only")
        basis = direction_frames(self.angles)[1][0]
        return basis[:, 0], basis[:, 1]


def direction_frames(angles) -> tuple[np.ndarray, np.ndarray]:
    """Propagation vectors and projection frames of a batch of directions.

    ``angles`` holds (N,) azimuths (2D) or (N, 2) [theta, phi] rows (3D).
    Returns khat (N, dim) and the frame shapes are projected onto: the axis
    phat = (-sin phi, cos phi) as (N, 2) in 2D, the (theta_hat, phi_hat)
    basis as the columns of (N, 3, 2) in 3D.  At the poles (sin(theta) = 0)
    the basis is fixed to (x, y) to avoid the coordinate singularity.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim == 1:
        c, s = np.cos(a), np.sin(a)
        return np.stack([c, s], axis=1), np.stack([-s, c], axis=1)
    st, ct = np.sin(a[:, 0]), np.cos(a[:, 0])
    cp, sp = np.cos(a[:, 1]), np.sin(a[:, 1])
    khat = np.empty((a.shape[0], 3))
    np.multiply(st, cp, out=khat[:, 0])
    np.multiply(st, sp, out=khat[:, 1])
    khat[:, 2] = ct
    bases = np.zeros((a.shape[0], 3, 2))
    np.multiply(ct, cp, out=bases[:, 0, 0])
    np.multiply(ct, sp, out=bases[:, 1, 0])
    np.negative(st, out=bases[:, 2, 0])
    np.negative(sp, out=bases[:, 0, 1])
    bases[:, 1, 1] = cp
    bases[np.abs(st) < 1e-14] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    return khat, bases


def directions_of(angles):
    """One Direction per row of (N,) azimuths or (N, 2) [theta, phi] angles."""
    a = np.asarray(angles)
    if a.ndim == 1:
        return (Direction(float(phi)) for phi in a)
    return (Direction(float(phi), float(theta)) for theta, phi in a)


def _turns(ring: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edges of a closed 2D ring; positive at CCW turns."""
    e = np.roll(ring, -1, axis=0) - ring
    return e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]


# ---------------------------------------------------------------------------
# 2D shapes


@dataclass(frozen=True, eq=False)
class Segment:
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", _as_array(self.start, 2, "start"))
        object.__setattr__(self, "end", _as_array(self.end, 2, "end"))
        if np.allclose(self.start, self.end):
            raise ValueError("segment endpoints must be distinct")

    @property
    def dimension(self) -> int:
        return 2


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    vertices: np.ndarray  # (m, 2), strictly convex, CCW

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 two-dimensional vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon has non-finite vertices")
        scale = float(np.abs(v).max()) or 1.0
        if np.any(_turns(v) <= 1e-12 * scale * scale):
            raise ValueError("vertices must be strictly convex in CCW order")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return 2


@dataclass(frozen=True, eq=False)
class Disc:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_array(self.center, 2, "center"))
        if not (self.radius > 0):
            raise ValueError("disc radius must be positive")

    @property
    def dimension(self) -> int:
        return 2


# ---------------------------------------------------------------------------
# 3D shapes


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    vertices: np.ndarray  # (n, 3)
    triangles: np.ndarray  # (m, 3) int indices
    normals: np.ndarray  # (m, 3) unit outward normals
    closed: bool = False  # closed convex surface (ray crosses twice)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=int)
        n = np.asarray(self.normals, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("mesh vertices must have shape (n, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("mesh triangles must have shape (m, 3)")
        if n.shape != (t.shape[0], 3):
            raise ValueError("one unit normal per triangle required")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("triangle indices out of range")
        areas = _triangle_areas(v, t)
        if np.any(areas <= 0):
            raise ValueError("mesh contains degenerate triangles")
        if np.any(np.abs(np.linalg.norm(n, axis=1) - 1.0) > 1e-9):
            raise ValueError("normals must be unit length")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "normals", n)

    @property
    def dimension(self) -> int:
        return 3

    @property
    def areas(self) -> np.ndarray:
        return _triangle_areas(self.vertices, self.triangles)

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @property
    def crossings(self) -> float:
        """Ray/boundary crossing count: 2 for a closed convex surface, 1 planar."""
        return 2.0 if self.closed else 1.0


def _triangle_areas(vertices, triangles) -> np.ndarray:
    p = vertices[triangles]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_array(self.center, 3, "center"))
        if not (self.radius > 0):
            raise ValueError("sphere radius must be positive")

    @property
    def dimension(self) -> int:
        return 3


@dataclass(frozen=True, eq=False)
class PlanarPolygon:
    vertices: np.ndarray  # (m, 3), coplanar
    normal: np.ndarray  # unit plane normal
    # in-plane frame: unit axes e1 (along the first edge) and e2 = normal x e1,
    # and the vertices in those coordinates about vertices[0]
    axes: tuple = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        n = _as_array(self.normal, 3, "normal")
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("planar polygon needs at least 3 three-dimensional vertices")
        if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
            n = n / np.linalg.norm(n)
        scale = float(np.abs(v).max()) or 1.0
        offsets = (v - v[0]) @ n
        if np.any(np.abs(offsets) > 1e-9 * scale):
            raise ValueError("vertices are not coplanar with the given normal")
        # require a convex ring so projections stay convex without hulling
        e1 = v[1] - v[0]
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        flat = np.column_stack([(v - v[0]) @ e1, (v - v[0]) @ e2])
        cross = _turns(flat)
        if not (np.all(cross > 1e-12 * scale * scale) or np.all(cross < -1e-12 * scale * scale)):
            raise ValueError("planar polygon must be strictly convex")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "axes", (e1, e2))
        object.__setattr__(self, "flat", flat)

    @property
    def dimension(self) -> int:
        return 3


# ---------------------------------------------------------------------------
# Shadow regions


@dataclass(frozen=True)
class ShadowInterval:
    """Projection of a 2D shape on the axis perpendicular to the direction."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("interval needs lo <= hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return self.length == 0.0


@dataclass(frozen=True, eq=False)
class ShadowPolygon:
    """Convex polygon in the projection plane, held CCW; zero vertices means empty.

    A clockwise ring is reversed, as ``project_rings`` orients its rings.
    """

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    area: float = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        area = polygon_area(v)
        if area < 0:
            v = v[::-1]
            area = polygon_area(v)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "area", area)

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] < 3 or self.area <= 0.0


def _complex(xy: np.ndarray) -> np.ndarray:
    """Points (..., 2) as x + iy (...), each part copied bit for bit."""
    z = np.empty(xy.shape[:-1], dtype=complex)
    z.real, z.imag = xy[..., 0], xy[..., 1]
    return z


def _extent(z: np.ndarray) -> np.ndarray:
    """Largest |x| or |y| of each ring in (W, N) rings."""
    return np.maximum(np.abs(z.real).max(axis=0), np.abs(z.imag).max(axis=0))


class Rings(NamedTuple):
    """Convex CCW shadow polygons of a batch of directions, padded to one width.

    ``z`` (W, N) holds the vertices as x + iy, vertex-major: column n holds
    ``count[n]`` vertices followed by copies of its last vertex, and a count
    of zero marks an empty shadow.  Steps along the vertex axis are then
    whole-row operations across the batch.
    """

    z: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, polys) -> Rings:
        """One column per ShadowPolygon; empty polygons get a count of zero."""
        count = np.array([0 if p.is_empty else p.vertices.shape[0] for p in polys])
        z = np.zeros((max(int(count.max()), 1), len(polys)), dtype=complex)
        full = count > 0
        if full.any():
            # every vertex of the non-empty polygons in one array, gathered into columns
            z_all = _complex(np.concatenate([p.vertices for p, c in zip(polys, count) if c]))
            start = np.cumsum(count) - count
            take = start + np.minimum(np.arange(z.shape[0])[:, None], count - 1)
            z[:, full] = z_all[take[:, full]]
        return cls(z, count)

    def polygon(self) -> ShadowPolygon:
        """The first column as a ShadowPolygon."""
        z = self.z[:self.count[0], 0]
        return ShadowPolygon(np.stack([z.real, z.imag], axis=1))


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Running sums of a (W, ...) down axis 0, in place, each added in row order.

    numpy's accumulate steps down one column at a time, a row loop adds
    whole rows: the loop is the faster when rows are many times longer than
    columns (plate rings), the accumulate otherwise (256-gon outlines).  Both
    add the same terms in the same order.
    """
    if 16 * a.shape[0] <= a[0].size:
        for row in range(1, a.shape[0]):
            a[row] += a[row - 1]
        return a
    return np.cumsum(a, axis=0, out=a)


def ring_areas(z: np.ndarray) -> np.ndarray:
    """Shoelace areas of rings z (W, ...) held as x + iy; positive for CCW order.

    The terms are summed in vertex order, so the copies padding a ring add
    exact zeros and leave its area bit-identical.
    """
    x, y = z.real, z.imag
    cross = x * np.concatenate((y[1:], y[:1])) - np.concatenate((x[1:], x[:1])) * y
    return 0.5 * _running_sum(cross)[-1]


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area; positive for CCW vertex order."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    return float(ring_areas(_complex(v)))


# ---------------------------------------------------------------------------
# Projections


def support_intervals(shape, phats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of p = phat . r over a 2D shape for a batch of axes phats (N, 2)."""
    if isinstance(shape, Disc):
        c = np.einsum("k,nk->n", shape.center, phats)
        return c - shape.radius, c + shape.radius
    if isinstance(shape, Segment):
        p = np.einsum("mk,nk->nm", np.stack([shape.start, shape.end]), phats)
    elif isinstance(shape, ConvexPolygon):
        p = np.einsum("mk,nk->nm", shape.vertices, phats)
    else:
        raise TypeError(f"not a 2D shape: {type(shape).__name__}")
    return p.min(axis=1), p.max(axis=1)


def project_shape_2d(shape, direction: Direction) -> ShadowInterval:
    """Interval of p = phat . r over the shape, phat = (-sin phi, cos phi)."""
    lo, hi = support_intervals(shape, direction.phat[None])
    return ShadowInterval(float(lo[0]), float(hi[0]))


def _plane_coords(vertices: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Vertices (M, 3) in each plane basis (N, 3, 2) as x + iy, (M, N).

    Three multiply-adds in axis order per part: the sums
    einsum("mk,nkj->mnj") forms, bit for bit, in fewer passes.
    """
    b = bases.transpose(1, 2, 0).copy()  # (3, 2, N): one contiguous row per component
    v = vertices[:, :, None]
    z = np.empty((vertices.shape[0], bases.shape[0]), dtype=complex)
    for j, part in enumerate((z.real, z.imag)):
        t = v[:, 0] * b[0, j]
        t += v[:, 1] * b[1, j]
        t += v[:, 2] * b[2, j]
        part[...] = t
    return z


def project_rings(shape, bases: np.ndarray, n_arc: int = N_ARC_DEFAULT) -> Rings:
    """Convex shadow polygons of a 3D shape for a batch of plane bases (N, 3, 2)."""
    if isinstance(shape, Sphere):
        c2 = np.einsum("k,nkj->nj", shape.center, bases)
        t = 2.0 * np.pi * (np.arange(n_arc) + 0.5) / n_arc
        z = np.empty((n_arc, bases.shape[0]), dtype=complex)
        z.real = (shape.radius * np.cos(t))[:, None] + c2[:, 0]
        z.imag = (shape.radius * np.sin(t))[:, None] + c2[:, 1]
        return Rings(z, np.full(bases.shape[0], n_arc))
    if isinstance(shape, PlanarPolygon):
        # projection of a convex ring stays a convex ring (up to orientation)
        z = _plane_coords(shape.vertices, bases)
        area = ring_areas(z)
        scale = np.maximum(_extent(z), 1.0)
        edge_on = np.abs(area) <= 1e-12 * scale * scale
        return Rings(np.where(area < 0, z[::-1], z), np.where(edge_on, 0, z.shape[0]))
    if isinstance(shape, TriangleMesh):
        z = _plane_coords(shape.vertices, bases)
        flat = np.stack([z.real.T, z.imag.T], axis=2)
        # Qhull has no batched call: one hull per direction
        return Rings.of([ShadowPolygon(convex_hull_2d(p)) for p in flat])
    raise TypeError(f"not a 3D shape: {type(shape).__name__}")


def project_shape_3d(shape, direction: Direction, n_arc: int = N_ARC_DEFAULT) -> ShadowPolygon:
    """Convex shadow polygon in the (theta_hat, phi_hat) plane of the direction."""
    basis = np.stack(direction.plane_basis(), axis=1)
    return project_rings(shape, basis[None], n_arc).polygon()


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """CCW convex hull vertices; degenerate (collinear) inputs give an empty set."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        return np.zeros((0, 2))
    try:
        hull = scipy.spatial.ConvexHull(pts)
    except scipy.spatial.QhullError:
        return np.zeros((0, 2))
    return pts[hull.vertices]


# ---------------------------------------------------------------------------
# Intersections


def interval_intersection(a: ShadowInterval, b: ShadowInterval) -> ShadowInterval:
    """Overlap of two shadow intervals; touching endpoints count as empty."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if hi <= lo:
        return ShadowInterval(0.0, 0.0)
    return ShadowInterval(lo, hi)


def _clip_edge(z, count, p, d, eps) -> tuple[np.ndarray, np.ndarray]:
    """Keep the part of each ring left of its edge from p along d (N,), x + iy.

    ``z`` (W, N) holds the rings vertex-major, NaN past each ring's count: a
    NaN slot neither keeps nor crosses.  Returns the clipped rings
    (W + 2, N) in the same form and their counts.
    """
    width, n = z.shape
    cols, last = np.arange(n), count - 1
    cr = d.real * (z.imag - p.imag) - d.imag * (z.real - p.real)
    # cr of the next vertex, the last vertex closing onto the first
    crn = np.concatenate((cr[1:], cr[:1]))
    crn[last, cols] = cr[0]
    keep = cr >= -eps
    cross = (np.maximum(cr, crn) > eps) & (np.minimum(cr, crn) < -eps)
    # a convex ring crosses at most twice: v + t (next - v) only there
    k = np.flatnonzero(cross)
    c = k % n
    cr_k = cr.ravel()[k]
    t = cr_k / (cr_k - crn.ravel()[k])
    del cr, crn
    z = z.ravel()
    v, w = z[k], z[np.where(k - c == last[c] * n, c, k + n)]  # the next vertex
    hit = np.empty(k.size, dtype=complex)
    for part, v_part, w_part in ((hit.real, v.real, w.real), (hit.imag, v.imag, w.imag)):
        np.subtract(w_part, v_part, out=part)
        part *= t
        part += v_part
    del v, w, t
    # vertex i goes out before the crossing of the edge after it: s counts
    # both, up to and including i, and becomes the crossing's flat out slot,
    # then the vertex's, one row before it where the edge crosses
    s = _running_sum(np.add(keep, cross, dtype=np.intp))
    new_count = s[-1].copy()
    if new_count.max(initial=0) > width + 1:  # a convex ring gains at most one vertex
        raise ValueError("clipped ring is not convex")
    s -= 1
    s *= n
    s += cols
    s = s.ravel()
    out = np.full((width + 2) * n, complex(np.nan, np.nan))
    out[s[k]] = hit
    np.subtract(s, n, out=s, where=cross.ravel())
    k = np.flatnonzero(keep)
    out[s[k]] = z[k]
    return out.reshape(width + 2, n), new_count


def clip_rings(a: Rings, b: Rings) -> tuple[Rings, np.ndarray]:
    """Batched Sutherland-Hodgman clip of convex rings a by convex rings b.

    Vertices within eps = 1e-12 scale**2 of a clip edge count as inside;
    a result with fewer than 3 vertices or an area of at most eps is empty.
    Returns the intersection rings and their areas.
    """
    scale = np.maximum(np.maximum(_extent(a.z), _extent(b.z)), 1.0)
    eps = 1e-12 * scale * scale
    # only the rings still alive go on to the next edge
    live = np.flatnonzero((a.count > 0) & (b.count > 0))
    count, tol = a.count[live], eps[live]
    z = a.z[:, live]
    z[np.arange(z.shape[0])[:, None] >= count] = complex(np.nan, np.nan)
    # the clip edges k -> k+1 of b, the last closing onto the first; a pad
    # vertex's edge is zero and keeps every vertex
    corner = b.z[:, live]
    edge = np.concatenate((corner[1:], corner[-1:]))
    edge[b.count[live] - 1, np.arange(live.size)] = corner[0]
    edge -= corner
    for k in range(int(b.count[live].max(initial=0))):
        z, count = _clip_edge(z, count, corner[k], edge[k], tol)
        kept = count >= 3
        if not kept.all():
            live, count, z, tol = live[kept], count[kept], z[:, kept], tol[kept]
            corner, edge = corner[:, kept], edge[:, kept]
            if not live.size:
                break
        z = z[:count.max()]
    # pad each ring with copies of its last vertex, then scatter the columns back
    width, n = (z.shape[0] if live.size else 1), live.size
    z = z.ravel()[np.minimum(np.arange(width)[:, None], count - 1) * n + np.arange(n)]
    area = ring_areas(z)
    alive = area > tol
    if n == a.z.shape[1]:
        out = z
    else:
        out = np.zeros((width, a.z.shape[1]), dtype=complex)
        out[:, live] = z
    new_count = np.zeros_like(a.count)
    new_count[live] = np.where(alive, count, 0)
    areas = np.zeros(a.z.shape[1])
    areas[live] = np.where(alive, area, 0.0)
    return Rings(out, new_count), areas


def convex_polygon_intersection(a: ShadowPolygon, b: ShadowPolygon) -> ShadowPolygon:
    """Sutherland-Hodgman clip of convex polygon a by convex polygon b."""
    return clip_rings(Rings.of([a]), Rings.of([b]))[0].polygon()


def lens_areas(a1: float, a2: float, d: np.ndarray) -> np.ndarray:
    """Lens areas of two discs with radii a1, a2 at center distances d (an array)."""
    partial = (d > abs(a1 - a2)) & (d < a1 + a2)
    d_lens = np.where(partial, d, 1.0)
    total = np.zeros_like(d_lens)
    for an in (a1, a2):
        dn = (d_lens * d_lens + 2 * an * an - a1 * a1 - a2 * a2) / (2 * d_lens * an)
        dn = np.clip(dn, -1.0, 1.0)
        total += an * an * (np.arccos(dn) - dn * np.sqrt(1.0 - dn * dn))
    contained = np.where(d <= abs(a1 - a2), math.pi * min(a1, a2) ** 2, 0.0)
    return np.where(partial, total, contained)


def circle_intersection_area(a1: float, a2: float, d: float) -> float:
    """Lens area of two discs with radii a1, a2 and center distance d."""
    if a1 <= 0 or a2 <= 0:
        raise ValueError("radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    return float(lens_areas(a1, a2, np.array([d]))[0])


# ---------------------------------------------------------------------------
# Unions (multi-part shadows)


def union_length(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Union length of K intervals per row (lo, hi: (N, K)) by one sorted sweep.

    Intervals with hi <= lo are empty.  Each interval adds what reaches past
    the furthest end of the intervals sorted before it.
    """
    order = np.argsort(lo, axis=1, kind="stable")
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    hi = np.where(hi > lo, hi, -np.inf)
    reach = np.maximum.accumulate(hi, axis=1)
    before = np.concatenate([np.full((lo.shape[0], 1), -np.inf), reach[:, :-1]], axis=1)
    gain = np.maximum(hi - np.maximum(lo, before), 0.0)
    return np.cumsum(gain, axis=1)[:, -1]


def intersect_rings(a: Rings, b: Rings) -> tuple[Rings, np.ndarray]:
    """Intersection rings and areas of two batches of convex rings.

    The wider batch is clipped by the narrower one: the intersection is the
    same, and the clip takes one step per edge of the clipping ring.
    """
    return clip_rings(a, b) if a.z.shape[0] >= b.z.shape[0] else clip_rings(b, a)


def union_area(parts: list[Rings]) -> np.ndarray:
    """Area of the union of convex rings per direction, by inclusion-exclusion.

    Intersections of convex polygons stay convex, so every term is exact; a
    branch stops once its intersection is empty in every direction.
    """
    def terms(current: Rings, area: np.ndarray, start: int, sign: float) -> np.ndarray:
        # this intersection's term, then those of its intersections with later parts
        total = sign * area
        for i in range(start, len(parts)):
            inter, inter_area = intersect_rings(current, parts[i])
            if inter.count.any():
                total = total + terms(inter, inter_area, i + 1, -sign)
        return total

    return sum(terms(p, np.where(p.count > 0, ring_areas(p.z), 0.0), i + 1, 1.0)
               for i, p in enumerate(parts))


def points_in_convex_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Vectorized inside-or-on test against a convex CCW polygon."""
    v = np.asarray(vertices, dtype=float)
    inside = np.ones(points.shape[0], dtype=bool)
    for i in range(v.shape[0]):
        p, q = v[i], v[(i + 1) % v.shape[0]]
        d = q - p
        cr = d[0] * (points[:, 1] - p[1]) - d[1] * (points[:, 0] - p[0])
        inside &= cr >= 0.0
    return inside


# ---------------------------------------------------------------------------
# Centroids


def shape_centroid(shape) -> np.ndarray:
    """Geometric centroid used for the shadow-ordering convention."""
    if isinstance(shape, Segment):
        return 0.5 * (shape.start + shape.end)
    if isinstance(shape, ConvexPolygon):
        v = shape.vertices
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area = 0.5 * cross.sum()
        cx = ((x + xn) * cross).sum() / (6.0 * area)
        cy = ((y + yn) * cross).sum() / (6.0 * area)
        return np.array([cx, cy])
    if isinstance(shape, (Disc, Sphere)):
        return shape.center.copy()
    if isinstance(shape, PlanarPolygon):
        return shape.vertices.mean(axis=0)
    if isinstance(shape, TriangleMesh):
        areas = shape.areas
        return (shape.centroids * areas[:, None]).sum(axis=0) / areas.sum()
    raise TypeError(f"not a shape: {type(shape).__name__}")


# ---------------------------------------------------------------------------
# Mesh builders


def mesh_plate(origin, u_vec, v_vec, h: float) -> TriangleMesh:
    """Structured triangulation of the parallelogram origin + s*u + t*v, s,t in [0,1]."""
    origin = _as_array(origin, 3, "origin")
    u = _as_array(u_vec, 3, "u_vec")
    v = _as_array(v_vec, 3, "v_vec")
    nu = max(1, int(round(np.linalg.norm(u) / h)))
    nv = max(1, int(round(np.linalg.norm(v) / h)))
    si = np.linspace(0.0, 1.0, nu + 1)
    ti = np.linspace(0.0, 1.0, nv + 1)
    verts = (origin[None, :] + si[:, None, None] * u[None, None, :]
             + ti[None, :, None] * v[None, None, :]).reshape(-1, 3)
    a = (np.arange(nu)[:, None] * (nv + 1) + np.arange(nv)).ravel()
    b = a + nv + 1
    tris = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=1).reshape(-1, 3)
    n = np.cross(u, v)
    n = n / np.linalg.norm(n)
    normals = np.tile(n, (tris.shape[0], 1))
    return TriangleMesh(verts, tris, normals, closed=False)


def mesh_disc(center, normal, radius: float, h: float) -> TriangleMesh:
    """Delaunay triangulation of concentric rings with spacing ~h."""
    center = _as_array(center, 3, "center")
    normal = _as_array(normal, 3, "normal")
    normal = normal / np.linalg.norm(normal)
    e1 = np.cross(normal, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.cross(normal, [0.0, 1.0, 0.0])
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    n_rings = max(2, int(round(radius / h)))
    pts2 = [np.zeros((1, 2))]
    for i in range(1, n_rings + 1):
        r = radius * i / n_rings
        m = max(6, int(round(2 * np.pi * r / h)))
        t = 2 * np.pi * np.arange(m) / m + (0.5 * np.pi * i / n_rings)
        pts2.append(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    pts2 = np.vstack(pts2)
    tri = scipy.spatial.Delaunay(pts2)
    verts = center[None, :] + pts2[:, 0:1] * e1[None, :] + pts2[:, 1:2] * e2[None, :]
    tris = tri.simplices.copy()
    # enforce consistent in-plane orientation
    flip = ring_areas(_complex(pts2[tris]).T) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    normals = np.tile(normal, (tris.shape[0], 1))
    return TriangleMesh(verts, tris, normals, closed=False)


def mesh_sphere(center, radius: float, h: float) -> TriangleMesh:
    """Latitude/longitude triangulation of a sphere surface with spacing ~h."""
    center = _as_array(center, 3, "center")
    n_theta = max(4, int(round(np.pi * radius / h)))
    n_phi = max(6, int(round(2 * np.pi * radius / h)))
    th, ph = np.meshgrid(np.pi * np.arange(1, n_theta) / n_theta,
                         2 * np.pi * np.arange(n_phi) / n_phi, indexing="ij")
    ring = radius * np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
    verts = np.vstack([[0.0, 0.0, radius], ring.reshape(-1, 3), [0.0, 0.0, -radius]]) + center
    # vertex indices of the latitude rows, and of each vertex's eastern neighbour
    rows = 1 + np.arange(n_theta - 1)[:, None] * n_phi + np.arange(n_phi)
    east = np.roll(rows, -1, axis=1)
    a, b, c, d = rows[:-1], east[:-1], rows[1:], east[1:]
    tris = np.vstack([
        np.stack([np.zeros(n_phi, dtype=int), rows[0], east[0]], axis=1),
        np.stack([a, c, b, b, c, d], axis=-1).reshape(-1, 3),
        np.stack([np.full(n_phi, rows.size + 1), east[-1], rows[-1]], axis=1),
    ])
    p = verts[tris]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    # orient outward
    out = p.mean(axis=1) - center[None, :]
    sign = np.sign(np.einsum("ij,ij->i", normals, out))
    normals *= sign[:, None]
    return TriangleMesh(verts, tris, normals, closed=True)


# ---------------------------------------------------------------------------
# Ordered map


def thread_count(threads) -> int:
    """``threads`` as an int; ValueError unless it is an integer >= 1 (not a bool)."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def ordered_map(work, spans: list, threads: int):
    """work(span) for each span, yielded in span order whatever the thread count.

    The builtin map at one thread (or one span), a thread pool above that,
    which holds at most 2 * threads spans submitted and not yet taken, so
    results never pile up ahead of a slow consumer.
    """
    if threads == 1 or len(spans) == 1:
        yield from map(work, spans)
        return
    pending = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for span in spans:
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()
                pending.append(pool.submit(work, span))
            while pending:
                yield pending.popleft().result()
        finally:  # on an error or an abandoned map, start no further span
            for future in pending:
                future.cancel()
