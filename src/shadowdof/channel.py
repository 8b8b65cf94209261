"""Point-source sampling, free-space kernels, and the channel operator.

Regions are discretized into uniformly spaced point sources (default
spacing lambda/5, grids anchored at the bounding-box corner).  The channel
maps transmit excitations to received field samples, either at receiver
points through the scalar/dyadic Green's function or at far-field ports
through the distance-free plane-wave factor exp(+j k khat.r) scaled by the
square root of the port quadrature weight.  Each channel kind has one
block kernel, (receiver rows, transmit sources) -> block; the point Green's
functions are 1x1 calls of the same kernels.

The operator applies itself and its adjoint by one of two routes, chosen
once from the points alone.  When both point sets lie on one lattice (one
basis and spacing, any offset between the two; parallel segments, discs,
polygons, parallel plates and spheres sampled at one spacing), H[i, j]
depends only on the integer offset between receiver i and source j, so H is
a masked multilevel block-Toeplitz matrix: the lattice route applies it as
a zero-padded FFT convolution with one kernel table (Barrowes, Teixeira &
Kong, Microw. Opt. Technol. Lett. 2001).  Every other case (far-field
ports, the dyadic kernel, end-fire plates, unaligned grids) takes the row
route, which evaluates the kernel over bounded row spans through one
ordered map.  Both routes give results independent of the worker thread
count, and dense materialization never has to happen.  The sources of
far-field ports are proved to lie on a lattice on their own
(``ChannelOperator.source_lattice``), so that the dense spectrum can sum
the port Gram matrix over lattice runs in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import hankel2

from .errors import (
    CoincidentPointsError,
    EmptySamplingError,
    NearFieldCutoffError,
    RegionsTooCloseError,
    TooLargeForDenseError,
)
from .geometry import (
    ConvexPolygon,
    Direction,
    Disc,
    PlanarPolygon,
    Segment,
    Sphere,
    TriangleMesh,
    direction_frames,
    ordered_map,
    points_in_convex_polygon,
    polygon_area,
)
from .quadrature import DirectionQuadrature
from .shadow import Region

__all__ = [
    "SampleSet",
    "FarFieldPort",
    "ChannelOperator",
    "sample_region",
    "green_2d",
    "green_3d",
    "green_dyadic_3d",
    "assemble_channel",
    "channel_kind",
    "ports_from_quadrature",
]

DENSE_CAP_ENTRIES = 20_000 * 20_000  # complex128 entries (~6.4 GB)

DYADIC_NEAR_FIELD_KR = 1e-3

_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 2**21  # a row span's block holds at most this many entries

_GRID_EPS = 1e-9
_NEIGHBOUR_POINTS = 2**15  # leading points of a set whose neighbours propose a lattice
_SITE_CHUNK = 2**15  # points mapped to lattice sites at a time


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Uniformly spaced point samples of a region."""

    points: np.ndarray  # (N, dim)
    spacing: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] not in (2, 3):
            raise ValueError("points must have shape (N, 2) or (N, 3)")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "points", p)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _grid_1d(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + _GRID_EPS))
    return lo + step * np.arange(n + 1)


def _box_lattice(lo: np.ndarray, hi: np.ndarray, step: float) -> np.ndarray:
    """Grid points of the given step from corner lo up to hi, in any dimension."""
    axes = np.meshgrid(*(_grid_1d(a, b, step) for a, b in zip(lo, hi)), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, len(axes))


def _convex_piece(ring: np.ndarray, step: float, frame=None) -> np.ndarray:
    """Grid points inside a flat convex CCW ring, mapped by frame = (origin, e1, e2) to 3D."""
    pts = _box_lattice(ring.min(axis=0), ring.max(axis=0), step)
    pts = pts[points_in_convex_polygon(pts, ring)]
    if frame is None:
        return pts
    origin, e1, e2 = frame
    return origin[None, :] + pts[:, 0:1] * e1[None, :] + pts[:, 1:2] * e2[None, :]


def _sample_shape(shape, step: float) -> np.ndarray:
    if isinstance(shape, Segment):
        e = shape.end - shape.start
        length = float(np.linalg.norm(e))
        t = _grid_1d(0.0, length, step) / length
        return shape.start[None, :] + t[:, None] * e[None, :]
    if isinstance(shape, (Disc, Sphere)):
        pts = _box_lattice(shape.center - shape.radius, shape.center + shape.radius, step)
        return pts[np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius + 1e-12]
    if isinstance(shape, ConvexPolygon):
        return _convex_piece(shape.vertices, step)
    if isinstance(shape, PlanarPolygon):
        flat = shape.flat if polygon_area(shape.flat) >= 0 else shape.flat[::-1]
        return _convex_piece(flat, step, (shape.vertices[0], *shape.axes))
    if isinstance(shape, TriangleMesh):
        pieces = []
        for a, b, c in shape.vertices[shape.triangles]:
            t1 = b - a
            n1 = float(np.linalg.norm(t1))
            t1 = t1 / n1
            r2 = (c - a) - ((c - a) @ t1) * t1
            n2 = float(np.linalg.norm(r2))
            flat = np.array([[0.0, 0.0], [n1, 0.0], [(c - a) @ t1, n2]])
            pieces.append(_convex_piece(flat, step, (a, t1, r2 / n2)))
        return np.vstack(pieces)
    raise TypeError(f"not a shape: {type(shape).__name__}")


def sample_region(region: Region, spacing: float) -> SampleSet:
    """Uniform grid of the given spacing intersected with the region."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    pts = np.vstack([_sample_shape(p, spacing) for p in region.parts])
    if pts.shape[0] == 0:
        raise EmptySamplingError(
            f"no sample point inside region {region.label!r} at spacing {spacing}")
    # drop duplicates (shared part boundaries), keeping first occurrences in order
    key = np.round(pts / (spacing * 1e-9)).astype(np.int64)
    idx = np.sort(np.unique(key, axis=0, return_index=True)[1])
    return SampleSet(pts[idx], spacing)


# ---------------------------------------------------------------------------
# Kernels


def _separations(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    dist = cdist(rx, tx)
    if np.any(dist == 0.0):
        raise CoincidentPointsError("coincident transmit/receive points")
    return dist


def _hankel_block(rx: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    return 0.25j * hankel2(0, k * _separations(rx, tx))


def _spherical_block(rx: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    dist = _separations(rx, tx)
    return np.exp(-1j * k * dist) / (4.0 * math.pi * dist)


def _dyadic_block(rx: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    rv = rx[:, None, :] - tx[None, :, :]
    dist = np.linalg.norm(rv, axis=2)
    if np.any(dist == 0.0):
        raise CoincidentPointsError("coincident transmit/receive points")
    kr = k * dist
    if np.any(kr < DYADIC_NEAR_FIELD_KR):
        raise NearFieldCutoffError("pairs below the dyadic near-field cutoff")
    rhat = rv / dist[..., None]
    g = np.exp(-1j * kr) / (4.0 * math.pi * dist)
    a = 1.0 - 1j / kr - 1.0 / kr**2
    b = -1.0 + 3j / kr + 3.0 / kr**2
    out = (g * b)[..., None, None] * (rhat[..., :, None] * rhat[..., None, :])
    ga = g * a
    for i in range(3):
        out[..., i, i] += ga
    m, n = dist.shape
    return out.transpose(0, 2, 1, 3).reshape(3 * m, 3 * n)


def _port_block(khat: np.ndarray, sqrtw: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    return sqrtw[:, None] * np.exp(1j * k * (khat @ tx.T))


def _polarized_port_block(khat: np.ndarray, sqrtw: np.ndarray, pol: np.ndarray,
                          tx: np.ndarray, k: float) -> np.ndarray:
    # columns ordered (source, dipole axis): e_p[beta] exp(j k khat.r_n)
    phase = np.exp(1j * k * (khat @ tx.T))
    rows = (pol[:, None, :] * phase[:, :, None]).reshape(khat.shape[0], -1)
    return sqrtw[:, None] * rows


# point-receiver kind -> its block kernel
_POINT_KERNELS = {"scalar2d": _hankel_block, "scalar3d": _spherical_block,
                  "dyadic3d": _dyadic_block}


def _pair(r, rp, name: str) -> tuple[np.ndarray, np.ndarray, float]:
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    dist = float(np.linalg.norm(r - rp))
    if dist == 0.0:
        raise CoincidentPointsError(f"{name} at zero separation")
    return r[None, :], rp[None, :], dist


def green_2d(r, rp, k: float) -> complex:
    """2D free-space Green's function (j/4) H0^(2)(k |r - r'|).

    The second-kind Hankel function follows from the exp(-jkR) outgoing
    convention of the 3D kernel.
    """
    rx, tx, _ = _pair(r, rp, "green_2d")
    return complex(_hankel_block(rx, tx, k)[0, 0])


def green_3d(r, rp, k: float) -> complex:
    """3D free-space Green's function exp(-j k R) / (4 pi R)."""
    rx, tx, _ = _pair(r, rp, "green_3d")
    return complex(_spherical_block(rx, tx, k)[0, 0])


def green_dyadic_3d(r, rp, k: float) -> np.ndarray:
    """Free-space dyadic (I + grad grad / k**2) G3 in closed form.

    G = g(R) [ (1 - j/(kR) - 1/(kR)**2) I + (-1 + 3j/(kR) + 3/(kR)**2) RR ]
    with R the unit separation vector.  Rejected below kR = 1e-3 where the
    1/(kR)**3 terms cancel catastrophically.
    """
    rx, tx, dist = _pair(r, rp, "green_dyadic_3d")
    if k * dist < DYADIC_NEAR_FIELD_KR:
        raise NearFieldCutoffError(f"kR = {k * dist:.3e} below the dyadic cutoff 1e-3")
    return _dyadic_block(rx, tx, k)


# ---------------------------------------------------------------------------
# Far-field ports


@dataclass(frozen=True)
class FarFieldPort:
    """Receiving far-field direction with quadrature weight and optional polarization."""

    direction: Direction
    weight: float  # quadrature weight Lambda_p^2
    polarization: str | None = None  # None (scalar), "theta", or "phi"

    def __post_init__(self):
        if not (self.weight > 0):
            raise ValueError("port weight must be positive")
        if self.polarization is not None:
            if not self.direction.is_3d:
                raise ValueError("polarized ports need a 3D direction")
            if self.polarization not in ("theta", "phi"):
                raise ValueError("polarization must be 'theta' or 'phi'")

    def pol_vector(self) -> np.ndarray:
        theta_hat, phi_hat = self.direction.plane_basis()
        return theta_hat if self.polarization == "theta" else phi_hat


def ports_from_quadrature(quad: DirectionQuadrature, polarized: bool = False) -> list[FarFieldPort]:
    """One scalar port per quadrature direction, or a theta/phi pair when polarized."""
    pols = ("theta", "phi") if polarized else (None,)
    return [FarFieldPort(d, float(w), p) for d, w in zip(quad.directions(), quad.weights)
            for p in pols]


# ---------------------------------------------------------------------------
# Shared sample lattices


@dataclass(frozen=True, eq=False)
class _Lattice:
    """Point sets on one lattice: set i is origins[i] + indices[i] @ steps."""

    steps: np.ndarray  # (q, dim): h times the basis vectors
    origins: tuple  # (dim,) origin of each set
    indices: tuple  # (N_i, q) nonnegative integers of each set
    error: float  # largest coordinate difference between a point and its site

    def runs(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """First sites and one-past-last sites of the first set's maximal runs along an axis.

        A run is a maximal line of consecutive sites n, n + e_axis, ...; the
        sites of all runs are the set's sites, each once.  Returns two
        (runs, dim) arrays of points, in the order of the other axes' indices.
        """
        index = self.indices[0]
        others = [index[:, a] for a in range(index.shape[1]) if a != axis]
        ordered = index[np.lexsort([index[:, axis]] + others[::-1])]
        step = np.zeros(index.shape[1], dtype=np.int64)
        step[axis] = 1
        first = np.flatnonzero(np.r_[True, np.any(np.diff(ordered, axis=0) != step, axis=1)])
        past = ordered[np.r_[first[1:] - 1, ordered.shape[0] - 1]]
        past[:, axis] += 1
        return (self.origins[0] + ordered[first] @ self.steps,
                self.origins[0] + past @ self.steps)

    def refined(self, points: np.ndarray) -> _Lattice:
        """This one-set lattice of ``points`` after one refinement step of its steps.

        The least-squares fit over all points leaves a step some ulps off
        (13 ulps for the 79,563 quarter-arc disc samples), a drift that grows
        along every run; one step of iterative refinement, the residual's fit
        by the normal equations (their q x q matrix is exact in integers),
        brings every site to within a few ulps of its point.
        """
        [index] = self.indices
        normal = np.zeros((index.shape[1], index.shape[1]))
        residual = np.zeros(self.steps.shape)
        for rows in _site_chunks(points.shape[0]):
            m = index[rows] - index[0]
            normal += m.T @ m
            residual += m.T @ (points[rows] - points[0] - m @ self.steps)
        steps = self.steps + np.linalg.solve(normal, residual)
        origin = points[0] - index[0] @ steps
        error = max(float(np.abs(points[rows] - origin - index[rows] @ steps).max())
                    for rows in _site_chunks(points.shape[0]))
        return _Lattice(steps, (origin,), self.indices, error)


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.vstack(arrays)  # one set: no copy


def _site_chunks(n: int):
    return (slice(lo, lo + _SITE_CHUNK) for lo in range(0, n, _SITE_CHUNK))


def _lattice_of(*sides: np.ndarray) -> _Lattice | None:
    """The lattice one or two point sets lie on, or None if that cannot be proved.

    The spacing h is the shortest nearest-neighbour distance and the basis
    the nearest-neighbour vectors of that length, picked greedily while
    each is at least h/2 off the span of the earlier ones (two shortest
    vectors of a lattice are at least 60 degrees apart).  Neighbours are
    looked up among the first 2**15 points of each set only, one kd-tree
    per set: sampled regions come in grid order, so those points are a
    connected piece of the grid, and any basis they propose is checked on
    every point (a tree over all 1,273,226 samples of a disc held 47 MB).
    The step vectors are fitted by least squares over all points of all
    sets (steps taken from single neighbour differences put apply 1.3e-12
    off the row route at the N_a = 500 spacing), and each point must lie
    within 1e-9 h of its site; points are mapped to sites in chunks of
    2**15.  Each set must also span the whole basis: end-fire plates lie on
    one cubic lattice, but their 3D grid made a pass 7x slower than row
    blocks at N_a = 100, and crossing segments would need a table as large
    as H.  A two-set lattice whose offset box outgrows H (parts far apart)
    is refused too.
    Sphere pairs keep their 3D grid: on a 2-core Xeon a 300-column apply of
    two spheres at radius 18 h (24,405 points a side, grid 75^3) took
    10.8 s against 72.1 s on row blocks, and 2.9 s against 7.2 s at 12 h;
    only at 8 h (2,109 points, 0.91 s against 0.56 s) was it slower, a size
    at which the 'auto' method takes the dense spectrum, which reads row
    blocks on either route.
    """
    if min(p.shape[0] for p in sides) < 2:
        return None
    heads = [p[:_NEIGHBOUR_POINTS] for p in sides]
    near = [cKDTree(head).query(head, k=2) for head in heads]
    h = min(float(dist[:, 1].min()) for dist, _ in near)
    if h <= 0.0:
        return None
    vectors = np.vstack([head[j[:, 1]] - head for head, (_, j) in zip(heads, near)])
    vectors = vectors[np.linalg.norm(vectors, axis=1) <= h * (1.0 + _GRID_EPS)]
    basis = np.zeros((0, sides[0].shape[1]))
    for _ in range(sides[0].shape[1]):
        q, _ = np.linalg.qr(basis.T)
        off = np.linalg.norm(vectors - (vectors @ q) @ q.T, axis=1)
        i = int(np.argmax(off))
        if off[i] < 0.5 * h:
            break
        basis = np.vstack([basis, vectors[i]])
    to_basis = np.linalg.pinv(basis)
    index = [np.empty((p.shape[0], basis.shape[0]), dtype=np.int64) for p in sides]
    for p, n in zip(sides, index):
        for rows in _site_chunks(p.shape[0]):
            n[rows] = np.rint((p[rows] - p[0]) @ to_basis)
    if any(np.linalg.matrix_rank(n) < basis.shape[0] for n in index):
        return None
    steps = np.linalg.lstsq(_stacked(index), _stacked([p - p[0] for p in sides]),
                            rcond=None)[0]
    error = max(float(np.abs(p[rows] - p[0] - n[rows] @ steps).max())
                for p, n in zip(sides, index) for rows in _site_chunks(p.shape[0]))
    if error > _GRID_EPS * h:
        return None
    for n in index:
        n -= n.min(axis=0)
    if len(sides) == 2 and (np.prod(index[0].max(axis=0) + index[1].max(axis=0) + 1)
                            > sides[0].shape[0] * sides[1].shape[0]):
        return None
    origins = tuple(p[0] - n[0] @ steps for p, n in zip(sides, index))
    return _Lattice(steps, origins, tuple(index), error)


# ---------------------------------------------------------------------------
# Channel operator


class ChannelOperator:
    """Linear map from transmit excitations to received field samples.

    Rows are receiver samples (or far-field ports), columns transmit point
    sources (three for the dyadic kernel and for polarized ports, one per
    Cartesian dipole orientation; a point receiver has as many rows per
    point as a source has columns).  Each kind has one block kernel, chosen
    here, that ``row_block`` slices and calls.
    dense and frobenius_norm walk row spans, each at most 512 rows and 2**21
    entries, through ``ordered_map`` with results taken in span order, so no
    dense storage is required and results do not depend on the thread count.

    ``route`` says how apply and adjoint_apply run; it is planned on the
    first of the three, so operators that only give row blocks (dense
    spectra) never pay for it.  ``"lattice"``: for the scalar point
    kernels, when ``_lattice_of`` proves that both point sets lie on one
    lattice, the kernel is evaluated once, at the offsets some pair
    realises, into a zero-padded table whose FFT is kept; apply scatters
    column chunks onto the grid, multiplies by that transform and gathers
    the receiver points, the adjoint by its conjugate.  A chunk holds at
    most 2**21 grid entries, or one column where a single grid is larger,
    and ``threads`` is the FFT worker count (each 1D transform is computed
    the same way for any count).  ``"rows"``: apply and adjoint_apply walk
    the row spans like dense.
    """

    def __init__(self, kind: str, k: float, tx_points: np.ndarray, receiver,
                 threads: int = 1):
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        self.kind = kind
        self.k = float(k)
        self.tx_points = np.asarray(tx_points, dtype=float)
        self.threads = int(threads)
        polarized = False
        if kind in ("farfield2d", "farfield3d"):
            self.ports = list(receiver)
            self.rx_points = None
            khats, frames = direction_frames([p.direction.angles[0] for p in self.ports])
            sqrtw = np.sqrt([p.weight for p in self.ports])
            polarized = kind == "farfield3d" and any(p.polarization for p in self.ports)
            if polarized:
                if not all(p.polarization for p in self.ports):
                    raise ValueError("mix of polarized and scalar ports")
                column = [int(p.polarization == "phi") for p in self.ports]  # theta_hat, phi_hat
                pols = frames[np.arange(len(column)), :, column]
                self._kernel, self._receiver = _polarized_port_block, (khats, sqrtw, pols)
            else:
                self._kernel, self._receiver = _port_block, (khats, sqrtw)
        elif kind in _POINT_KERNELS:
            self.rx_points = np.asarray(receiver, dtype=float)
            self.ports = None
            self._kernel, self._receiver = _POINT_KERNELS[kind], (self.rx_points,)
        else:
            raise ValueError(f"unknown channel kind {kind!r}")
        self.cols_per_source = 3 if kind == "dyadic3d" or polarized else 1
        self._rows_per_receiver = 1 if self.ports is not None else self.cols_per_source
        self.shape = (self._receiver[0].shape[0] * self._rows_per_receiver,
                      self.tx_points.shape[0] * self.cols_per_source)

    @property
    def route(self) -> str:
        """``"lattice"`` or ``"rows"``: how apply and adjoint_apply run."""
        return "rows" if self._lattice_table is None else "lattice"

    @cached_property
    def source_lattice(self) -> _Lattice | None:
        """The refined lattice the transmit points lie on, for far-field ports only.

        ``dense_spectrum`` sums the port-side Gram matrix over its runs in
        closed form, so the sites must match the points to rounding, not
        just to 1e-9 h.  None where ``_lattice_of`` proves no lattice, and for
        point receivers, which plan their lattice from both sets.
        """
        lattice = _lattice_of(self.tx_points) if self.ports is not None else None
        return None if lattice is None else lattice.refined(self.tx_points)

    @property
    def port_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(khat, sqrt(weight), polarization vector or None) of the far-field port rows."""
        khats, sqrtw, *pols = self._receiver
        return khats, sqrtw, (pols[0] if pols else None)

    @cached_property
    def _lattice_table(self):
        """(transmit sites, receiver sites, table FFT) of the lattice route, or None.

        H[i, j] is the kernel at offset + (rx_index[i] - tx_index[j]) @ steps.
        Only offsets some pair realises, the nonzero entries of the mask
        cross-correlation, are evaluated; the rest stay 0, since an offset no
        pair realises can be singular where the two lattices coincide.
        """
        lattice = (_lattice_of(self.tx_points, self.rx_points)
                   if self.kind in ("scalar2d", "scalar3d") else None)
        if lattice is None:
            return None
        tx_index, rx_index = lattice.indices
        rx_extent = rx_index.max(axis=0) + 1
        box = tx_index.max(axis=0) + rx_extent
        grid = tuple(fft.next_fast_len(int(n)) for n in box)
        tx_at = np.ravel_multi_index(tx_index.T, grid)
        rx_at = np.ravel_multi_index(rx_index.T, grid)
        masks = []
        for at in (rx_at, tx_at):
            mask = np.zeros(grid)
            mask.flat[at] = 1.0
            masks.append(fft.fftn(mask, workers=self.threads))
        pairs = fft.ifftn(masks[0] * masks[1].conj(), workers=self.threads).real
        realised = np.flatnonzero(pairs > 0.5)  # offset index wrapped onto the grid
        wrapped = np.array(np.unravel_index(realised, grid)).T
        delta = np.where(wrapped < rx_extent, wrapped, wrapped - grid)
        offsets = (lattice.origins[1] - lattice.origins[0]) + delta @ lattice.steps
        # a coincident pair is exactly zero apart, as row_block sees it
        h = float(np.linalg.norm(lattice.steps, axis=1).min())
        offsets[np.linalg.norm(offsets, axis=1) <= _GRID_EPS * h] = 0.0
        table = np.zeros(grid, dtype=complex)
        table.flat[realised] = self._kernel(offsets, np.zeros((1, offsets.shape[1])), self.k)[:, 0]
        return tx_at, rx_at, fft.fftn(table, workers=self.threads, overwrite_x=True)

    def _convolve(self, x: np.ndarray, src_at, dst_at, table_hat) -> np.ndarray:
        """Scatter columns of x onto the grid, multiply by the table transform, gather.

        Columns go in chunks of at most 2**21 padded grid entries, one column
        per chunk where a single grid is larger.
        """
        cols = x.reshape(x.shape[0], -1)
        size = table_hat.size
        step = max(1, _BLOCK_ENTRIES // size)
        axes = tuple(range(1, table_hat.ndim + 1))
        out = np.empty((dst_at.shape[0], cols.shape[1]), dtype=complex)
        for lo in range(0, cols.shape[1], step):
            hi = min(lo + step, cols.shape[1])
            grid = np.zeros((hi - lo, size), dtype=complex)
            grid[:, src_at] = cols[:, lo:hi].T
            spec = fft.fftn(grid.reshape((hi - lo,) + table_hat.shape), axes=axes,
                            workers=self.threads, overwrite_x=True)
            spec *= table_hat
            field = fft.ifftn(spec, axes=axes, workers=self.threads, overwrite_x=True)
            out[:, lo:hi] = field.reshape(hi - lo, size)[:, dst_at].T
        return out.reshape((dst_at.shape[0],) + x.shape[1:])

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_block(self, lo: int, hi: int, src_lo: int = 0,
                  src_hi: int | None = None) -> np.ndarray:
        """Dense kernel rows [lo, hi) against transmit sources [src_lo, src_hi).

        The single place kernels are evaluated.  The column span is given in
        whole sources, so a dyadic or polarized block keeps all three dipole
        columns of each source it holds; a dyadic row span is evaluated over
        the receiver points it touches and cut to the rows asked for.
        """
        per = self._rows_per_receiver
        r_lo, r_hi = lo // per, -(-hi // per)
        rows = (a[r_lo:r_hi] for a in self._receiver)
        block = self._kernel(*rows, self.tx_points[src_lo:src_hi], self.k)
        return block[lo - per * r_lo: hi - per * r_lo]

    def _spans(self) -> list[tuple[int, int]]:
        step = min(_BLOCK_ROWS, max(1, _BLOCK_ENTRIES // max(1, self.n_cols)))
        return [(lo, min(lo + step, self.n_rows)) for lo in range(0, self.n_rows, step)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = H x for a vector or a stack of column vectors."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"expected leading dimension {self.n_cols}, got {x.shape[0]}")
        if self._lattice_table is not None:
            tx_at, rx_at, table_hat = self._lattice_table
            return self._convolve(x, tx_at, rx_at, table_hat)
        y = np.empty((self.n_rows,) + x.shape[1:], dtype=complex)
        spans = self._spans()
        for (lo, hi), part in zip(spans, ordered_map(
                lambda span: self.row_block(*span) @ x, spans, self.threads)):
            y[lo:hi] = part
        return y

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """x = H^H y (exact conjugate-transpose action)."""
        y = np.asarray(y)
        if y.shape[0] != self.n_rows:
            raise ValueError(f"expected leading dimension {self.n_rows}, got {y.shape[0]}")
        if self._lattice_table is not None:
            tx_at, rx_at, table_hat = self._lattice_table
            return self._convolve(y, rx_at, tx_at, table_hat.conj())
        out = np.zeros((self.n_cols,) + y.shape[1:], dtype=complex)
        for part in ordered_map(  # span order keeps the sum reproducible
                lambda span: self.row_block(*span).conj().T @ y[span[0]:span[1]],
                self._spans(), self.threads):
            out += part
        return out

    def dense(self, cap: int = DENSE_CAP_ENTRIES) -> np.ndarray:
        """Materialize the matrix; refuses above the entry cap."""
        if self.n_rows * self.n_cols > cap:
            raise TooLargeForDenseError(
                f"{self.n_rows} x {self.n_cols} exceeds the dense cap of {cap} entries")
        return np.vstack(list(ordered_map(lambda span: self.row_block(*span),
                                          self._spans(), self.threads)))

    def frobenius_norm(self) -> float:
        return math.sqrt(math.fsum(ordered_map(
            lambda span: float(np.sum(np.abs(self.row_block(*span)) ** 2)), self._spans(),
            self.threads)))


def assemble_channel(tx: SampleSet, receiver, k: float, kind: str | None = None,
                     threads: int = 1) -> ChannelOperator:
    """Build the channel operator from transmit samples and a receiver.

    The receiver is either a SampleSet (point receivers through the Green's
    function) or a list of FarFieldPort.  Transmit and receive point sets
    must be at least one sampling spacing apart.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if isinstance(receiver, SampleSet):
        if receiver.dimension != tx.dimension:
            raise ValueError("transmit and receive samples must share the dimension")
        min_gap = min(tx.spacing, receiver.spacing)
        dist, _ = cKDTree(tx.points).query(receiver.points, k=1)
        if float(np.min(dist)) < min_gap * (1.0 - 1e-12):
            raise RegionsTooCloseError(
                "transmit and receive samples closer than the sampling spacing")
        kind = channel_kind(kind, tx.dimension, farfield=False)
        return ChannelOperator(kind, k, tx.points, receiver.points, threads)
    ports = list(receiver)
    if not ports:
        raise ValueError("receiver needs at least one far-field port")
    return ChannelOperator(channel_kind(kind, tx.dimension, farfield=True), k, tx.points,
                           ports, threads)


def channel_kind(kind: str | None, dimension: int, farfield: bool) -> str:
    """The operator kind for a receiver type: the dimension's default, or ``kind`` checked."""
    if kind is None:
        return ("farfield" if farfield else "scalar") + ("2d" if dimension == 2 else "3d")
    if farfield and kind not in ("farfield2d", "farfield3d"):
        raise ValueError(f"kind {kind!r} incompatible with far-field ports")
    if not farfield and kind not in ("scalar2d", "scalar3d", "dyadic3d"):
        raise ValueError(f"kind {kind!r} incompatible with a point receiver")
    if kind[-2:] != f"{dimension}d":
        raise ValueError(f"kind {kind!r} needs {kind[-2:].upper()} samples")
    return kind
