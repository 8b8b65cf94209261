"""Point-source sampling, free-space kernels, and the channel operator.

Regions are discretized into uniformly spaced point sources (default
spacing lambda/5, grids anchored at the bounding-box corner).  The channel
maps transmit excitations to received field samples, either at receiver
points through the scalar/dyadic Green's function or at far-field ports
through the distance-free plane-wave factor exp(+j k khat.r) scaled by the
square root of the port quadrature weight.  Each channel kind has one
block kernel, (receiver rows, transmit sources) -> block; the point Green's
functions are 1x1 calls of the same kernels.  The operator applies itself
and its adjoint over bounded row spans through one ordered map, so results
are independent of the worker thread count and dense materialization never
has to happen.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
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
    "ports_from_quadrature",
    "columns_per_source",
]

DENSE_CAP_ENTRIES = 20_000 * 20_000  # complex128 entries (~6.4 GB)

DYADIC_NEAR_FIELD_KR = 1e-3

_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 2**21  # a row span's block holds at most this many entries

_GRID_EPS = 1e-9


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


def _sample_shape(shape, step: float) -> np.ndarray:
    if isinstance(shape, Segment):
        e = shape.end - shape.start
        length = float(np.linalg.norm(e))
        t = _grid_1d(0.0, length, step) / length
        return shape.start[None, :] + t[:, None] * e[None, :]
    if isinstance(shape, Disc):
        lo, hi = shape.center - shape.radius, shape.center + shape.radius
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        keep = np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius + 1e-12
        return pts[keep]
    if isinstance(shape, ConvexPolygon):
        lo, hi = shape.vertices.min(axis=0), shape.vertices.max(axis=0)
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return pts[points_in_convex_polygon(pts, shape.vertices)]
    if isinstance(shape, Sphere):
        lo, hi = shape.center - shape.radius, shape.center + shape.radius
        axes = [_grid_1d(lo[i], hi[i], step) for i in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        keep = np.linalg.norm(pts - shape.center[None, :], axis=1) <= shape.radius + 1e-12
        return pts[keep]
    if isinstance(shape, PlanarPolygon):
        v = shape.vertices
        e1 = v[1] - v[0]
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(shape.normal, e1)
        flat = np.column_stack([(v - v[0]) @ e1, (v - v[0]) @ e2])
        if polygon_area(flat) < 0:
            flat = flat[::-1]
        lo, hi = flat.min(axis=0), flat.max(axis=0)
        xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts2 = np.column_stack([gx.ravel(), gy.ravel()])
        keep = points_in_convex_polygon(pts2, flat)
        pts2 = pts2[keep]
        return v[0][None, :] + pts2[:, 0:1] * e1[None, :] + pts2[:, 1:2] * e2[None, :]
    if isinstance(shape, TriangleMesh):
        chunks = []
        tri_pts = shape.vertices[shape.triangles]
        for a, b, c in tri_pts:
            t1 = b - a
            n1 = float(np.linalg.norm(t1))
            t1 = t1 / n1
            t2r = (c - a) - ((c - a) @ t1) * t1
            n2 = float(np.linalg.norm(t2r))
            t2 = t2r / n2
            flat = np.array([[0.0, 0.0], [n1, 0.0], [(c - a) @ t1, n2]])
            lo, hi = flat.min(axis=0), flat.max(axis=0)
            xs, ys = _grid_1d(lo[0], hi[0], step), _grid_1d(lo[1], hi[1], step)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            pts2 = np.column_stack([gx.ravel(), gy.ravel()])
            keep = points_in_convex_polygon(pts2, flat)
            pts2 = pts2[keep]
            if pts2.size:
                chunks.append(a[None, :] + pts2[:, 0:1] * t1[None, :] + pts2[:, 1:2] * t2[None, :])
        return np.vstack(chunks) if chunks else np.zeros((0, 3))
    raise TypeError(f"not a shape: {type(shape).__name__}")


def sample_region(region: Region, spacing: float) -> SampleSet:
    """Uniform grid of the given spacing intersected with the region."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    chunks = [c for c in (_sample_shape(p, spacing) for p in region.parts) if c.size]
    pts = np.vstack(chunks) if chunks else np.zeros((0, region.dimension))
    if pts.shape[0] == 0:
        raise EmptySamplingError(
            f"no sample point inside region {region.label!r} at spacing {spacing}")
    # drop duplicates (shared part boundaries), keeping first occurrence
    seen = {}
    for i, row in enumerate(np.round(pts / (spacing * 1e-9)).astype(np.int64)):
        seen.setdefault(row.tobytes(), i)
    idx = sorted(seen.values())
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


def columns_per_source(kind: str | None, polarized: bool = False) -> int:
    """Operator columns per transmit point source.

    Three, one per Cartesian dipole axis, for the dyadic kernel and for
    polarized far-field ports; one for the scalar kinds.  A point receiver
    has as many rows per point as a source has columns.
    """
    return 3 if kind == "dyadic3d" or polarized else 1


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
    ports = []
    for d, w in zip(quad.directions(), quad.weights):
        if polarized:
            ports.append(FarFieldPort(d, float(w), "theta"))
            ports.append(FarFieldPort(d, float(w), "phi"))
        else:
            ports.append(FarFieldPort(d, float(w)))
    return ports


# ---------------------------------------------------------------------------
# Channel operator


class ChannelOperator:
    """Linear map from transmit excitations to received field samples.

    Rows are receiver samples (or far-field ports), columns transmit point
    sources (``columns_per_source``: three for the dyadic kernel and for
    polarized ports, one per Cartesian dipole orientation).  Each kind has
    one block kernel, chosen here, that ``row_block`` slices and calls.
    apply, adjoint_apply, dense and frobenius_norm walk the same row spans,
    each at most 512 rows and 2**21 entries, through one ordered map: the
    builtin map at one thread, a thread pool above that, with results taken
    in span order, so no dense storage is required and results do not
    depend on the number of worker threads.
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
            khats = np.array([p.direction.khat for p in self.ports])
            sqrtw = np.array([math.sqrt(p.weight) for p in self.ports])
            polarized = kind == "farfield3d" and any(p.polarization for p in self.ports)
            if polarized:
                if not all(p.polarization for p in self.ports):
                    raise ValueError("mix of polarized and scalar ports")
                pols = np.array([p.pol_vector() for p in self.ports])
                self._kernel, self._receiver = _polarized_port_block, (khats, sqrtw, pols)
            else:
                self._kernel, self._receiver = _port_block, (khats, sqrtw)
            rows_per_receiver = 1
        elif kind in _POINT_KERNELS:
            self.rx_points = np.asarray(receiver, dtype=float)
            self.ports = None
            self._kernel, self._receiver = _POINT_KERNELS[kind], (self.rx_points,)
            rows_per_receiver = columns_per_source(kind)
        else:
            raise ValueError(f"unknown channel kind {kind!r}")
        self.cols_per_source = columns_per_source(kind, polarized)
        self._rows_per_receiver = rows_per_receiver
        self.shape = (self._receiver[0].shape[0] * rows_per_receiver,
                      self.tx_points.shape[0] * self.cols_per_source)

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

    def _map_spans(self, work, spans):
        """work(span) for each span, yielded in span order whatever the thread count."""
        if self.threads == 1 or len(spans) == 1:
            yield from map(work, spans)
            return
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            yield from pool.map(work, spans)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = H x for a vector or a stack of column vectors."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"expected leading dimension {self.n_cols}, got {x.shape[0]}")
        y = np.empty((self.n_rows,) + x.shape[1:], dtype=complex)
        spans = self._spans()
        for (lo, hi), part in zip(spans, self._map_spans(
                lambda span: self.row_block(*span) @ x, spans)):
            y[lo:hi] = part
        return y

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """x = H^H y (exact conjugate-transpose action)."""
        y = np.asarray(y)
        if y.shape[0] != self.n_rows:
            raise ValueError(f"expected leading dimension {self.n_rows}, got {y.shape[0]}")
        out = np.zeros((self.n_cols,) + y.shape[1:], dtype=complex)
        for part in self._map_spans(  # span order keeps the sum reproducible
                lambda span: self.row_block(*span).conj().T @ y[span[0]:span[1]],
                self._spans()):
            out += part
        return out

    def dense(self, cap: int = DENSE_CAP_ENTRIES) -> np.ndarray:
        """Materialize the matrix; refuses above the entry cap."""
        if self.n_rows * self.n_cols > cap:
            raise TooLargeForDenseError(
                f"{self.n_rows} x {self.n_cols} exceeds the dense cap of {cap} entries")
        return np.vstack(list(self._map_spans(lambda span: self.row_block(*span),
                                              self._spans())))

    def frobenius_norm(self) -> float:
        return math.sqrt(math.fsum(self._map_spans(
            lambda span: float(np.sum(np.abs(self.row_block(*span)) ** 2)), self._spans())))


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
        if kind is None:
            kind = "scalar2d" if tx.dimension == 2 else "scalar3d"
        if kind not in ("scalar2d", "scalar3d", "dyadic3d"):
            raise ValueError(f"kind {kind!r} incompatible with a point receiver")
        if kind == "dyadic3d" and tx.dimension != 3:
            raise ValueError("dyadic kernel needs 3D samples")
        return ChannelOperator(kind, k, tx.points, receiver.points, threads)
    ports = list(receiver)
    if not ports:
        raise ValueError("receiver needs at least one far-field port")
    if kind is None:
        kind = "farfield2d" if tx.dimension == 2 else "farfield3d"
    if kind not in ("farfield2d", "farfield3d"):
        raise ValueError(f"kind {kind!r} incompatible with far-field ports")
    return ChannelOperator(kind, k, tx.points, ports, threads)
