"""Point-source sampling, free-space kernels, and the channel operator.

Regions are discretized into uniformly spaced point sources (default
spacing lambda/5, grids anchored at the bounding-box corner).  The channel
maps transmit excitations to received field samples, either at receiver
points through the scalar/dyadic Green's function or at far-field ports
through the distance-free plane-wave factor exp(+j k khat.r) scaled by the
square root of the port quadrature weight.  The operator applies itself
and its adjoint in fixed-size row blocks, so results are independent of
the worker thread count and dense materialization never has to happen.
"""

from __future__ import annotations

import math
import struct
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
    "save_channel_matrix",
    "load_channel_matrix",
]

DENSE_CAP_ENTRIES = 20_000 * 20_000  # complex128 entries (~6.4 GB)

DYADIC_NEAR_FIELD_KR = 1e-3

_BLOCK_ROWS = 512

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
        if _ring_area(flat) < 0:
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


def _ring_area(flat: np.ndarray) -> float:
    x, y = flat[:, 0], flat[:, 1]
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


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


def green_2d(r, rp, k: float) -> complex:
    """2D free-space Green's function (j/4) H0^(2)(k |r - r'|).

    The second-kind Hankel function follows from the exp(-jkR) outgoing
    convention of the 3D kernel.
    """
    dist = float(np.linalg.norm(np.asarray(r, float) - np.asarray(rp, float)))
    if dist == 0.0:
        raise CoincidentPointsError("green_2d at zero separation")
    return complex(0.25j * hankel2(0, k * dist))


def green_3d(r, rp, k: float) -> complex:
    """3D free-space Green's function exp(-j k R) / (4 pi R)."""
    dist = float(np.linalg.norm(np.asarray(r, float) - np.asarray(rp, float)))
    if dist == 0.0:
        raise CoincidentPointsError("green_3d at zero separation")
    return complex(np.exp(-1j * k * dist) / (4.0 * math.pi * dist))


def green_dyadic_3d(r, rp, k: float) -> np.ndarray:
    """Free-space dyadic (I + grad grad / k**2) G3 in closed form.

    G = g(R) [ (1 - j/(kR) - 1/(kR)**2) I + (-1 + 3j/(kR) + 3/(kR)**2) RR ]
    with R the unit separation vector.  Rejected below kR = 1e-3 where the
    1/(kR)**3 terms cancel catastrophically.
    """
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    dist = float(np.linalg.norm(r - rp))
    if dist == 0.0:
        raise CoincidentPointsError("green_dyadic_3d at zero separation")
    if k * dist < DYADIC_NEAR_FIELD_KR:
        raise NearFieldCutoffError(f"kR = {k * dist:.3e} below the dyadic cutoff 1e-3")
    return _dyadic_block(r[None, :], rp[None, :], k)


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
    sources (three columns per source for dyadic kinds, one per Cartesian
    dipole orientation).  apply/adjoint_apply evaluate kernel rows in fixed
    512-row blocks, so no dense storage is required and results do not
    depend on the number of worker threads.
    """

    def __init__(self, kind: str, k: float, tx_points: np.ndarray, receiver,
                 threads: int = 1):
        self.kind = kind
        self.k = float(k)
        self.tx_points = np.asarray(tx_points, dtype=float)
        self.threads = max(1, int(threads))
        self._dense = None
        if kind in ("farfield2d", "farfield3d"):
            self.ports = list(receiver)
            self.rx_points = None
            n_rows = len(self.ports)
            self._khats = np.array([p.direction.khat for p in self.ports])
            self._sqrtw = np.array([math.sqrt(p.weight) for p in self.ports])
            self._pols = None
            if kind == "farfield3d" and any(p.polarization for p in self.ports):
                if not all(p.polarization for p in self.ports):
                    raise ValueError("mix of polarized and scalar ports")
                self._pols = np.array([p.pol_vector() for p in self.ports])
        elif kind in ("scalar2d", "scalar3d", "dyadic3d"):
            self.rx_points = np.asarray(receiver, dtype=float)
            self.ports = None
            n_rows = self.rx_points.shape[0] * (3 if kind == "dyadic3d" else 1)
        else:
            raise ValueError(f"unknown channel kind {kind!r}")
        per_source = 3 if (kind == "dyadic3d" or self._is_em_farfield()) else 1
        self.shape = (n_rows, self.tx_points.shape[0] * per_source)

    def _is_em_farfield(self) -> bool:
        return self.kind == "farfield3d" and getattr(self, "_pols", None) is not None

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
        columns of each source it holds.
        """
        tx = self.tx_points[src_lo:src_hi]
        if self.kind == "scalar2d":
            dist = cdist(self.rx_points[lo:hi], tx)
            if np.any(dist == 0.0):
                raise CoincidentPointsError("coincident transmit/receive points")
            return 0.25j * hankel2(0, self.k * dist)
        if self.kind == "scalar3d":
            dist = cdist(self.rx_points[lo:hi], tx)
            if np.any(dist == 0.0):
                raise CoincidentPointsError("coincident transmit/receive points")
            return np.exp(-1j * self.k * dist) / (4.0 * math.pi * dist)
        if self.kind == "dyadic3d":
            p_lo, p_hi = lo // 3, (hi + 2) // 3
            block = _dyadic_block(self.rx_points[p_lo:p_hi], tx, self.k)
            return block[lo - 3 * p_lo: hi - 3 * p_lo]
        phase = np.exp(1j * self.k * (self._khats[lo:hi] @ tx.T))
        if self._is_em_farfield():
            # columns ordered (source, dipole axis): e_p[beta] exp(j k khat.r_n)
            m = hi - lo
            rows = (self._pols[lo:hi, None, :] * phase[:, :, None]).reshape(m, -1)
            return self._sqrtw[lo:hi, None] * rows
        return self._sqrtw[lo:hi, None] * phase

    def _spans(self):
        return [(lo, min(lo + _BLOCK_ROWS, self.n_rows))
                for lo in range(0, self.n_rows, _BLOCK_ROWS)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = H x for a vector or a stack of column vectors."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"expected leading dimension {self.n_cols}, got {x.shape[0]}")
        out_shape = (self.n_rows,) + x.shape[1:]
        y = np.empty(out_shape, dtype=complex)
        spans = self._spans()

        def work(span):
            lo, hi = span
            y[lo:hi] = self.row_block(lo, hi) @ x

        if self.threads <= 1 or len(spans) == 1:
            for s in spans:
                work(s)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(work, spans))
        return y

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """x = H^H y (exact conjugate-transpose action)."""
        y = np.asarray(y)
        if y.shape[0] != self.n_rows:
            raise ValueError(f"expected leading dimension {self.n_rows}, got {y.shape[0]}")
        spans = self._spans()

        def work(span):
            lo, hi = span
            return self.row_block(lo, hi).conj().T @ y[lo:hi]

        if self.threads <= 1 or len(spans) == 1:
            partials = [work(s) for s in spans]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                partials = list(pool.map(work, spans))
        out = np.zeros((self.n_cols,) + y.shape[1:], dtype=complex)
        for p in partials:  # fixed block order keeps the sum reproducible
            out += p
        return out

    def dense(self, cap: int = DENSE_CAP_ENTRIES) -> np.ndarray:
        """Materialize the matrix (cached); refuses above the entry cap."""
        if self._dense is None:
            if self.n_rows * self.n_cols > cap:
                raise TooLargeForDenseError(
                    f"{self.n_rows} x {self.n_cols} exceeds the dense cap of {cap} entries")
            self._dense = np.vstack([self.row_block(lo, hi) for lo, hi in self._spans()])
        return self._dense

    def frobenius_norm(self) -> float:
        total = math.fsum(
            float(np.sum(np.abs(self.row_block(lo, hi)) ** 2)) for lo, hi in self._spans())
        return math.sqrt(total)


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


# ---------------------------------------------------------------------------
# Binary matrix export (debugging aid)

_MAGIC = b"SDCM"


def save_channel_matrix(path, matrix: np.ndarray) -> None:
    """Write a dense matrix: 16-byte header (magic, rows, cols, bytes/entry), row-major LE."""
    m = np.ascontiguousarray(matrix)
    if m.dtype == np.complex64:
        precision = 8
    elif m.dtype == np.complex128:
        precision = 16
    else:
        raise ValueError("matrix must be complex64 or complex128")
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", rows, cols, precision))
        fh.write(m.astype(m.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))


def load_channel_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError("not a channel matrix file")
        rows, cols, precision = struct.unpack("<III", fh.read(12))
        dtype = np.dtype("<c8") if precision == 8 else np.dtype("<c16")
        data = np.frombuffer(fh.read(), dtype=dtype)
    return data.reshape(rows, cols).astype(
        np.complex64 if precision == 8 else np.complex128)
