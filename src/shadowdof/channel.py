"""Point-source sampling, free-space kernels, and the channel operator.

Regions are discretized into uniformly spaced point sources (default
spacing lambda/5, grids anchored at the bounding-box corner).  The channel
maps transmit excitations to received field samples, either at receiver
points through the scalar/dyadic Green's function or at far-field ports
through the distance-free plane-wave factor exp(+j k khat.r) scaled by the
square root of the port quadrature weight.  Each channel kind has one
block kernel, (receiver rows, transmit sources) -> block; the point Green's
functions are 1x1 calls of the same kernels.

The sampler lays each part of a region on a grid, an origin plus integer
combinations of h times a basis, and a region of one part keeps that grid
as its lattice.  The operator applies itself and its adjoint by one of two
routes, chosen once from the two sample sets.  When both carry a lattice of
one basis and spacing (any offset between the two; parallel segments, discs,
polygons, parallel plates and spheres sampled at one spacing), H[i, j]
depends only on the integer offset between receiver i and source j, so H is
a masked multilevel block-Toeplitz matrix: the lattice route applies it as
a zero-padded FFT convolution with one kernel table (Barrowes, Teixeira &
Kong, Microw. Opt. Technol. Lett. 2001).  Each side's sites fill one box at
the corner of the zero-padded grid, so a pass transforms only the grid lines
that hold data (a pruned FFT, Markel 1971): forward, the lines whose later
axes lie in the source box, and inverse, those whose earlier axes lie in the
destination box; where the grid is twice each box along every axis, that is
3/4 of the line transforms of a 2D pass and 7/12 of a 3D one.  That route
needs numpy alone: its transforms run ``numpy.fft`` one axis at a time in
place (``_fftn``), each line as scipy's ``fftn`` transforms it, so every
value read is scipy's bit for bit; the table takes its distances from
``np.linalg.norm``, and ``assemble_channel`` builds its k-d tree only for
sets whose bounding boxes lie closer than the spacing, so a spectrum of two
parallel plates loads only ``scipy.linalg``, for the factorizations.  Every
other case (far-field ports, the dyadic kernel, end-fire plates, meshes,
multi-part regions, sample sets built by hand) takes the row route, which
evaluates the kernel over bounded row spans through one ordered map.  Both
routes give results independent of the worker thread count, and dense
materialization never has to happen.  For far-field ports over lattice
sources the operator also sums its port Gram matrix H H^H over the lattice
runs in closed form (``ChannelOperator.port_gram``), which the dense
spectrum takes in place of streamed blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy  # submodules load on first attribute use (tests/test_imports.py)

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
    thread_count,
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
# A lattice pass transforms column chunks of at most this many padded grid entries:
# 2 MB of complex128, the L2 cache of a 2-core Xeon, so the zero-fill, scatter, FFTs,
# multiply and gather of a chunk stay in cache.  numpy.fft transforms each line of
# each column alone, so the chunk width does not change a bit of the result.
_FFT_CHUNK_ENTRIES = 2**17

_GRID_EPS = 1e-9
# Peak bytes a point of a sampled grid box holds, the largest measured (tracemalloc on
# 4 M-point boxes: 88 for a plate, 40 for a disc or sphere).
_BOX_POINT_BYTES = 88

# Run ends per chunk of the closed-form port Gram, the dense spectrum's block
# width: a different chunk changes the accumulation order, and with it the bits.
_RUN_CHUNK = 256
# A pair of distinct port directions takes the closed-form port Gram while its
# rounding bound 2 u R / |1 - rho| on a unit-weight entry (u the unit roundoff,
# R the runs along the pair's best axis) stays below this fraction of the entry
# scale N_T, the floor below which values are noise: |1 - rho| >= tau =
# 2 u R / (1e-13 N_T).  tau is 8.9e-6 on the 512 x 79,563 quarter arc, whose
# distinct ports have |1 - rho| >= 2.7e-3, and 3.5e-5 on the full circle
# (>= 1.1e-2).  One pair below tau sends the whole Gram to the streamed blocks.
_LATTICE_FLOOR = 1e-13
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _next_fast_len(target: int) -> int:
    """The smallest 2*3*5*7*11-smooth n >= target, as scipy's next_fast_len picks."""
    n = max(1, target)
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _fftn(x: np.ndarray, inverse: bool = False, batched: bool = False,
          box: tuple[int, ...] | None = None) -> np.ndarray:
    """scipy's fftn (or ifftn) of a C-contiguous complex array, in place, bit for bit.

    Transforms every axis, or with ``batched`` every axis but the leading
    column axis.  pocketfft, which runs both numpy's and scipy's FFTs, takes
    the axes in order and scales an inverse by 1/N once, on its first axis,
    componentwise by 1/N rounded from long double; this does the same.

    ``box`` (one length per transformed axis, the box [0, box[a]) on each)
    prunes the lines a transform passes through (Markel, IEEE Trans. Audio
    Electroacoust. 1971).  Forward, it bounds the nonzero input: axis a is
    transformed only where the later axes lie inside the box, since every
    other line is still zero.  Inverse, it is what the caller reads: axis a,
    and the 1/N scaling after the first axis, run only where the earlier
    axes lie inside it.  Every line that is transformed goes through the
    same ``numpy.fft`` call in the same axis order, so a forward result,
    and an inverse result inside the box, are scipy's bit for bit, except
    that a zero line left untransformed stays +0.0 where the full transform
    may give -0.0.
    """
    first = int(batched)
    axes = range(first, x.ndim)
    transform = np.fft.ifft if inverse else np.fft.fft
    whole = [slice(None)] * x.ndim
    inside = whole if box is None else whole[:first] + [slice(0, n) for n in box]
    for axis in axes:
        if inverse:
            part = x[tuple(inside[:axis] + whole[axis:])]
        else:
            part = x[tuple(whole[:axis + 1] + inside[axis + 1:])]
        transform(part, axis=axis, norm="forward" if inverse else "backward", out=part)
        if inverse and axis == first:
            n = math.prod(x.shape[a] for a in axes)
            re_im = x[tuple(inside[:axis + 1])].view(float)
            re_im *= float(1 / np.longdouble(n))
    return x


@dataclass(frozen=True, eq=False)
class _Lattice:
    """The grid a part was sampled on: point i lies at origin + index[i] @ steps."""

    origin: np.ndarray  # (dim,)
    steps: np.ndarray  # (q, dim): the spacing h times the basis vectors
    index: np.ndarray  # (N, q) nonnegative int32, one row per point

    def runs(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """First sites and one-past-last sites of the maximal runs along an axis.

        A run is a maximal line of consecutive sites n, n + e_axis, ...; the
        sites of all runs are the set's sites, each once.  Returns two
        (runs, dim) arrays of points, in the order of the other axes' indices.
        """
        index = self.index
        others = [index[:, a] for a in range(index.shape[1]) if a != axis]
        ordered = index[np.lexsort([index[:, axis]] + others[::-1])]
        step = np.zeros(index.shape[1], dtype=np.int64)
        step[axis] = 1
        first = np.flatnonzero(np.r_[True, np.any(np.diff(ordered, axis=0) != step, axis=1)])
        past = ordered[np.r_[first[1:] - 1, ordered.shape[0] - 1]]
        past[:, axis] += 1
        return self.origin + ordered[first] @ self.steps, self.origin + past @ self.steps


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Uniformly spaced point samples of a region.

    ``lattice`` is the grid the sampler laid over a region of one lattice
    part (segment, disc, polygon, sphere or plate).  Only ``sample_region``
    sets it: it is not an argument, so meshes, multi-part regions and sets
    built by hand (``dataclasses.replace`` included) carry None, and their
    channels take row blocks.
    """

    points: np.ndarray  # (N, dim)
    spacing: float
    lattice: _Lattice | None = field(default=None, init=False, repr=False)

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


def refuse_above_cap(nbytes: int, need: str, remedy: str, plan=None) -> None:
    """Raise TooLargeForDenseError where ``need`` takes more than 16 ``DENSE_CAP_ENTRIES`` bytes.

    The one refusal of an allocation above the cap, made before anything is
    allocated: the spectrum plans, ``ChannelOperator.dense`` and the sampler's
    grid boxes call it.  ``need`` says what is needed in the caller's own
    count ("... needs N complex entries"); the message adds its bytes.  It
    reads the cap when called.
    """
    if nbytes > 16 * DENSE_CAP_ENTRIES:
        raise TooLargeForDenseError(
            f"{need}, {nbytes} bytes ({nbytes / 1e9:.2f} GB), above the cap of {DENSE_CAP_ENTRIES}"
            f" entries ({16 * DENSE_CAP_ENTRIES / 1e9:.2f} GB); {remedy}", plan=plan)


def _grid_count(lo: float, hi: float, step: float) -> int:
    return int(math.floor((hi - lo) / step + _GRID_EPS)) + 1


def _grid_axes(lo, hi, step: float) -> list[np.ndarray]:
    """Per axis, the grid coordinates of the given step from corner lo up to hi.

    A box whose sampling would hold more than the cap, at ``_BOX_POINT_BYTES``
    a point, is refused before any of it is allocated.
    """
    counts = [_grid_count(a, b, step) for a, b in zip(lo, hi)]
    points = math.prod(counts)
    refuse_above_cap(_BOX_POINT_BYTES * points,
                     f"sampling a {' x '.join(map(str, counts))} grid box at spacing {step:g} "
                     f"needs {_BOX_POINT_BYTES} bytes for each of its {points} points",
                     "sample more coarsely (lower delta_factor or target_ndof, or raise "
                     "the wavelength)")
    return [a + step * np.arange(n) for a, n in zip(lo, counts)]


def _sites(lo: np.ndarray, step: float, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of a box mask's true entries, in grid order, and their points lo + step * index.

    The points equal the grid coordinates of ``_grid_axes`` bit for bit.
    """
    index = np.column_stack([axis.astype(np.int32) for axis in np.nonzero(inside)])
    return index, lo + step * index


def _convex_piece(ring: np.ndarray, step: float, frame=None) -> tuple[np.ndarray, _Lattice]:
    """Grid points inside a flat convex CCW ring, mapped by frame = (origin, e1, e2) to 3D."""
    lo = ring.min(axis=0)
    x, y = _grid_axes(lo, ring.max(axis=0), step)
    box = np.column_stack([np.repeat(x, y.size), np.tile(y, x.size)])
    index, pts = _sites(lo, step, points_in_convex_polygon(box, ring).reshape(x.size, y.size))
    if frame is None:
        return pts, _Lattice(lo, step * np.eye(2), index)
    origin, e1, e2 = frame
    pts = origin[None, :] + pts[:, 0:1] * e1[None, :] + pts[:, 1:2] * e2[None, :]
    return pts, _Lattice(origin + lo[0] * e1 + lo[1] * e2, step * np.array([e1, e2]), index)


def _sample_shape(shape, step: float) -> tuple[np.ndarray, _Lattice | None]:
    """A shape's grid points and the lattice they lie on (None for a mesh)."""
    if isinstance(shape, Segment):
        e = shape.end - shape.start
        length = float(np.linalg.norm(e))
        [x] = _grid_axes([0.0], [length], step)
        index = np.arange(x.size, dtype=np.int32)
        t = x / length
        return (shape.start[None, :] + t[:, None] * e[None, :],
                _Lattice(shape.start, (step / length) * e[None, :], index[:, None]))
    if isinstance(shape, (Disc, Sphere)):
        lo = shape.center - shape.radius
        axes = _grid_axes(lo, shape.center + shape.radius, step)
        # squared distances summed over the axes in order, as np.linalg.norm over the
        # box's points sums them, without holding those points
        dist2 = sum(np.square(x - c).reshape([-1 if b == a else 1 for b in range(len(axes))])
                    for a, (x, c) in enumerate(zip(axes, shape.center)))
        index, pts = _sites(lo, step, np.sqrt(dist2) <= shape.radius + 1e-12)
        return pts, _Lattice(lo, step * np.eye(len(axes)), index)
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
            pieces.append(_convex_piece(flat, step, (a, t1, r2 / n2))[0])
        return np.vstack(pieces), None
    raise TypeError(f"not a shape: {type(shape).__name__}")


def sample_region(region: Region, spacing: float) -> SampleSet:
    """Uniform grid of the given spacing intersected with the region.

    A region of one lattice part keeps the sampler's lattice, whose sites are
    distinct; the points of several parts or of a mesh keep their first
    occurrences, in order, so shared part and triangle boundaries count once.
    A part whose grid box would take more than the cap to sample raises
    TooLargeForDenseError before the box is allocated (``_grid_axes``).
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if len(region.parts) == 1:
        pts, lattice = _sample_shape(region.parts[0], spacing)
    else:
        pts, lattice = np.vstack([_sample_shape(p, spacing)[0] for p in region.parts]), None
    if pts.shape[0] == 0:
        raise EmptySamplingError(
            f"no sample point inside region {region.label!r} at spacing {spacing}")
    if lattice is None:
        key = np.round(pts / (spacing * 1e-9)).astype(np.int64)
        pts = pts[np.sort(np.unique(key, axis=0, return_index=True)[1])]
    samples = SampleSet(pts, spacing)
    object.__setattr__(samples, "lattice", lattice)
    return samples


# ---------------------------------------------------------------------------
# Kernels


def _nonzero(dist: np.ndarray) -> np.ndarray:
    if np.any(dist == 0.0):
        raise CoincidentPointsError("coincident transmit/receive points")
    return dist


def _hankel(dist: np.ndarray, k: float) -> np.ndarray:
    return 0.25j * scipy.special.hankel2(0, k * _nonzero(dist))


def _spherical(dist: np.ndarray, k: float) -> np.ndarray:
    dist = _nonzero(dist)
    return np.exp(-1j * k * dist) / (4.0 * math.pi * dist)


def _scalar_block(radial, rx: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    return radial(scipy.spatial.distance.cdist(rx, tx), k)


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


def _phases(khat: np.ndarray, points: np.ndarray, k: float) -> np.ndarray:
    """exp(+j k khat . r), one row per direction and one column per point.

    Holds one real and one complex array of that shape at a time.
    """
    phase = khat @ points.T
    phase *= k
    e = phase * 1j
    return np.exp(e, out=e)


def _port_block(khat: np.ndarray, sqrtw: np.ndarray, tx: np.ndarray, k: float) -> np.ndarray:
    return sqrtw[:, None] * _phases(khat, tx, k)


def _polarized_port_block(khat: np.ndarray, sqrtw: np.ndarray, pol: np.ndarray,
                          tx: np.ndarray, k: float) -> np.ndarray:
    # columns ordered (source, dipole axis): e_p[beta] exp(j k khat.r_n)
    phase = _phases(khat, tx, k)
    rows = (pol[:, None, :] * phase[:, :, None]).reshape(khat.shape[0], -1)
    return sqrtw[:, None] * rows


# kind -> (dimension, far-field ports or point receivers, kernel of distance: None for
# the dyadic and port kernels); the first kind of a dimension and receiver is its default
_KINDS = {"scalar2d": (2, False, _hankel), "scalar3d": (3, False, _spherical),
          "dyadic3d": (3, False, None), "farfield2d": (2, True, None), "farfield3d": (3, True, None)}


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
    return complex(_scalar_block(_hankel, rx, tx, k)[0, 0])


def green_3d(r, rp, k: float) -> complex:
    """3D free-space Green's function exp(-j k R) / (4 pi R)."""
    rx, tx, _ = _pair(r, rp, "green_3d")
    return complex(_scalar_block(_spherical, rx, tx, k)[0, 0])


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


def ports_from_quadrature(quad: DirectionQuadrature, polarized: bool = False) -> list[FarFieldPort]:
    """One scalar port per quadrature direction, or a theta/phi pair when polarized."""
    pols = ("theta", "phi") if polarized else (None,)
    return [FarFieldPort(d, float(w), p) for d, w in zip(quad.directions(), quad.weights)
            for p in pols]


# ---------------------------------------------------------------------------
# Channel operator


class ChannelOperator:
    """Linear map from transmit excitations to received field samples.

    ``tx`` is the transmit SampleSet and ``receiver`` a SampleSet of point
    receivers or a list of FarFieldPort.  Rows are receiver samples (or
    far-field ports), columns transmit point sources (three for the dyadic
    kernel and for polarized ports, one per Cartesian dipole orientation; a
    point receiver has as many rows per point as a source has columns).
    Each kind has one block kernel, chosen here, that ``row_block`` slices
    and calls.  ``k`` must be finite and positive.  dense walks row spans,
    each at most 512 rows and 2**21 entries, through ``ordered_map`` (a pool
    of ``threads``, the operator's only threading) in span order, so results
    do not depend on the thread count.

    ``route`` says how apply and adjoint_apply run; it is planned on the
    first of the three, so operators that only give row blocks (dense
    spectra) never pay for it.  ``"lattice"``: for the scalar point
    kernels, when both sample sets carry a lattice (``SampleSet.lattice``),
    their steps agree so closely that every site moves less than 1e-9 h
    under the other set's steps, and the box of offsets holds no more than
    N_T N_R entries, the kernel is evaluated once, at the offsets some pair
    realises, into a zero-padded table whose FFT is kept; apply scatters
    column chunks onto the grid, multiplies by that transform and gathers
    the receiver points, the adjoint by its conjugate.  The sources of a
    chunk fill one box at the grid's corner and the gather reads one box,
    so the forward transform skips the lines still zero outside the source
    box and the inverse the lines that reach no destination site (``_fftn``
    with a box); every line transformed is the same ``numpy.fft`` call in
    the same axis order, so each value gathered is the full transform's bit
    for bit.  A chunk holds at
    most 2**17 grid entries (``_FFT_CHUNK_ENTRIES``, 2 MB), or one column
    where a single grid is larger, and the chunks go through ``ordered_map``
    like row spans into a Fortran-order result (or ``out``, which may be the
    input's own memory), each chunk's columns written contiguously; each
    column is transformed alone, so neither the thread count, nor the chunk
    width, nor the chunk order changes a bit of the result.  ``"rows"``:
    apply and adjoint_apply walk the row spans like dense; meshes,
    multi-part regions and sample sets built by hand carry no lattice and
    take it.
    """

    def __init__(self, kind: str, k: float, tx: SampleSet, receiver, threads: int = 1):
        if not isinstance(tx, SampleSet):
            raise TypeError("transmit samples must be a SampleSet")
        self.kind = kind
        self.k = float(k)
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"wavenumber must be finite and positive, got {k}")
        self.tx = tx
        self.threads = thread_count(threads)
        if kind not in _KINDS:
            raise ValueError(f"unknown channel kind {kind!r}")
        dimension, farfield, self._radial = _KINDS[kind]
        if farfield:
            self.ports = list(receiver)
            self.rx = None
            khats, frames = direction_frames([p.direction.angles[0] for p in self.ports])
            sqrtw = np.sqrt([p.weight for p in self.ports])
            polarized = dimension == 3 and any(p.polarization for p in self.ports)
            if polarized:
                if not all(p.polarization for p in self.ports):
                    raise ValueError("mix of polarized and scalar ports")
                column = [int(p.polarization == "phi") for p in self.ports]  # theta_hat, phi_hat
                pols = frames[np.arange(len(column)), :, column]
                self._kernel, self._receiver = _polarized_port_block, (khats, sqrtw, pols)
            else:
                self._kernel, self._receiver = _port_block, (khats, sqrtw)
            self.cols_per_source, self._rows_per_receiver = 3 if polarized else 1, 1
        else:
            if not isinstance(receiver, SampleSet):
                raise TypeError("point receivers must be a SampleSet")
            self.rx = receiver
            self.ports = None
            self._receiver = (receiver.points,)
            self._kernel = partial(_scalar_block, self._radial) if self._radial else _dyadic_block
            # the dyadic kernel has three dipole axes at either end
            self.cols_per_source = self._rows_per_receiver = 3 if self._radial is None else 1
        self.shape = (self._receiver[0].shape[0] * self._rows_per_receiver,
                      tx.count * self.cols_per_source)

    @property
    def route(self) -> str:
        """``"lattice"`` or ``"rows"``: how apply and adjoint_apply run."""
        return "rows" if self._lattice_table is None else "lattice"

    def port_gram(self) -> np.ndarray | None:
        """conj(H H^H) of far-field ports over lattice sources in closed form, or None.

        With p_m the port's polarization (1 for scalar ports), entry (m, n) of
        H H^H is sqrt(w_m w_n) (p_m . p_n) S_mn, S_mn = sum_j exp(j k d . r_j)
        and d = khat_m - khat_n.  Along a run of sites r, r + s_a, ... of the
        step s_a the terms form a geometric series of ratio rho = exp(j k d . s_a),
        so with E_m(r) = exp(j k khat_m . r) over first sites (lo) and
        one-past-last sites (hi) of the runs along s_a,

            S = N_a / (1 - rho),   N_a = E_lo E_lo^H - E_hi E_hi^H,

        accumulated by zherk over chunks of 256 end points, about
        4 (N_T / pi)^(1/2) of them per axis for a disc.  Each entry takes the
        axis with the largest |1 - rho|; pairs of identical directions, the
        diagonal among them, are N_T.  None (the caller streams) for point
        receivers, for sources without a lattice (``SampleSet.lattice``), and
        where a pair of distinct directions has |1 - rho| < 2 u R / (1e-13 N_T)
        on its best axis (aliasing above lambda/2, or directions mirrored
        across a planar source lattice).

        The result array is the only m x m one: N_0 accumulates in its upper
        triangle, N_1 (and then each further axis in turn) in its lower one,
        and row blocks of at most 2**15 entries fold them into the upper
        triangle, which is all the eigensolver reads.
        """
        lattice = self.tx.lattice
        if self.ports is None or lattice is None:
            return None
        khat, sqrtw, *pols = self._receiver
        m, n_src = khat.shape[0], self.tx.count
        runs = [lattice.runs(a) for a in range(lattice.steps.shape[0])]
        tau = np.array([2.0 * _UNIT_ROUNDOFF * lo.shape[0] / (_LATTICE_FLOOR * n_src)
                        for lo, _ in runs])
        rows = max(1, 2**15 // m)
        gram = np.zeros((m, m), dtype=complex, order="F")
        for a, ends in enumerate(runs):
            if a > 1:  # the lower triangle takes the next axis
                for j in range(m - 1):
                    gram[j + 1:, j] = 0.0
            for sites, sign in zip(ends, (1.0, -1.0)):
                for lo in range(0, sites.shape[0], _RUN_CHUNK):
                    e = _phases(khat, sites[lo:lo + _RUN_CHUNK], self.k)
                    # e.T is a Fortran view; trans=2 gives conj(E E^H), as the blocks do
                    gram = scipy.linalg.blas.zherk(sign, e.T, beta=1.0, c=gram, trans=2,
                                                   lower=int(a > 0), overwrite_c=1)
                    del e
            if a == 0 and len(runs) > 1:
                continue  # fold once the lower triangle holds axis 1
            last = a == len(runs) - 1
            for r0 in range(0, m, rows):
                r1 = min(r0 + rows, m)
                diff = khat[r0:r1, None, :] - khat[None, r0:, :]
                same = ~diff.any(axis=2)
                x = self.k * (diff @ lattice.steps.T)  # rho = exp(j x) on each axis
                del diff
                best = np.argmax(np.abs(np.sin(0.5 * x)), axis=2)  # |1 - rho| = 2 |sin(x / 2)|
                x = np.take_along_axis(x, best[..., None], axis=2)[..., 0]
                half = np.sin(0.5 * x)
                if a <= 1 and np.any((2.0 * np.abs(half) < tau[best]) & ~same):
                    return None
                den = 2.0 * half * half + 1j * np.sin(x)  # conj(1 - rho)
                upper = gram[r0:r1, r0:]  # a view: folded in place
                lower = gram[r0:, r0:r1].T.conj() if a > 0 else None  # read before any write
                if a <= 1:
                    np.divide(upper, den, out=upper, where=(best == 0) & ~same)
                if a > 0:
                    np.divide(lower, den, out=upper, where=(best == a) & ~same)
                if last:
                    upper[same] = n_src
                    upper *= sqrtw[r0:r1, None] * sqrtw[None, r0:]
                    if pols:
                        upper *= pols[0][r0:r1] @ pols[0][r0:].T
        return gram

    @property
    def lattice_frobenius_sq(self) -> float | None:
        """||H||_F^2 of a lattice-route operator from its offset table, else None.

        The sum over realised offsets of the pair count times |kernel|^2, so
        no kernel evaluation beyond the table's; plans the route if no pass
        has.
        """
        return None if self._lattice_table is None else self._lattice_table[3]

    @cached_property
    def _lattice_table(self):
        """(transmit, receiver, table FFT, ||H||_F^2) of the lattice route, or None.

        H[i, j] is the kernel at offset + (rx_index[i] - tx_index[j]) @ steps,
        with both indices counted from their set's smallest, so each set's
        sites fill the box [0, extent) of the padded grid; the transmit and
        the receiver entry are (flat grid sites, extent) pairs, the sites to
        scatter or gather and the box that prunes the transforms of a pass.
        Only offsets some pair realises, the nonzero entries of the mask
        cross-correlation, are evaluated; the rest stay 0, since an offset no
        pair realises can be singular where the two lattices coincide.  The
        cross-correlation counts the pairs at each offset, so it also weighs
        |kernel|^2 into ||H||_F^2.
        """
        tx = self.tx.lattice
        rx = self.rx.lattice if self.rx is not None else None
        if (self._radial is None or tx is None or rx is None
                or tx.steps.shape != rx.steps.shape):
            return None
        steps = tx.steps
        h = float(np.linalg.norm(steps, axis=1).min())
        # no site moves by 1e-9 h or more under the other set's steps
        largest = max(int(tx.index.max()), int(rx.index.max()))
        if largest * float(np.abs(rx.steps - steps).sum()) > _GRID_EPS * h:
            return None
        tx_lo, rx_lo = tx.index.min(axis=0), rx.index.min(axis=0)
        tx_index, rx_index = tx.index - tx_lo, rx.index - rx_lo
        tx_extent, rx_extent = tx_index.max(axis=0) + 1, rx_index.max(axis=0) + 1
        reach = tx_extent + rx_extent - 1  # the box of offsets
        if np.prod(reach) > self.tx.count * self.rx.count:
            return None
        grid = tuple(_next_fast_len(int(n)) for n in reach)
        tx_at = np.ravel_multi_index(tx_index.T, grid)
        rx_at = np.ravel_multi_index(rx_index.T, grid)
        tx_box, rx_box = tuple(map(int, tx_extent)), tuple(map(int, rx_extent))
        masks = []  # the pair counts they give are only read rounded to integers
        for at, extent in ((rx_at, rx_box), (tx_at, tx_box)):
            mask = np.zeros(grid, dtype=complex)
            mask.flat[at] = 1.0
            masks.append(_fftn(mask, box=extent))
        pairs = _fftn(masks[0] * masks[1].conj(), inverse=True).real
        realised = np.flatnonzero(pairs > 0.5)  # offset index wrapped onto the grid
        wrapped = np.array(np.unravel_index(realised, grid)).T
        delta = np.where(wrapped < rx_extent, wrapped, wrapped - grid)
        offsets = (rx.origin + rx_lo @ steps) - (tx.origin + tx_lo @ steps) + delta @ steps
        dist = np.linalg.norm(offsets, axis=1)  # the bits of cdist(offsets, origin)
        # a coincident pair is exactly zero apart, as row_block sees it
        dist[dist <= _GRID_EPS * h] = 0.0
        values = self._radial(dist, self.k)
        frobenius_sq = float(np.rint(pairs.flat[realised]) @ (values.real ** 2 + values.imag ** 2))
        table = np.zeros(grid, dtype=complex)
        table.flat[realised] = values
        return (tx_at, tx_box), (rx_at, rx_box), _fftn(table), frobenius_sq

    def _convolve(self, x: np.ndarray, src, dst, table_hat, out=None) -> np.ndarray:
        """Scatter column chunks of x onto the grid, multiply by the table transform, gather.

        ``src`` and ``dst`` are (flat grid sites, box) pairs from the table;
        the source box prunes the forward transform, the destination box the
        inverse (``_fftn``).

        Each chunk's result is written into ``out`` once the chunk is done, left
        to right when the destination has at most as many rows as x, else right
        to left.  So where out and x are Fortran-order views from one address,
        as in the sketch's buffer, no write reaches a column of x not yet read,
        even with 2 * threads chunks in flight; any other overlap copies x first.
        """
        (src_at, src_box), (dst_at, dst_box) = src, dst
        cols = x.reshape(x.shape[0], -1)
        n_dst, n = dst_at.shape[0], cols.shape[1]
        if out is None:
            dest = np.empty((n_dst, n), dtype=complex, order="F")
        else:
            dest = out.reshape(n_dst, n)
            if np.may_share_memory(cols, dest) and not (
                    cols.flags.f_contiguous and dest.flags.f_contiguous
                    and cols.__array_interface__["data"][0]
                    == dest.__array_interface__["data"][0]):
                cols = cols.copy(order="F")
        size = table_hat.size
        step = max(1, _FFT_CHUNK_ENTRIES // size)

        def chunk(lo):
            hi = min(lo + step, n)
            grid = np.zeros((hi - lo, size), dtype=complex)
            grid[:, src_at] = cols[:, lo:hi].T
            spec = _fftn(grid.reshape((hi - lo,) + table_hat.shape), batched=True, box=src_box)
            spec *= table_hat
            spec = _fftn(spec, inverse=True, batched=True, box=dst_box)
            return spec.reshape(hi - lo, size)[:, dst_at].T

        starts = range(0, n, step)
        if n_dst > cols.shape[0]:
            starts = starts[::-1]
        for lo, part in zip(starts, ordered_map(chunk, starts, self.threads)):
            dest[:, lo:lo + step] = part
        return dest.reshape((n_dst,) + x.shape[1:]) if out is None else out

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
        block = self._kernel(*rows, self.tx.points[src_lo:src_hi], self.k)
        return block[lo - per * r_lo: hi - per * r_lo]

    def _spans(self) -> list[tuple[int, int]]:
        step = min(_BLOCK_ROWS, max(1, _BLOCK_ENTRIES // max(1, self.n_cols)))
        return [(lo, min(lo + step, self.n_rows)) for lo in range(0, self.n_rows, step)]

    def _check(self, v: np.ndarray, rows: int, out_rows: int, out) -> None:
        if v.ndim not in (1, 2) or v.shape[0] != rows:
            raise ValueError(f"expected a vector or a matrix of {rows} rows, got shape {v.shape}")
        if out is not None and (out.shape != (out_rows,) + v.shape[1:]
                                or out.dtype != complex):
            raise ValueError(f"out must be a complex array of shape {(out_rows,) + v.shape[1:]}")

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y = H x for a vector or a matrix of columns; any other operand raises ValueError.

        With ``out`` (complex, the result's shape) the result is written there
        and returned; out may share memory with x.  On the lattice route each
        column chunk is written in place, so Fortran-order views of one
        buffer from one address (the sketch's) need no second array; the
        rows route computes into a temporary and copies it into out.
        """
        x = np.asarray(x)
        self._check(x, self.n_cols, self.n_rows, out)
        if self._lattice_table is not None:
            tx, rx, table_hat, _ = self._lattice_table
            return self._convolve(x, tx, rx, table_hat, out)
        y = np.empty((self.n_rows,) + x.shape[1:], dtype=complex)
        spans = self._spans()
        for (lo, hi), part in zip(spans, ordered_map(
                lambda span: self.row_block(*span) @ x, spans, self.threads)):
            y[lo:hi] = part
        if out is None:
            return y
        out[...] = y
        return out

    def adjoint_apply(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x = H^H y for a vector or a matrix of columns; operand and ``out`` as for apply."""
        y = np.asarray(y)
        self._check(y, self.n_rows, self.n_cols, out)
        if self._lattice_table is not None:
            tx, rx, table_hat, _ = self._lattice_table
            return self._convolve(y, rx, tx, table_hat.conj(), out)
        x = np.zeros((self.n_cols,) + y.shape[1:], dtype=complex)
        for part in ordered_map(  # span order keeps the sum reproducible
                lambda span: self.row_block(*span).conj().T @ y[span[0]:span[1]],
                self._spans(), self.threads):
            x += part
        if out is None:
            return x
        out[...] = x
        return out

    def dense(self) -> np.ndarray:
        """Materialize the matrix; refuses above ``DENSE_CAP_ENTRIES`` entries."""
        refuse_above_cap(16 * self.n_rows * self.n_cols, f"the dense {self.n_rows} x {self.n_cols}"
                         f" channel matrix needs {self.n_rows * self.n_cols} complex entries",
                         "sample more coarsely")
        out = np.empty(self.shape, dtype=complex)
        spans = self._spans()
        for (lo, hi), block in zip(spans, ordered_map(lambda span: self.row_block(*span),
                                                      spans, self.threads)):
            out[lo:hi] = block
        return out


def assemble_channel(tx: SampleSet, receiver, k: float, kind: str | None = None,
                     threads: int = 1) -> ChannelOperator:
    """Build the channel operator from transmit samples and a receiver.

    The receiver is either a SampleSet (point receivers through the Green's
    function) or a list of FarFieldPort.  Transmit and receive point sets
    must be at least one sampling spacing apart.
    """
    farfield = not isinstance(receiver, SampleSet)
    if farfield:
        receiver = list(receiver)
        if not receiver:
            raise ValueError("receiver needs at least one far-field port")
    else:
        if receiver.dimension != tx.dimension:
            raise ValueError("transmit and receive samples must share the dimension")
        min_gap = min(tx.spacing, receiver.spacing)
        # the gap between the two bounding boxes bounds every pair's distance from below
        box_gap = np.maximum(tx.points.min(axis=0) - receiver.points.max(axis=0),
                             receiver.points.min(axis=0) - tx.points.max(axis=0))
        if math.hypot(*np.maximum(box_gap, 0.0)) < min_gap:
            dist, _ = scipy.spatial.cKDTree(tx.points).query(receiver.points, k=1)
            if float(np.min(dist)) < min_gap * (1.0 - 1e-12):
                raise RegionsTooCloseError(
                    "transmit and receive samples closer than the sampling spacing")
    return ChannelOperator(channel_kind(kind, tx.dimension, farfield), k, tx, receiver, threads)


def channel_kind(kind: str | None, dimension: int, farfield: bool) -> str:
    """The operator kind for a receiver type: the dimension's default, or ``kind`` checked."""
    if kind is None:
        return next(name for name, spec in _KINDS.items() if spec[:2] == (dimension, farfield))
    needs, farfield_kind, _ = _KINDS.get(kind, (None, None, None))
    if farfield_kind != farfield:
        raise ValueError(f"kind {kind!r} incompatible with "
                         + ("far-field ports" if farfield else "a point receiver"))
    if needs != dimension:
        raise ValueError(f"kind {kind!r} needs {needs}D samples")
    return kind
