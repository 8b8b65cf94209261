"""Channel spectra: dense and randomized, effective and knee NDoF.

The spectrum of a channel is reported as the squared singular values
sigma_n of H (eigenvalues of H H^H), their normalization
zeta_n = sigma_n / sum(sigma), the effective NDoF

    N_e = (sum sigma)**2 / sum(sigma**2),

and the knee NDoF N_k, the count of modes still on the plateau before the
rapid decay.  zeta, N_e and N_k are invariant under rescaling of H.

The dense spectrum never holds H.  It takes the eigenvalues, exactly sigma,
of the Gram matrix of the smaller side, H H^H when N_R <= N_T and H^H H
otherwise, from one of two sources (``SpectrumResult.route``):

- ``"lattice"``: far-field ports with N_R <= N_T over sources that carry
  the sampler's lattice.  Along each lattice run of sources the port
  phases form a geometric series, so the operator sums H H^H in closed
  form over the runs' end points (``ChannelOperator.port_gram``; about
  1,272 for the 512 x 79,563 quarter arc) instead of over every source.
- ``"rows"``: every other case.  H streams in blocks of a fixed size and
  the Gram matrix accumulates over them.

Memory is m**2 entries for m = min(N_R, N_T) plus one block.  The price is
an absolute accuracy floor: each eigenvalue is off by up to a few 1e-15
sigma_1.  Against the SVD of the 512 x 79,563 quarter-arc far-field channel
(arcs [0, pi/2] and [3.216, 4.787]) the streamed blocks were off by at most
3.6e-15 sigma_1 and the closed form by 1.5-1.8e-15 sigma_1.  So sigma_i is
accurate to about that over sigma_i relative, values below about 1e-13
sigma_1 are rounding noise, and negative ones are reported as 0.

The randomized sketch reduces H to a P-column basis and ends in the same
Gram eigensolve, so both spectra share one factorization and that floor.
Its power steps take their basis from an LU factorization with partial
pivoting, P L, which spans exactly the columns of the step's product; only
the last basis is orthonormalized by a Householder QR, the one the
Rayleigh-Ritz reduction needs (Li et al., "Algorithm 971", ACM TOMS 2017).

``plan_spectrum`` is a run's one choice between the two: it resolves
"auto", sets the sketch's P and refuses a route that would hold more than
``channel.DENSE_CAP_ENTRIES`` complex entries, before anything is allocated.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy  # submodules load on first attribute use (tests/test_imports.py)

from .channel import ChannelOperator, refuse_above_cap
from .errors import AllZeroSpectrumError, TooLargeForDenseError

# Extent of a dense-route block along the longer side.  On a 2-core Xeon with
# OpenBLAS a streamed 512 x 77,956 far-field spectrum (two discs whose grids do
# not line up) took 5.2-5.4 s with 256 columns per block on one BLAS thread,
# 5.7 s with 64 and 5.8 s with 1024; on two threads 3.8-4.0 s with 256,
# 3.8-4.2 s with 64 and 6.9-7.1 s with 1024.
_BLOCK_SPAN = 256

# Real normals per chunk of the sketch's test-matrix draw (1 MB).
_DRAW_ENTRIES = 2**17

# The Gram eigensolve's absolute accuracy floor over sigma_1 (module docstring):
# values below it are rounding noise.
NOISE_FLOOR = 1e-13

__all__ = [
    "SpectrumPlan",
    "SpectrumResult",
    "dense_spectrum",
    "dense_entries",
    "plan_spectrum",
    "randomized_spectrum",
    "effective_ndof",
    "knee_ndof",
    "spectrum_from_sigma",
]


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Descending squared singular values with their normalized form and NDoF."""

    sigma: np.ndarray
    zeta: np.ndarray
    n_effective: float
    n_knee: int
    method: str
    seed: int | None = None
    # "lattice" or "rows": how a dense Gram matrix was built; a sketch's operator route
    route: str | None = None
    # a sketch's seconds per layer: operator passes (passes_s), the power steps'
    # LU (lu_s) and the final QR (qr_s)
    timings: dict | None = None
    # a lattice-route sketch's sum(sigma) / ||H||_F^2, else None
    captured_energy: float | None = None

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        z = np.asarray(self.zeta, dtype=float)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("sigma must be nonnegative and descending")
        if abs(z.sum() - 1.0) > 1e-12:
            raise ValueError("zeta must sum to one")
        if abs(float(z @ z) * self.n_effective - 1.0) > 1e-12:
            raise ValueError("sum(zeta**2) must equal 1/N_e")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "zeta", z)

    @property
    def values_below_floor(self) -> int:
        """Count of sigma_i below NOISE_FLOOR sigma_1, the values that are rounding noise."""
        return int(np.count_nonzero(self.sigma < NOISE_FLOOR * self.sigma[0]))

    def zeta_error_bound(self, n_top: int) -> float | None:
        """Bound on the relative error of the top n_top zeta values of a sketch.

        With missed energy e = 1 - captured_energy, Rayleigh-Ritz interlacing
        gives each |zeta~_i - zeta_i| <= e and zeta_i >= (1 - e) zeta~_i, so
        the top n_top values are off by at most e / ((1 - e) zeta~_{n_top})
        relative (Halko, Martinsson & Tropp, SIAM Rev. 2011, sections 10-11).
        None without a captured energy, or where zeta~_{n_top} is 0 or absent.
        """
        if self.captured_energy is None or not 1 <= n_top <= self.zeta.shape[0]:
            return None
        zeta_min = float(self.zeta[n_top - 1])
        if zeta_min == 0.0:
            return None
        e = 1.0 - self.captured_energy
        return max(e, 0.0) / ((1.0 - e) * zeta_min)


def effective_ndof(sigma) -> float:
    """Participation-ratio NDoF (sum sigma)**2 / sum(sigma**2)."""
    s = np.asarray(sigma, dtype=float)
    total = float(s.sum())
    if total <= 0.0:
        raise AllZeroSpectrumError("all spectrum values are zero")
    return total * total / float(s @ s)


def knee_ndof(zeta) -> int:
    """Modes on the plateau: count of zeta_n >= plateau/2.

    The plateau level is the median of the top ceil(0.25 N_e) values, so the
    rule is insensitive to the exact plateau shape and to the decaying tail.
    """
    z = np.sort(np.asarray(zeta, dtype=float))[::-1]
    n_e = effective_ndof(z)  # zeta is a valid (normalized) spectrum
    m = max(1, math.ceil(0.25 * n_e))
    plateau = float(np.median(z[:m]))
    return int(np.sum(z >= 0.5 * plateau))


def spectrum_from_sigma(sigma, method: str, route: str | None = None) -> SpectrumResult:
    """Package raw squared singular values into a SpectrumResult."""
    s = np.asarray(sigma, dtype=float)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    total = float(s.sum())
    if total <= 0.0:
        raise AllZeroSpectrumError("all spectrum values are zero")
    zeta = s / total
    zeta = zeta / zeta.sum()  # exact renormalization for the 1e-12 identities
    n_e = 1.0 / float(zeta @ zeta)
    return SpectrumResult(s, zeta, n_e, knee_ndof(zeta), method, route=route)


def dense_entries(n_rows: int, n_cols: int) -> int:
    """Complex entries the dense route holds: the smaller side's Gram matrix and one block."""
    m = min(n_rows, n_cols)
    return m * m + m * min(max(n_rows, n_cols), _BLOCK_SPAN)


class SpectrumPlan(NamedTuple):
    """The spectrum route a run takes and the complex entries it holds."""

    method: str  # "dense" or "randomized"
    p: int | None  # the sketch's column count; None when dense
    entries: int  # what the planned route holds


def _checked_plan(shape, p: int | None) -> SpectrumPlan:
    """The dense route (p None) or a P-column sketch of an N_R x N_T channel.

    A sketch holds its N x P buffer, then the dense route of the N_T x P
    matrix X inside it.  A plan above ``channel.DENSE_CAP_ENTRIES`` entries
    raises TooLargeForDenseError (``channel.refuse_above_cap``), which names
    its entries and bytes and carries it.
    """
    n_rows, n_cols = shape
    if p is None:
        plan = SpectrumPlan("dense", None, dense_entries(n_rows, n_cols))
        route = (f"the dense route of a {n_rows} x {n_cols} channel (the "
                 f"{min(n_rows, n_cols)}^2 Gram matrix and one block)")
        fix = "use the randomized method"
    else:
        n = max(n_rows, n_cols)
        plan = SpectrumPlan("randomized", p, n * p + dense_entries(n_cols, p))
        route = (f"the randomized sketch of a {n_rows} x {n_cols} channel at P = {p} (its "
                 f"{n} x {p} buffer, then a {p}^2 Gram matrix and one block)")
        fix = "lower p_factor"
    refuse_above_cap(16 * plan.entries, f"{route} needs {plan.entries} complex entries", fix, plan)
    return plan


def plan_spectrum(shape, method: str, n_a: float, p_factor: float) -> SpectrumPlan:
    """Plan the spectrum of an N_R x N_T channel before anything is allocated.

    ``method`` is "dense", "randomized" or "auto"; "auto" takes the dense
    route where the cap admits its plan and the sketch beyond.  The sketch
    has P = ceil(p_factor max(N_a, 1)) columns, clamped to 1..min(N_R, N_T).
    A planned route above the cap raises TooLargeForDenseError, naming its
    entries and bytes (``_checked_plan``).
    """
    if method in ("dense", "auto"):
        try:
            return _checked_plan(shape, None)
        except TooLargeForDenseError:
            if method == "dense":
                raise
    return _checked_plan(shape, max(1, min(math.ceil(p_factor * max(n_a, 1.0)), *shape)))


def _blocks(h):
    """Blocks covering h in a fixed order: column blocks when N_R <= N_T, else row blocks.

    A block spans all of the shorter side and up to _BLOCK_SPAN of the longer
    one; column blocks of a channel operator are cut at whole transmit sources.
    """
    n_rows, n_cols = h.shape
    if isinstance(h, ChannelOperator):
        take, n_src, width = h.row_block, h.tx.count, h.cols_per_source
    else:
        take, n_src, width = (lambda lo, hi, s_lo, s_hi: h[lo:hi, s_lo:s_hi]), n_cols, 1
    if n_rows <= n_cols:
        step = max(1, _BLOCK_SPAN // width)
        return (take(0, n_rows, lo, min(lo + step, n_src)) for lo in range(0, n_src, step))
    return (take(lo, min(lo + _BLOCK_SPAN, n_rows), 0, n_src)
            for lo in range(0, n_rows, _BLOCK_SPAN))


def dense_spectrum(h) -> SpectrumResult:
    """Exact spectrum of a channel operator or matrix from the smaller side's Gram matrix.

    With m = min(N_R, N_T), the Gram matrix G is H H^H (N_R <= N_T) or
    H^H H (otherwise), and the spectrum its eigenvalues.  Far-field ports
    with N_R <= N_T over sources on one lattice get G in closed form, summed
    along lattice runs (``ChannelOperator.port_gram``, route ``"lattice"``).
    Otherwise G = sum B B^H accumulates over column blocks B, or sum B^H B
    over row blocks, in a fixed block order (route ``"rows"``).  H is never
    materialized: the route holds m**2 entries plus one block of m x 256
    and refuses above ``channel.DENSE_CAP_ENTRIES`` of them (``dense_entries``).
    Values below about 1e-13 sigma_1 are rounding noise; negative ones are
    reported as 0.
    """
    if not isinstance(h, ChannelOperator):
        h = np.asarray(h)
    n_rows, n_cols = h.shape
    _checked_plan(h.shape, None)
    wide = n_rows <= n_cols
    gram = h.port_gram() if wide and isinstance(h, ChannelOperator) else None
    route = "rows" if gram is None else "lattice"
    if gram is None:
        m = min(n_rows, n_cols)
        gram = np.zeros((m, m), dtype=complex, order="F")
        for block in _blocks(h):
            # block.T is a Fortran view of the block, so herk needs no copy; it
            # yields the conjugate of G, which has the same eigenvalues.
            gram = scipy.linalg.blas.zherk(1.0, block.T, beta=1.0, c=gram,
                                           trans=2 if wide else 0, overwrite_c=1)
    # LAPACK's zheevd on G's upper triangle, as np.linalg.eigvalsh(G, "U") calls
    # it, but in place: numpy would first copy G
    values = scipy.linalg.eigh(gram, lower=False, eigvals_only=True, overwrite_a=True,
                               check_finite=False, driver="evd")
    return spectrum_from_sigma(np.maximum(values, 0.0)[::-1], "dense", route=route)


def _basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of y's columns, LAPACK's zgeqrf and zungqr in y's memory.

    The sketch's final basis, the one Rayleigh-Ritz needs orthonormal.  The
    same calls as np.linalg.qr, without its copies: on the Fortran-order
    result of a lattice pass there is none (a C-order y is copied once).
    """
    return scipy.linalg.qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]


def _lu_basis(y: np.ndarray) -> np.ndarray:
    """Basis P L of y's columns from LAPACK's zgetrf, in y's memory.

    y = P L U with L unit lower trapezoidal, so P L spans y's columns (U is
    dropped).  Partial pivoting keeps every entry of L at most 1 in modulus,
    so P L is well conditioned where y is not (kappa 578 against 1.4e5 on
    squares_parallel.yaml's first Y), and a zero pivot leaves a unit column.
    The upper triangle of y's top P x P block is overwritten with the
    identity's, and zlaswp applies the row swaps last to first; a C-order y
    is copied once.  On that 4096 x 300 y it took 0.05 s against 0.26-0.30 s
    for ``_basis`` (2-core Xeon, one BLAS thread).
    """
    lu, piv, _ = scipy.linalg.lapack.zgetrf(y, overwrite_a=1)
    for j in range(lu.shape[1]):
        lu[:j, j] = 0.0
        lu[j, j] = 1.0
    return scipy.linalg.lapack.zlaswp(lu, piv, inc=-1, overwrite_a=1)


def randomized_spectrum(h, p: int, seed: int, power_iters: int = 1) -> SpectrumResult:
    """Randomized sketch of the dominant squared singular values.

    Draws a complex Gaussian N_T x P test matrix A (counter-based Philox
    stream, so a seed pins the spectrum bit-for-bit) and forms Y = H A.
    Each power iteration takes a basis P L of Y from its LU factorization
    (``_lu_basis``) and refreshes Y <- H (H^H P L); the last Y gets an
    orthonormal basis W from a Householder QR (``_basis``).  P L spans Y's
    columns, so in exact arithmetic W, and every value below, is what a QR
    at every step would give; on squares_parallel.yaml the two differ by at
    most 2.8e-15 sigma_1.  W reduces H to B = W^H H, whose squared singular
    values approximate the top of the spectrum of H.  They are the
    eigenvalues of B B^H, taken by ``dense_spectrum`` on X = H^H W (its Gram
    of the P-wide side), so the sketch shares the dense route's 1e-13
    sigma_1 floor; its tail is approximate in any case.

    The sketch holds one N x P matrix: a flat buffer of max(N_T, N_R) P
    entries, whose first N_T P or N_R P entries are every matrix in turn as
    a Fortran-order view.  A is drawn into it in row chunks, all real parts
    and then all imaginary parts, the values of two whole-matrix draws bit
    for bit since Philox is sequential.  Each pass writes its output over
    its input (``ChannelOperator.apply`` with ``out``), and each basis is
    taken in place.  ``SpectrumResult.timings`` gives the seconds spent in
    operator passes (``passes_s``), in the power steps' LU factorizations
    (``lu_s``) and in the final QR (``qr_s``).  On the lattice route
    ``captured_energy`` is sum(sigma) / ||H||_F^2, with ||H||_F^2 exact from
    the operator's offset table (``ChannelOperator.lattice_frobenius_sq``);
    it is None otherwise.  A sketch above ``channel.DENSE_CAP_ENTRIES`` entries
    (``_checked_plan``) raises TooLargeForDenseError before it allocates.
    """
    n_rows, n_cols = (h.shape if isinstance(h, ChannelOperator) else np.asarray(h).shape)
    if not 0 < p <= min(n_rows, n_cols):
        raise ValueError("sketch size P must be in 1..min(N_R, N_T)")
    _checked_plan((n_rows, n_cols), p)
    timings = {"passes_s": 0.0, "lu_s": 0.0, "qr_s": 0.0}

    def timed(key, fn, x):
        t0 = time.perf_counter()
        out = fn(x)
        timings[key] += time.perf_counter() - t0
        return out

    buf = np.empty(max(n_rows, n_cols) * p, dtype=complex)

    def view(n):
        return buf[:n * p].reshape((n, p), order="F")

    def mul(x):
        out = view(n_rows)
        if isinstance(h, ChannelOperator):
            return h.apply(x, out=out)
        out[...] = h @ x
        return out

    def mul_h(y):
        out = view(n_cols)
        if isinstance(h, ChannelOperator):
            return h.adjoint_apply(y, out=out)
        out[...] = h.conj().T @ y
        return out

    rng = np.random.Generator(np.random.Philox(seed))
    # (re + 1j im) / sqrt(2) bit for bit, one real chunk of rows at a time
    a = view(n_cols)
    rows = max(1, _DRAW_ENTRIES // p)
    for part in (a.real, a.imag):
        for lo in range(0, n_cols, rows):
            part[lo:lo + rows] = rng.standard_normal((min(rows, n_cols - lo), p))
    a /= math.sqrt(2)
    y = timed("passes_s", mul, a)
    for i in range(power_iters + 1):
        # a power step's basis need only span Y; Rayleigh-Ritz needs the last orthonormal
        w = timed("lu_s", _lu_basis, y) if i < power_iters else timed("qr_s", _basis, y)
        x = timed("passes_s", mul_h, w)  # H^H W: a power step's input, or B^H at the end
        if i < power_iters:
            y = timed("passes_s", mul, x)
    spec = dense_spectrum(x)
    frobenius_sq = h.lattice_frobenius_sq if isinstance(h, ChannelOperator) else None
    return dataclasses.replace(
        spec, method=f"randomized(P={p}, power_iters={power_iters})", seed=seed,
        route=h.route if isinstance(h, ChannelOperator) else "rows", timings=timings,
        captured_energy=(None if frobenius_sq is None
                         else math.fsum(spec.sigma) / frobenius_sq))
