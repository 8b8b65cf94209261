"""Channel spectra: dense and randomized, effective and knee NDoF.

The spectrum of a channel is reported as the squared singular values
sigma_n of H (eigenvalues of H H^H), their normalization
zeta_n = sigma_n / sum(sigma), the effective NDoF

    N_e = (sum sigma)**2 / sum(sigma**2),

and the knee NDoF N_k, the count of modes still on the plateau before the
rapid decay.  zeta, N_e and N_k are invariant under rescaling of H.

The dense spectrum never holds H.  It streams H in blocks of a fixed size
and accumulates the Gram matrix of the smaller side, H H^H when
N_R <= N_T and H^H H otherwise, whose eigenvalues are exactly sigma.
Memory is m**2 entries for m = min(N_R, N_T) plus one block.  The price is
an absolute accuracy floor: each eigenvalue is off by up to a few 1e-15
sigma_1 (3.9e-15 against the SVD of a 512 x 79,563 far-field channel), so
sigma_i is accurate to about that over sigma_i relative, values below about
1e-13 sigma_1 are rounding noise, and negative ones are reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import zherk

from .channel import DENSE_CAP_ENTRIES, ChannelOperator
from .errors import AllZeroSpectrumError, TooLargeForDenseError

# Extent of a dense-route block along the longer side.  On a 2-core Xeon with
# OpenBLAS the 512 x 79,563 far-field spectrum took the same time with 256 or
# 1024 columns per block on one BLAS thread, and half the time with 256 on
# two; herk slows down on much narrower blocks (32 columns: +38 % at m = 2048).
_BLOCK_SPAN = 256

__all__ = [
    "SpectrumResult",
    "dense_spectrum",
    "dense_entries",
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
    def n_values(self) -> int:
        return self.sigma.shape[0]


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


def spectrum_from_sigma(sigma, method: str, seed: int | None = None) -> SpectrumResult:
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
    return SpectrumResult(s, zeta, n_e, knee_ndof(zeta), method, seed)


def dense_entries(n_rows: int, n_cols: int) -> int:
    """Complex entries the dense route holds: the smaller side's Gram matrix and one block."""
    m = min(n_rows, n_cols)
    return m * m + m * min(max(n_rows, n_cols), _BLOCK_SPAN)


def _blocks(h):
    """Blocks covering h in a fixed order: column blocks when N_R <= N_T, else row blocks.

    A block spans all of the shorter side and up to _BLOCK_SPAN of the longer
    one; column blocks of a channel operator are cut at whole transmit sources.
    """
    n_rows, n_cols = h.shape
    if isinstance(h, ChannelOperator):
        take, n_src, width = h.row_block, h.tx_points.shape[0], h.cols_per_source
    else:
        take, n_src, width = (lambda lo, hi, s_lo, s_hi: h[lo:hi, s_lo:s_hi]), n_cols, 1
    if n_rows <= n_cols:
        step = max(1, _BLOCK_SPAN // width)
        return (take(0, n_rows, lo, min(lo + step, n_src)) for lo in range(0, n_src, step))
    return (take(lo, min(lo + _BLOCK_SPAN, n_rows), 0, n_src)
            for lo in range(0, n_rows, _BLOCK_SPAN))


def dense_spectrum(h, cap: int = DENSE_CAP_ENTRIES) -> SpectrumResult:
    """Exact spectrum of a channel operator or matrix from the smaller side's Gram matrix.

    With m = min(N_R, N_T), accumulates G = sum B B^H over column blocks B
    (N_R <= N_T) or G = sum B^H B over row blocks (otherwise), in a fixed
    block order, and returns the eigenvalues of G.  H is never materialized:
    the route holds m**2 entries plus one block of m x 256 and refuses
    above ``cap`` of them (``dense_entries``).  Values below about
    1e-13 sigma_1 are rounding noise; negative ones are reported as 0.
    """
    if not isinstance(h, ChannelOperator):
        h = np.asarray(h)
    n_rows, n_cols = h.shape
    entries = dense_entries(n_rows, n_cols)
    if entries > cap:
        raise TooLargeForDenseError(
            f"{n_rows} x {n_cols} needs {entries} Gram and block entries, "
            f"above the dense cap of {cap}")
    wide = n_rows <= n_cols
    m = min(n_rows, n_cols)
    gram = np.zeros((m, m), dtype=complex, order="F")
    for block in _blocks(h):
        # block.T is a Fortran view of the block, so herk needs no copy; it
        # yields the conjugate of G, which has the same eigenvalues.
        gram = zherk(1.0, block.T, beta=1.0, c=gram, trans=2 if wide else 0, overwrite_c=1)
    # LAPACK's zheevd on G's upper triangle, as np.linalg.eigvalsh(G, "U") calls
    # it, but in place: numpy would first copy G
    values = eigh(gram, lower=False, eigvals_only=True, overwrite_a=True, check_finite=False,
                  driver="evd")
    return spectrum_from_sigma(np.maximum(values, 0.0)[::-1], "dense")


def randomized_spectrum(h, p: int, seed: int, power_iters: int = 1) -> SpectrumResult:
    """Randomized sketch of the dominant squared singular values.

    Draws a complex Gaussian N_T x P test matrix A (counter-based Philox
    stream, so a seed pins the spectrum bit-for-bit), forms Y = H A, an
    orthonormal basis W of Y (optionally refreshed by power iterations
    Y <- H (H^H W)), and reduces to B = W^H H whose singular values
    approximate the top of the spectrum of H.
    """
    n_rows, n_cols = (h.shape if isinstance(h, ChannelOperator) else np.asarray(h).shape)
    if not 0 < p <= min(n_rows, n_cols):
        raise ValueError("sketch size P must be in 1..min(N_R, N_T)")

    def mul(x):
        return h.apply(x) if isinstance(h, ChannelOperator) else h @ x

    def mul_h(y):
        return h.adjoint_apply(y) if isinstance(h, ChannelOperator) else h.conj().T @ y

    rng = np.random.Generator(np.random.Philox(seed))
    a = (rng.standard_normal((n_cols, p)) + 1j * rng.standard_normal((n_cols, p))) / math.sqrt(2)
    y = mul(a)
    w, _ = np.linalg.qr(y)
    for _ in range(power_iters):
        y = mul(mul_h(w))
        w, _ = np.linalg.qr(y)
    b = mul_h(w).conj().T  # W^H H, evaluated through the adjoint
    svals = np.linalg.svd(b, compute_uv=False)
    return spectrum_from_sigma(svals**2, f"randomized(P={p}, power_iters={power_iters})", seed)
