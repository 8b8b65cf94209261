"""Generalized radiation modes, the trace identity, and water-filling capacity.

Radiation modes are the generalized eigenpairs of

    F^H Lambda^2 F I_n = nu_n R_x I_n

solved through the factorization R_x = G^H G and an SVD of F G^{-1} (the
far-field matrix F carries the sqrt(Lambda^2) port weights on its rows).
The modal currents are orthonormal over R_x and their received fields are
orthogonal with norms nu_n.  Capacity at SNR gamma follows from
water-filling over the efficiencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # submodules load on first attribute use (tests/test_imports.py)

from .channel import ChannelOperator
from .errors import AllZeroEfficienciesError, NotSPDError

__all__ = [
    "RadiationModes",
    "WaterfillResult",
    "radiation_modes",
    "trace_identity",
    "max_effective_area",
    "waterfill",
    "inverse_eigen_curve",
]


@dataclass(frozen=True, eq=False)
class RadiationModes:
    """Efficiencies (descending) and the matching R_x-orthonormal current columns."""

    efficiencies: np.ndarray  # (N,) descending, >= 0
    currents: np.ndarray  # (N_T, N), column n is I_n
    constraint: str  # description of R_x

    @property
    def count(self) -> int:
        return self.efficiencies.shape[0]


@dataclass(frozen=True, eq=False)
class WaterfillResult:
    """Optimal power split over modal efficiencies at one SNR."""

    allocations: np.ndarray  # (N,) >= 0, summing to 1, original mode order
    water_level: float
    capacity_bits: float
    gamma: float

    @property
    def active_count(self) -> int:
        return int(np.sum(self.allocations > 0.0))


def _as_matrix(f) -> np.ndarray:
    if isinstance(f, ChannelOperator):
        return f.dense()
    return np.asarray(f)


def _constraint(r_x, n: int | None = None) -> float | np.ndarray:
    """rho of a scalar constraint rho * I, else the upper G with R_x = G^H G.

    Raises NotSPDError for rho <= 0 and for a matrix that is not n x n (when
    n is given), square, Hermitian or positive definite.
    """
    if np.isscalar(r_x):
        rho = float(r_x)
        if rho <= 0:
            raise NotSPDError("scalar constraint must be positive")
        return rho
    r_x = np.asarray(r_x)
    if n is not None and r_x.shape != (n, n):
        raise NotSPDError(f"constraint matrix must be {n} x {n}")
    if r_x.ndim != 2 or r_x.shape[0] != r_x.shape[1]:
        raise NotSPDError("constraint matrix must be square")
    if not np.allclose(r_x, r_x.conj().T, rtol=1e-10, atol=1e-12):
        raise NotSPDError("constraint matrix must be Hermitian")
    try:
        lower = np.linalg.cholesky(r_x)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError("constraint matrix is not positive definite") from exc
    return lower.conj().T


def _whitened(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """G^{-H} rows^H, whose column p has squared norm F_p R_x^{-1} F_p^H."""
    return scipy.linalg.solve_triangular(g.conj().T, rows.conj().T, lower=True)


def _row_forms(rows: np.ndarray, constraint) -> np.ndarray:
    """F_p R_x^{-1} F_p^H for each row F_p, under rho or the Cholesky factor of ``_constraint``."""
    if isinstance(constraint, float):
        return np.real(np.einsum("pn,np->p", rows, rows.conj().T / constraint))
    return np.sum(np.abs(_whitened(constraint, rows)) ** 2, axis=0)


def _modes(fm: np.ndarray, constraint) -> RadiationModes:
    """Radiation modes of F under rho or the Cholesky factor from ``_constraint``."""
    if isinstance(constraint, float):
        _, svals, vh = np.linalg.svd(fm, full_matrices=False)
        nu = svals**2 / constraint
        currents = vh.conj().T / math.sqrt(constraint)
        return RadiationModes(nu, currents, f"{constraint} * I")
    _, svals, vh = np.linalg.svd(_whitened(constraint, fm).conj().T, full_matrices=False)
    currents = scipy.linalg.solve_triangular(constraint, vh.conj().T, lower=False)
    return RadiationModes(svals**2, currents, "user SPD matrix")


def radiation_modes(f, r_x) -> RadiationModes:
    """Solve F^H Lambda^2 F I = nu R_x I via R_x = G^H G and SVD of F G^{-1}.

    r_x is either a positive scalar rho (meaning rho * I) or an SPD matrix.
    For scalar r_x the efficiencies are exactly the squared singular values
    of F divided by rho.
    """
    fm = _as_matrix(f)
    return _modes(fm, _constraint(r_x, fm.shape[1]))


def trace_identity(f, lam2, r_x) -> tuple[float, float, float]:
    """Check sum(nu_n) = sum_p Lambda_p^2 F_p R_x^{-1} F_p^H by two routes.

    f holds the *unweighted* far-field rows and lam2 the port weights.
    Returns (lhs, rhs, relative mismatch).  The left side sums the
    generalized eigenvalues; the right side evaluates the per-row quadratic
    forms with a triangular solve against R_x's Cholesky factor, no
    eigendecomposition involved.
    """
    fm = _as_matrix(f)
    lam2 = np.asarray(lam2, dtype=float)
    if lam2.shape[0] != fm.shape[0]:
        raise ValueError("one weight per far-field row required")
    if np.any(lam2 <= 0):
        raise ValueError("port weights must be positive")
    constraint = _constraint(r_x, fm.shape[1])
    lhs = float(np.sum(_modes(np.sqrt(lam2)[:, None] * fm, constraint).efficiencies))
    rhs = float(np.sum(lam2 * _row_forms(fm, constraint)))
    return lhs, rhs, abs(lhs - rhs) / abs(lhs)


def max_effective_area(f_row, r_x, wavelength: float) -> float:
    """Maximal partial effective area lambda**2 F_p R^{-1} F_p^H of one far-field row.

    F_p is treated as a row vector throughout, matching the per-row terms of
    the trace identity (for a real-symmetric resistance matrix the transposed
    reading gives the same scalar).
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    row = np.asarray(f_row).reshape(1, -1)
    return wavelength**2 * float(_row_forms(row, _constraint(r_x))[0])


def waterfill(nu, gamma: float) -> WaterfillResult:
    """Capacity-optimal power allocation max sum log2(1 + gamma nu_n P_n), sum P_n = 1.

    Exact active-set solution: with the m strongest modes active the water
    level is mu = (1 + sum 1/(gamma nu_i)) / m, and m is the largest count
    keeping every active power nonnegative.
    """
    if gamma <= 0:
        raise ValueError("SNR gamma must be positive")
    nu = np.asarray(nu, dtype=float)
    order = np.argsort(-nu, kind="stable")
    nu_sorted = nu[order]
    n_pos = int(np.sum(nu_sorted > 0))
    if n_pos == 0:
        raise AllZeroEfficienciesError("no positive efficiency to allocate power to")
    inv = 1.0 / (gamma * nu_sorted[:n_pos])
    csum = np.cumsum(inv)
    m_values = np.arange(1, n_pos + 1)
    mu_candidates = (1.0 + csum) / m_values
    feasible = mu_candidates >= inv  # water above the m-th floor
    m = int(np.max(m_values[feasible]))
    mu = float((1.0 + csum[m - 1]) / m)
    powers = np.zeros_like(nu_sorted)
    powers[:m] = mu - inv[:m]
    capacity = float(np.sum(np.log2(gamma * nu_sorted[:m] * mu)))
    allocations = np.zeros_like(powers)
    allocations[order] = powers
    return WaterfillResult(allocations, mu, capacity, gamma)


def inverse_eigen_curve(zeta, n_a: float) -> np.ndarray:
    """Reciprocal normalized spectrum (zeta_n N_a)^{-1} (water-level comparison curve)."""
    if n_a <= 0:
        raise ValueError("N_a must be positive")
    z = np.asarray(zeta, dtype=float)
    out = np.full(z.shape, np.inf)
    mask = z > 0
    out[mask] = 1.0 / (z[mask] * n_a)
    return out
