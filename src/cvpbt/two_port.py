"""Closed-form two-port teleportation channel.

The channel is fixed by two squeezing parameters: lambda_x for the
shared resource pairs and lambda_y for the square-root measurement.
All infinite level sums are evaluated adaptively and return explicit
geometric tail bounds alongside their values.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    FockOperator,
    as_cutoff,
    chi_vector,
    coherent_ket,
)

__all__ = [
    "ChannelParams",
    "DerivedScalars",
    "Regime",
    "regime",
    "omega",
    "energy_weighted_omega",
    "derived_scalars",
    "apply_number_element",
    "apply_coherent",
    "apply_state",
    "output_energy",
    "max_output_energy",
]

SUM_TOL = 1e-12


@dataclass(frozen=True)
class ChannelParams:
    """Resource squeezing lambda_x, measurement squeezing lambda_y, port count."""

    lambda_x: float
    lambda_y: float
    ports: int = 2

    def __post_init__(self):
        if not 0 <= self.lambda_x < 1:
            raise ValueError(f"lambda_x must lie in [0, 1), got {self.lambda_x}")
        if not 0 < self.lambda_y < 1:
            raise ValueError(
                f"lambda_y must lie in (0, 1), got {self.lambda_y}; "
                "lambda_y = 0 makes the square-root measurement degenerate"
            )
        if self.ports < 2:
            raise ValueError("at least two ports are required")

    @property
    def tau(self) -> float:
        return self.lambda_x**2 * self.lambda_y**2

    @property
    def g(self) -> float:
        return (1 - self.lambda_x**2) * (1 - self.lambda_y**2)


class Regime(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def regime(params: ChannelParams) -> Regime:
    """Classify the diagonal-correction sign; equality counts as positive."""
    lhs = (1 - params.lambda_y**2) ** -2 - 1
    rhs = (1 - params.lambda_x**2) ** 2
    return Regime.POSITIVE if lhs >= rhs else Regime.NEGATIVE


def _inv_root(lam_y: float, m):
    """(1 - chi_{y,m}^2)^(-1/2) for a level m or an array of levels."""
    c = (1 - lam_y**2) * lam_y ** (2 * m)
    sqrt = np.sqrt if isinstance(m, np.ndarray) else math.sqrt  # math.sqrt keeps the scalar sum loops fast
    return 1.0 / sqrt(1.0 - c * c)


def _adaptive_sum(params: ChannelParams, tol: float, first_moment: bool):
    """Sum [m] * chi_{x,m} / sqrt(1 - chi_{y,m}^2) until terms drop below tol.

    The returned tail bound majorises the dropped remainder: the inverse
    root factor decreases monotonically toward one, so the remainder is
    at most the first dropped factor times the remaining geometric mass
    (zeroth or first moment as appropriate).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"sum tolerance must be finite and positive, got {tol}")
    lx, ly = params.lambda_x, params.lambda_y
    total = 0.0
    m = 0
    chi_m = 1 - lx**2  # chi_{x,0}
    while True:
        term = (m if first_moment else 1) * chi_m * _inv_root(ly, m)
        total += term
        if m >= 1 and term < tol:
            break
        if lx == 0:
            break
        m += 1
        chi_m *= lx**2
        if m > 10_000_000:
            raise RuntimeError("level sum failed to converge")
    if lx == 0:
        return total, 0.0
    r = lx**2
    if first_moment:
        # sum_{k>m} k (1-r) r^k = r^(m+1) ((m+1) - m r) / (1 - r)
        geo = r ** (m + 1) * ((m + 1) - m * r) / (1 - r)
    else:
        geo = r ** (m + 1)
    tail = geo * _inv_root(ly, m + 1)
    return total, tail


def omega(params: ChannelParams, tol: float = SUM_TOL):
    """Channel weight sum_m chi_{x,m} (1 - chi_{y,m}^2)^(-1/2).

    Returns (value, tail bound).  Diverges as lambda_y -> 0, which the
    parameter validation already excludes.
    """
    return _adaptive_sum(params, tol, first_moment=False)


def energy_weighted_omega(params: ChannelParams, tol: float = SUM_TOL):
    """First-moment variant sum_m m chi_{x,m} (1 - chi_{y,m}^2)^(-1/2)."""
    return _adaptive_sum(params, tol, first_moment=True)


@dataclass(frozen=True)
class DerivedScalars:
    """Frequently reused combinations of the channel parameters."""

    tau: float
    g: float
    omega: float
    omega_tail: float


def derived_scalars(params: ChannelParams, tol: float = SUM_TOL) -> DerivedScalars:
    om, om_tail = omega(params, tol)
    return DerivedScalars(tau=params.tau, g=params.g, omega=om, omega_tail=om_tail)


def _check_two_port(params: ChannelParams):
    if params.ports != 2:
        raise ValueError("closed-form channel is the two-port case")


def _diag_tail_bound(params: ChannelParams, levels: int) -> float:
    """Mass of the diagonal corrections dropped beyond the cutoff."""
    lx, ly = params.lambda_x, params.lambda_y
    return lx ** (2 * levels) * (1 + params.g * _inv_root(ly, levels))


def apply_number_element(a: int, b: int, params: ChannelParams, cutoff) -> FockOperator:
    """Channel action on the number-basis element |a><b|.

    For a != b the output is a single real multiple of |a><b|; for a == b
    it is diagonal with trace one up to the declared tail.  The level sums
    are evaluated with the combined exponent lambda_x^(a+b+2m), so no
    negative powers appear for a > b.
    """
    _check_two_port(params)
    cutoff = as_cutoff(cutoff)
    d = cutoff.levels
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) outside cutoff {d}")
    lx, ly = params.lambda_x, params.lambda_y
    g = params.g
    om, om_tail = omega(params)
    mat = np.zeros((d, d), dtype=complex)
    scale = (lx * ly) ** (a + b)
    if a != b:
        mat[a, b] = g * om * scale
        return FockOperator(mat, 1, cutoff, meta={"tail_bound": g * om_tail * scale})
    inv = _inv_root(ly, np.arange(d))
    diag = chi_vector(lx, d) * (1 - g * scale * inv)
    diag[a] += g * om * scale
    np.fill_diagonal(mat, diag)
    tail = _diag_tail_bound(params, d) + g * om_tail * scale
    return FockOperator(mat, 1, cutoff, meta={"tail_bound": tail})


def apply_coherent(alpha: complex, params: ChannelParams, cutoff) -> DensityOperator:
    """Channel output for a coherent-state input.

    A damped coherent state at lambda_x lambda_y alpha with weight
    exp(-(1-tau)|alpha|^2) g Omega, plus corrections diagonal in the
    number basis.
    """
    _check_two_port(params)
    cutoff = as_cutoff(cutoff)
    d = cutoff.levels
    lx, ly = params.lambda_x, params.lambda_y
    g, tau = params.g, params.tau
    om, om_tail = omega(params)
    damp = math.exp(-(1 - tau) * abs(alpha) ** 2)
    ket = coherent_ket(lx * ly * alpha, cutoff)
    w = damp * g * om
    mat = w * np.outer(ket.amplitudes, ket.amplitudes.conj())
    inv = _inv_root(ly, np.arange(d))
    mat[np.diag_indices(d)] += chi_vector(lx, d) * (1 - damp * g * inv)
    deficit = w * max(0.0, 1 - ket.norm() ** 2) + _diag_tail_bound(params, d) + damp * g * om_tail
    return DensityOperator(FockOperator(mat, 1, cutoff), trace_deficit=deficit)


def apply_state(rho_in: DensityOperator, params: ChannelParams, cutoff=None) -> DensityOperator:
    """Linear extension of the number-element action to a full single-mode state."""
    from .nport import apply_state_nport

    _check_two_port(params)
    if rho_in.op.modes != 1:
        raise ValueError("apply_state expects a single-mode input")
    return apply_state_nport(rho_in, params, cutoff=cutoff)


def output_energy(u: float, params: ChannelParams, tol: float = SUM_TOL) -> float:
    """Mean photon number of the output for a coherent input with |alpha|^2 = u."""
    _check_two_port(params)
    if u < 0:
        raise ValueError("input energy must be nonnegative")
    lx = params.lambda_x
    g, tau = params.g, params.tau
    om, _ = omega(params, tol)
    s1, _ = energy_weighted_omega(params, tol)
    thermal = lx**2 / (1 - lx**2)
    return math.exp(-(1 - tau) * u) * g * (tau * om * u - s1) + thermal


def max_output_energy(params: ChannelParams, tol: float = SUM_TOL) -> float:
    """Largest output mean photon number over all inputs (the soft energy cap)."""
    _check_two_port(params)
    lx = params.lambda_x
    if lx == 0:
        return 0.0
    g, tau = params.g, params.tau
    om, _ = omega(params, tol)
    s1, _ = energy_weighted_omega(params, tol)
    thermal = lx**2 / (1 - lx**2)
    peak = (tau * g * om / (1 - tau)) * math.exp(-(1 + (1 - tau) * s1 / (tau * om)))
    return peak + thermal
