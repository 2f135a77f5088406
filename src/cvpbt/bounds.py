"""Comparison channels and channel-distance bounds.

Covers the matched lossy channel, the energy-dependent replacement
channel (EDRC), energy-constrained diamond-norm bounds against the
lossy channel in both parameter regimes, the exact EDRC diamond norm,
and the two-channel discrimination bound built from channel simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, FockOperator, as_cutoff, chi, coherent_ket, pure_density, thermal_state
from .two_port import ChannelParams, Regime, _inv_root, omega, regime

__all__ = [
    "EdrcParams",
    "lossy_apply",
    "lossy_diamond_bound_positive",
    "lossy_diamond_bound_negative",
    "negative_regime_t_bound",
    "edrc_apply",
    "edrc_diamond_norm",
    "critical_index",
    "resource_fidelity",
    "sim_example_bound",
]

MC_SCAN_CAP = 10_000


def lossy_apply(alpha: complex, transmissivity: float, cutoff) -> DensityOperator:
    """Pure-loss channel on a coherent state: |alpha> -> |sqrt(tau) alpha>."""
    if not 0 <= transmissivity <= 1:
        raise ValueError("transmissivity must lie in [0, 1]")
    return pure_density(coherent_ket(math.sqrt(transmissivity) * alpha, cutoff))


def lossy_diamond_bound_positive(energy: float, params: ChannelParams) -> float:
    """Energy-constrained diamond-norm bound against the matched lossy channel.

    Valid in the positive regime only, where the bound is
    2 (1 - exp(-E (1 - tau)) g Omega).
    """
    if not 0 <= energy < math.inf:
        raise ValueError(f"energy constraint must be finite and nonnegative, got {energy}")
    if regime(params) is not Regime.POSITIVE:
        raise ValueError(
            "parameters fall in the negative regime; use lossy_diamond_bound_negative"
        )
    om, _ = omega(params)
    return 2 * (1 - math.exp(-energy * (1 - params.tau)) * params.g * om)


def negative_regime_t_bound(u, params: ChannelParams):
    """Radial trace-norm bound T(u), u = r^2, from the three-term split.

    The m = 0 diagonal term is carried separately so the bound stays
    finite for small lambda_y; the price is an extra pure-state distance
    term that vanishes at u = 0.  `u` may be an array, whose points share
    one evaluation of Omega.
    """
    lx = params.lambda_x
    g, tau = params.g, params.tau
    om, _ = omega(params)
    chi0 = chi(lx, 0)
    inv0 = _inv_root(params.lambda_y, 0)
    om_prime = om - chi0 * inv0
    u = np.asarray(u, dtype=float)
    damp = np.exp(-u * (1 - tau))
    f_prime = 1 - damp * g * om_prime
    extra = 2 * damp * g * chi0 * inv0 * np.sqrt(np.maximum(0.0, 1 - np.exp(-u * tau)))
    t = 2 * f_prime + extra
    return t if t.ndim else float(t)


def _upper_concave_envelope(xs: np.ndarray, ys: np.ndarray):
    """Vertices of the upper concave hull of the sampled points."""
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    hull = []  # indices into sorted arrays
    for i in range(len(xs)):
        while len(hull) >= 2:
            x1, y1 = xs[hull[-2]], ys[hull[-2]]
            x2, y2 = xs[hull[-1]], ys[hull[-1]]
            x3, y3 = xs[i], ys[i]
            # pop middle point when it lies on or below the chord
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(i)
    return xs[hull], ys[hull]


def lossy_diamond_bound_negative(
    energy: float, params: ChannelParams, grid_points: int = 4096
) -> float:
    """Negative-regime energy-constrained bound against the matched lossy channel.

    The admissible radial distributions are mean-constrained in u = r^2
    by an inequality, so the supremum of the expected bound is the
    running maximum over [0, E] of the upper concave envelope of T(u)
    (the envelope itself can descend past an interior peak of T).  The
    envelope is built on a geometric grid extended until T sits within
    1e-9 of its asymptote, with the requested energy always included as
    a grid point.
    """
    if not 0 <= energy < math.inf:
        raise ValueError(f"energy constraint must be finite and nonnegative, got {energy}")
    if regime(params) is not Regime.NEGATIVE:
        raise ValueError("parameters fall in the positive regime; use lossy_diamond_bound_positive")
    g, tau = params.g, params.tau
    om, _ = omega(params)
    chi0 = chi(params.lambda_x, 0)
    inv0 = _inv_root(params.lambda_y, 0)
    om_prime = om - chi0 * inv0
    # |T(u) - 2| <= exp(-u (1 - tau)) * amp
    amp = 2 * g * (abs(om_prime) + chi0 * inv0)
    u_max = max(1.0, energy, math.log(max(amp, 1e-12) / 1e-9) / (1 - tau))
    grid = np.concatenate(
        ([0.0], np.geomspace(u_max * 1e-8, u_max, grid_points), [energy])
    )
    grid = np.unique(grid)
    values = negative_regime_t_bound(grid, params)
    hx, hy = _upper_concave_envelope(grid, values)
    at_energy = float(np.interp(energy, hx, hy))
    before = hy[hx <= energy]
    return max(at_energy, float(before.max())) if before.size else at_energy


@dataclass(frozen=True)
class EdrcParams:
    """Energy-dependent replacement channel: lossy with probability
    f exp(-kappa |alpha|^2), thermal replacement otherwise."""

    kappa: float
    f: float
    tau: float
    h: float

    def __post_init__(self):
        if self.kappa < 0 or self.f < 0:
            raise ValueError("kappa and f must be nonnegative")
        if not 0 <= self.tau < 1:
            raise ValueError("tau must lie in [0, 1)")
        if not 0 <= self.h < 1:
            raise ValueError("thermal parameter h must lie in [0, 1)")

    @classmethod
    def matched(cls, params: ChannelParams) -> "EdrcParams":
        """Parameters that imitate the two-port teleportation channel."""
        om, _ = omega(params)
        return cls(kappa=1 - params.tau, f=params.g * om, tau=params.tau, h=params.lambda_x)


def edrc_apply(alpha: complex, p: EdrcParams, cutoff) -> DensityOperator:
    cutoff = as_cutoff(cutoff)
    w = math.exp(-p.kappa * abs(alpha) ** 2) * p.f
    if w > 1 + 1e-12:
        raise ValueError(f"replacement weight {w:.6f} outside [0, 1]; parameters are unphysical")
    w = min(w, 1.0)
    coh = lossy_apply(alpha, p.tau, cutoff)
    th = thermal_state(p.h, cutoff)
    mat = w * coh.matrix + (1 - w) * th.matrix
    deficit = w * coh.trace_deficit + (1 - w) * th.trace_deficit
    return DensityOperator(FockOperator(mat, 1, cutoff), trace_deficit=deficit)


def critical_index(params: ChannelParams, scan_cap: int = MC_SCAN_CAP) -> int:
    """Largest m with (1 - chi_{y,m}^2)^(-1/2) > Omega; -1 when no level qualifies.

    The inverse-root factor decreases to one while Omega > 1, so the scan
    always terminates; the hard cap only guards against parameter corners
    and raises rather than silently truncating.
    """
    om, _ = omega(params)
    m_c = -1
    for m in range(scan_cap + 1):
        if _inv_root(params.lambda_y, m) > om:
            m_c = m
        else:
            return m_c
    raise RuntimeError(f"critical-index predicate still holds at the scan cap {scan_cap}")


def edrc_diamond_norm(params: ChannelParams) -> float:
    """Exact diamond norm between the two-port channel and its matched EDRC.

    Equals 2 g sum_{m <= m_c} chi_{x,m} ((1 - chi_{y,m}^2)^(-1/2) - Omega);
    the difference of the two channels is diagonal and largest at alpha = 0.
    """
    if regime(params) is not Regime.POSITIVE:
        raise ValueError("the exact replacement-channel distance assumes the positive regime")
    om, _ = omega(params)
    m_c = critical_index(params)
    if m_c < 0:
        return 0.0
    total = sum(chi(params.lambda_x, m) * (_inv_root(params.lambda_y, m) - om) for m in range(m_c + 1))
    return 2 * params.g * total


def resource_fidelity(lambda_1: float, lambda_2: float, ports: int) -> float:
    """Fidelity of two port resources built from N two-mode squeezed pairs."""
    if not (0 <= lambda_1 < 1 and 0 <= lambda_2 < 1):
        raise ValueError("squeezing parameters must lie in [0, 1)")
    if ports < 1:
        raise ValueError("ports must be positive")
    single = (1 - lambda_1**2) * (1 - lambda_2**2) / (1 - lambda_1 * lambda_2) ** 2
    return single**ports


def sim_example_bound(delta: float, base: ChannelParams | None = None) -> float:
    """Discrimination bound for two replacement channels via teleportation simulation.

    Both channels are simulated with the same measurement squeezing; the
    resource states differ by +-delta/2 in lambda_x.  The bound chains the
    two exact simulation errors with the Fuchs-van de Graaf bound on the
    resource-state trace distance.
    """
    if base is None:
        base = ChannelParams(lambda_x=2 ** -0.25, lambda_y=2 ** -0.25)
    lx_plus = base.lambda_x + delta / 2
    lx_minus = base.lambda_x - delta / 2
    if not (0 <= lx_minus < 1 and 0 <= lx_plus < 1):
        raise ValueError(f"shifted lambda_x out of range for delta={delta}")
    p_plus = ChannelParams(lx_plus, base.lambda_y)
    p_minus = ChannelParams(lx_minus, base.lambda_y)
    for p in (p_plus, p_minus):
        if regime(p) is not Regime.POSITIVE:
            raise ValueError("example bound requires both channels in the positive regime")
    fid = resource_fidelity(lx_plus, lx_minus, ports=2)
    return (
        edrc_diamond_norm(p_plus)
        + edrc_diamond_norm(p_minus)
        + 2 * math.sqrt(max(0.0, 1 - fid))
    )
