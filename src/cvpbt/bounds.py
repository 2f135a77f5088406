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

from .fock import (
    DensityOperator,
    FockOperator,
    _abs2,
    _check_integer,
    _check_squeezing,
    _per_point,
    as_cutoff,
    chi,
    coherent_ket,
    pure_density,
    thermal_state,
)
from .two_port import ChannelParams, Regime, _check_nonnegative, _inv_root, omega, regime

__all__ = [
    "EdrcParams",
    "lossy_apply",
    "lossy_diamond_bound_positive",
    "lossy_diamond_bound_negative",
    "negative_regime_t_bound",
    "edrc_apply",
    "edrc_diamond_norm",
    "edrc_distance",
    "critical_index",
    "resource_fidelity",
    "sim_example_bound",
]

MC_SCAN_CAP = 10_000
GRID_POINTS = 4096  # geometric points of the negative-regime envelope grid, besides zero


def lossy_apply(alpha: complex, transmissivity: float, cutoff) -> DensityOperator:
    """Pure-loss channel on a coherent state: |alpha> -> |sqrt(tau) alpha>."""
    if not 0 <= transmissivity <= 1:
        raise ValueError("transmissivity must lie in [0, 1]")
    return pure_density(coherent_ket(math.sqrt(transmissivity) * alpha, cutoff))


def lossy_diamond_bound_positive(energy, params: ChannelParams):
    """Energy-constrained diamond-norm bound against the matched lossy channel.

    Valid in the positive regime only, where the bound is
    2 (1 - exp(-E (1 - tau)) g Omega).  An array of energies shares one
    evaluation of Omega.
    """
    _check_nonnegative(energy, "energy constraint")
    if regime(params) is not Regime.POSITIVE:
        raise ValueError(
            "parameters fall in the negative regime; use lossy_diamond_bound_negative"
        )
    om, _ = omega(params)
    g, tau = params.g, params.tau
    return _per_point(lambda e: 2 * (1 - math.exp(-e * (1 - tau)) * g * om), energy)


def _t_bound(u, params: ChannelParams, om: float):
    """T(u) of `negative_regime_t_bound` for a given Omega."""
    lx = params.lambda_x
    g, tau = params.g, params.tau
    chi0 = chi(lx, 0)
    inv0 = _inv_root(params.lambda_y, 0)
    om_prime = om - chi0 * inv0
    u = np.asarray(u, dtype=float)
    damp = np.exp(-u * (1 - tau))
    f_prime = 1 - damp * g * om_prime
    extra = 2 * damp * g * chi0 * inv0 * np.sqrt(np.maximum(0.0, 1 - np.exp(-u * tau)))
    t = 2 * f_prime + extra
    return t if t.ndim else float(t)


def negative_regime_t_bound(u, params: ChannelParams):
    """Radial trace-norm bound T(u), u = r^2, from the three-term split.

    The m = 0 diagonal term is carried separately so the bound stays
    finite for small lambda_y; the price is an extra pure-state distance
    term that vanishes at u = 0.  `u` may be an array, whose points share
    one evaluation of Omega; it must be finite and nonnegative.
    """
    _check_nonnegative(u, "u = r^2")
    om, _ = omega(params)
    return _t_bound(u, params, om)


def _grid(top: float) -> np.ndarray:
    """Zero and GRID_POINTS geometric points over [1e-8 top, top], sorted and unique."""
    return np.unique(np.concatenate(([0.0], np.geomspace(top * 1e-8, top, GRID_POINTS))))


def _upper_concave_envelope(xs: np.ndarray, ys: np.ndarray):
    """Vertices of the upper concave hull of samples sorted by unique x."""
    px, py = xs.tolist(), ys.tolist()
    hull = []  # indices into xs
    for i, (x3, y3) in enumerate(zip(px, py)):
        while len(hull) >= 2:
            x1, y1, x2, y2 = px[hull[-2]], py[hull[-2]], px[hull[-1]], py[hull[-1]]
            if (y2 - y1) * (x3 - x2) > (y3 - y2) * (x2 - x1):
                break
            hull.pop()  # the middle point lies on or below the chord of its neighbours
        hull.append(i)
    return xs[hull], ys[hull]


def lossy_diamond_bound_negative(energy, params: ChannelParams):
    """Negative-regime energy-constrained bound against the matched lossy channel.

    The admissible radial distributions are mean-constrained in u = r^2
    by an inequality, so the supremum of the expected bound is the
    running maximum over [0, E] of the upper concave envelope of T(u)
    (the envelope itself can descend past an interior peak of T).  The
    envelope is built on a geometric grid extended until T sits within
    1e-9 of its asymptote, with the requested energy always included as
    a grid point.

    Adding the sample (E, T(E)) to a grid changes its upper hull at E to
    max(hull(E), T(E)), and every vertex the new sample pops lies on or
    below a chord that ends at a kept vertex or at the sample.  So the
    bound is max(T(E), hull(E), the largest hull vertex at or left of E),
    taken on the hull of the grid without E.  Energies up to the
    asymptote term share one grid, one hull and one evaluation of Omega.
    An energy above that term is the last point of its own grid, where
    the running maximum is the largest sample, so it needs no hull.
    """
    _check_nonnegative(energy, "energy constraint")
    if regime(params) is not Regime.NEGATIVE:
        raise ValueError("parameters fall in the positive regime; use lossy_diamond_bound_positive")
    g, tau = params.g, params.tau
    om, _ = omega(params)
    chi0 = chi(params.lambda_x, 0)
    inv0 = _inv_root(params.lambda_y, 0)
    om_prime = om - chi0 * inv0
    # |T(u) - 2| <= exp(-u (1 - tau)) * amp
    amp = 2 * g * (abs(om_prime) + chi0 * inv0)
    floor = max(1.0, math.log(max(amp, 1e-12) / 1e-9) / (1 - tau))
    energies = np.asarray(energy, dtype=float)
    flat = energies.ravel()
    out = np.empty(flat.shape)
    shared = flat <= floor
    if shared.any():
        low = flat[shared]
        grid = _grid(floor)
        hx, hy = _upper_concave_envelope(grid, _t_bound(grid, params, om))
        # the running maximum of the vertices at or left of each energy
        peak = np.maximum.accumulate(hy)[np.searchsorted(hx, low, side="right") - 1]
        out[shared] = np.maximum(np.maximum(_t_bound(low, params, om), np.interp(low, hx, hy)), peak)
    for i in np.flatnonzero(~shared):
        out[i] = _t_bound(_grid(flat[i]), params, om).max()
    return out.reshape(energies.shape) if energies.ndim else float(out[0])


@dataclass(frozen=True)
class EdrcParams:
    """Energy-dependent replacement channel: lossy with probability
    f exp(-kappa |alpha|^2), thermal replacement otherwise."""

    kappa: float
    f: float
    tau: float
    h: float

    def __post_init__(self):
        _check_nonnegative([self.kappa, self.f], "kappa and f")
        _check_squeezing(self.tau, "tau")
        _check_squeezing(self.h, "thermal parameter h")

    @classmethod
    def matched(cls, params: ChannelParams) -> "EdrcParams":
        """Parameters that imitate the two-port teleportation channel."""
        om, _ = omega(params)
        return cls(kappa=1 - params.tau, f=params.g * om, tau=params.tau, h=params.lambda_x)


def edrc_apply(alpha: complex, p: EdrcParams, cutoff) -> DensityOperator:
    cutoff = as_cutoff(cutoff)
    w = math.exp(-p.kappa * _abs2(alpha)) * p.f
    if w > 1 + 1e-12:
        raise ValueError(f"replacement weight {w:.6f} outside [0, 1]; parameters are unphysical")
    w = min(w, 1.0)
    coh = lossy_apply(alpha, p.tau, cutoff)
    th = thermal_state(p.h, cutoff)
    mat = w * coh.matrix + (1 - w) * th.matrix
    deficit = w * coh.trace_deficit + (1 - w) * th.trace_deficit
    return DensityOperator(FockOperator(mat, 1, cutoff), trace_deficit=deficit)


def critical_index(params: ChannelParams) -> int:
    """Largest m with (1 - chi_{y,m}^2)^(-1/2) > Omega; -1 when no level qualifies.

    The inverse-root factor decreases to one while Omega > 1, so the scan
    always terminates; the hard cap only guards against parameter corners
    and raises rather than silently truncating.
    """
    return _critical_index(params, omega(params)[0])


def _critical_index(params: ChannelParams, om: float) -> int:
    """`critical_index` against an Omega already summed."""
    m_c = -1
    for m in range(MC_SCAN_CAP + 1):
        if _inv_root(params.lambda_y, m) > om:
            m_c = m
        else:
            return m_c
    raise RuntimeError(f"critical-index predicate still holds at the scan cap {MC_SCAN_CAP}")


def edrc_diamond_norm(params: ChannelParams) -> float:
    """Exact diamond norm between the two-port channel and its matched EDRC.

    Equals 2 g sum_{m <= m_c} chi_{x,m} ((1 - chi_{y,m}^2)^(-1/2) - Omega);
    the difference of the two channels is diagonal and largest at alpha = 0.
    """
    return edrc_distance(params)[1]


def edrc_distance(params: ChannelParams) -> tuple[int, float]:
    """(`critical_index`, `edrc_diamond_norm`) of one point from one Omega sum."""
    if regime(params) is not Regime.POSITIVE:
        raise ValueError("the exact replacement-channel distance assumes the positive regime")
    om, _ = omega(params)
    m_c = _critical_index(params, om)
    total = sum(chi(params.lambda_x, m) * (_inv_root(params.lambda_y, m) - om) for m in range(m_c + 1))
    return m_c, 2 * params.g * total


def resource_fidelity(lambda_1: float, lambda_2: float, ports: int) -> float:
    """Fidelity of two port resources built from N two-mode squeezed pairs."""
    _check_squeezing(lambda_1, "lambda_1")
    _check_squeezing(lambda_2, "lambda_2")
    _check_integer(ports, "ports", 1)
    single = (1 - lambda_1**2) * (1 - lambda_2**2) / (1 - lambda_1 * lambda_2) ** 2
    return single**ports


def sim_example_bound(delta: float, base: ChannelParams | None = None) -> float:
    """Discrimination bound for two replacement channels via teleportation simulation.

    Both channels are simulated with the same measurement squeezing; the
    resource states differ by +-delta/2 in lambda_x.  The bound chains the
    two exact simulation errors with the Fuchs-van de Graaf bound on the
    resource-state trace distance.  A delta that shifts lambda_x out of
    [0, 1) is refused by `ChannelParams`.
    """
    if base is None:
        base = ChannelParams(lambda_x=2 ** -0.25, lambda_y=2 ** -0.25)
    lx_plus = base.lambda_x + delta / 2
    lx_minus = base.lambda_x - delta / 2
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
