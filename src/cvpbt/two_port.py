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
    _abs2,
    _per_point,
    as_cutoff,
    chi_vector,
    coherent_ket,
)

__all__ = [
    "ChannelParams",
    "Regime",
    "regime",
    "omega",
    "energy_weighted_omega",
    "apply_number_element",
    "apply_coherent",
    "apply_state",
    "output_energy",
    "max_output_energy",
]

SUM_TOL = 1e-12
_BLOCK_ELEMS = 1 << 14  # points x levels per block, which bounds its temporaries to about 128 kB each
_INV_ROOT_MAX = 4 / math.sqrt(15)  # (1 - chi_{y,m}^2)^(-1/2) for m >= 1, where chi_{y,m} <= 1/4


@dataclass(frozen=True)
class ChannelParams:
    """Resource squeezing lambda_x, measurement squeezing lambda_y, port count.

    lambda_x and lambda_y may also be arrays of one shape, a parameter grid
    (see `grid`).  `omega`, `energy_weighted_omega`, `max_output_energy` and
    the two-port closed form evaluate a grid in one pass, giving each point
    the bits it gets alone; `tau` and `g` become arrays.
    """

    lambda_x: float
    lambda_y: float
    ports: int = 2

    def __post_init__(self):
        if isinstance(self.lambda_x, np.ndarray) or isinstance(self.lambda_y, np.ndarray):
            for name, values in zip(("lambda_x", "lambda_y"), np.broadcast_arrays(self.lambda_x, self.lambda_y)):
                object.__setattr__(self, name, np.array(values, dtype=float))
        lx, ly = np.asarray(self.lambda_x), np.asarray(self.lambda_y)
        bad = ~((0 <= lx) & (lx < 1))
        if bad.any():
            raise ValueError(f"lambda_x must lie in [0, 1), got {lx[bad].flat[0]}")
        bad = ~((0 < ly) & (ly < 1))
        if bad.any():
            raise ValueError(
                f"lambda_y must lie in (0, 1), got {ly[bad].flat[0]}; "
                "lambda_y = 0 makes the square-root measurement degenerate"
            )
        if self.ports < 2:
            raise ValueError("at least two ports are required")

    @classmethod
    def grid(cls, lambda_x, lambda_y, ports: int = 2) -> "ChannelParams":
        """Every pair of a lambda_x and a lambda_y value, lambda_x slowest."""
        lx, ly = np.meshgrid(np.asarray(lambda_x, float), np.asarray(lambda_y, float), indexing="ij")
        return cls(lx.ravel(), ly.ravel(), ports)

    def points(self):
        """The parameters one point at a time, in row-major order."""
        for lx, ly in zip(np.ravel(self.lambda_x), np.ravel(self.lambda_y)):
            yield ChannelParams(lx, ly, self.ports)

    @property
    def tau(self) -> float:
        return _per_point(lambda lx, ly: lx**2 * ly**2, self.lambda_x, self.lambda_y)

    @property
    def g(self) -> float:
        return _per_point(lambda lx, ly: (1 - lx**2) * (1 - ly**2), self.lambda_x, self.lambda_y)


class Regime(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def regime(params: ChannelParams) -> Regime:
    """Classify the diagonal-correction sign; equality counts as positive."""
    lhs = (1 - params.lambda_y**2) ** -2 - 1
    rhs = (1 - params.lambda_x**2) ** 2
    return Regime.POSITIVE if lhs >= rhs else Regime.NEGATIVE


def _inv_root(lam_y, m):
    """(1 - chi_{y,m}^2)^(-1/2); lam_y and m broadcast as numpy arrays do."""
    if isinstance(lam_y, np.ndarray) or isinstance(m, np.ndarray):
        c = _per_point(lambda y: 1 - y**2, lam_y) * np.power(lam_y, 2 * m)
        return 1.0 / np.sqrt(1.0 - c * c)
    c = (1 - lam_y**2) * lam_y ** (2 * m)
    return 1.0 / math.sqrt(1.0 - c * c)


def _last_level(r: np.ndarray, tol: float, first_moment: bool) -> np.ndarray:
    """Where each level sum will stop, estimated from above: the first
    m >= 1 with [m] (1 - r) r^m times the largest inverse root below tol,
    plus a margin for rounding.  It only sizes blocks of levels; a low
    estimate costs another block, not accuracy."""
    log_c = np.log(tol / ((1 - r) * _INV_ROOT_MAX))
    with np.errstate(divide="ignore"):
        log_r = np.log(r)  # -inf at r = 0, which gives m = 1
    m = np.maximum(log_c / log_r, 1)
    if first_moment:  # m r^m < c from below by fixed-point steps on m = log(c / m) / log(r)
        for _ in range(3):
            m = np.maximum((log_c - np.log(m)) / log_r, 1)
    return np.ceil(m).astype(np.int64) + 2


def _adaptive_sum(params: ChannelParams, tol: float, first_moment: bool):
    """Sum [m] * chi_{x,m} / sqrt(1 - chi_{y,m}^2) until terms drop below tol.

    A parameter grid is summed in blocks of levels shared by all its points,
    each block reaching the latest estimated stop of its live points
    (`_last_level`) within a cap on points x levels.
    Within a block, `np.cumprod` and `np.cumsum` run sequentially along m,
    and each point stops at its own first term below tol, so it adds the
    same terms in the same order as a one-term-at-a-time loop would.  The
    inverse roots are one scalar per level and distinct lambda_y, because
    numpy's vector pow can differ from the scalar one in the last bit.

    The returned tail bound majorises the dropped remainder: the inverse
    root factor decreases monotonically toward one, so the remainder is
    at most the first dropped factor times the remaining geometric mass
    (zeroth or first moment as appropriate).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"sum tolerance must be finite and positive, got {tol}")
    shape = np.shape(params.lambda_x)
    lx = np.ravel(params.lambda_x).tolist()
    ly = np.ravel(params.lambda_y).tolist()
    slot = {}  # distinct lambda_y -> its row in the inverse-root table
    ly_index = np.array([slot.setdefault(y, len(slot)) for y in ly])
    lys = list(slot)
    r = np.array([x**2 for x in lx])
    chi_m = np.array([1 - x**2 for x in lx])  # chi_{x,m} at the block's first level
    total = np.zeros(len(lx))
    stop = np.zeros(len(lx), dtype=np.int64)  # each point's last summed level
    single = np.array(lx) == 0  # lambda_x = 0 leaves only the m = 0 term
    live = np.arange(len(lx))
    need = _last_level(r, tol, first_moment)
    start, block = 0, 4
    while live.size:
        if start > 10_000_000:
            raise RuntimeError("level sum failed to converge")
        rest = int(need[live].max()) + 1 - start
        block = max(8, min(rest if rest > 0 else 2 * block, _BLOCK_ELEMS // live.size))
        levels = np.arange(start, start + block)
        table = np.empty((len(lys), block))  # inverse roots, one row per distinct lambda_y
        for i in np.flatnonzero(np.bincount(ly_index[live], minlength=len(lys))).tolist():
            table[i] = [_inv_root(lys[i], m) for m in levels.tolist()]
        inv = table[ly_index[live]]
        chi = np.empty((live.size, block))
        chi[:, 0] = chi_m[live]
        chi[:, 1:] = r[live, None]
        chi = np.cumprod(chi, axis=1)
        term = (levels * chi if first_moment else chi) * inv
        below = (term < tol) & (levels >= 1)
        below[:, 0] |= single[live]
        first = below.argmax(axis=1)
        done = below[np.arange(live.size), first]
        term[:, 0] += total[live]  # the running total carried into the block
        sums = np.cumsum(term, axis=1)
        total[live] = sums[np.arange(live.size), np.where(done, first, block - 1)]
        stop[live[done]] = start + first[done]
        chi_m[live] = chi[:, -1] * r[live]
        live = live[~done]
        start += block

    def tail(x, y, m):
        if x == 0:
            return 0.0
        r = x**2
        if first_moment:
            # sum_{k>m} k (1-r) r^k = r^(m+1) ((m+1) - m r) / (1 - r)
            geo = r ** (m + 1) * ((m + 1) - m * r) / (1 - r)
        else:
            geo = r ** (m + 1)
        return geo * _inv_root(y, m + 1)

    tails = [tail(x, y, m) for x, y, m in zip(lx, ly, stop.tolist())]
    if not shape:
        return float(total[0]), tails[0]
    return total.reshape(shape), np.array(tails).reshape(shape)


def omega(params: ChannelParams, tol: float = SUM_TOL):
    """Channel weight sum_m chi_{x,m} (1 - chi_{y,m}^2)^(-1/2).

    Returns (value, tail bound), arrays over a parameter grid.  Diverges
    as lambda_y -> 0, which the parameter validation already excludes.
    """
    return _adaptive_sum(params, tol, first_moment=False)


def energy_weighted_omega(params: ChannelParams, tol: float = SUM_TOL):
    """First-moment variant sum_m m chi_{x,m} (1 - chi_{y,m}^2)^(-1/2)."""
    return _adaptive_sum(params, tol, first_moment=True)


def _check_two_port(params: ChannelParams):
    if params.ports != 2:
        raise ValueError("closed-form channel is the two-port case")


def _diag_tail_bound(params: ChannelParams, levels: int) -> float:
    """Mass of the diagonal corrections dropped beyond the cutoff."""
    lx, ly = params.lambda_x, params.lambda_y
    return lx ** (2 * levels) * (1 + params.g * _inv_root(ly, levels))


def apply_number_element(a: int, b: int, params: ChannelParams, cutoff) -> FockOperator:
    """Channel action on the number-basis element |a><b|, from the two-port
    closed form of `nport.make_channel`.

    For a != b the output is a single real multiple of |a><b|; for a == b
    it is diagonal with trace one up to the declared tail.
    """
    from .nport import make_channel

    _check_two_port(params)
    return make_channel(params).number_element(a, b, cutoff)


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
    damp = math.exp(-(1 - tau) * _abs2(alpha))
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
    """Largest output mean photon number over coherent inputs (the coherent
    energy cap), the maximum of `output_energy` over u; an array over a
    parameter grid, from one pass of each level sum.  Other inputs can go
    higher: at lambda_x = lambda_y = 0.5 the number state |1> gives 0.370265
    against a cap of 0.333835."""
    _check_two_port(params)
    om, _ = omega(params, tol)
    s1, _ = energy_weighted_omega(params, tol)

    def point(lx, g, tau, om, s1):
        if lx == 0:
            return 0.0
        thermal = lx**2 / (1 - lx**2)
        peak = (tau * g * om / (1 - tau)) * math.exp(-(1 + (1 - tau) * s1 / (tau * om)))
        return peak + thermal

    return _per_point(point, params.lambda_x, params.g, params.tau, om, s1)
