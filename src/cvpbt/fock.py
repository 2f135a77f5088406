"""Dense truncated Fock-space primitives.

Everything in this package lives on k bosonic modes truncated to D Fock
levels each (states |0> .. |D-1>).  Multimode arrays are flattened
row-major with the first-listed mode slowest; the mode order used
throughout is (C, A_1, ..., A_N, B_1).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Cutoff",
    "FockVector",
    "FockOperator",
    "DensityOperator",
    "as_cutoff",
    "adaptive_cutoff",
    "coherent_cutoff",
    "chi",
    "coherent_ket",
    "tmsv_ket",
    "thermal_state",
    "number_ket",
    "pure_density",
    "trace_norm",
    "fidelity",
    "mean_photon_number",
    "partial_trace",
    "permute_modes",
]


@dataclass(frozen=True)
class Cutoff:
    """Number of retained Fock levels per mode."""

    levels: int

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_integer(self.levels, "cutoff", 2))


def as_cutoff(cutoff) -> Cutoff:
    return cutoff if isinstance(cutoff, Cutoff) else Cutoff(cutoff)


def adaptive_cutoff(lam: float, tol: float = 1e-12) -> Cutoff:
    """Smallest cutoff, at least the floor of 2 levels, whose geometric
    tail lam**(2 D) falls below tol."""
    _check_squeezing(lam)
    _check_positive(tol, "tail tolerance")
    if lam == 0:
        return Cutoff(2)
    need = math.ceil(math.log(tol) / (2 * math.log(lam)))
    return Cutoff(max(2, need))


def coherent_cutoff(alpha: complex, tol: float = 1e-12) -> Cutoff:
    """Smallest cutoff, at least the floor of 2 levels, whose Poisson tail
    for |alpha|**2 falls below tol.

    Raises ValueError where double precision cannot tell: when the first
    Poisson weight exp(-|alpha|^2) is not a normal float (|alpha|^2 above
    about 708), or when the tail 1 - sum never falls below tol.
    """
    _check_positive(tol, "tail tolerance")
    mu = _abs2(alpha)
    term = math.exp(-mu)
    if term < sys.float_info.min:
        raise ValueError(f"|alpha|^2 = {mu:.6g} is too large: its first Poisson weight exp(-|alpha|^2) underflows")
    cum = term
    k = 0
    while 1 - cum >= tol:
        if k == 100_000:
            raise ValueError(f"the Poisson tail for |alpha|^2 = {mu:.6g} stays above {tol:g} in double precision")
        k += 1
        term *= mu / k
        cum += term
    return Cutoff(max(2, k + 1))


@dataclass(frozen=True)
class FockVector:
    """Ket on `modes` modes, amplitudes flattened row-major (first mode slowest)."""

    amplitudes: np.ndarray
    modes: int
    cutoff: Cutoff

    def __post_init__(self):
        d = self.cutoff.levels ** self.modes
        if self.amplitudes.shape != (d,):
            raise ValueError(f"expected {d} amplitudes, got shape {self.amplitudes.shape}")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("non-finite amplitudes")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class FockOperator:
    """Square operator on `modes` modes with a shared per-mode cutoff.

    `meta` carries optional numerical provenance (declared truncation
    tails, suspect-eigenvalue counts, ...); it never affects equality
    of the numerical content.
    """

    matrix: np.ndarray
    modes: int
    cutoff: Cutoff
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        d = self.cutoff.levels ** self.modes
        if self.matrix.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {self.matrix.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        """Whether max|M - M^H| <= 1e-10 max(1, max|M|), the test every
        `DensityOperator` passes."""
        mat = self.matrix
        return bool(np.abs(mat - mat.conj().T).max() <= 1e-10 * max(1.0, float(np.abs(mat).max())))

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@dataclass
class DensityOperator:
    """Quantum state with an explicit bound on the trace mass lost to truncation."""

    op: FockOperator
    trace_deficit: float = 0.0

    def __post_init__(self):
        _check_nonnegative(self.trace_deficit, "trace_deficit")
        if not self.op.is_hermitian():
            raise ValueError("density operator must be Hermitian")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def cutoff(self) -> Cutoff:
        return self.op.cutoff

    def trace(self) -> float:
        return float(np.trace(self.op.matrix).real)


def _check_squeezing(values, what: str = "squeezing parameter"):
    """Refuse `values`, a number or an array, unless every entry lies in
    [0, 1): the squeezing of a two-mode squeezed pair."""
    values = np.asarray(values)
    bad = ~((0 <= values) & (values < 1))
    if bad.any():
        raise ValueError(f"{what} must lie in [0, 1), got {values[bad].flat[0]}")


def _check_positive(value: float, what: str):
    """Refuse `value`, a tolerance or a budget, unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")


def _check_nonnegative(values, what: str):
    """Refuse `values`, a number or an array, unless every entry is finite
    and nonnegative, where a nan or an infinity would otherwise come out as
    a nan."""
    values = np.asarray(values)
    bad = ~((0 <= values) & (values < math.inf))
    if bad.any():
        raise ValueError(f"{what} must be finite and nonnegative, got {values[bad].flat[0]}")


def _check_integer(value, what: str, least: int) -> int:
    """`value` as a Python int, refused unless it is an integer (a numpy one
    included, a bool not) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return int(value)


def _check_level(value, levels: int, what: str = "level index") -> int:
    """`value` as a Python int, refused unless it is an integer in [0, levels)."""
    value = _check_integer(value, what, 0)
    if value >= levels:
        raise ValueError(f"{what} {value} outside cutoff {levels}")
    return value


def _per_point(fn, *args):
    """`fn` on scalar arguments, or point by point over broadcast arrays
    (or sequences, which are read as arrays).

    Each point is computed in Python float arithmetic: numpy's vector pow
    and exp differ from the scalar ones in the last bit on a few percent of
    inputs, so a grid evaluated this way matches its points one by one.
    """
    if not any(isinstance(a, np.ndarray) or np.ndim(a) for a in args):
        return fn(*args)
    arrays = np.broadcast_arrays(*args)
    points = zip(*(a.ravel().tolist() for a in arrays))
    return np.array([fn(*p) for p in points], dtype=float).reshape(arrays[0].shape)


def _abs2(alpha: complex) -> float:
    """|alpha|^2, refused as a validation error where alpha is not finite or
    |alpha|^2 overflows a float."""
    try:
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError(f"amplitude {alpha!r} is not finite")
        return abs(alpha) ** 2
    except OverflowError:
        raise ValueError(f"amplitude {alpha!r} is too large: |alpha|^2 overflows a float") from None


def chi(lam: float, r: int) -> float:
    """Geometric weight (1 - lam**2) lam**(2 r) of the r-th Fock level."""
    _check_squeezing(lam)
    _check_integer(r, "level index", 0)
    return (1 - lam**2) * lam ** (2 * r)


def chi_vector(lam, levels: int) -> np.ndarray:
    """chi(lam, r) for r < levels; an array of lam gives one row per value."""
    _check_squeezing(lam)
    levels = _check_integer(levels, "levels", 0)
    weight = np.expand_dims(_per_point(lambda v: 1 - v**2, lam), -1)
    return weight * np.expand_dims(lam, -1) ** (2 * np.arange(levels))


def coherent_ket(alpha: complex, cutoff) -> FockVector:
    """Coherent state |alpha>, amplitudes exp(-|a|^2/2) a^n / sqrt(n!).

    The Poisson tail beyond the cutoff shows up as a squared norm
    slightly below one; callers pick the cutoff accordingly.
    """
    cutoff = as_cutoff(cutoff)
    d = cutoff.levels
    amps = np.zeros(d, dtype=complex)
    amps[0] = math.exp(-_abs2(alpha) / 2)
    for n in range(1, d):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockVector(amps, 1, cutoff)


def tmsv_ket(lam: float, cutoff) -> FockVector:
    """Two-mode squeezed vacuum sqrt(1-lam^2) sum_n (-lam)^n |n,n>."""
    _check_squeezing(lam)
    cutoff = as_cutoff(cutoff)
    d = cutoff.levels
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = math.sqrt(1 - lam**2) * (-lam) ** np.arange(d)
    return FockVector(amps, 2, cutoff)


def thermal_state(lam: float, cutoff) -> DensityOperator:
    """Thermal state with mean photon number lam^2/(1-lam^2), diagonal weights chi(lam, m)."""
    cutoff = as_cutoff(cutoff)
    d = cutoff.levels
    op = FockOperator(np.diag(chi_vector(lam, d)).astype(complex), 1, cutoff)
    return DensityOperator(op, trace_deficit=lam ** (2 * d))


def number_ket(n: int, cutoff) -> FockVector:
    cutoff = as_cutoff(cutoff)
    amps = np.zeros(cutoff.levels, dtype=complex)
    amps[_check_level(n, cutoff.levels)] = 1.0
    return FockVector(amps, 1, cutoff)


def pure_density(ket: FockVector) -> DensityOperator:
    """|psi><psi| with the truncation-tail deficit 1 - <psi|psi>."""
    mat = np.outer(ket.amplitudes, ket.amplitudes.conj())
    deficit = max(0.0, 1.0 - ket.norm() ** 2)
    return DensityOperator(FockOperator(mat, ket.modes, ket.cutoff), trace_deficit=deficit)


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, DensityOperator):
        return a.op.matrix
    if isinstance(a, FockOperator):
        return a.matrix
    return np.asarray(a)


def trace_norm(a) -> float:
    """Sum of singular values; for a Hermitian input, the sum of |eigenvalues|."""
    mat = _as_matrix(a)
    if not np.all(np.isfinite(mat)):
        raise ValueError("trace_norm input contains non-finite entries")
    if np.abs(mat - mat.conj().T).max() <= 1e-12 * max(1.0, float(np.abs(mat).max())):
        return float(np.abs(np.linalg.eigvalsh(mat)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def _psd_root(mat: np.ndarray, tol: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh(mat)
    if evals.min() < -tol:
        raise ValueError(f"state has negative eigenvalue {evals.min():.3e} beyond tolerance {tol:.1e}")
    return (vecs * np.sqrt(np.clip(evals, 0, None))) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator, tol: float = 1e-8) -> float:
    """Uhlmann fidelity Tr[sqrt(sqrt(s) r sqrt(s))]^2 of two (near-)PSD states.

    Evaluated as the squared nuclear norm of sqrt(r) sqrt(s), which avoids
    squaring roundoff noise from near-kernel eigenvalues.
    """
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError("fidelity requires states on the same truncated space")
    product = _psd_root(r, tol) @ _psd_root(s, tol)
    return float(np.linalg.svd(product, compute_uv=False).sum() ** 2)


def mean_photon_number(rho: DensityOperator) -> float:
    """First moment sum_n n <n|rho|n> of a single-mode state."""
    if rho.op.modes != 1:
        raise ValueError("mean_photon_number expects a single-mode state")
    diag = np.diag(rho.op.matrix).real
    return float(np.dot(np.arange(diag.size), diag))


def partial_trace(op: FockOperator, keep) -> FockOperator:
    """Trace out all modes not listed in `keep` (indices into the mode order)."""
    keep = sorted(keep)
    k, d = op.modes, op.cutoff.levels
    if any(not 0 <= m < k for m in keep):
        raise ValueError("keep indices outside mode range")
    tensor = op.matrix.reshape((d,) * (2 * k))
    drop = [m for m in range(k) if m not in keep]
    for n_done, m in enumerate(drop):
        ax = m - n_done
        kk = k - n_done
        tensor = np.trace(tensor, axis1=ax, axis2=ax + kk)
    kept = len(keep)
    dim = d**kept
    return FockOperator(tensor.reshape(dim, dim), kept, op.cutoff)


def permute_modes(matrix: np.ndarray, perm, levels: int) -> np.ndarray:
    """Reorder tensor factors: output mode i is input mode perm[i]."""
    k = len(perm)
    tensor = matrix.reshape((levels,) * (2 * k))
    axes = list(perm) + [p + k for p in perm]
    out = np.transpose(tensor, axes)
    dim = levels**k
    return np.ascontiguousarray(out.reshape(dim, dim))

