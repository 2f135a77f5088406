"""Generic N-port channel machinery and the three-port closed forms.

The measurement operator decomposes over invariant sectors labelled by
multisets of N-1 level indices.  Within a sector, the resource overlap
structure reduces to a finite Hermitian contraction matrix Gamma built
from the sector eigenproblem; channel outputs are weighted sums of
specific Gamma entries over all multisets up to a truncation cap.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import DensityOperator, FockOperator, _per_point, as_cutoff, chi_vector
from .two_port import _BLOCK_ELEMS, ChannelParams, _diag_tail_bound, _inv_root, omega

__all__ = [
    "MARKER",
    "Arrangements",
    "SectorBasis",
    "enumerate_multisets",
    "sector_matrix",
    "eta_basis",
    "gamma",
    "gamma_from_basis",
    "gamma_mm_closed",
    "gamma_lm_closed",
    "lm_closed_basis",
    "default_cap",
    "NPortChannel",
    "ThreePortChannel",
    "make_channel",
    "apply_state_nport",
    "input_output_fidelity",
]

MARKER = -1  # slot that carries the summed level index in an arrangement
CLUSTER_TOL = 1e-9  # relative eigenvalue separation treated as degenerate
_STACK_ELEMS = 1 << 12  # Gamma entries per stacked batch, which bounds its memory


def enumerate_multisets(ports: int, cap: int) -> list[tuple[int, ...]]:
    """All multisets of ports-1 levels drawn from 0..cap, sorted ascending,
    listed once each in lexicographic order."""
    if ports < 2:
        raise ValueError("at least two ports are required")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return list(itertools.combinations_with_replacement(range(cap + 1), ports - 1))


class Rotations(NamedTuple):
    """Port-rotation tables of an `Arrangements`, m = size / N.

    perm[j, p]: canonical index of marker-first arrangement p rotated so
    that its marker sits in slot j; the pair (j, p) is the rotation order.
    hop[d-1, p']: marker-first arrangement reached from p' by swapping its
    marker with slot d and rotating the marker back to slot 0.
    slot[d-1, p']: unique-level index of the value in slot d of p'.
    """

    perm: np.ndarray
    hop: np.ndarray
    slot: np.ndarray


class Arrangements:
    """Distinct orderings of the marker slot together with the multiset values.

    Arrangements are stored in lexicographic order of their slot
    sequences, with the marker sorting before any level value.  This
    fixes the row/column convention of every Gamma matrix.

    Rotating the ports maps arrangements to arrangements, and since the
    marker occurs once each rotation orbit has N members, exactly one of
    them marker-first.  `rotations` holds the tables that relabel every
    arrangement as (marker slot j, marker-first p) and turn marker swaps
    into permutations of the marker-first arrangements.
    """

    def __init__(self, multiset):
        self.multiset = tuple(sorted(multiset))
        self.seqs = tuple(sorted(set(itertools.permutations((MARKER,) + self.multiset))))
        self.index = {s: i for i, s in enumerate(self.seqs)}
        self.ptilde = tuple(i for i, s in enumerate(self.seqs) if s[0] == MARKER)
        # swaps[i][v] = arrangements reached from i by exchanging the marker
        # with one slot holding value v (identity excluded)
        self.swaps = [
            {v: tuple(self._swap(s, q) for q, x in enumerate(s) if x == v) for v in set(self.multiset)}
            for s in self.seqs
        ]

    def _swap(self, seq, q) -> int:
        """Index of `seq` with its marker and slot q exchanged."""
        t = list(seq)
        t[seq.index(MARKER)], t[q] = seq[q], MARKER
        return self.index[tuple(t)]

    @property
    def size(self) -> int:
        return len(self.seqs)

    @property
    def ports(self) -> int:
        return len(self.multiset) + 1

    @functools.cached_property
    def rotations(self) -> Rotations:
        """Port-rotation tables (`Rotations`), built once per layout."""
        n = self.ports
        first = [self.seqs[i] for i in self.ptilde]
        rank = {s: p for p, s in enumerate(first)}
        level = {v: r for r, v in enumerate(sorted(set(self.multiset)))}
        perm = np.array([[self.index[s[n - j :] + s[: n - j]] for s in first] for j in range(n)])
        hop = np.empty((n - 1, len(first)), dtype=np.intp)
        slot = np.empty((n - 1, len(first)), dtype=np.intp)
        for d in range(1, n):
            for p, s in enumerate(first):
                t = (s[d],) + s[1:d] + (MARKER,) + s[d + 1 :]
                hop[d - 1, p] = rank[t[d:] + t[:d]]
                slot[d - 1, p] = level[s[d]]
        return Rotations(perm, hop, slot)


def _swap_weights(levels: np.ndarray, lam_y: float) -> np.ndarray:
    """(1-lam_y^2) lam_y^(2m) for every unique level m of `levels`."""
    if not 0 < lam_y < 1:
        raise ValueError("lambda_y must lie in (0, 1)")
    ly2 = lam_y**2
    # scalar pow per level: numpy's vector power can differ in the last bit
    return (1 - ly2) * np.array([ly2**m for m in range(int(levels.max()) + 1)])[levels]


def _rotation_blocks(arr: Arrangements, levels: np.ndarray, lam_y: float) -> np.ndarray:
    """Blocks C_d of the sector matrices in rotation order, (b, N, m, m).

    Block (j, j') of H is C_(j-j' mod N): C_0 = I, and for d >= 1 C_d
    sends marker-first p' to hop[d-1, p'] with the swap weight of the
    level in slot d of p'."""
    perm, hop, slot = arr.rotations
    c = _swap_weights(levels, lam_y)
    n, m = perm.shape
    blocks = np.zeros((len(levels), n, m, m))
    blocks[:, 0] = np.eye(m)
    cols = np.arange(m)
    for d in range(1, n):
        blocks[:, d, hop[d - 1], cols] = c[:, slot[d - 1]]
    return blocks


def _block_circulant(blocks: np.ndarray) -> np.ndarray:
    """(b, N m, N m) stack whose block (j, j') is blocks[:, (j - j') mod N]."""
    b, n, m, _ = blocks.shape
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    return blocks[:, lag].swapaxes(2, 3).reshape(b, n * m, n * m)


def sector_matrix(multiset, lam_y: float) -> np.ndarray:
    """Finite Hermitian matrix whose spectrum gives the sector eigenvalues.

    Row Phi of H c reads c_Phi plus, for each unique value m, the weight
    (1-lam_y^2) lam_y^(2m) times the sum of c over the arrangements
    reached by swapping the marker of Phi with a slot holding m.  In the
    rotation order of `Arrangements.rotations` it is I + the swap blocks
    C_d placed block-circulantly, one scatter per slot d.
    """
    arr = multiset if isinstance(multiset, Arrangements) else Arrangements(multiset)
    perm, hop, slot = arr.rotations
    c = _swap_weights(np.array(sorted(set(arr.multiset))), lam_y)
    h = np.eye(arr.size)
    for d in range(1, arr.ports):
        # block (j, j - d): column (j - d, p') meets row (j, hop[d-1, p'])
        h[perm[:, hop[d - 1]], np.roll(perm, d, axis=0)] = c[slot[d - 1]]
    return h


@dataclass
class SectorBasis:
    """Orthonormal sector eigenbasis: column i of `etas` has eigenvalue
    `eigenvalues[i]`, coordinates indexed by the canonical arrangements."""

    multiset: tuple
    etas: np.ndarray
    eigenvalues: np.ndarray
    arrangements: Arrangements

    def __post_init__(self):
        if self.etas.shape != (self.arrangements.size, self.arrangements.size):
            raise ValueError("basis shape does not match the arrangement count")


def _canonical_subspace_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block): Gram-Schmidt of the
    subspace projector applied to the standard basis."""
    proj = block @ block.conj().T
    dim, k = block.shape
    out = []
    for i in range(dim):
        v = proj[:, i].copy()
        for u in out:
            v -= u * (u.conj() @ v)
        n = np.linalg.norm(v)
        if n > 1e-8:
            v /= n
            lead = v[np.argmax(np.abs(v) > 1e-8)]
            v *= np.conj(lead) / abs(lead)
            out.append(v)
        if len(out) == k:
            break
    if len(out) != k:
        raise RuntimeError("degenerate-cluster orthogonalization failed")
    return np.column_stack(out)


def eta_basis(multiset, lam_y: float) -> SectorBasis:
    """Sector eigenbasis with deterministic ordering (descending eigenvalue,
    construction order within degenerate clusters).

    Multisets with a single unique value get the discrete-Fourier
    eigenvectors exactly; three-port two-value sectors get the analytic
    basis; everything else is diagonalized numerically with a
    deterministic within-cluster orthonormalization.
    """
    arr = Arrangements(multiset)
    n = arr.ports
    uniq = sorted(set(arr.multiset))
    if len(uniq) == 1:
        m = uniq[0]
        chi_m = (1 - lam_y**2) * lam_y ** (2 * m)
        js = np.arange(n)
        etas = np.exp(2j * np.pi * np.outer(js, js) / n) / math.sqrt(n)
        eigenvalues = np.full(n, 1 - chi_m)
        eigenvalues[0] = 1 + (n - 1) * chi_m
        return SectorBasis(arr.multiset, etas, eigenvalues, arr)
    if n == 3 and len(uniq) == 2:
        return lm_closed_basis(uniq[1], uniq[0], lam_y)
    h = sector_matrix(arr, lam_y)
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w)
    w, v = w[order], v[:, order].astype(complex)
    scale = max(1.0, float(np.abs(w).max()))
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) <= CLUSTER_TOL * scale:
            j += 1
        if j - i > 1:
            v[:, i:j] = _canonical_subspace_basis(v[:, i:j])
        else:
            lead = v[np.argmax(np.abs(v[:, i]) > 1e-8), i]
            v[:, i] *= np.conj(lead) / abs(lead)
        i = j
    return SectorBasis(arr.multiset, v, w, arr)


def gamma(multiset, lam_y: float) -> np.ndarray:
    """Hermitian sector contraction matrix.

    Basis-free form: H^(-1/2) P~ H^(-1/2) - H^(-1)/N, with P~ the diagonal
    projector onto marker-first arrangements.  This equals the eigenbasis
    contraction for any orthonormal eigenbasis, which resolves the
    degenerate-cluster ambiguity of the pairwise form.  It is computed
    from the Fourier blocks of H under port rotation (`_gamma_stack`).
    """
    arr = multiset if isinstance(multiset, Arrangements) else Arrangements(multiset)
    return _gamma_stack(arr, np.array([sorted(set(arr.multiset))]), lam_y)[0]


def _gamma_stack(arr: Arrangements, levels: np.ndarray, lam_y: float) -> np.ndarray:
    """`gamma` of every sector laid out like `arr`, one per row of `levels`
    (the unique levels, ascending), in canonical coordinates.

    In rotation order H is block-circulant in the swap blocks C_d, so a
    real FFT over d splits it into floor(N/2)+1 Hermitian m x m blocks
    H_k (H_(N-k) is their conjugate), diagonalised by one stacked eigh.
    The inverse FFT gives the blocks S_d of H^(-1/2) in the marker-first
    column and the blocks of H^(-1); with B the stack of the S_d,
    Gamma = B B^T - circ(H^(-1))/N, scattered back to canonical order.
    """
    n = arr.ports
    hk = np.fft.rfft(_rotation_blocks(arr, levels, lam_y), axis=1)
    w, v = np.linalg.eigh(hk)
    if w.min() <= 0:
        bad = levels[np.argmin(w.min(axis=(1, 2)))].tolist()
        raise RuntimeError(f"sector matrix with levels {bad} is not positive definite")
    vh = v.conj().swapaxes(-1, -2)
    column = np.fft.irfft((v / np.sqrt(w)[..., None, :]) @ vh, n, axis=1)
    column = column.reshape(len(levels), arr.size, -1)
    g = column @ column.swapaxes(1, 2)
    g -= _block_circulant(np.fft.irfft((v / w[..., None, :]) @ vh, n, axis=1)) / n
    back = np.argsort(arr.rotations.perm, axis=None)
    return g[:, back[:, None], back]


def gamma_from_basis(basis: SectorBasis) -> np.ndarray:
    """Gamma contracted from an explicit eigenbasis.

    The uniform 1/N share of each eigenvector's marker-first weight is
    subtracted; with rotation-covariant bases that weight is exactly 1/N
    and the subtraction reduces to excluding the diagonal pairs.
    """
    arr = basis.arrangements
    n = arr.ports
    pt = list(arr.ptilde)
    e = basis.etas
    s = e[pt, :].conj().T @ e[pt, :]  # s[alpha, beta]
    w = (s - np.eye(arr.size) / n) / np.sqrt(np.outer(basis.eigenvalues, basis.eigenvalues))
    return e @ w @ e.conj().T


# ---------------------------------------------------------------------------
# three-port closed forms, written in the analytic label order; the mapping
# to the canonical arrangement order lives in lm_closed_basis
# ---------------------------------------------------------------------------

_MM_NUM = np.array([[4, 1, 1], [1, -2, -2], [1, -2, -2]], dtype=float)
_MM_DEN = np.array([[2, -1, -1], [-1, -1, 2], [-1, 2, -1]], dtype=float)


def gamma_mm_closed(m, lam_y: float) -> np.ndarray:
    """Closed-form Gamma for a repeated-value three-port sector {m, m}; an
    array of levels gives the stack of their Gammas."""
    chi_m = ((1 - lam_y**2) * lam_y ** (2 * np.asarray(m)))[..., None, None]
    xi1, xi2 = 1 + 2 * chi_m, 1 - chi_m
    return (_MM_NUM / np.sqrt(xi1 * xi2) + _MM_DEN / xi2) / 9


def _lm_phase(l, m, lam_y: float) -> np.ndarray:
    # lam_y^(2(l-m)) overflows past expo = 300, where the phase has saturated
    t = np.exp(np.minimum(2.0 * (np.asarray(l) - m) * math.log(lam_y), 300))
    return 4 * math.pi / 3 - np.arctan2(t * math.sin(2 * math.pi / 3), 1 + t * math.cos(2 * math.pi / 3))


_LM_LABEL_ORDER = lambda l, m: [
    (MARKER, l, m), (l, m, MARKER), (m, MARKER, l), (MARKER, m, l), (m, l, MARKER), (l, MARKER, m)
]


def _lm_basis(l, m, lam_y: float):
    """Analytic eigenvectors as the columns of `vecs` (label order), their
    eigenvalues xi[1..6] and the phase factor e; level arrays give stacks."""
    e = np.exp(1j * _lm_phase(l, m, lam_y))
    a = np.exp(2j * np.pi / 3 * np.arange(3)) / math.sqrt(6)
    top = np.column_stack([np.full(3, 1 / math.sqrt(6))] * 2 + [a, a, a.conj(), a.conj()])
    sign = np.stack(np.broadcast_arrays(1, -1, e, -e, e.conj(), -e.conj()), axis=-1)
    vecs = np.concatenate(np.broadcast_arrays(top, top * sign[..., None, :]), axis=-2)
    ly2 = lam_y**2
    l, m = np.asarray(l), np.asarray(m)
    s = np.sqrt(ly2 ** (2 * l) - ly2 ** (l + m) + ly2 ** (2 * m))
    big, small = (1 - ly2) * (ly2**l + ly2**m), (1 - ly2) * s
    xi = {1: 1 + big, 2: 1 - big, 3: 1 + small, 5: 1 + small, 4: 1 - small, 6: 1 - small}
    return vecs, xi, e


def _lm_vectors(l, m, lam_y: float):
    vecs, xi, e = _lm_basis(l, m, lam_y)
    return {k: vecs[..., k - 1] for k in range(1, 7)}, xi, e


def gamma_lm_closed(l, m, lam_y: float) -> np.ndarray:
    """Closed-form Gamma for a distinct-value three-port sector {l, m}; level
    arrays give the stack of their Gammas.

    Assembled from the analytic eigenbasis pair by pair; all twelve
    eigenvector pairs with nonzero marker-first overlap contribute,
    including the pair between the two degenerate minus-branches.
    """
    if np.any(np.asarray(l) == m):
        raise ValueError("use gamma_mm_closed for repeated values")
    vecs, xi, e = _lm_basis(l, m, lam_y)  # column k-1 holds eta[k]
    # coef[alpha-1, beta-1] weighs eta[alpha] eta[beta]^H; beta never exceeds 4
    coef = np.zeros(vecs.shape[:-1] + (4,), complex)
    for pairs, c in [
        (((1, 3), (5, 1)), (1 + e) / np.sqrt(xi[1] * xi[3])),
        (((1, 4), (6, 1)), (1 - e) / np.sqrt(xi[1] * xi[4])),
        (((2, 3), (5, 2)), (1 - e) / np.sqrt(xi[2] * xi[3])),
        (((2, 4), (6, 2)), (1 + e) / np.sqrt(xi[2] * xi[4])),
        (((5, 3),), (1 + e**2) / xi[3]),
        (((6, 3), (5, 4)), (1 - e**2) / np.sqrt(xi[3] * xi[4])),
        (((6, 4),), (1 + e**2) / xi[4]),
    ]:
        for a, b in pairs:
            coef[..., a - 1, b - 1] = c / 6
    g = vecs @ coef
    del coef
    g = g @ vecs[..., :4].conj().swapaxes(-1, -2)
    g += g.conj().swapaxes(-1, -2)
    return g


def lm_closed_basis(l: int, m: int, lam_y: float) -> SectorBasis:
    """Analytic eigenbasis of a three-port {l, m} sector in canonical
    arrangement coordinates, ordered by descending eigenvalue."""
    if l == m:
        raise ValueError("values must be distinct")
    arr = Arrangements((min(l, m), max(l, m)))
    vecs, xi, _ = _lm_basis(l, m, lam_y)
    order = (1, 3, 5, 4, 6, 2)  # descending eigenvalue, construction order in ties
    etas = np.zeros((6, 6), complex)
    etas[[arr.index[s] for s in _LM_LABEL_ORDER(l, m)]] = vecs[:, [k - 1 for k in order]]
    return SectorBasis(arr.multiset, etas, np.array([xi[k] for k in order]), arr)


# ---------------------------------------------------------------------------
# channel evaluators
# ---------------------------------------------------------------------------


def default_cap(params: ChannelParams, tol: float = 1e-10) -> int:
    """Smallest multiset cap whose geometric remainder falls below tol."""
    lx, n = params.lambda_x, params.ports
    if lx == 0:
        return 0
    cap = 0
    while (n - 1) * lx ** (2 * (cap + 1)) / (1 - lx**2) >= tol:
        cap += 1
        if cap > 100_000:
            raise RuntimeError("cap search failed to converge")
    return cap


def _orbit_segments(arr: Arrangements):
    """Flat Gamma indices and `np.add.reduceat` starts whose segment sums
    are the orbit sums of a sector with this multiplicity pattern.

    Slot r < k stands for the r-th unique level and slot k for a level the
    sector does not hold; orbit(t, v) is t plus the arrangements reached by
    swapping its marker with a slot holding v (t alone in slot k).  The
    segments give, row-major, Gamma[orbit(i, b), orbit(i, a)] summed over
    marker-first i for slots a, b, then Gamma[t, orbit(t, a)] summed over
    the t starting with level n for slots a and levels n.
    """
    size = arr.size
    uniq = sorted(set(arr.multiset))
    slots = uniq + [None]

    def orbit(t, v):
        return (t,) if v is None else (t, *arr.swaps[t][v])

    segments = [
        [r * size + c for i in arr.ptilde for r in orbit(i, b) for c in orbit(i, a)]
        for a in slots
        for b in slots
    ]
    segments += [
        [t * size + c for t, seq in enumerate(arr.seqs) if seq[0] == n for c in orbit(t, a)]
        for a in slots
        for n in uniq
    ]
    return np.concatenate(segments), np.cumsum([0] + [len(x) for x in segments[:-1]])


def _pattern_walk(ports: int, cap: int):
    """(layout, levels) per multiplicity pattern of the sectors up to `cap`,
    in the order `enumerate_multisets` first meets them.  The layout is the
    pattern's first sector, on levels 0..k-1: it starts at 0 and steps by 0
    or 1, so layouts come in the lexicographic order of those steps.  Row i
    of `levels` holds the k unique levels of the pattern's i-th sector."""
    for steps in itertools.product((0, 1), repeat=ports - 2):
        layout = list(itertools.accumulate(steps, initial=0))
        if layout[-1] <= cap:
            yield layout, np.array(list(itertools.combinations(range(cap + 1), layout[-1] + 1)))


class NPortChannel:
    """Phase-covariant N-port channel held as level sums.

    |a><b| (a != b) goes to C[a, b] |a><b| and |a><a| to the diagonal state
    T[a, :]; `arrays(levels)` returns both.  With c0 = N (1-lx^2)^N (1-ly^2)
    and q_a = (lx ly)^a, C[a, b] = c0 q_a q_b S[a, b] and
    T[a, n] = chi_{x,n} + c0 q_a^2 F[a, n], F[a, a] = S[a, a].  Otherwise S
    and F add lx^(2 sum(ms)) times orbit sums of the Gamma of each multiset
    ms up to `cap`:

        S[a, b]  sums Gamma[orbit(i, b), orbit(i, a)] over marker-first i
        F[a, n]  sums Gamma[t, orbit(t, a)] over t that start with level n

    No sector holds a level above the cap, so index cap+1 of the stored
    sums stands for them all.  Sectors sharing a multiplicity pattern share
    one arrangement layout, so the build walks the patterns
    (`_pattern_walk`) with one array of levels and one gather of weights
    each.  Every batch's Gammas come as one stack from
    `gammas(arr, levels, lam_y)`, in the canonical coordinates of the
    layout `arr`; by default from `_gamma_stack`'s stacked `eigh`.
    `closed_two_port` builds the sums from the two-port closed form, which
    also takes a parameter grid: `arrays` then stacks C and T over it.
    """

    def __init__(self, params: ChannelParams, cap: int | None = None, gammas=_gamma_stack):
        self.params = params
        self.cap = default_cap(params) if cap is None else int(cap)
        self.sectors = enumerate_multisets(params.ports, self.cap)
        self._gamma_max = 0.0
        # lx^(2 t) per level total t, scalar pows: numpy's vector power can differ in the last bit
        powers = np.array([params.lambda_x ** (2 * t) for t in range((params.ports - 1) * self.cap + 1)])
        top = self.cap + 2  # sums in row/column `top` add to every level 0..cap+1
        s = np.zeros((top + 1, top + 1), dtype=complex)
        f = np.zeros((top + 1, top), dtype=complex)
        for layout, levels in _pattern_walk(params.ports, self.cap):
            k = levels.shape[1]
            arr = Arrangements(layout)  # levels relabelled 0..k-1 in order keep every sector's arrangement order
            idx, starts = _orbit_segments(arr)
            weights = powers[levels[:, layout].sum(axis=1)]
            step = max(1, _STACK_ELEMS // arr.size**2)
            for lo in range(0, len(levels), step):
                part = slice(lo, lo + step)
                g = gammas(arr, levels[part], params.lambda_y)
                self._gamma_max = max(self._gamma_max, float(np.abs(g).max()))
                sums = np.add.reduceat(g.reshape(len(g), -1)[:, idx], starts, axis=1) * weights[part, None]
                ss = sums[:, : (k + 1) ** 2].reshape(-1, k + 1, k + 1)
                sf = sums[:, (k + 1) ** 2 :].reshape(-1, k + 1, k)
                # slot k (a level the sector lacks) goes to `top`, so the
                # held slots carry their difference from it
                ss[:, :k] -= ss[:, k:]
                ss[:, :, :k] -= ss[:, :, k:]
                sf[:, :k] -= sf[:, k:]
                rows = np.column_stack([levels[part], np.full(len(g), top)])
                np.add.at(s, (rows[:, :, None], rows[:, None, :]), ss)
                np.add.at(f, (rows[:, :, None], levels[part, None, :]), sf)
        s = s[:top, :top] + s[:top, top:] + s[top:, :top] + s[top, top]
        f = f[:top] + f[top]
        if max(np.abs(s.imag).max(), np.abs(f.imag).max()) > 1e-10 * max(1.0, np.abs(s).max()):
            raise RuntimeError("sector orbit sums unexpectedly complex")
        self._s, self._f = s.real, f.real

    @classmethod
    def closed_two_port(cls, params: ChannelParams) -> "NPortChannel":
        """Two-port channel from the closed form: no cap, Omega for the sum
        shared by all levels and one analytic term per level.  `params` may
        be a parameter grid, whose Omegas come from one pass."""
        if params.ports != 2:
            raise ValueError("the closed form is the two-port case")
        channel = cls.__new__(cls)
        channel.params, channel.cap, channel.sectors = params, None, []
        om, channel._omega_tail = omega(params)
        channel._base = om / _per_point(lambda lx: 2 * (1 - lx**2), params.lambda_x)
        return channel

    def _subgrid(self, index) -> "NPortChannel":
        """The closed-form channel on the points `index` of the flattened
        parameter grid, sharing the grid's Omegas."""
        p = self.params
        channel = self.__class__.__new__(self.__class__)
        channel.params = ChannelParams(np.ravel(p.lambda_x)[index], np.ravel(p.lambda_y)[index], p.ports)
        channel.cap, channel.sectors = None, []
        channel._base, channel._omega_tail = np.ravel(self._base)[index], np.ravel(self._omega_tail)[index]
        return channel

    def _sums(self, levels: int):
        """S and F on levels 0..levels-1, F with its diagonal unset; stacked
        over the leading axes of a parameter grid."""
        if self.cap is None:  # two-port closed form: sector {m} adds only to level m
            m = np.arange(levels)
            lx, ly = (np.expand_dims(v, -1) for v in (self.params.lambda_x, self.params.lambda_y))
            own = -0.5 * lx ** (2 * m) * _inv_root(ly, m)
            s = np.expand_dims(self._base, (-2, -1)) + own[..., None] * np.eye(levels)
            return s, np.repeat(own[..., None, :], levels, axis=-2)
        ix = np.ix_(*[np.minimum(np.arange(levels), self.cap + 1)] * 2)
        return self._s[ix], self._f[ix]

    def arrays(self, levels: int) -> tuple[np.ndarray, np.ndarray]:
        """(C, T) on levels 0..levels-1, with a zero diagonal in C; over a
        parameter grid, stacks of them along its leading axes."""
        p = self.params
        n = p.ports
        s, f = self._sums(levels)
        diag = np.arange(levels)
        f[..., diag, diag] = s[..., diag, diag]
        c0 = _per_point(lambda lx, ly: n * (1 - lx**2) ** n * (1 - ly**2), p.lambda_x, p.lambda_y)
        c0 = np.expand_dims(c0, (-2, -1))
        q = np.expand_dims(p.lambda_x * p.lambda_y, -1) ** np.arange(levels)
        c = c0 * (q[..., :, None] * q[..., None, :]) * s
        c[..., diag, diag] = 0.0
        return c, np.expand_dims(chi_vector(p.lambda_x, levels), -2) + c0 * (q * q)[..., :, None] * f

    def diagonal_profile(self, a: int, levels: int) -> np.ndarray:
        """Diagonal of the output for an |a><a| input, truncated to `levels`."""
        return self.arrays(levels)[1][a]

    def tail_bound(self, levels: int) -> float:
        """Declared bound on the output mass missed by the cap and level cutoffs."""
        p = self.params
        lx, n = p.lambda_x, p.ports
        if self.cap is None:
            return _diag_tail_bound(p, levels) + p.g * self._omega_tail
        if lx == 0:
            return 0.0
        geo = (n - 1) * (lx ** (2 * (self.cap + 1)) + lx ** (2 * levels)) / (1 - lx**2) ** (n - 1)
        per_sector = self._gamma_max * math.factorial(n - 1) * (n + 1) ** 2
        pref = n * (1 - lx**2) ** n * (1 - p.lambda_y**2)
        return pref * per_sector * geo + lx ** (2 * levels)

    def number_element(self, a: int, b: int, cutoff) -> FockOperator:
        cutoff = as_cutoff(cutoff)
        d = cutoff.levels
        if not (0 <= a < d and 0 <= b < d):
            raise ValueError(f"indices ({a}, {b}) outside cutoff {d}")
        c, t = self.arrays(d)
        mat = np.zeros((d, d), dtype=complex)
        if a != b:
            mat[a, b] = c[a, b]
        else:
            np.fill_diagonal(mat, t[a])
        return FockOperator(mat, 1, cutoff, meta={"tail_bound": self.tail_bound(d), "cap": self.cap})


def _closed_gamma_stack(arr: Arrangements, levels: np.ndarray, lam_y: float) -> np.ndarray:
    """`_gamma_stack` of a three-port pattern from the closed forms: {m, m}
    sectors, or {l, m} sectors (l < m) permuted from the analytic label order
    to the canonical arrangement order of `arr`."""
    if levels.shape[1] == 1:
        return gamma_mm_closed(levels[:, 0], lam_y)
    order = np.argsort([arr.index[s] for s in _LM_LABEL_ORDER(1, 0)])
    return gamma_lm_closed(levels[:, 1], levels[:, 0], lam_y)[:, order[:, None], order]


def ThreePortChannel(params: ChannelParams, cap: int | None = None) -> NPortChannel:
    """Three-port channel built from the closed-form sector Gammas."""
    if params.ports != 3:
        raise ValueError("ThreePortChannel requires ports == 3")
    return NPortChannel(params, cap, gammas=_closed_gamma_stack)


def make_channel(params: ChannelParams, cap: int | None = None) -> NPortChannel:
    """Closed forms at two (no cap) and three ports, numeric Gammas beyond.
    Only the two-port closed form takes a parameter grid."""
    if params.ports == 2:
        return NPortChannel.closed_two_port(params)
    if np.ndim(params.lambda_x):
        raise ValueError("a parameter grid is evaluated by the two-port closed form only")
    if params.ports == 3:
        return ThreePortChannel(params, cap)
    return NPortChannel(params, cap)


def apply_state_nport(
    rho_in: DensityOperator,
    params: ChannelParams,
    cap: int | None = None,
    cutoff=None,
    channel=None,
) -> DensityOperator:
    """Apply the channel to a one-mode state, or to the first (signal) mode
    of a signal-idler pair while leaving the idler untouched."""
    if channel is None:
        channel = make_channel(params, cap)
    if not rho_in.op.is_hermitian(tol=1e-10 * max(1.0, float(np.abs(rho_in.matrix).max()))):
        raise ValueError("input state must be Hermitian")
    modes = rho_in.op.modes
    d_in = rho_in.cutoff.levels
    out_cut = rho_in.cutoff if cutoff is None else as_cutoff(cutoff)
    levels = out_cut.levels
    if modes not in (1, 2):
        raise ValueError("apply_state_nport expects a one- or two-mode input")
    if levels < d_in or (modes == 2 and levels != d_in):
        raise ValueError("the output cutoff must cover the input, and equal it for two modes")
    idler = d_in if modes == 2 else 1
    rho = np.zeros((levels, idler, levels, idler), dtype=complex)  # (s, i, s', j)
    rho[:d_in, :, :d_in, :] = rho_in.matrix.reshape(d_in, idler, d_in, idler)
    c, t = channel.arrays(levels)
    out = c[:, None, :, None] * rho
    diag = np.arange(levels)
    out[diag, :, diag, :] = np.einsum("sn,sij->nij", t, rho[diag, :, diag, :])
    out = out.reshape(levels * idler, levels * idler)
    deficit = rho_in.trace_deficit + channel.tail_bound(levels)
    return DensityOperator(FockOperator(out, modes, out_cut), trace_deficit=deficit)


def input_output_fidelity(
    kind: str,
    params: ChannelParams,
    lambda_in: float | None = None,
    levels: int | None = None,
    cap: int | None = None,
    channel=None,
):
    """Fidelity between an entangled input and the output after the signal
    half passes through the channel.

    kind 'tmsv' needs `lambda_in` in [0, 1) and an output truncation of at
    least two levels; 'bell2' and 'bell3' compare on the exact code
    subspace, which the channel maps outside of only diagonally, and ignore
    both.  Returns (fidelity, metadata); over a two-port parameter grid the
    fidelity is an array, each entry bitwise the one its point gets alone.
    """
    if kind == "tmsv":
        if lambda_in is None or levels is None:
            raise ValueError("tmsv fidelity needs lambda_in and a level cutoff")
        if not 0 <= lambda_in < 1:
            raise ValueError(f"lambda_in must lie in [0, 1), got {lambda_in}")
        levels = as_cutoff(levels).levels
        lam2 = lambda_in**2
        w = lam2 ** np.arange(levels)
        norm, input_tail = (1 - lam2) ** 2, lam2**levels
    elif kind in ("bell2", "bell3"):
        levels = 2 if kind == "bell2" else 3
        w = np.ones(levels)
        norm, input_tail = 1 / levels**2, 0.0
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    if channel is None:
        channel = make_channel(params, cap)
    shape = np.shape(channel.params.lambda_x)
    if shape:  # slices of the grid, so the stacked level x level arrays stay small
        step = max(1, _BLOCK_ELEMS // levels**2)
        parts = [_fidelity(channel._subgrid(slice(i, i + step)), w, norm) for i in range(0, math.prod(shape), step)]
        fid = np.concatenate(parts).reshape(shape)
    else:
        fid = float(_fidelity(channel, w, norm))
    return fid, {"levels": levels, "cap": channel.cap, "input_tail": input_tail}


def _fidelity(channel: NPortChannel, w: np.ndarray, norm: float):
    """norm * (w C w + w^2 . diag T) on the levels of w."""
    c, t = channel.arrays(len(w))
    return norm * (_dot(np.matmul(w, c), w) + _dot(w**2, np.diagonal(t, axis1=-2, axis2=-1)))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v along the last axis, stacked over the leading ones.  Each is a
    row-times-column matmul, which numpy sums as a one-point dot product
    does; a stacked matrix-vector product can sum in another order."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]
