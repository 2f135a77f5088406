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
from .oracle import mib, require_memory
from .two_port import _BLOCK_ELEMS, ChannelParams, _check_point, _diag_tail_bound, _inv_root, omega

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
    "CAP_TOL",
    "default_cap",
    "NPortChannel",
    "ThreePortChannel",
    "make_channel",
    "apply_state_nport",
    "input_output_fidelity",
]

MARKER = -1  # slot that carries the summed level index in an arrangement
CAP_TOL = 1e-10  # geometric remainder that `default_cap` meets
BELL_LEVELS = {"bell2": 2, "bell3": 3}  # the Bell inputs of `input_output_fidelity` and the levels they span
_STACK_ELEMS = 1 << 18  # b sectors of a stacked batch have b size^2 <= this: their B, (b, size, size/N) float64, stays within 2 MiB


def enumerate_multisets(ports: int, cap: int) -> list[tuple[int, ...]]:
    """All multisets of ports-1 levels drawn from 0..cap, sorted ascending,
    listed once each in lexicographic order."""
    if ports < 2:
        raise ValueError("at least two ports are required")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return list(itertools.combinations_with_replacement(range(cap + 1), ports - 1))


class Arrangements:
    """Distinct orderings of the marker slot together with the multiset values.

    Arrangements are stored in lexicographic order of their slot
    sequences, with the marker sorting before any level value.  This
    fixes the row/column convention of every Gamma matrix.

    `swaps` holds every marker swap of every arrangement, from which the
    sector matrix (`sector_matrix`) and the orbit sums (`_orbit_segments`)
    are read.  With the marker as one letter and the copies of each level
    as letters of their own, an arrangement is also a coset of the copy
    permutations S_mu in S_N and a marker swap is a transposition of
    letters; `gamma_tables` holds what the S_N irreps make of that
    (`_gamma_tables`).
    """

    def __init__(self, multiset):
        self.multiset = tuple(sorted(multiset))
        self.seqs = tuple(sorted(set(itertools.permutations((MARKER,) + self.multiset))))
        self.index = {s: i for i, s in enumerate(self.seqs)}
        self.ptilde = tuple(i for i, s in enumerate(self.seqs) if s[0] == MARKER)

    @property
    def size(self) -> int:
        return len(self.seqs)

    @property
    def ports(self) -> int:
        return len(self.multiset) + 1

    @functools.cached_property
    def slot_level(self) -> np.ndarray:
        """(size, N): the unique-level index in every slot, -1 at the marker."""
        return _read_only(np.searchsorted((MARKER, *sorted(set(self.multiset))), np.array(self.seqs)) - 1)

    @functools.cached_property
    def _place(self) -> np.ndarray:
        """Slot place values of the arrangement keys: an arrangement's key
        has the digit slot_level + 1 (the marker 0) in base k + 1, k unique
        levels, so the keys ascend in `seqs` order."""
        return _read_only((len(set(self.multiset)) + 1) ** np.arange(self.ports - 1, -1, -1))

    @functools.cached_property
    def swaps(self) -> np.ndarray:
        """(size, N): the index of arrangement t with its marker and slot q
        exchanged, t itself at the marker's own slot.  The swap moves the
        key by (slot_level[t, q] + 1) (place[marker] - place[q]), and one
        `np.searchsorted` among the ascending keys finds every result."""
        code = self.slot_level + 1
        key = code @ self._place
        return _read_only(np.searchsorted(key, key[:, None] + code * (self._place[code.argmin(axis=1), None] - self._place)))

    @functools.cached_property
    def gamma_tables(self) -> GammaTables:
        """Irrep blocks and index tables of `_gamma_stack` (`GammaTables`),
        built on first read and kept by this `Arrangements`: for the layouts
        that `_layout_tables` keeps, once per process, otherwise once per
        build that reads them."""
        return _gamma_tables(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


def _swap_weights(levels: np.ndarray, lam_y: float) -> np.ndarray:
    """(1-lam_y^2) lam_y^(2m) for every unique level m of `levels`."""
    if not 0 < lam_y < 1:
        raise ValueError("lambda_y must lie in (0, 1)")
    ly2 = lam_y**2
    # scalar pow per level: numpy's vector power can differ in the last bit
    return (1 - ly2) * np.array([ly2**m for m in range(int(levels.max()) + 1)])[levels]


def sector_matrix(multiset, lam_y: float) -> np.ndarray:
    """Finite Hermitian matrix whose spectrum gives the sector eigenvalues.

    Row Phi of H c reads c_Phi plus, for each unique value m, the weight
    (1-lam_y^2) lam_y^(2m) times the sum of c over the arrangements
    reached by swapping the marker of Phi with a slot holding m: I plus
    the weights at (t, swaps[t, q]) over the level slots q
    (`Arrangements.swaps`).
    """
    arr = multiset if isinstance(multiset, Arrangements) else Arrangements(multiset)
    held = arr.slot_level >= 0
    c = _swap_weights(np.array(sorted(set(arr.multiset))), lam_y)
    h = np.eye(arr.size)
    h[held.nonzero()[0], arr.swaps[held]] = c[arr.slot_level[held]]
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


def eta_basis(multiset, lam_y: float) -> SectorBasis:
    """Sector eigenbasis, ordered by descending eigenvalue.

    Multisets with a single unique value get the discrete-Fourier
    eigenvectors exactly; three-port two-value sectors get the analytic
    basis; everything else gets the `eigh` basis of `sector_matrix`.
    Inside a degenerate cluster that basis is whichever one `eigh` returns:
    Gamma does not depend on the choice (`gamma`, `gamma_from_basis`).
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
    w, v = np.linalg.eigh(sector_matrix(arr, lam_y))
    return SectorBasis(arr.multiset, v[:, ::-1].astype(complex), w[::-1], arr)


def gamma(multiset, lam_y: float) -> np.ndarray:
    """Hermitian sector contraction matrix.

    Basis-free form: H^(-1/2) P~ H^(-1/2) - H^(-1)/N, with P~ the diagonal
    projector onto marker-first arrangements.  This equals the eigenbasis
    contraction for any orthonormal eigenbasis, which resolves the
    degenerate-cluster ambiguity of the pairwise form.  It is computed
    from the S_N irrep blocks of H (`_gamma_stack`).
    """
    arr = multiset if isinstance(multiset, Arrangements) else Arrangements(multiset)
    size = arr.size
    return _gamma_stack(arr, np.array([sorted(set(arr.multiset))]), lam_y, np.arange(size**2)).reshape(size, size)


# ---------------------------------------------------------------------------
# S_N irreps in Young's orthogonal form.  Letters are 0..N-1, s_i = (i i+1),
# and t_j = s_j s_(j+1) ... s_(k-2) is the cycle of S_k that sends k-1 to j.
# Element j (k-1)! + i of S_k is t_j h_i, with h_i the i-th element of
# S_(k-1) on the letters 0..k-2 (`_elements`, `_rank`); the identity is the
# last element, t_j the last of its coset.
# ---------------------------------------------------------------------------


def _partitions(n: int, most: int | None = None) -> list:
    """Partitions of n with parts at most `most`, in decreasing lexicographic order."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, most or n), 0, -1) for rest in _partitions(n - p, p)]


def _corners(shape: tuple):
    """(row, shape without the box at the end of that row) for each removable box, top to bottom."""
    for row, (part, below) in enumerate(zip(shape, shape[1:] + (0,))):
        if part > below:
            yield row, tuple(p for p in shape[:row] + (part - 1,) + shape[row + 1 :] if p)


@functools.cache
def _tableaux(shape: tuple) -> tuple:
    """Standard Young tableaux of `shape`, each as the row of every letter,
    grouped by the row of the largest letter (`_corners` order), each group
    in the order of the tableaux of the smaller shape: so the restriction to
    S_(N-1) is block diagonal, one block per corner, each block the irrep
    of the smaller shape in its own basis."""
    if not shape:
        return ((),)
    return tuple(t + (row,) for row, child in _corners(shape) for t in _tableaux(child))


@functools.cache
def _irreps(n: int) -> list:
    """Young's orthogonal form of S_n: per partition of n (`_partitions`
    order), the real orthogonal rho(s_i), (n-1, d, d); rho(t_j), (n, d, d);
    and (index among the partitions of n-1, first row, dimension) of each
    diagonal block of the restriction to S_(n-1).  rho(s_i) e_T = e_T / r +
    sqrt(1 - 1/r^2) e_(s_i T), r the content of letter i+1 less that of
    letter i in the tableau T."""
    smaller = {s: i for i, s in enumerate(_partitions(n - 1))}
    out = []
    for shape in _partitions(n):
        tabs = _tableaux(shape)
        index = {t: a for a, t in enumerate(tabs)}
        gens = np.zeros((n - 1, len(tabs), len(tabs)))
        for a, t in enumerate(tabs):
            content = [t[:i].count(t[i]) - t[i] for i in range(n)]
            for i in range(n - 1):
                r = 1 / (content[i + 1] - content[i])
                gens[i, a, a] = r
                if abs(r) < 1:  # letters i and i+1 share no row or column: s_i T is standard
                    gens[i, a, index[t[:i] + (t[i + 1], t[i]) + t[i + 2 :]]] = math.sqrt(1 - r * r)
        cosets = [np.eye(len(tabs))]
        for j in range(n - 2, -1, -1):
            cosets.insert(0, gens[j] @ cosets[0])
        dims = [len(_tableaux(child)) for _, child in _corners(shape)]
        rows = np.cumsum([0] + dims)
        branch = [(smaller[child], rows[i], dims[i]) for i, (_, child) in enumerate(_corners(shape))]
        out.append((_read_only(gens), _read_only(np.array(cosets)), branch))
    return out


def _elements(k: int) -> np.ndarray:
    """Every element of S_k as a row of images, (k!, k) int8, in index order."""
    if k == 0:
        return np.zeros((1, 0), np.int8)
    h = np.column_stack([_elements(k - 1), np.full(math.factorial(k - 1), k - 1, np.int8)])
    return np.concatenate([np.array([*range(j), *range(j + 1, k), j], np.int8)[h] for j in range(k)])


def _rank(perms: np.ndarray) -> np.ndarray:
    """Index in S_k of each permutation along the last axis of `perms`:
    g = t_j h with j = g(k-1), and h = t_j^-1 g on the letters 0..k-2."""
    rank = np.zeros(perms.shape[:-1], np.intp)
    for k in range(perms.shape[-1], 1, -1):
        j = perms[..., k - 1, None]
        rank += j[..., 0] * np.intp(math.factorial(k - 1))
        perms = perms[..., : k - 1]
        perms = np.where(perms < j, perms, perms - 1)
    return rank


def _rho_all(k: int) -> list:
    """rho(g) of every element of S_k, (k!, d, d) per irrep, index order."""
    if k == 0:
        return [np.ones((1, 1, 1))]
    lower = _rho_all(k - 1)
    out = []
    for _, cosets, branch in _irreps(k):
        h = np.zeros((len(lower[0]),) + cosets.shape[1:])
        for child, row, d in branch:
            h[:, row : row + d, row : row + d] = lower[child]
        out.append((cosets[:, None] @ h).reshape(-1, *cosets.shape[1:]))
    return out


class GroupTables(NamedTuple):
    """Tables of S_N shared by every layout of N ports (`_group_tables`), M = (N-1)!.

    rho: (M, M), rho_l(h)[j, i] in row (l, i, j) and column h for the
    irreps l of S_(N-1) in `_partitions` order, block l from row start[l]:
    flat d x d blocks C_l times rho is sum over l of tr(C_l rho_l(h)).
    quot[i, j]: index of h_i h_j^-1 in S_(N-1).
    join[a, u, b]: index in S_N of t_a u t_b^-1.
    """

    rho: np.ndarray
    start: np.ndarray
    quot: np.ndarray
    join: np.ndarray


@functools.cache
def _group_tables(n: int) -> GroupTables:
    """`GroupTables` of S_n, built on first use and kept: at n = 7, rho and
    quot are 720 x 720 each, 8.3 MB together, the rest 0.3 MB, and the
    cached `_irreps` of S_1..S_7 another 0.6 MB."""
    m = math.factorial(n - 1)
    lower = _rho_all(n - 1)
    rho = np.concatenate([r.transpose(2, 1, 0).reshape(-1, m) for r in lower])
    start = np.cumsum([0] + [r.shape[-1] ** 2 for r in lower[:-1]])
    el = _elements(n - 1)
    quot = _rank(el[np.arange(m)[:, None, None], np.argsort(el, axis=1)])
    t = np.array([[*range(a), *range(a + 1, n), a] for a in range(n)], np.int8)
    u = np.column_stack([el, np.full(m, n - 1, np.int8)])
    join = _rank(t[np.arange(n)[:, None, None, None], u[:, np.argsort(t, axis=1)]])
    return GroupTables(*map(_read_only, (rho, start, quot, join)))


class IrrepGroup(NamedTuple):
    """The g irreps of S_N that a layout sees with one block shape
    (`_gamma_tables`): dimension d, and K = K_lambda_mu columns of Q, an
    orthonormal basis of the vectors that the copy permutations S_mu fix.

    units: (g, 1 + k, K, K), per irrep the identity, then per unique level
    v the block Q^T rho(J_v) Q, J_v the sum of the transpositions of the
    marker letter with the copies of v.
    q: (g, d, K), Q scaled by d |S_mu| / N!.
    z: (g, K, N d), the Q^T rho(t_j) side by side.
    branch: per irrep, its `_irreps` branch list: (irrep of S_(N-1), first
    row, dimension e) of each diagonal block of the restriction to S_(N-1).
    """

    units: np.ndarray
    q: np.ndarray
    z: np.ndarray
    branch: tuple


class GammaTables(NamedTuple):
    """Layout-only tables of `_gamma_stack` for an `Arrangements`, m = size / N.

    groups: the `IrrepGroup`s, one per block shape.
    root: (size, m), the index in S_N of x_r x_p^-1 for marker-first p,
    with x_r the arrangement r as a permutation (`_gamma_tables`).
    coset, elem: x_r = t_j h as j and the index of h in S_(N-1).
    arrangement: the arrangement S_mu g of every element g of S_N.
    corners: the arrangements S_mu t_j.
    group: the `GroupTables` of S_N.
    """

    groups: list
    root: np.ndarray
    coset: np.ndarray
    elem: np.ndarray
    arrangement: np.ndarray
    corners: np.ndarray
    group: GroupTables


def _gamma_tables(arr: Arrangements) -> GammaTables:
    """`Arrangements.gamma_tables`.  The marker is letter N-1 and the copies
    of the v-th unique level are the next letters from 0 up, taken in slot
    order; position s-1 holds the letter in slot s and position N-1 the
    one in slot 0, so the marker-first arrangements are S_(N-1)."""
    n, group = arr.ports, _group_tables(arr.ports)
    m = math.factorial(n - 1)
    uniq = sorted(set(arr.multiset))
    first = np.cumsum([0] + [arr.multiset.count(v) for v in uniq])
    level = arr.slot_level
    letters = np.full(level.shape, n - 1, np.int8)
    for r in range(len(uniq)):
        hit = level == r
        letters[hit] = (first[r] + np.cumsum(hit, axis=1) - 1)[hit]
    coset, elem = map(_read_only, np.divmod(_rank(np.roll(letters, -1, axis=1)), m))
    root = _read_only(coset[:, None] * m + group.quot[elem[:, None], elem[list(arr.ptilde)]])
    # S_mu g for every g: its slot sequence as an arrangement key, looked up among the sorted keys
    code = np.append(np.searchsorted(first, np.arange(n - 1), side="right"), 0)  # letter -> 1 + level index, marker 0
    arrangement = _read_only(np.searchsorted((level + 1) @ arr._place, np.roll(code[_elements(n)], 1, axis=1) @ arr._place))
    copies = [c for r in range(len(uniq)) for c in range(first[r], first[r + 1] - 1)]  # the s_c that generate S_mu
    scale = math.prod(math.factorial(b - a) for a, b in zip(first, first[1:])) / math.factorial(n)
    shapes = {}
    for gens, cosets, branch in _irreps(n):
        d = len(cosets[0])
        q = np.eye(d)
        if copies:  # the common +1 space of the s_c: the other eigenvalues lie at 2 - 2 cos(pi/(N-1)) or above
            w, v = np.linalg.eigh(sum(np.eye(d) - gens[c] for c in copies))
            q = v[:, w < 1 - math.cos(math.pi / n)]
        if not q.shape[1]:
            continue
        swaps = [cosets[c] @ gens[-1] @ cosets[c].T for c in range(n - 1)]  # (c N-1) = t_c s_(N-2) t_c^-1
        units = np.array([np.eye(q.shape[1])] + [q.T @ sum(swaps[a:b]) @ q for a, b in zip(first, first[1:])])
        same = shapes.setdefault(q.shape[::-1], [])  # (K, d)
        same.append(((units + units.swapaxes(1, 2)) / 2, q * (d * scale), np.hstack(q.T @ cosets), branch))
    groups = [IrrepGroup(*(_read_only(np.array(a)) for a in (u, q, z)), b) for u, q, z, b in (zip(*same) for same in shapes.values())]
    corners = _read_only(arrangement[np.arange(1, n + 1) * m - 1])
    return GammaTables(groups, root, coset, elem, arrangement, corners, group)


def _irrep_blocks(arr: Arrangements, levels: np.ndarray, lam_y: float) -> list:
    """The K x K blocks Q^T rho(h) Q = I + sum_v w_v Q^T rho(J_v) Q of every
    sector laid out like `arr`, one per row of `levels`: (b, g, K, K) per
    `IrrepGroup` of `Arrangements.gamma_tables`, summed from its `units`
    in level order, h = e + sum_c w_c (c N-1) being the sector matrix as a
    group algebra element.  On each irrep the sector matrix is its block
    times I_d, so its spectrum is theirs, each eigenvalue d times."""
    w = np.column_stack([np.ones(len(levels)), _swap_weights(levels, lam_y)])[:, :, None, None, None]
    return [sum(w[:, v] * s.units[:, v] for v in range(w.shape[1])) for s in arr.gamma_tables.groups]


def _gamma_stack(arr: Arrangements, levels: np.ndarray, lam_y: float, entries: np.ndarray) -> np.ndarray:
    """`gamma` of every sector laid out like `arr`, one per row of `levels`
    (the unique levels, ascending), at the flat canonical indices `entries`
    only: (b, len(entries)).

    The sector matrix H is left multiplication by h = e + sum_c w_c (c N-1)
    on the functions on S_N that the copy permutations S_mu fix from the
    left, so any function F of it has F(H)[r, c] = |S_mu| phi(x_r x_c^-1),
    phi(g) = sum over lambda of (d/N!) tr(Q F(block) Q^T rho(g)), with the
    blocks of `_irrep_blocks`.  One stacked eigh per block shape gives F =
    x^(-1/2) and x^(-1)/N.  phi is evaluated on all of S_N, a coset t_j
    S_(N-1) at a time: rho(t_j h) is rho(t_j) times the block-diagonal
    restriction rho(h), so each coset is one product with the S_(N-1)
    table `GroupTables.rho`.  Its coefficients are, per irrep and branch
    (`IrrepGroup.branch`), the (row, row) block of Q F(block) Q^T rho(t_j)
    for every coset, added as one slice from `GroupTables.start[child]`
    with the cosets first, in the row layout of `GroupTables.rho`.  B =
    H^(-1/2) at the marker-first columns is a gather of phi.  B B^T =
    H^(-1/2) P~ H^(-1/2) commutes with the permutations of the slots that
    keep slot 0, so its entry (r, c) is its entry (S_mu x_r h^-1, S_mu t_j)
    for x_c = t_j h, and only the N columns S_mu t_j are formed.  Gamma at
    `entries` is one gather from them less one from H^(-1)/N.  Every
    layout-only table comes from `Arrangements.gamma_tables`.
    """
    n, b = arr.ports, len(levels)
    t = arr.gamma_tables
    eig = [np.linalg.eigh(block) for block in _irrep_blocks(arr, levels, lam_y)]
    low = np.min([w.min(axis=(1, 2)) for w, _ in eig], axis=0)
    if low.min() <= 0:
        raise RuntimeError(f"sector matrix with levels {levels[np.argmin(low)].tolist()} is not positive definite")
    coef = np.zeros((b, 2, n, len(t.group.rho)))  # (x^(-1/2), x^(-1)/N), coset t_j, flat S_(N-1) blocks
    for s, (w, v) in zip(t.groups, eig):
        qv = s.q @ v
        f = np.concatenate([qv / np.sqrt(w)[..., None, :], qv / (n * w)[..., None, :]], axis=2)
        d = qv.shape[2]
        y = (f @ (v.swapaxes(2, 3) @ s.z)).reshape(b, -1, 2, d, n, d)  # (b, g, F, row, coset, column)
        for i, branch in enumerate(s.branch):
            for child, row, e in branch:
                at = t.group.start[child]
                coef[..., at : at + e * e] += y[:, i, :, row : row + e, :, row : row + e].swapaxes(2, 3).reshape(b, 2, n, -1)
    phi = (coef @ t.group.rho).reshape(b, 2, -1)
    root = phi[:, 0, t.root]
    cols = root @ root[:, t.corners].swapaxes(1, 2)
    r, c = np.divmod(entries, arr.size)
    u = t.group.quot[t.elem[r], t.elem[c]]  # x_r x_c^-1 = t_j(r) u t_j(c)^-1
    g = cols.reshape(b, -1)[:, t.arrangement[t.coset[r] * math.factorial(n - 1) + u] * n + t.coset[c]]
    g -= phi[:, 1, t.group.join[t.coset[r], u, t.coset[c]]]
    return g


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


def _require_positive(xi, *levels):
    """Refuse, with `_gamma_stack`'s RuntimeError, closed-form sectors whose
    smallest eigenvalue `xi` is not positive (at small lambda_y, 1 - xi
    rounds to 1), where their Gammas would be inf or nan.  `levels` are
    the sectors' level arrays, broadcasting with `xi`."""
    xi = np.ravel(xi)
    if np.any(xi <= 0):
        i = int(np.argmin(xi))
        at = sorted({int(np.ravel(v)[i]) for v in np.broadcast_arrays(*levels)})
        raise RuntimeError(f"sector matrix with levels {at} is not positive definite")


def gamma_mm_closed(m, lam_y: float) -> np.ndarray:
    """Closed-form Gamma for a repeated-value three-port sector {m, m}; an
    array of levels gives the stack of their Gammas."""
    chi_m = ((1 - lam_y**2) * lam_y ** (2 * np.asarray(m)))[..., None, None]
    xi1, xi2 = 1 + 2 * chi_m, 1 - chi_m
    _require_positive(xi2, m)
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
    _require_positive(np.minimum(xi[2], xi[4]), l, m)
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


def default_cap(params: ChannelParams) -> int:
    """Smallest multiset cap whose geometric remainder
    (N-1) lx^(2 (cap+1)) / (1 - lx^2) falls below CAP_TOL.

    The cap is solved for from logs, then stepped by that remainder, as
    computed, to the smallest cap where it falls below CAP_TOL: the one a
    search up from zero finds.  A cap too large to build is refused by the
    build's memory declaration, not here."""
    lx, n = params.lambda_x, params.ports
    if lx == 0:
        return 0

    def above(cap):
        return (n - 1) * lx ** (2 * (cap + 1)) / (1 - lx**2) >= CAP_TOL

    cap = max(0, math.ceil(math.log(CAP_TOL * (1 - lx**2) / (n - 1)) / (2 * math.log(lx))) - 1)
    while cap > 0 and not above(cap - 1):
        cap -= 1
    while above(cap):
        cap += 1
    return cap


def _orbit_segments(arr: Arrangements):
    """Flat Gamma indices and `np.add.reduceat` starts whose segment sums
    are the orbit sums of a sector with this multiplicity pattern.

    Slot r < k stands for the r-th unique level and slot k for a level the
    sector does not hold; orbit(t, r) is t followed by the arrangements
    reached by swapping its marker with each slot holding r, in slot order
    (t alone in slot k), read from `Arrangements.swaps` as one (size, 1 +
    mult_r) array per level.  The segments give, row-major,
    Gamma[orbit(i, b), orbit(i, a)] summed over marker-first i for slots
    a, b, then Gamma[t, orbit(t, a)] summed over the t starting with level
    n for slots a and levels n.
    """
    size, level = arr.size, arr.slot_level
    t = np.arange(size)
    orbits = [np.column_stack([t, arr.swaps[level == r].reshape(size, -1)]) for r in range(level.max() + 1)]
    orbits.append(t[:, None])
    # the marker-first rows, then the rows starting with each level, are contiguous blocks
    edges = np.searchsorted(level[:, 0], np.arange(len(orbits)) - 1).tolist() + [size]
    first, *by_level = [slice(a, b) for a, b in zip(edges, edges[1:])]
    rows = [ob[first, :, None] * size for ob in orbits]
    segments = [(r + oa[first, None, :]).ravel() for oa in orbits for r in rows]
    rows = [t[block, None] * size for block in by_level]
    segments += [(r + oa[block]).ravel() for oa in orbits for r, block in zip(rows, by_level)]
    return np.concatenate(segments), np.cumsum([0] + [len(x) for x in segments[:-1]])


_LAYOUTS: dict[tuple, tuple] = {}  # layout -> its `_layout_tables`, for the layouts kept for the process


def _layout_tables(layout: tuple) -> tuple[Arrangements, tuple]:
    """The `Arrangements` of a multiplicity pattern's layout and (entries,
    reads, starts) of its orbit sums: the distinct flat Gamma entries that
    `_orbit_segments` reads, the index of each read among them and the
    segment starts.  None of it depends on lambda, so a layout whose
    sectors share stacked batches (size^2 <= _STACK_ELEMS) is kept in
    `_LAYOUTS` for the process, along with the `Arrangements` tables built
    on first read; a larger one is built anew on every call.  Every array
    is read-only."""
    if layout in _LAYOUTS:
        return _LAYOUTS[layout]
    arr = Arrangements(layout)
    idx, starts = _orbit_segments(arr)
    entries, reads = np.unique(idx, return_inverse=True)  # orbit sums read some entries more than once
    tables = arr, tuple(map(_read_only, (entries, reads, starts)))
    if arr.size**2 <= _STACK_ELEMS:
        _LAYOUTS[layout] = tables
    return tables


def _largest_layout(ports: int, levels: int) -> tuple[list[int], int]:
    """The largest layout of the N - 1 levels of a sector drawn from
    `levels` distinct ones: its level multiplicities m, spread as evenly as
    `levels` allows, and its size N!/prod(m!), the arrangements of those
    levels and the marker over N slots.  Also the oracle's largest component."""
    k = min(levels, ports - 1)
    q, extra = divmod(ports - 1, k)
    mults = [q + 1] * extra + [q] * (k - extra)
    return mults, math.factorial(ports) // math.prod(map(math.factorial, mults))


def _build_mb(ports: int, cap: int) -> float:
    """Declared peak of an `NPortChannel` build in MiB, from its sizes alone:
    per sector, its row of the pattern walk's levels (the sector list is
    not made); 64 bytes per entry of the (cap+3)^2 level sums and their
    final folds; 48 bytes per entry of the (N-1)! x (N-1)! tables of
    S_(N-1) (`_group_tables`: the irrep and product tables, 16 bytes, and
    the temporaries that build them); and the largest Gamma stack: 128
    bytes per entry of a full batch of b size^2 <= _STACK_ELEMS (small
    sectors carry most overhead), or 24 per entry of the size x size/N
    gather table and B of one larger sector, the layout with the most
    distinct levels (`_largest_layout`).  The tables that a cold build
    keeps (`_layout_tables`, size^2 <= _STACK_ELEMS) are left out: with
    every pattern walked they hold 2.5 MiB at N = 6 and 4.3 MiB at N = 7,
    small against the 32 MiB stack term.  The cap must be nonnegative."""
    sectors = math.comb(cap + ports - 1, ports - 1)
    size = _largest_layout(ports, cap + 1)[1]
    stack = max(128 * _STACK_ELEMS, 24 * size**2 // ports)
    return mib(sectors * (72 + 8 * ports) + 64 * (cap + 3) ** 2 + 48 * math.factorial(ports - 1) ** 2 + stack)


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
    each.  A layout's tables depend on N and the pattern alone
    (`_layout_tables`): those of the layouts whose sectors share stacked
    batches are kept for the process, so a later build at the same N in
    the same process makes none of them; larger ones are built per build.
    A process that builds one channel gains nothing from this and holds
    the kept tables after its build.  Every batch's
    Gammas come as one stack from
    `gammas(arr, levels, lam_y, entries)`, (b, len(entries)), holding only
    the distinct flat entries, in the canonical coordinates of the layout
    `arr`, that the orbit sums read (`_orbit_segments`); by default from
    `_gamma_stack`, through the S_N irreps.  A build whose declared size
    (`_build_mb`) exceeds the memory budget is refused by
    `oracle.require_memory` before anything is allocated.
    `closed_two_port` builds the sums from the two-port closed form, which
    also takes a parameter grid: `arrays` then stacks C and T over it.
    """

    def __init__(self, params: ChannelParams, cap: int | None = None, gammas=_gamma_stack):
        self.params = params
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, (int, np.integer))):
            raise ValueError(f"cap must be an integer, got {cap!r}")
        self.cap = default_cap(params) if cap is None else int(cap)
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")
        require_memory(_build_mb(params.ports, self.cap), f"the {params.ports}-port sector build at cap {self.cap}")
        self._gamma_max = 0.0
        # lx^(2 t) per level total t, scalar pows: numpy's vector power can differ in the last bit
        powers = np.array([params.lambda_x ** (2 * t) for t in range((params.ports - 1) * self.cap + 1)])
        top = self.cap + 2  # sums in row/column `top` add to every level 0..cap+1
        s = np.zeros((top + 1, top + 1), dtype=complex)
        f = np.zeros((top + 1, top), dtype=complex)
        for layout, levels in _pattern_walk(params.ports, self.cap):
            k = levels.shape[1]
            # levels relabelled 0..k-1 in order keep every sector's arrangement order
            arr, (entries, reads, starts) = _layout_tables(tuple(layout))
            weights = powers[levels[:, layout].sum(axis=1)]
            step = max(1, _STACK_ELEMS // arr.size**2)
            for lo in range(0, len(levels), step):
                part = slice(lo, lo + step)
                g = gammas(arr, levels[part], params.lambda_y, entries)
                self._gamma_max = max(self._gamma_max, float(np.abs(g).max()))
                sums = np.add.reduceat(g[:, reads], starts, axis=1) * weights[part, None]
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
        channel.params, channel.cap = params, None
        om, channel._omega_tail = omega(params)
        channel._base = om / _per_point(lambda lx: 2 * (1 - lx**2), params.lambda_x)
        return channel

    def _subgrid(self, index) -> "NPortChannel":
        """The closed-form channel on the points `index` of the flattened
        parameter grid, sharing the grid's Omegas."""
        p = self.params
        channel = self.__class__.__new__(self.__class__)
        channel.params = ChannelParams(np.ravel(p.lambda_x)[index], np.ravel(p.lambda_y)[index], p.ports)
        channel.cap = None
        channel._base, channel._omega_tail = np.ravel(self._base)[index], np.ravel(self._omega_tail)[index]
        return channel

    @functools.cached_property
    def sectors(self) -> list[tuple[int, ...]]:
        """The multisets up to the cap, listed on first read (the build walks
        their patterns); [] for the closed two-port channel."""
        return [] if self.cap is None else enumerate_multisets(self.params.ports, self.cap)

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
        """Diagonal of the output for an |a><a| input, truncated to `levels`;
        one parameter point only."""
        _check_point(self.params)
        return self.arrays(levels)[1][a]

    def tail_bound(self, levels: int) -> float:
        """Declared bound on the output mass missed by the cap and level
        cutoffs.  It bounds truncation only: the float64 error of an
        ill-conditioned sector's Gamma is not in it.  Against 50-digit
        references it is 1.7e-9 of max|Gamma| in the all-distinct N = 4
        sector {0, 1, 2} at lambda_y = 0.05 (smallest eigenvalue 1.6e-8)
        and 2.8e-10 in the N = 5 sector {0, 1, 2, 3} at lambda_y = 0.1
        (1.0e-8)."""
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
        """The output for an |a><b| input, at one parameter point."""
        _check_point(self.params)
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


def _closed_gamma_stack(arr: Arrangements, levels: np.ndarray, lam_y: float, entries: np.ndarray) -> np.ndarray:
    """`_gamma_stack` of a three-port pattern from the closed forms: {m, m}
    sectors, or {l, m} sectors (l < m) read from the analytic label order
    at the canonical `entries` of `arr`."""
    if levels.shape[1] == 1:
        return gamma_mm_closed(levels[:, 0], lam_y).reshape(len(levels), -1)[:, entries]
    order = np.argsort([arr.index[s] for s in _LM_LABEL_ORDER(1, 0)])
    labels = (order[:, None] * len(order) + order).ravel()
    return gamma_lm_closed(levels[:, 1], levels[:, 0], lam_y).reshape(len(levels), -1)[:, labels[entries]]


def ThreePortChannel(params: ChannelParams, cap: int | None = None) -> NPortChannel:
    """Three-port channel built from the closed-form sector Gammas."""
    if params.ports != 3:
        raise ValueError("ThreePortChannel requires ports == 3")
    return NPortChannel(params, cap, gammas=_closed_gamma_stack)


def make_channel(params: ChannelParams, cap: int | None = None) -> NPortChannel:
    """Closed forms at two and three ports, numeric Gammas beyond.  Only the
    two-port closed form takes a parameter grid, and it has no cap: a cap
    there is a ValueError rather than silently dropped."""
    if params.ports == 2:
        if cap is not None:
            raise ValueError("--cap applies to three ports only: the two-port closed form has no cap")
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
) -> DensityOperator:
    """Apply the channel to a one-mode state, or to the first (signal) mode
    of a signal-idler pair while leaving the idler untouched."""
    _check_point(params)
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
    channel = make_channel(params, cap)
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
    elif kind in BELL_LEVELS:
        levels = BELL_LEVELS[kind]
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
