"""Brute-force protocol construction of the teleportation channel.

Everything here is built directly from the protocol definition in a
truncated multimode Fock space: the port resource, the summed overlap
operator rho, the square-root measurement, and the channel as a
partial trace.  No closed-form channel expression enters, which makes
this module the independent ground truth for the analytic ones.

Phi stays an index table, and numpy is the only dependency.  Each sigma_i
is a sum of rank-one terms over the port states phi_(i,x), and each port
state holds D amplitudes at rows a formula gives, so rho = Phi Phi^T is
known from that table of rows, and the Gram matrix G = Phi^T Phi has
exactly rho's nonzero spectrum.  rho splits into one component per
multiset of N - 1 levels, the sectors of the analytic channel: port
state (i, x) touches only indices whose A digits less one copy of C
form the multiset of x, and the arrangements of one multiset are joined
by swapping the marker.  Each port state lies inside one component, so
G splits by the same labels into blocks of r port states, far fewer
than the s indices of the rho block they stand for; the Phi and Gram
blocks are scattered from the table.
Components of one (s, r) share a stacked eigh of their Gram blocks, and
the square-root measurement comes from those stacks one batch of blocks
at a time, as two s x k factors per block (untouched indices last, of
rank zero).  The partial trace keeps only the measurement entries whose
row and column agree in the spectator digits, so a window of channel
elements pairs those rows and columns and forms each kept entry from the
factors alone: no s x s block and no table over all d^2 elements is made
on the verification path.

Mode order is (C, A_1, ..., A_N), C slowest; the receiver mode B_1
joins only in the reduced resource.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .fock import Cutoff, FockOperator, as_cutoff, chi_vector, permute_modes
from .two_port import ChannelParams

__all__ = [
    "MemoryBudgetError",
    "TruncatedProtocol",
    "build_sigma",
    "build_rho",
    "build_povm_element",
    "povm_element_explicit",
    "reduced_resource",
    "brute_channel_element",
    "channel_elements",
    "verification_report",
]

DEFAULT_BUDGET_MB = 2048.0
SUSPECT_BAND = 1e-6  # relative; eigenvalues between kernel_tol and this are flagged
_BYTES_PER_ENTRY = 24  # see TruncatedProtocol.working_set_mb
_CHUNK_ELEMS = 1 << 16  # entries per factor batch, pair chunk or dense-block chunk, which bounds their temporaries


class MemoryBudgetError(RuntimeError):
    def __init__(self, required_mb: float, budget_mb: float, what: str):
        need = f"about {required_mb:.0f} MiB" if math.isfinite(required_mb) else "more MiB than a float holds"
        super().__init__(f"{what} needs {need}, budget is {budget_mb:.0f} MiB (raise CVPBT_MEM_BUDGET_MB to override)")
        self.required_mb = required_mb
        self.budget_mb = budget_mb


def memory_budget() -> float:
    """The memory budget in MiB: CVPBT_MEM_BUDGET_MB, or DEFAULT_BUDGET_MB
    when it is unset.  The environment is the only setting; a ValueError
    unless it is numeric, finite and > 0."""
    raw = os.environ.get("CVPBT_MEM_BUDGET_MB", DEFAULT_BUDGET_MB)
    try:
        mb = float(raw)
    except ValueError as exc:
        raise ValueError(f"CVPBT_MEM_BUDGET_MB must be numeric, got {raw!r}") from exc
    if not (math.isfinite(mb) and mb > 0):
        raise ValueError(f"memory budget must be finite and > 0 MiB, got {mb!r}")
    return mb


def mib(nbytes: int) -> float:
    """`nbytes` in MiB, or inf where the quotient overflows a float, so that
    `require_memory` refuses a declaration too large to count."""
    try:
        return nbytes / 2**20
    except OverflowError:
        return math.inf


def require_memory(mb: float, what: str):
    """The one budget gate: refuse `what`, declared before it allocates about
    `mb` MiB, with MemoryBudgetError when that exceeds `memory_budget()`."""
    budget = memory_budget()
    if mb > budget:
        raise MemoryBudgetError(mb, budget, what)


@dataclass
class TruncatedProtocol:
    """Protocol objects for N ports at a common per-mode cutoff.

    kernel_tol, a class constant, is the relative eigenvalue threshold
    separating the kernel of rho from its support; eigenvalues between
    kernel_tol and the suspect band limit are counted and reported rather
    than silently classified.  Each stage declares its size to `require_memory`
    first; a bad CVPBT_MEM_BUDGET_MB already fails construction.

    Each stage is one cached attribute, computed on first use and returned
    whole: Phi as an index table (`_phi`), the (s, r) grouping of rho's
    components (`_groups`) and their stacked Gram eighs with the kernel cut
    (`_eighs`, read through `_components`).  They are not fields, so two
    protocols of equal params and cutoff compare equal whichever stages
    have run.  The measurement is not kept: `_factors` streams it batch by
    batch, and a window of channel elements (`_window`) or the dense element
    (`build_povm_element`) reads it once, forming entries with `_pairs`.
    """

    kernel_tol: ClassVar[float] = 1e-10
    params: ChannelParams
    cutoff: Cutoff

    def __post_init__(self):
        self.cutoff = as_cutoff(self.cutoff)
        memory_budget()

    # -- dimensions ---------------------------------------------------------

    @property
    def levels(self) -> int:
        return self.cutoff.levels

    @property
    def ports(self) -> int:
        return self.params.ports

    @property
    def dim(self) -> int:
        return self.levels ** (self.ports + 1)

    def dense_mb(self, extra_modes: int = 0) -> float:
        d = self.levels ** (self.ports + 1 + extra_modes)
        return mib(d * d * 8)

    def working_set_mb(self, a_range: range, b_range: range) -> float:
        """Peak of the Gram route gathering the channel elements of a window
        and comparing them, from the component sizes before any eigh.

        Counted in entries of _BYTES_PER_ENTRY bytes over the components of
        s indices and r port states: sum(r^2) for the Gram eigenvector
        stacks, one (s, r) group's stacked eigh input and eigh's own copies;
        count r (D + 2N) for the pairing temporaries of the largest group's
        Gram blocks (its rows of `_phi` and the shared index, partner and
        value of each port pair); b (s r + r^2) for the largest batch of
        `_factors`, b components with b s r <= _CHUNK_ELEMS or one larger
        component (its Phi block, B, L and the k x k products); per group, the pair temporaries of its
        window entries, at most _CHUNK_ELEMS or the entries times r; 2 per
        window entry (their keys, values and sort); 2 per value of the dense
        (len(a), len(b), d, d) output, which covers its scatter and scaled
        copy, then the report's analytic window and their difference; and
        `_sized_entries`.  The route builds no rho or sigma, no s x s block
        and no table over all d^2 elements.
        """
        d, n, dn = self.levels, self.ports, self.levels**self.ports
        lone = self._groups[1] // dn
        window = int(((lone >= max(a_range.start, b_range.start)) & (lone < min(a_range.stop, b_range.stop))).sum())
        gram = pairing = factors = pairs = 0
        for members, states in self._groups[0]:
            count, s = members.shape
            r = states.shape[1]
            gram += count * r * r
            pairing = max(pairing, count * r * (d + 2 * n))
            factors = max(factors, min(count, max(1, _CHUNK_ELEMS // (s * r))) * (s * r + r * r))
            hits = int(self._join(members, a_range, b_range)[3].sum())
            window += hits
            pairs = max(pairs, min(_CHUNK_ELEMS, hits * r))
        dense = len(a_range) * len(b_range) * d * d
        entries = gram + pairing + factors + pairs + 2 * window + 2 * dense + self._sized_entries()
        return mib(_BYTES_PER_ENTRY * entries)

    def povm_mb(self) -> float:
        """Peak of `build_povm_element`: the dense output, the stage terms of
        `working_set_mb` (its figure for an empty window) and the largest
        chunk, m <= _CHUNK_ELEMS pairs of one (s, r) group: 2 m entries for
        their positions and values, min(_CHUNK_ELEMS, m r) for products."""
        sizes = [(min(_CHUNK_ELEMS, m.size * m.shape[1]), st.shape[1]) for m, st in self._groups[0]]
        chunk = max((2 * m + min(_CHUNK_ELEMS, m * r) for m, r in sizes), default=0)
        return self.dense_mb() + self.working_set_mb(range(0), range(0)) + mib(_BYTES_PER_ENTRY * chunk)

    def _require_window(self, a_range: range, b_range: range, what: str):
        """Declare `working_set_mb` of a window to `require_memory`, the sized
        terms first: they refuse a size too large to label before
        `working_set_mb` runs the `_groups` stage on every basis index."""
        require_memory(mib(_BYTES_PER_ENTRY * self._sized_entries()), what)
        require_memory(self.working_set_mb(a_range, b_range), what)

    def _sized_entries(self) -> int:
        """The terms of `working_set_mb` that the sizes alone fix: 2 per
        basis index (the component labels, their order and members, and each
        member's position in `_factors`) and the N D^N entries of the `_phi`
        table (and the port-state keys and labels `_groups` sorts and
        scatters through it)."""
        return 2 * self.dim + self.ports * self.levels**self.ports

    # -- the port states ----------------------------------------------------

    @cached_property
    def _phi(self) -> np.ndarray:
        """Phi as its index table: the port state
        phi_(i,x) = sum_c amps[c] |C = c, A_i = c, spectators = x>, column
        (i, x) of Phi (port i slowest, then the spectator digits x), holds
        `_amps`[c] at row rows[(i, x), c], an int64 table of shape
        (N D^(N-1), D).  sigma_i = sum_x phi_(i,x) phi_(i,x)^T, so
        rho = Phi Phi^T."""
        d, n = self.levels, self.ports
        ds = d ** (n - 1)
        c = np.arange(d)
        place = d ** (n - np.arange(1, n + 1))[:, None]  # place values d^(N-i) of A_1..A_N
        x = np.arange(ds)
        # spectator digits x with a zero digit put in at A_i, then C = A_i = c
        rows = (x // place * (d * place) + x % place)[:, :, None] + (d**n + place)[:, :, None] * c
        return rows.reshape(n * ds, d)

    @property
    def _amps(self) -> np.ndarray:
        """Each port state's amplitudes sqrt(1 - ly^2) (-ly)^c, c < D."""
        ly = self.params.lambda_y
        return np.sqrt(1 - ly**2) * (-ly) ** np.arange(self.levels)

    # -- spectral decomposition over connected components --------------------

    @cached_property
    def _groups(self):
        """rho's components grouped by their s indices and r port states, and
        the indices no port state touches: ([(members (k, s), states (k, r)),
        ...], lone), one pair per (s, r) in ascending (s, r), each row the
        ascending members and port states of one component, components of
        one (s, r) in order of their smallest port state.

        rho = Phi Phi^T links two indices exactly when a chain of port states
        sharing an index joins them.  The components are the multisets of
        N - 1 levels, the sectors of `nport`: port state (i, x) touches
        exactly the indices with C = A_i = c and spectators x, so an index it
        shares with (j, y) has multiset(x) = multiset(A) - {C} = multiset(y),
        and no chain leaves a multiset; within one, the port states are its
        arrangements, and swapping the marker joins them all.  So each port
        state is labelled by its spectator digits sorted ascending, read in
        base D, which is also the smallest port state of its multiset (a
        port-1 state), and every index it touches takes that label.  A port
        state touches D >= 2 indices, so every component has s > 1; the
        `lone` indices, ascending, are those with no A_i = C, untouched by
        rho: kernel."""
        d, n = self.levels, self.ports
        place = d ** np.arange(n - 2, -1, -1)  # place values of the N - 1 spectator digits
        spectators = np.sort(np.arange(d ** (n - 1))[:, None] // place % d, axis=1)
        firsts, state_labels = np.unique(spectators @ place, return_inverse=True)
        state_labels = np.tile(state_labels, n)  # each port holds every arrangement once
        count = firsts.size
        labels = np.full(self.dim, count)  # untouched indices sort last
        labels[self._phi] = state_labels[:, None]
        sizes = np.bincount(labels, minlength=count + 1)[:count]
        ranks = np.bincount(state_labels, minlength=count)
        order = np.argsort(labels, kind="stable")  # members of each label, ascending
        state_order = np.argsort(state_labels, kind="stable")
        starts, state_starts = np.cumsum(sizes) - sizes, np.cumsum(ranks) - ranks
        groups = []
        for s, r in sorted(set(zip(sizes.tolist(), ranks.tolist()))):
            comps = np.flatnonzero((sizes == s) & (ranks == r))
            members = order[starts[comps][:, None] + np.arange(s)]
            groups.append((members, state_order[state_starts[comps][:, None] + np.arange(r)]))
        return groups, order[sizes.sum() :]

    def _phi_blocks(self, states: np.ndarray, where: np.ndarray, s: int) -> np.ndarray:
        """Phi on the s indices and r port states of each component, shape
        (k, s, r), one scatter of `_amps` from the rows of `states` (k, r);
        `where` gives each index's position among its component's members."""
        k, r = states.shape
        out = np.zeros((k, s, r))
        out[np.arange(k)[:, None, None], where[self._phi[states]], np.arange(r)[:, None]] = self._amps
        return out

    def _gram_blocks(self, states: np.ndarray, where: np.ndarray) -> np.ndarray:
        """The Gram blocks G = Phi^T Phi on the port states of each row of
        `states` (k, r), shape (k, r, r); `where` gives each port state's
        position in its row.

        Port states (i, x) and (j, y) with i != j share one index, the one
        whose C digit c is x's A_j digit, and overlap amps[c]^2 there; two
        states of one port share none.  A diagonal entry is sum_c amps[c]^2,
        added one term at a time in ascending c, as a sparse product
        Phi^T Phi adds it (np.sum would pair the terms differently)."""
        d, n = self.levels, self.ports
        dn, ds = d**n, d ** (n - 1)
        place = d ** (n - 1 - np.arange(n))  # place values of A_1..A_N
        square = self._amps * self._amps
        rows = self._phi[states]  # (k, r, D); column 0 holds the spectator digits, A_i = 0
        digit = rows[..., :1] // place % d  # (k, r, N): the C digit shared with each port, 0 at its own
        shared = np.take_along_axis(rows, digit, axis=-1) % dn
        partner = np.arange(n) * ds + shared // (d * place) * place + shared % place
        k, r = states.shape
        out = np.zeros((k, r, r))
        out[np.arange(k)[:, None, None], np.arange(r)[:, None], where[partner]] = square[digit]
        out[:, np.arange(r), np.arange(r)] = np.cumsum(square)[-1]  # overwrites the own-port term
        return out

    def _components(self):
        """Invariant blocks of rho discovered from its sparsity pattern alone,
        each diagonalised through the Gram matrix of its port states.

        rho = Phi Phi^T, so on the r port states of a component of s indices
        the Gram block G = Phi^T Phi (r x r) carries all of rho's nonzero
        spectrum there; the other s - r eigenvalues are exact zeros.

        Returns ([(members, states, w, V, kept), ...], max_eig): one stack per
        (s, r) group of `_groups`, its components' Gram blocks diagonalised by
        one stacked eigh, with the one kernel cut, each block's count of
        eigenvalues above kernel_tol * max_eig.  The stage is `_eighs`,
        computed on the first call.
        """
        return self._eighs

    @cached_property
    def _eighs(self):
        stacks = []
        where = np.empty(self._phi.shape[0], dtype=np.int64)
        for members, states in self._groups[0]:
            where[states] = np.arange(states.shape[1])
            w, v = np.linalg.eigh(self._gram_blocks(states, where))
            stacks.append((members, states, w, v))
        max_eig = max((float(w.max()) for _, _, w, _ in stacks), default=0.0)
        cut = self.kernel_tol * max_eig  # w ascends, so the kept are each block's last
        return [(m, st, w, v, (w > cut).sum(axis=1)) for m, st, w, v in stacks], max_eig

    def eigenvalue_census(self) -> dict:
        """Counts of kernel / suspect-band / support eigenvalues of rho.

        Kernel is all but the Gram eigenvalues kept by the cut of `_components`
        (untouched indices and each component's s - r exact zeros included),
        support the kept ones above the suspect band, suspect the rest.  The
        stages are declared first, as `working_set_mb` of an empty window.
        Each call returns a new dict."""
        self._require_window(range(0), range(0), "eigenvalue census")
        stacks, max_eig = self._components()
        kept = sum(int(k.sum()) for *_, k in stacks)
        support = sum(int((w > SUSPECT_BAND * max_eig).sum()) for _, _, w, _, _ in stacks)
        return dict(kernel=self.dim - kept, suspect=kept - support, support=support, max_eigenvalue=max_eig)

    def _factors(self):
        """First measurement element in factored form, one batch at a time, as
        (members, L, B): the element on the ascending indices members[j] is
        L[j] B[j]^T + I/N, with L and B each (s, k).

        With G = V g V^T and V_k its k eigenvectors above the cut, the columns
        of B = Phi V_k g_k^(-1/2) are an orthonormal basis of rho's support,
        and rho^(-1/2) sigma_1 rho^(-1/2) = B V_k^T E_1 V_k B^T, where E_1
        masks the port-1 states.  So L = B (V_k^T E_1 V_k - I/N).  Each column
        Phi v_j of B is divided by its computed norm, which is sqrt(g_j) in
        exact arithmetic but carries none of the eigenvalue error of a small
        g_j.  Each batch holds components of one (s, r) and one k, at most
        _CHUNK_ELEMS entries of their Phi blocks or one larger component.  Last
        come the indices rho does not touch, `_groups[1]`, as members (lone, 1)
        with L and B (lone, 1, 0) of rank zero: their entries are 1/N alone.
        """
        stacks, _ = self._components()
        n = self.ports
        first_port = self.levels ** (n - 1)  # port-1 states are Phi's first columns
        where = np.empty(self.dim, dtype=np.int64)  # each index's position among its component's members
        for members, *_ in stacks:
            where[members] = np.arange(members.shape[1])
        for members, states, _, v, kept in stacks:
            s, r = members.shape[1], states.shape[1]
            step = max(1, _CHUNK_ELEMS // (s * r))
            for k in sorted(set(kept.tolist())):
                same = np.flatnonzero(kept == k)
                for lo in range(0, same.size, step):
                    part = same[lo : lo + step]
                    idx, st, vk = members[part], states[part], v[part][:, :, r - k :]
                    basis = self._phi_blocks(st, where, s) @ vk
                    basis /= np.sqrt((basis * basis).sum(axis=1, keepdims=True))  # np.linalg.norm's arithmetic
                    port1 = vk * (st < first_port)[:, :, None]
                    yield idx, basis @ (vk.transpose(0, 2, 1) @ port1 - np.eye(k) / n), basis
        lone = self._groups[1][:, None]
        yield lone, np.zeros(lone.shape + (0,)), np.zeros(lone.shape + (0,))

    def _pairs(self, left: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The one kernel of measurement entries: for one `_factors` batch, at
        (row, column) positions in members.ravel(), the sum over k of
        L[i] * B[j], _CHUNK_ELEMS products at a time, plus 1/N if row = column."""
        count, s, k = basis.shape
        left, basis = left.reshape(count * s, k), basis.reshape(count * s, k)
        vals = np.empty(rows.size)
        step = max(1, _CHUNK_ELEMS // max(1, k))
        for i in range(0, rows.size, step):
            pair = left[rows[i : i + step]]
            pair *= basis[cols[i : i + step]]
            vals[i : i + step] = pair.sum(axis=-1)
        vals[rows == cols] += 1 / self.ports  # identity share
        return vals

    def _join(self, members: np.ndarray, a_range: range, b_range: range):
        """The window entries of components `members` (count, s): row C digit in
        b_range, column C digit in a_range, equal spectator digits (A_2..A_N).

        A sorted join on (component, spectator) over positions in
        members.ravel(): returns (rows, cols, lo, hits), the row positions,
        the column positions sorted by key, and for each row the first
        matching column `lo` and the count `hits` of its matches."""
        d, n = self.levels, self.ports
        dn, ds = d**n, d ** (n - 1)
        s = members.shape[1]
        flat = members.ravel()
        digit = flat // dn
        in_b = (digit >= b_range.start) & (digit < b_range.stop)
        in_a = (digit >= a_range.start) & (digit < a_range.stop)
        if s == 1:  # untouched indices: each pairs with itself alone, if its C digit lies in both ranges
            both = np.flatnonzero(in_b & in_a)
            return both, both, np.arange(both.size), np.ones(both.size, dtype=np.int64)
        rows, cols = np.flatnonzero(in_b), np.flatnonzero(in_a)
        row_key = rows // s * ds + flat[rows] % ds  # position // s is the component
        col_key = cols // s * ds + flat[cols] % ds
        by_key = np.argsort(col_key)
        cols, col_key = cols[by_key], col_key[by_key]
        lo = np.searchsorted(col_key, row_key, "left")
        return rows, cols, lo, np.searchsorted(col_key, row_key, "right") - lo

    def _window(self, a_range: range, b_range: range):
        """The measurement entries the partial trace reads for the channel
        elements |a><b| with a in a_range and b in b_range: row C digit b,
        column C digit a, and equal row and column spectator digits
        (A_2..A_N).

        Streams `_factors` once.  In each batch the rows and columns of
        `_join` are paired and `_pairs` forms their entries; an untouched
        index, in the last batch, pairs only with itself, where its C digit
        lies in both ranges.  Sorted by (b, a), then row, then column; each
        entry keeps its element index (b - b0) len(a_range) + (a - a0), its
        A_1 digits (p of the row, q of the column) and its value times the
        spectator thermal product prod_k chi_x(r_k).  The sort key is unique
        per entry, so the order of the batches does not matter.
        """
        d, n = self.levels, self.ports
        dn, ds = d**n, d ** (n - 1)
        na, nb = len(a_range), len(b_range)
        if na * nb * dn * self.dim >= 2**63:
            raise ValueError(f"the gather sort key of {n} ports at cutoff {d} overflows int64")

        def sort_key(rows, cols):  # (b, a, row, column) in one int64
            element = (rows // dn - b_range.start) * na + cols // dn - a_range.start
            return (element * dn + rows % dn) * self.dim + cols

        keys, parts = [], []
        for members, left, basis in self._factors():
            rows, cols, lo, hits = self._join(members, a_range, b_range)
            ends = np.cumsum(hits)
            cols = cols[np.arange(hits.sum()) - np.repeat(ends - hits - lo, hits)]
            rows = np.repeat(rows, hits)
            flat = members.ravel()
            keys.append(sort_key(flat[rows], flat[cols]))
            parts.append(self._pairs(left, basis, rows, cols))
        key, vals = np.concatenate(keys), np.concatenate(parts)
        del keys, parts  # `working_set_mb` counts two copies of the entries at a time
        order = np.argsort(key)  # the key is unique, so any sort gives this order
        key, vals = key[order], vals[order]
        del order
        element, key = np.divmod(key, dn * self.dim)  # what is left: (row without its C digit, column)
        p, spectators = np.divmod(key // self.dim, ds)
        q = key % self.dim // ds % d
        del key
        chi_x = chi_vector(self.params.lambda_x, d)
        thermal = np.ones(1)
        for _ in range(n - 1):
            thermal = np.multiply.outer(thermal, chi_x).ravel()
        vals *= thermal[spectators]
        return element, p, q, vals


# ---------------------------------------------------------------------------
# dense protocol surfaces
# ---------------------------------------------------------------------------


def _overlaps(proto: TruncatedProtocol, ports) -> FockOperator:
    """sum_x phi_(i,x) phi_(i,x)^T over the ports i, dense, each port's
    outer(amps, amps) scattered in turn: an entry gets at most one term per
    port, added in port order as in Phi Phi^T."""
    d = proto.levels
    rows = proto._phi.reshape(proto.ports, -1, d)
    pair = np.outer(proto._amps, proto._amps)
    mat = np.zeros((proto.dim, proto.dim))
    for i in ports:
        mat[rows[i - 1][:, :, None], rows[i - 1][:, None, :]] += pair
    return FockOperator(mat, proto.ports + 1, proto.cutoff)


def build_sigma(i: int, proto: TruncatedProtocol) -> FockOperator:
    """Port overlap operator for port i on modes (C, A_1..A_N), dense."""
    if not 1 <= i <= proto.ports:
        raise ValueError(f"port index {i} outside 1..{proto.ports}")
    require_memory(proto.dense_mb(), "dense sigma")
    return _overlaps(proto, [i])


def build_rho(proto: TruncatedProtocol) -> FockOperator:
    """rho = sum_i sigma_i, dense."""
    require_memory(proto.dense_mb(), "dense rho")
    return _overlaps(proto, range(1, proto.ports + 1))


def build_povm_element(proto: TruncatedProtocol) -> FockOperator:
    """First POVM element, dense, with the eigenvalue census in `meta`: `_pairs`
    at every in-component pair of each `_factors` batch, _CHUNK_ELEMS at a time."""
    require_memory(proto.dense_mb(), "dense measurement element")  # before `povm_mb` runs the stages
    require_memory(proto.povm_mb(), "dense measurement element")
    mat = np.zeros((proto.dim, proto.dim))
    for members, left, basis in proto._factors():
        count, s = members.shape
        flat = members.ravel()
        for lo in range(0, count * s * s, _CHUNK_ELEMS):
            pair = np.arange(lo, min(lo + _CHUNK_ELEMS, count * s * s))  # (component, row, column), row-major
            rows = pair // s
            cols = rows - rows % s + pair % s
            mat[flat[rows], flat[cols]] = proto._pairs(left, basis, rows, cols)
    return FockOperator(mat, proto.ports + 1, proto.cutoff, meta=proto.eigenvalue_census())


def povm_element_explicit(proto: TruncatedProtocol) -> FockOperator:
    """Independent two-port construction of the first POVM element from the
    explicit resolved form (no eigendecomposition involved)."""
    if proto.ports != 2:
        raise ValueError("the explicit measurement form is the two-port case")
    require_memory(proto.dense_mb(), "dense measurement element")
    d = proto.levels
    ly = proto.params.lambda_y
    chi_y = chi_vector(ly, d)
    inv = 1 / np.sqrt(1 - chi_y**2)
    mat = np.eye(proto.dim) / 2
    signs = (-ly) ** np.arange(d)
    w = (1 - ly**2) / 2 * np.outer(signs, signs)  # (p, q)
    p, q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    for m in range(d):
        r1 = (p * d + p) * d + m
        c1 = (q * d + q) * d + m
        mat[r1.ravel(), c1.ravel()] += (w * inv[m]).ravel()
        r2 = (p * d + m) * d + p
        c2 = (q * d + m) * d + q
        mat[r2.ravel(), c2.ravel()] -= (w * inv[m]).ravel()
    return FockOperator(mat, 3, proto.cutoff)


def reduced_resource(a: int, b: int, proto: TruncatedProtocol) -> FockOperator:
    """Signal element |a><b| with the port resource, spectator receiver modes
    already traced out: an operator on (C, A_1..A_N, B_1)."""
    d, n = proto.levels, proto.ports
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) outside cutoff {d}")
    # the output and the copy permute_modes makes of it, and the operands of the last np.kron
    require_memory(2 * proto.dense_mb(extra_modes=1) + proto.dense_mb() + mib(d * d * 8), "dense reduced resource")
    lx = proto.params.lambda_x
    signal = np.zeros((d, d))
    signal[a, b] = 1.0
    amps = (-lx) ** np.arange(d)
    pair = (1 - lx**2) * np.einsum("p,q->pq", amps, amps)
    tmsv = np.zeros((d * d, d * d))
    for pp in range(d):
        for qq in range(d):
            tmsv[pp * d + pp, qq * d + qq] = pair[pp, qq]
    mat = np.kron(signal, tmsv)
    th = np.diag(chi_vector(lx, d))
    for _ in range(n - 1):
        mat = np.kron(mat, th)
    # modes currently (C, A_1, B_1, A_2..A_N) -> reorder to (C, A_1..A_N, B_1)
    perm = [0, 1] + list(range(3, n + 2)) + [2]
    return FockOperator(permute_modes(mat, perm, d), n + 2, proto.cutoff)


def channel_elements(proto: TruncatedProtocol, a_range: range, b_range: range) -> np.ndarray:
    """Channel outputs for |a><b| straight from the protocol, for every a in
    a_range and b in b_range: out[a - a_range.start, b - b_range.start] is
    N times the partial trace of the measurement against the reduced
    resource, a real d x d array.

    The resource fixes C to (a, b), ties A_1 to the output mode, and is
    diagonal in the spectators A_2..A_N with thermal weights chi_x.  So the
    trace reads only the measurement entries with row C = b, column C = a
    and equal spectator digits; one `_window` gathers them for the whole
    window, and one scatter sums them in the order a one-element window
    would, with no dense slice made.
    """
    d, n = proto.levels, proto.ports
    for name, window in (("a", a_range), ("b", b_range)):
        if not (window.step == 1 and 0 <= window.start < window.stop <= d):
            raise ValueError(f"{name} window {window} is not a non-empty run of levels inside cutoff {d}")
    proto._require_window(a_range, b_range, "channel gather")
    element, p, q, vals = proto._window(a_range, b_range)
    gathered = np.zeros((len(b_range), len(a_range), d, d))
    np.add.at(gathered.reshape(-1, d, d), (element, q, p), vals)
    lx = proto.params.lambda_x
    signs = (-lx) ** np.arange(d)
    return n * (1 - lx**2) * np.outer(signs, signs) * gathered.transpose(1, 0, 2, 3)


def brute_channel_element(a: int, b: int, proto: TruncatedProtocol) -> FockOperator:
    """Channel output for |a><b| straight from the protocol: the one-element
    window of `channel_elements`, with the eigenvalue census in `meta`."""
    d = proto.levels
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) outside cutoff {d}")
    out = channel_elements(proto, range(a, a + 1), range(b, b + 1))[0, 0]
    return FockOperator(out.astype(complex), 1, proto.cutoff, meta=proto.eigenvalue_census())


def verification_report(proto: TruncatedProtocol, a_max: int, b_max: int, tol: float = 1e-6) -> dict:
    """Compare the protocol channel against the analytic one element by element.

    The protocol side is one `channel_elements` window, a <= a_max and
    b <= b_max; the analytic side is the same window laid out from (C, T),
    read once from `arrays`: C[a, b] at (a, b) for a != b and T[a] on the
    diagonal for a = b, the entries `number_element` returns.  Returns a
    JSON-ready report: per-element deviations, trace deviations,
    eigenvalue census, dimensions, and the total runtime.
    """
    if a_max >= proto.levels or b_max >= proto.levels:
        raise ValueError("element range exceeds the cutoff")
    if a_max < 0 or b_max < 0:
        raise ValueError(f"element range must be non-negative, got a_max={a_max}, b_max={b_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    from . import nport

    t0 = time.perf_counter()
    elements = channel_elements(proto, range(a_max + 1), range(b_max + 1))  # declares the oracle's size first
    channel = nport.make_channel(proto.params, cap=proto.levels - 1 if proto.ports > 2 else None)
    c, t = channel.arrays(proto.levels)  # what `number_element` reads, read once
    a, b = np.arange(a_max + 1)[:, None], np.arange(b_max + 1)
    same, m = np.arange(min(a_max, b_max) + 1), np.arange(proto.levels)  # the elements a = b; output levels
    analytic = np.zeros_like(elements)
    analytic[a, b, a, b] = c[a, b]  # C's diagonal is zero, and T[a] fills the diagonal of |a><a|
    analytic[same[:, None], same[:, None], m, m] = t[same]
    dev = np.abs(elements - analytic).max(axis=(2, 3))
    # traces of the complex elements: numpy pairs a complex sum's terms differently from a real one's
    trace_dev = np.abs(np.trace(elements[same, same].astype(complex), axis1=1, axis2=2).real - 1.0).tolist()
    rows = [
        {"a": i, "b": j, "max_deviation": x, "trace_deviation": trace_dev[i] if i == j else None}
        for i, row in enumerate(dev.tolist())
        for j, x in enumerate(row)
    ]
    worst = float(dev.max())
    return {
        "ports": proto.ports,
        "levels": proto.levels,
        "lambda_x": proto.params.lambda_x,
        "lambda_y": proto.params.lambda_y,
        "kernel_tol": proto.kernel_tol,
        "dimension": proto.dim,
        "tolerance": tol,
        "max_deviation": worst,
        "passed": bool(worst <= tol),
        "eigenvalue_census": proto.eigenvalue_census(),
        "elements": rows,
        "total_seconds": time.perf_counter() - t0,
    }
