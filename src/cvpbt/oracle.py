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
One streamed pass visits the components one multiplicity pattern at a
time, a batch of them at a time: a stacked eigh of their Gram blocks, the
kernel cut, and the square-root measurement as two s x k factors per
block; then the batch is dropped.  An index with no A_i = C lies in no
component and holds the identity share 1/N alone, written once before the
pass.  The partial trace keeps only the measurement entries whose row and
column agree in the spectator digits, so a window of channel elements
pairs those rows and columns and forms each kept entry from the factors
alone: no s x s block, no table over the whole basis and none over all
d^2 elements is made on the verification path.

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

from .fock import Cutoff, FockOperator, _check_integer, _check_level, _check_positive, as_cutoff, chi_vector, permute_modes
from .two_port import ChannelParams, _check_point

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
_CHUNK_ELEMS = 1 << 16  # entries per batch of components, pair chunk or dense-element chunk, which bounds their temporaries


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
    _check_positive(mb, "CVPBT_MEM_BUDGET_MB")
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
    """Protocol objects for N ports at a common per-mode cutoff, at one
    parameter point.

    kernel_tol, a class constant, is the relative eigenvalue threshold
    separating the kernel of rho from its support; eigenvalues between
    kernel_tol and the suspect band limit are counted and reported rather
    than silently classified.  Each surface declares its size to
    `require_memory` first, from counts alone; a parameter grid or a bad
    CVPBT_MEM_BUDGET_MB already fails construction.

    The stages are one streamed pass over rho's components (`_spectra`), one
    multiplicity pattern at a time and a batch of its components at a time:
    their members and port states, Gram blocks, one stacked eigh and the
    kernel cut.  `_factors` turns each batch into the measurement in factored
    form, and a window of channel elements (`_window`) or the dense element
    (`build_povm_element`) reads it once, forming entries with `_pairs`; each
    batch is dropped before the next is made.  Only the Phi index table
    (`_phi`) and the census recorded by the first pass to finish (`_census`)
    are kept.  Neither is a field, so two protocols of equal params and
    cutoff compare equal whichever have run.
    """

    kernel_tol: ClassVar[float] = 1e-10
    params: ChannelParams
    cutoff: Cutoff

    def __post_init__(self):
        _check_point(self.params)
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

    def _batch_cost(self, s: int, r: int) -> int:
        """Entries one component of s members and r port states holds while
        its batch is in `_spectra` and `_factors`: 2 s r for its Phi block and
        B and L, r^2 for its Gram block and eigenvectors with their kept copy
        and the k x k products, and r (D + 2N) for the Gram pairing
        temporaries (its rows of `_phi` and the shared index, partner and
        value of each port pair).  A batch holds as many components of one
        multiplicity pattern as _CHUNK_ELEMS entries allow, or one."""
        return 2 * s * r + r * r + r * (self.levels + 2 * self.ports)

    def _largest_component(self) -> tuple[int, int]:
        """(s, r) of the largest component, from counts alone: that of the
        N - 1 levels spread as evenly as D levels allow.

        Multiplicities m_1..m_p give r = N!/prod(m!) port states, the
        arrangements of the marker and the levels over N slots, and s members,
        the arrangements of the multiset plus the C digit c over the N A-slots:
        r for each of the D - p levels c it lacks, r/(m_j + 1) for its level j.
        Moving one copy of a level of multiplicity m_i to one of m_j <= m_i - 2
        (0 included) multiplies r by m_i/(m_j + 1) and each of the terms of s
        by one of m_i/(m_j + 1), (m_i + 1)/(m_j + 1) or m_i/(m_j + 2), none
        below 1, so the most even pattern, `nport._largest_layout`, has the
        largest r and s of all."""
        from .nport import _largest_layout  # nport imports this module

        mults, r = _largest_layout(self.ports, self.levels)
        return r * (self.levels - len(mults)) + sum(r // (m + 1) for m in mults), r

    def working_set_mb(self, a_range: range, b_range: range) -> float:
        """Peak of the pass gathering the channel elements of a window and
        comparing them, from counts alone, before anything the size of the
        basis is made: the largest batch plus the window.

        Counted in entries of _BYTES_PER_ENTRY bytes: the larger of
        _CHUNK_ELEMS and `_batch_cost` of `_largest_component` for the largest
        batch; 2 N D^N for the `_phi` table and a pattern's index tables (its
        port states' rows, their sort and positions); _CHUNK_ELEMS for the
        pair products of `_pairs`; 2 per window entry (the `_window` slot
        array, and the positions and values of the batch that fills it); and
        2 per value of the dense (len(a), len(b), d, d) output,
        which covers its scatter and scaled copy, then the report's analytic
        window and their difference.  The pass builds no rho or sigma, no
        s x s block and no table over all d^2 elements.

        The window entries, one per slot, are counted exactly.  Row (b, A)
        and column (a, A') of one component with equal spectators need
        multiset(A) - {b} = multiset(A') - {a}, so {A'_1, b} = {A_1, a}:
        either A_1 = b and A'_1 = a, D^(N-1) rows for each (a, b), or a = b
        and the column is the row, the other D^N - D^(N-1) rows of each a in
        both ranges (those outside every component included, whose slots
        hold 1/N)."""
        d, n, dn = self.levels, self.ports, self.levels**self.ports
        elements = len(a_range) * len(b_range)
        both = len(range(max(a_range.start, b_range.start), min(a_range.stop, b_range.stop)))
        window = elements * d ** (n - 1) + both * (dn - d ** (n - 1))
        batch = max(_CHUNK_ELEMS, self._batch_cost(*self._largest_component()))
        return mib(_BYTES_PER_ENTRY * (batch + 2 * n * dn + _CHUNK_ELEMS + 2 * window + 2 * elements * d * d))

    def povm_mb(self) -> float:
        """Peak of `build_povm_element`: the dense output, the stage terms of
        `working_set_mb` (its figure for an empty window) and the largest
        chunk, m <= _CHUNK_ELEMS pairs of one batch (whose members number at
        most the basis, each with at most s of the largest component): 2 m
        entries for their positions and values, min(_CHUNK_ELEMS, m r) for
        products."""
        s, r = self._largest_component()
        m = min(_CHUNK_ELEMS, self.dim * s)
        chunk = 2 * m + min(_CHUNK_ELEMS, m * r)
        return self.dense_mb() + self.working_set_mb(range(0), range(0)) + mib(_BYTES_PER_ENTRY * chunk)

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

    # -- the streamed pass over connected components -------------------------

    def _spectra(self):
        """rho's components with their Gram eighs, streamed one batch at a
        time as (members (b, s), states (b, r), pos (b, r, D), w, v, kept):
        each row the ascending members and port states of one component, pos
        the rows of each port state as positions among the members, then its
        Gram block's eigenpairs and the count kept by the kernel cut.  A pass
        that finishes records the eigenvalue census as `_census`.

        rho = Phi Phi^T links two indices exactly when a chain of port states
        sharing an index joins them.  The components are the multisets of
        N - 1 levels, the sectors of `nport`: port state (i, x) touches
        exactly the indices with C = A_i = c and spectators x, so an index it
        shares with (j, y) has multiset(x) = multiset(A) - {C} = multiset(y),
        and no chain leaves a multiset; within one, the port states are its
        arrangements, and swapping the marker joins them all.  So the pass
        reads the components off the D^(N-1) spectator digits: each x is
        keyed by its digits sorted ascending and read in base D, which is also
        its multiset's smallest arrangement, and a component's members are its
        port states' rows of `_phi`, sorted and de-duplicated.  The components
        of one multiplicity pattern share (s, r) and go in ascending key, as
        many at a time as `_batch_cost` allows.  The indices with no A_i = C
        are touched by no port state and lie in no component: kernel, where
        the measurement is I/N alone.

        The kernel cut needs the largest eigenvalue of all blocks before the
        first is cut.  It is that of the {0, ..., 0} component, which leads
        the first batch: a Gram block is entrywise nonnegative, so no
        eigenvalue exceeds its largest row sum, the diagonal sum_c amps[c]^2
        plus amps[m]^2 over the row's N - 1 spectator levels m, and every
        row sum of the {0, ..., 0} block is that bound at m = 0, its largest
        eigenvalue, while every other row has a level m > 0.  A block above
        it is a RuntimeError.
        """
        d, n = self.levels, self.ports
        ds = d ** (n - 1)
        place = d ** np.arange(n - 2, -1, -1)  # place values of the N - 1 spectator digits
        digits = np.sort(np.arange(ds)[:, None] // place % d, axis=1)
        # the multisets, ascending, each x's and their arrangement counts
        keys, labels, sizes = np.unique(digits @ place, return_inverse=True, return_counts=True)
        multisets = digits[keys]
        # each slot's level multiplicity, sorted: one row per multiplicity pattern
        slot_mults = np.sort((multisets[:, :, None] == multisets[:, None, :]).sum(axis=2), axis=1)
        patterns = np.unique(slot_mults, axis=0, return_inverse=True)[1].ravel()
        arrangements = np.argsort(labels, kind="stable")  # each multiset's x, ascending
        starts = np.cumsum(sizes) - sizes
        where = np.empty(n * ds, dtype=np.int64)  # each port state's position in its component
        kept_total = support = 0
        max_eig = None
        for pattern in dict.fromkeys(patterns.tolist()):  # in order of their first multiset, {0, ..., 0} first
            comps = np.flatnonzero(patterns == pattern)
            xs = arrangements[starts[comps][:, None] + np.arange(sizes[comps[0]])]
            states = (np.arange(n)[:, None] * ds + xs[:, None]).reshape(comps.size, -1)  # port slowest
            where[states] = np.arange(states.shape[1])
            offset = np.arange(comps.size)[:, None, None] * self.dim  # one sort keeps the components apart
            members, pos = np.unique(self._phi[states] + offset, return_inverse=True)
            members = members.reshape(comps.size, -1) - offset[:, :, 0]
            pos = pos.reshape(states.shape + (d,)) - offset // self.dim * members.shape[1]
            step = max(1, _CHUNK_ELEMS // self._batch_cost(members.shape[1], states.shape[1]))
            for lo in range(0, comps.size, step):
                part = slice(lo, lo + step)
                w, v = np.linalg.eigh(self._gram_blocks(states[part], where))
                if max_eig is None:
                    max_eig = float(w[0, -1])
                    cut = self.kernel_tol * max_eig  # w ascends, so the kept are each block's last
                if w[:, -1].max() > max_eig:
                    raise RuntimeError("a Gram block's largest eigenvalue exceeds that of the {0, ..., 0} component")
                kept = (w > cut).sum(axis=1)
                kept_total += int(kept.sum())
                support += int((w > SUSPECT_BAND * max_eig).sum())
                yield members[part], states[part], pos[part], w, v, kept
        self._census = dict(kernel=self.dim - kept_total, suspect=kept_total - support, support=support,
                            max_eigenvalue=max_eig)

    def _phi_blocks(self, pos: np.ndarray, s: int) -> np.ndarray:
        """Phi on the s members and r port states of each component, shape
        (k, s, r), one scatter of `_amps`; `pos` (k, r, D) gives each port
        state's rows as positions among its component's members."""
        k, r, _ = pos.shape
        out = np.zeros((k, s, r))
        out[np.arange(k)[:, None, None], pos, np.arange(r)[:, None]] = self._amps
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

    def eigenvalue_census(self) -> dict:
        """Counts of kernel / suspect-band / support eigenvalues of rho.

        Kernel is all but the Gram eigenvalues kept by the kernel cut of
        `_spectra` (untouched indices and each component's s - r exact zeros
        included), support the kept ones above the suspect band, suspect the
        rest.  Read from the census the first finished pass recorded; before
        one has, a pass runs that forms no measurement, declared first as
        `working_set_mb` of an empty window.  Each call returns a new dict."""
        if "_census" not in vars(self):
            require_memory(self.working_set_mb(range(0), range(0)), "eigenvalue census")
            for _ in self._spectra():
                pass
        return dict(self._census)

    def _factors(self):
        """First measurement element in factored form, one batch at a time, as
        (members, L, B): the element on the ascending indices members[j] is
        L[j] B[j]^T + I/N, with L and B each (s, k); on every index outside
        the components it is 1/N alone.

        With G = V g V^T and V_k its k eigenvectors above the cut, the columns
        of B = Phi V_k g_k^(-1/2) are an orthonormal basis of rho's support,
        and rho^(-1/2) sigma_1 rho^(-1/2) = B V_k^T E_1 V_k B^T, where E_1
        masks the port-1 states.  So L = B (V_k^T E_1 V_k - I/N).  Each column
        Phi v_j of B is divided by its computed norm, which is sqrt(g_j) in
        exact arithmetic but carries none of the eigenvalue error of a small
        g_j.  Each `_spectra` batch is split by k.
        """
        n = self.ports
        first_port = self.levels ** (n - 1)  # port-1 states are Phi's first columns
        for members, states, pos, _, v, kept in self._spectra():
            s, r = members.shape[1], states.shape[1]
            for k in sorted(set(kept.tolist())):
                same = np.flatnonzero(kept == k)
                vk = v[same][:, :, r - k :]
                basis = self._phi_blocks(pos[same], s) @ vk
                basis /= np.sqrt((basis * basis).sum(axis=1, keepdims=True))  # np.linalg.norm's arithmetic
                port1 = vk * (states[same] < first_port)[:, :, None]
                yield members[same], basis @ (vk.transpose(0, 2, 1) @ port1 - np.eye(k) / n), basis

    def _pairs(self, left: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The one kernel of measurement entries: for one `_factors` batch, at
        (row, column) positions in members.ravel(), the sum over k of
        L[i] * B[j], _CHUNK_ELEMS products at a time, plus 1/N if row = column."""
        count, s, k = basis.shape
        left, basis = left.reshape(count * s, k), basis.reshape(count * s, k)
        vals = np.empty(rows.size)
        step = max(1, _CHUNK_ELEMS // k)
        for i in range(0, rows.size, step):
            pair = left[rows[i : i + step]]
            pair *= basis[cols[i : i + step]]
            vals[i : i + step] = pair.sum(axis=-1)
        vals[rows == cols] += 1 / self.ports  # identity share
        return vals

    def _join(self, members: np.ndarray, a_range: range, b_range: range):
        """The window entries of components `members` (count, s) as (rows,
        cols, slots): positions in members.ravel(), row C digit b in b_range,
        column C digit a in a_range, equal spectator digits x (A_2..A_N), and
        each entry's place in the `_window` slot array.

        Row (b, A) and column (a, A') of one component need
        multiset(A) - {b} = multiset(A') - {a}, so {A'_1, b} = {A_1, a}: a
        row with A_1 = b meets the column (a, a, x) of every a, found
        among its component's sorted members by one searchsorted, and any
        other row meets itself alone, where its C digit lies in both ranges."""
        d, n = self.levels, self.ports
        dn, ds = d**n, d ** (n - 1)
        na, nb = len(a_range), len(b_range)
        count, s = members.shape
        flat = members.ravel()
        digit, first, x = flat // dn, flat // ds % d, flat % ds
        in_b = (digit >= b_range.start) & (digit < b_range.stop)
        lead = np.flatnonzero(in_b & (first == digit))
        itself = np.flatnonzero(in_b & (first != digit) & (digit >= a_range.start) & (digit < a_range.stop))
        apart = np.arange(count * s) // s * self.dim  # keeps the components' members apart, each ascending
        wanted = np.arange(a_range.start, a_range.stop) * (dn + ds) + (x[lead] + apart[lead])[:, None]
        cols = np.searchsorted(flat + apart, wanted).ravel()
        rows = np.concatenate([np.repeat(lead, na), itself])
        # the cell (b, a) of each lead row with each column, then the cell (c, p), p != c, of each row alone
        c, p = digit[itself], first[itself]
        cells = np.concatenate([(((digit[lead] - b_range.start) * na)[:, None] + np.arange(na)).ravel(),
                                na * nb + (c - max(a_range.start, b_range.start)) * (d - 1) + p - (p > c)])
        return rows, np.concatenate([cols, itself]), cells * ds + x[rows]

    def _window(self, a_range: range, b_range: range):
        """The measurement entries the partial trace reads for the channel
        elements |a><b| with a in a_range and b in b_range: row C digit b,
        column C digit a, and equal row and column spectator digits x
        (A_2..A_N), each times the spectator thermal product
        prod_k chi_x(x_k).

        Laid out by slot, one row of D^(N-1) spectators x per cell: first the
        cells (b, a), b slowest, pairing row (b, b, x) with column (a, a, x);
        then, for each c in both ranges, the cells (c, p) with p != c in
        ascending p, pairing row (c, p, x) with itself.  The cells (c, p)
        start at 1/N, the entry of every index no component holds (no A_i =
        C); then `_factors` streams once: in each batch `_join` pairs the rows
        and columns and places them, and `_pairs` forms their entries.  Each
        component's slot is written exactly once, so the order of the batches
        does not matter.

        Returns (slots, at): `at` is each cell's place in the flattened
        (len(b_range), len(a_range), d, d) output (b, a, q, p), q the
        column's A_1 digit and p the row's: (b, a, a, b) for the cell (b, a),
        (c, c, p, p) for the cell (c, p).
        """
        d, n = self.levels, self.ports
        na, nb = len(a_range), len(b_range)
        both = range(max(a_range.start, b_range.start), min(a_range.stop, b_range.stop))
        slots = np.zeros((na * nb + len(both) * (d - 1), d ** (n - 1)))
        slots[na * nb :] = 1 / n  # identity share
        for members, left, basis in self._factors():
            rows, cols, at = self._join(members, a_range, b_range)
            slots.ravel()[at] = self._pairs(left, basis, rows, cols)
        chi_x = chi_vector(self.params.lambda_x, d)
        slots *= np.prod(np.meshgrid(*[chi_x] * (n - 1), indexing="ij"), axis=0).ravel()  # prod_k chi_x(x_k)
        b, a = np.divmod(np.arange(nb * na), na)
        c, p = np.nonzero(np.arange(d) != np.array(both)[:, None])
        c += both.start
        element = np.concatenate([b * na + a, (c - b_range.start) * na + c - a_range.start])
        return slots, element * d * d + np.concatenate([(a + a_range.start) * d + b + b_range.start, p * (d + 1)])


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
    """First POVM element, dense, with the eigenvalue census in `meta`: I/N
    on the diagonal, then `_pairs` at every in-component pair of each
    `_factors` batch, _CHUNK_ELEMS at a time."""
    require_memory(proto.povm_mb(), "dense measurement element")
    mat = np.zeros((proto.dim, proto.dim))
    np.fill_diagonal(mat, 1 / proto.ports)
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
    a, b = _check_level(a, d, "element index a"), _check_level(b, d, "element index b")
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
    window, and one scatter adds each of its cells over the spectators in
    ascending order, as a one-element window would, with no dense slice
    made: cell (b, a) into the (a, b) entry of |a><b|, cell (c, p) into the
    (p, p) entry of |c><c|.
    """
    d, n = proto.levels, proto.ports
    for name, window in (("a", a_range), ("b", b_range)):
        if not (window.step == 1 and 0 <= window.start < window.stop <= d):
            raise ValueError(f"{name} window {window} is not a non-empty run of levels inside cutoff {d}")
    require_memory(proto.working_set_mb(a_range, b_range), "channel gather")
    slots, at = proto._window(a_range, b_range)
    gathered = np.zeros((len(b_range), len(a_range), d, d))
    np.add.at(gathered.reshape(-1), np.broadcast_to(at[:, None], slots.shape), slots)
    lx = proto.params.lambda_x
    signs = (-lx) ** np.arange(d)
    return n * (1 - lx**2) * np.outer(signs, signs) * gathered.transpose(1, 0, 2, 3)


def brute_channel_element(a: int, b: int, proto: TruncatedProtocol) -> FockOperator:
    """Channel output for |a><b| straight from the protocol: the one-element
    window of `channel_elements`, with the eigenvalue census in `meta`.  Each
    call runs the whole streamed pass, one eigh per component, so ask
    `channel_elements` for one window of several elements."""
    d = proto.levels
    a, b = _check_level(a, d, "element index a"), _check_level(b, d, "element index b")
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
    a_max, b_max = _check_integer(a_max, "element range a_max", 0), _check_integer(b_max, "element range b_max", 0)
    if a_max >= proto.levels or b_max >= proto.levels:
        raise ValueError("element range exceeds the cutoff")
    _check_positive(tol, "tolerance")
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
