"""Brute-force protocol construction of the teleportation channel.

Everything here is built directly from the protocol definition in a
truncated multimode Fock space: the port resource, the summed overlap
operator rho, the square-root measurement, and the channel as a
partial trace.  No closed-form channel expression enters, which makes
this module the independent ground truth for the analytic ones.

Everything stays sparse.  rho splits into the connected components of its
sparsity pattern; components of one size share a stacked eigh, and the
measurement comes from those stacks one batch of blocks at a time.  Each
channel element reads only the measurement entries that the partial trace
keeps, from a table gathered once per protocol out of those batches.

Mode order is (C, A_1, ..., A_N), C slowest; the receiver mode B_1
joins only in the reduced resource.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

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
    "verification_report",
]

DEFAULT_BUDGET_MB = 2048.0
SUSPECT_BAND = 1e-6  # relative; eigenvalues between kernel_tol and this are flagged
_BYTES_PER_ENTRY = 24  # see TruncatedProtocol.working_set_mb
_CHUNK_ELEMS = 1 << 18  # block entries per stacked POVM batch, which bounds its temporaries


class MemoryBudgetError(RuntimeError):
    def __init__(self, required_mb: float, budget_mb: float, what: str):
        super().__init__(
            f"{what} needs about {required_mb:.0f} MiB, budget is {budget_mb:.0f} MiB "
            "(raise CVPBT_MEM_BUDGET_MB to override)"
        )
        self.required_mb = required_mb
        self.budget_mb = budget_mb


def _env_budget() -> float:
    raw = os.environ.get("CVPBT_MEM_BUDGET_MB")
    if raw is None:
        return DEFAULT_BUDGET_MB
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"CVPBT_MEM_BUDGET_MB must be numeric, got {raw!r}") from exc


@dataclass
class TruncatedProtocol:
    """Protocol objects for N ports at a common per-mode cutoff.

    kernel_tol is the relative eigenvalue threshold separating the kernel
    of rho from its support; eigenvalues between kernel_tol and the
    suspect band limit are counted and reported rather than silently
    classified.
    """

    params: ChannelParams
    cutoff: Cutoff
    kernel_tol: float = 1e-10
    mem_budget_mb: float | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.cutoff = as_cutoff(self.cutoff)
        if not 0 < self.kernel_tol <= 1e-6:
            raise ValueError("kernel_tol must lie in (0, 1e-6]")
        if self.mem_budget_mb is None:
            self.mem_budget_mb = _env_budget()
        if not (math.isfinite(self.mem_budget_mb) and self.mem_budget_mb > 0):
            raise ValueError(f"memory budget must be finite and > 0 MiB, got {self.mem_budget_mb!r}")

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
        return d * d * 8 / 2**20

    def working_set_mb(self) -> float:
        """Peak of the sparse-block route, from the component sizes of rho
        before any eigendecomposition.

        Counted in entries of _BYTES_PER_ENTRY bytes over components of
        sizes s > 1: sum(s^2) for the eigenvector stacks, the stacked eigh
        input of one size group and eigh's own copies; min(sum(s^2),
        _CHUNK_ELEMS) for the temporaries of one measurement batch; and per
        basis index 2 * ports for the sparse rho and its sigmas, plus 8 for
        the component labels and the gather table.  Computed once per
        protocol.
        """
        if "working_set_mb" not in self._cache:
            sizes = np.bincount(self._labels())
            blocks = float((sizes[sizes > 1] ** 2).sum())
            entries = blocks + min(blocks, _CHUNK_ELEMS) + (2 * self.ports + 8) * self.dim
            self._cache["working_set_mb"] = _BYTES_PER_ENTRY * entries / 2**20
        return self._cache["working_set_mb"]

    def _require(self, mb: float, what: str):
        if mb > self.mem_budget_mb:
            raise MemoryBudgetError(mb, self.mem_budget_mb, what)

    # -- sparse protocol objects --------------------------------------------

    def _port_layout(self, i: int):
        """Flat-index offsets of the spectator A modes and the weight of A_i."""
        d, n = self.levels, self.ports
        weights = [d ** (n - j) for j in range(1, n + 1)]  # A_1 .. A_N
        spectators = [w for j, w in enumerate(weights, start=1) if j != i]
        rest = np.arange(d ** (n - 1))
        offs = np.zeros(d ** (n - 1), dtype=np.int64)
        r = rest.copy()
        for w in reversed(spectators):
            offs += (r % d) * w
            r //= d
        return offs, weights[i - 1]

    def sigma_sparse(self, i: int) -> sp.csr_matrix:
        if not 1 <= i <= self.ports:
            raise ValueError(f"port index {i} outside 1..{self.ports}")
        key = ("sigma", i)
        if key not in self._cache:
            d = self.levels
            ly = self.params.lambda_y
            offs, w_i = self._port_layout(i)
            c = np.arange(d)
            amps = (1 - ly**2) * np.outer((-ly) ** c, (-ly) ** c)  # (c, c')
            base_row = (c * d**self.ports + c * w_i)[:, None, None]
            base_col = (c * d**self.ports + c * w_i)[None, :, None]
            rows = (base_row + offs[None, None, :]).repeat(d, axis=1)
            cols = (base_col + offs[None, None, :]).repeat(d, axis=0)
            vals = np.broadcast_to(amps[:, :, None], rows.shape)
            mat = sp.coo_matrix(
                (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(self.dim, self.dim)
            )
            self._cache[key] = mat.tocsr()
        return self._cache[key]

    def rho_sparse(self) -> sp.csr_matrix:
        if "rho" not in self._cache:
            # at most ports * dim entries, summed from as many cached sigmas
            self._require(_BYTES_PER_ENTRY * 2 * self.ports * self.dim / 2**20, "sparse rho")
            total = self.sigma_sparse(1)
            for i in range(2, self.ports + 1):
                total = total + self.sigma_sparse(i)
            self._cache["rho"] = total.tocsr()
        return self._cache["rho"]

    # -- spectral decomposition over connected components --------------------

    def _labels(self) -> np.ndarray:
        """Connected-component label of every basis index under rho's sparsity."""
        if "labels" not in self._cache:
            pattern = self.rho_sparse().copy()
            pattern.data = np.ones_like(pattern.data)
            self._cache["labels"] = csgraph.connected_components(pattern, directed=False)[1]
        return self._cache["labels"]

    def _dense_blocks(self, mat: sp.csr_matrix, members: np.ndarray) -> np.ndarray:
        """Stack of mat[idx][:, idx] for the equal-size components whose
        ascending members are the rows of `members`, shape (k, s, s), read
        from the CSR rows of those members alone."""
        labels = self._labels()
        k, s = members.shape
        flat = members.ravel()
        sub = mat[flat].tocoo()  # row r of sub is row flat[r] of mat
        hit = labels[sub.col] == labels[flat[sub.row]]
        pos = np.empty(self.dim, dtype=np.int64)
        pos[flat] = np.tile(np.arange(s), k)
        out = np.zeros((k, s, s))
        out[sub.row[hit] // s, sub.row[hit] % s, pos[sub.col[hit]]] = sub.data[hit]
        return out

    def _components(self):
        """Invariant blocks of rho discovered from its sparsity pattern alone.

        Returns ([(idx, w, v), ...], max_eig): one entry per component of more
        than one index, ordered by smallest member, each with its ascending
        members and eigendecomposition.  Components of equal size share one
        stacked eigh; the stacks are kept for `_povm_blocks`.
        """
        if "components" not in self._cache:
            labels = self._labels()
            order = np.argsort(labels, kind="stable")  # members of each label, ascending
            sizes = np.bincount(labels)
            starts = np.cumsum(sizes) - sizes
            comps = np.argsort(order[starts], kind="stable")  # by smallest member
            comps = comps[sizes[comps] > 1]  # singletons are untouched by rho: exact kernel
            rank = np.empty(len(sizes), dtype=np.int64)
            rank[comps] = np.arange(len(comps))
            rho = self.rho_sparse()
            blocks = [None] * len(comps)
            stacks = []
            for s in np.unique(sizes[comps]):
                group = comps[sizes[comps] == s]
                members = order[starts[group][:, None] + np.arange(s)]
                w, v = np.linalg.eigh(self._dense_blocks(rho, members))
                stacks.append((members, w, v))
                for j, c in enumerate(group):
                    blocks[rank[c]] = (members[j], w[j], v[j])
            max_eig = max((float(w.max()) for _, w, _ in stacks), default=0.0)
            self._cache["stacks"] = stacks
            self._cache["components"] = (blocks, max_eig)
        return self._cache["components"]

    def eigenvalue_census(self) -> dict:
        """Counts of kernel / suspect-band / support eigenvalues of rho.

        Counted once per protocol; each call returns its own copy."""
        if "census" not in self._cache:
            blocks, max_eig = self._components()
            kernel = suspect = support = 0
            for _, w, _ in blocks:
                kernel += int((w <= self.kernel_tol * max_eig).sum())
                band = (w > self.kernel_tol * max_eig) & (w <= SUSPECT_BAND * max_eig)
                suspect += int(band.sum())
                support += int((w > SUSPECT_BAND * max_eig).sum())
            explicit = sum(len(idx) for idx, _, _ in blocks)
            kernel += self.dim - explicit  # singleton components
            self._cache["census"] = {
                "kernel": kernel, "suspect": suspect, "support": support, "max_eigenvalue": max_eig
            }
        return dict(self._cache["census"])

    def _povm_blocks(self):
        """First measurement element, one batch at a time, as (members, blocks):
        blocks[j] is the element on the ascending indices members[j].

        Each batch holds components of one size: the inverse-root sandwich of
        sigma_1 plus the uniform kernel share, from the stacked eigenvectors.
        The indices rho does not touch come last, as 1x1 blocks holding 1/N.
        """
        _, max_eig = self._components()
        s1 = self.sigma_sparse(1)
        n = self.ports
        for members, w, v in self._cache["stacks"]:
            k, s = members.shape
            kept = (w > self.kernel_tol * max_eig).sum(axis=1)  # w ascends: kernel first
            step = max(1, _CHUNK_ELEMS // (s * s))
            for lo in range(0, k, step):
                part = slice(lo, lo + step)
                idx, wp, vp, kp = members[part], w[part], v[part], kept[part]
                s1_blocks = self._dense_blocks(s1, idx)
                block = np.empty((len(idx), s, s))
                for r in np.unique(kp):
                    sel = kp == r
                    # each (s, r) slice column-major, as v[:, keep] is for
                    # one block, so that BLAS sums in the same order
                    vk_t = np.ascontiguousarray(vp[sel][:, :, s - r :].transpose(0, 2, 1))
                    vk = vk_t.transpose(0, 2, 1)
                    inv_root = (vk / np.sqrt(wp[sel][:, None, s - r :])) @ vk_t
                    block[sel] = inv_root @ s1_blocks[sel] @ inv_root - (vk @ vk_t) / n
                block.reshape(-1, s * s)[:, :: s + 1] += 1 / n  # identity share
                yield idx, block
        labels = self._labels()
        lone = np.flatnonzero(np.bincount(labels)[labels] == 1)  # untouched by rho
        yield lone[:, None], np.full((lone.size, 1, 1), 1 / n)

    def _gather_table(self):
        """Measurement entries whose row and column spectator digits (A_2..A_N) agree.

        Sorted by (row C digit b, column C digit a), then row, then column,
        with offsets per (b, a); each entry keeps its A_1 digits (p of the
        row, q of the column) and its value times the spectator thermal
        product prod_k chi_x(r_k).
        """
        if "gather" not in self._cache:
            d, n = self.levels, self.ports
            dn, ds = d**n, d ** (n - 1)
            parts = []
            for members, blocks in self._povm_blocks():
                spectators = members % ds
                hit = spectators[:, :, None] == spectators[:, None, :]
                rows = np.broadcast_to(members[:, :, None], blocks.shape)[hit]
                cols = np.broadcast_to(members[:, None, :], blocks.shape)[hit]
                parts.append((rows, cols, blocks[hit]))
            rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
            chi_x = chi_vector(self.params.lambda_x, d)
            thermal = np.ones(1)
            for _ in range(n - 1):
                thermal = np.multiply.outer(thermal, chi_x).ravel()
            key = (rows // dn) * d + cols // dn
            order = np.lexsort((cols, rows, key))
            offsets = np.searchsorted(key[order], np.arange(d * d + 1))
            rows, cols = rows[order], cols[order]
            vals = vals[order] * thermal[rows % ds]
            self._cache["gather"] = (offsets, (rows // ds) % d, (cols // ds) % d, vals)
        return self._cache["gather"]


# ---------------------------------------------------------------------------
# dense protocol surfaces
# ---------------------------------------------------------------------------


def build_sigma(i: int, proto: TruncatedProtocol) -> FockOperator:
    """Port overlap operator for port i on modes (C, A_1..A_N), dense."""
    proto._require(proto.dense_mb(), "dense sigma")
    mat = proto.sigma_sparse(i).toarray()
    return FockOperator(mat, proto.ports + 1, proto.cutoff)


def build_rho(proto: TruncatedProtocol) -> FockOperator:
    proto._require(proto.dense_mb(), "dense rho")
    mat = proto.rho_sparse().toarray()
    return FockOperator(mat, proto.ports + 1, proto.cutoff)


def build_povm_element(proto: TruncatedProtocol) -> FockOperator:
    """First POVM element, dense, with the eigenvalue census in `meta`."""
    proto._require(proto.dense_mb(), "dense measurement element")
    mat = np.zeros((proto.dim, proto.dim))
    for members, blocks in proto._povm_blocks():
        mat[members[:, :, None], members[:, None, :]] = blocks
    return FockOperator(mat, proto.ports + 1, proto.cutoff, meta=proto.eigenvalue_census())


def povm_element_explicit(proto: TruncatedProtocol) -> FockOperator:
    """Independent two-port construction of the first POVM element from the
    explicit resolved form (no eigendecomposition involved)."""
    if proto.ports != 2:
        raise ValueError("the explicit measurement form is the two-port case")
    proto._require(proto.dense_mb(), "dense measurement element")
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
    proto._require(proto.dense_mb(extra_modes=1), "dense reduced resource")
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


def brute_channel_element(a: int, b: int, proto: TruncatedProtocol) -> FockOperator:
    """Channel output for |a><b| straight from the protocol: N times the
    partial trace of the measurement against the reduced resource.

    The resource fixes C to (a, b), ties A_1 to the output mode, and is
    diagonal in the spectators A_2..A_N with thermal weights chi_x.  So the
    trace reads only the measurement entries with row C = b, column C = a
    and equal spectator digits; these come from the sparse measurement's
    gather table and are summed into the output with no dense slice made.
    """
    d, n = proto.levels, proto.ports
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) outside cutoff {d}")
    proto._require(proto.working_set_mb(), "channel gather")
    offsets, p, q, vals = proto._gather_table()
    span = slice(offsets[b * d + a], offsets[b * d + a + 1])
    gathered = np.zeros((d, d))
    np.add.at(gathered, (q[span], p[span]), vals[span])
    lx = proto.params.lambda_x
    signs = (-lx) ** np.arange(d)
    out = n * (1 - lx**2) * np.outer(signs, signs) * gathered
    return FockOperator(out.astype(complex), 1, proto.cutoff, meta=proto.eigenvalue_census())


def _analytic_reference(proto: TruncatedProtocol):
    from . import nport

    channel = nport.make_channel(proto.params, cap=proto.levels - 1)

    def element(a, b):
        return channel.number_element(a, b, proto.cutoff).matrix

    return element


def verification_report(proto: TruncatedProtocol, a_max: int, b_max: int, tol: float = 1e-6) -> dict:
    """Compare the protocol channel against the analytic one element by element.

    Returns a JSON-ready report: per-element deviations, trace deviations,
    eigenvalue census, dimensions, and runtimes.
    """
    if a_max >= proto.levels or b_max >= proto.levels:
        raise ValueError("element range exceeds the cutoff")
    if a_max < 0 or b_max < 0:
        raise ValueError(f"element range must be non-negative, got a_max={a_max}, b_max={b_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    t0 = time.perf_counter()
    analytic = _analytic_reference(proto)
    rows = []
    worst = 0.0
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            t1 = time.perf_counter()
            brute = brute_channel_element(a, b, proto).matrix
            dev = float(np.abs(brute - analytic(a, b)).max())
            entry = {
                "a": a,
                "b": b,
                "max_deviation": dev,
                "trace_deviation": abs(float(brute.trace().real) - 1.0) if a == b else None,
                "seconds": time.perf_counter() - t1,
            }
            rows.append(entry)
            worst = max(worst, dev)
    census = proto.eigenvalue_census()
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
        "eigenvalue_census": census,
        "elements": rows,
        "total_seconds": time.perf_counter() - t0,
    }
