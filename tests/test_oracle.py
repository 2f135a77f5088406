import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from cvpbt import oracle
from cvpbt.fock import Cutoff, chi, chi_vector, permute_modes
from cvpbt.nport import ThreePortChannel, make_channel
from cvpbt.oracle import (
    DEFAULT_BUDGET_MB,
    MemoryBudgetError,
    TruncatedProtocol,
    brute_channel_element,
    build_povm_element,
    build_rho,
    build_sigma,
    channel_elements,
    memory_budget,
    povm_element_explicit,
    reduced_resource,
    verification_report,
)
from cvpbt.two_port import ChannelParams, apply_number_element


def flat(d, *idx):
    f = 0
    for v in idx:
        f = f * d + v
    return f


@pytest.fixture(scope="module")
def proto_small():
    return TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(6))


class TestSigma:
    def test_matrix_elements_match_resolved_action(self, proto_small):
        # sigma_1 |p q r> = delta_pq (1-ly^2) sum_s (-ly)^(p+s) |s s r>
        d, ly = 6, 0.5
        s1 = build_sigma(1, proto_small).matrix
        rng = np.random.default_rng(0)
        for _ in range(30):
            p, q, r, s = rng.integers(0, d, size=4)
            expected = (q == p) * (1 - ly**2) * (-ly) ** (p + s)
            assert s1[flat(d, s, s, r), flat(d, p, q, r)] == pytest.approx(expected, abs=1e-15)
        # columns |p q r> with p != q are annihilated
        col = s1[:, flat(d, 1, 2, 3)]
        assert np.abs(col).max() == 0

    def test_trace(self, proto_small):
        d, ly = 6, 0.5
        tr = build_sigma(1, proto_small).matrix.trace()
        assert tr == pytest.approx(d * (1 - ly ** (2 * d)), abs=1e-12)

    def test_permutation_covariance(self, proto_small):
        d = 6
        s1 = build_sigma(1, proto_small).matrix
        s2 = build_sigma(2, proto_small).matrix
        swapped = permute_modes(s1, [0, 2, 1], d)  # exchange A_1 and A_2
        assert np.abs(swapped - s2).max() == 0


class TestRho:
    def test_sum_of_sigmas(self, proto_small):
        total = build_sigma(1, proto_small).matrix + build_sigma(2, proto_small).matrix
        assert np.abs(build_rho(proto_small).matrix - total).max() == 0

    @pytest.mark.parametrize("ports, d", [(2, 8), (3, 6), (4, 4), (5, 3)])
    def test_sparse_rho_is_the_sum_of_sparse_sigmas_bitwise(self, ports, d):
        # Phi Phi^T adds at most one term per port to an entry, in port order,
        # and the dense surfaces scattered from the index table are those
        # sparse products bitwise
        proto = TruncatedProtocol(ChannelParams(0.45, 0.55, ports=ports), Cutoff(d))
        total = sparse_sigma(proto, 1)
        for i in range(2, ports + 1):
            total = total + sparse_sigma(proto, i)
        rho = sparse_rho(proto)
        for name in ("indptr", "indices", "data"):
            assert getattr(rho, name).tobytes() == getattr(total, name).tobytes()
        assert build_rho(proto).matrix.tobytes() == rho.toarray().tobytes()
        for i in range(1, ports + 1):
            assert build_sigma(i, proto).matrix.tobytes() == sparse_sigma(proto, i).toarray().tobytes()

    def test_kernel_vectors(self, proto_small):
        # |p q r> with p not in {q, r} lies in the kernel
        d = 6
        rho = build_rho(proto_small).matrix
        for p, q, r in [(0, 1, 2), (3, 0, 1), (5, 4, 2)]:
            col = rho[:, flat(d, p, q, r)]
            assert np.abs(col).max() < 1e-12

    def test_spectral_match(self):
        d, ly = 14, 0.5
        proto = TruncatedProtocol(ChannelParams(0.5, ly), Cutoff(d))
        rho = build_rho(proto).matrix
        evals = np.linalg.eigvalsh(rho)
        for m in range(d // 2):
            c = chi(ly, m)
            for target in (1 - c, 1 + c):
                assert np.abs(evals - target).min() < 1e-8

    def test_trace_additivity(self, proto_small):
        tr = build_rho(proto_small).matrix.trace()
        s = build_sigma(1, proto_small).matrix.trace() + build_sigma(2, proto_small).matrix.trace()
        assert tr == pytest.approx(s, abs=1e-12)


class TestPovm:
    def test_completeness_exact(self):
        d = 8
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(d))
        m1 = build_povm_element(proto).matrix
        m2 = permute_modes(m1, [0, 2, 1], d)
        assert np.abs(m1 + m2 - np.eye(d**3)).max() < 1e-12

    def test_matches_explicit_form(self):
        d = 14
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(d))
        m_spec = build_povm_element(proto).matrix
        m_exp = povm_element_explicit(proto).matrix
        conv = np.arange(d // 2)
        idx = ((conv[:, None, None] * d + conv[None, :, None]) * d + conv[None, None, :]).ravel()
        assert np.abs(m_spec[np.ix_(idx, idx)] - m_exp[np.ix_(idx, idx)]).max() < 1e-8

    def test_eigenvalue_bounds(self):
        proto = TruncatedProtocol(ChannelParams(0.4, 0.6), Cutoff(8))
        evals = np.linalg.eigvalsh(build_povm_element(proto).matrix)
        assert evals.min() >= -1e-8
        assert evals.max() <= 1 + 1e-8

    def test_census_reported(self):
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(6))
        census = build_povm_element(proto).meta
        assert census["kernel"] + census["suspect"] + census["support"] == 6**3
        assert census["suspect"] == 0


class TestReducedResource:
    def test_trace(self):
        d = 5
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(d))
        op = reduced_resource(2, 2, proto)
        assert op.matrix.trace() == pytest.approx((1 - 0.5 ** (2 * d)) ** 2, abs=1e-12)

    def test_hermitian_iff_diagonal_element(self):
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(4))
        assert reduced_resource(1, 1, proto).is_hermitian()
        assert not reduced_resource(0, 1, proto).is_hermitian()

    def test_two_port_structure(self):
        # <a| x <pp| x chi_r thermal factor, modes (C, A1, A2, B1)
        d, lx = 4, 0.5
        proto = TruncatedProtocol(ChannelParams(lx, 0.5), Cutoff(d))
        a, b = 1, 0
        mat = reduced_resource(a, b, proto).matrix
        t = mat.reshape((d,) * 8)
        rng = np.random.default_rng(1)
        for _ in range(40):
            c1, p, r, bb, c2, q, r2, bb2 = rng.integers(0, d, size=8)
            expected = 0.0
            if c1 == a and c2 == b and p == bb and q == bb2 and r == r2:
                expected = (1 - lx**2) * (-lx) ** (p + q) * chi(lx, r)
            assert t[c1, p, r, bb, c2, q, r2, bb2] == pytest.approx(expected, abs=1e-15)

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "10")
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(12))
        with pytest.raises(MemoryBudgetError):
            reduced_resource(0, 0, proto)


class TestBruteChannel:
    def test_matches_dense_contraction_at_tiny_cutoff(self):
        # the index-wise gather is the same partial trace evaluated directly
        d = 4
        proto = TruncatedProtocol(ChannelParams(0.5, 0.4), Cutoff(d))
        m1 = build_povm_element(proto).matrix
        window = channel_elements(proto, range(3), range(2))
        for a, b in [(0, 0), (0, 1), (2, 1)]:
            phi = reduced_resource(a, b, proto).matrix
            big = np.kron(m1, np.eye(d))  # measurement x identity on B_1
            prod = (big @ phi).reshape((d,) * 8)
            dense = 2 * np.einsum("cpqbcpqd->bd", prod)
            gather = window[a, b]
            assert np.abs(dense - gather).max() < 1e-12

    def test_two_port_agreement(self):
        d = 14
        p = ChannelParams(0.5, 0.5)
        window = channel_elements(TruncatedProtocol(p, Cutoff(d)), range(4), range(4))
        worst = 0.0
        for a in range(4):
            for b in range(4):
                brute = window[a, b]
                ana = apply_number_element(a, b, p, Cutoff(d)).matrix
                worst = max(worst, float(np.abs(brute - ana).max()))
        assert worst < 1e-6

    def test_trace_one_within_budget(self):
        d = 12
        window = channel_elements(TruncatedProtocol(ChannelParams(0.4, 0.5), Cutoff(d)), range(3), range(3))
        for a in range(3):
            tr = window[a, a].trace()
            assert abs(tr - 1) < 1e-8

    def test_channel_positivity_protocol_level(self):
        window = channel_elements(TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(10)), range(3), range(3))
        for a in (0, 2):
            out = window[a, a]
            assert np.linalg.eigvalsh(out).min() >= -1e-8

    def test_three_port_agreement(self):
        d = 8
        p = ChannelParams(0.4, 0.4, ports=3)
        window = channel_elements(TruncatedProtocol(p, Cutoff(d)), range(3), range(3))
        channel = ThreePortChannel(p, cap=d - 1)
        worst = 0.0
        for a in range(3):
            for b in range(3):
                brute = window[a, b]
                ana = channel.number_element(a, b, Cutoff(d)).matrix
                worst = max(worst, float(np.abs(brute - ana).max()))
        assert worst < 1e-5

    def test_four_port_agreement(self):
        # no closed forms exist beyond three ports; the generic sector route
        # is checked against the protocol directly
        from cvpbt.nport import NPortChannel

        p = ChannelParams(0.3, 0.3, ports=4)
        devs = {}
        for d in (4, 5):
            window = channel_elements(TruncatedProtocol(p, Cutoff(d)), range(2), range(2))
            channel = NPortChannel(p, cap=d - 1)
            devs[d] = max(
                float(np.abs(window[a, b] - channel.number_element(a, b, Cutoff(d)).matrix).max())
                for a in range(2)
                for b in range(2)
            )
        assert devs[5] < 1e-4
        assert devs[5] < devs[4]  # geometric convergence with the cutoff

    def test_agreement_tracks_truncation(self):
        # deviations shrink with the cutoff no slower than the geometric budget
        p = ChannelParams(0.5, 0.5)
        devs = {}
        for d in (10, 12, 14):
            proto = TruncatedProtocol(p, Cutoff(d))
            brute = brute_channel_element(0, 0, proto).matrix
            ana = apply_number_element(0, 0, p, Cutoff(d)).matrix
            devs[d] = float(np.abs(brute - ana).max())
        assert devs[14] < devs[12] < devs[10]
        assert devs[10] < 100 * 0.5 ** (2 * 10)


class TestReport:
    def test_report_roundtrips_and_passes(self):
        proto = TruncatedProtocol(ChannelParams(0.3, 0.5), Cutoff(10))
        report = verification_report(proto, 2, 2, tol=1e-6)
        assert report["passed"]
        assert report["max_deviation"] < 1e-6
        encoded = json.dumps(report)
        assert json.loads(encoded)["elements"][0]["a"] == 0

    def test_small_cutoff_fails_tolerance(self):
        proto = TruncatedProtocol(ChannelParams(0.5, 0.5), Cutoff(4))
        report = verification_report(proto, 2, 2, tol=1e-6)
        assert not report["passed"]


# -- per-block references for the stacked oracle stages ----------------------
#
# The references are scipy's sparse products and graph components of Phi,
# built as a CSR matrix from the oracle's index table: column (i, x) holds
# amps[c] at row rows[(i, x), c].


def sparse_phi(proto):
    rows = proto._phi
    count, d = rows.shape
    data = np.tile(proto._amps, count)
    return sp.csr_matrix((data, (rows.ravel(), np.repeat(np.arange(count), d))), shape=(proto.dim, count))


def sparse_sigma(proto, i):
    ds = proto.levels ** (proto.ports - 1)
    phi = sparse_phi(proto)[:, (i - 1) * ds : i * ds]
    return (phi @ phi.T).tocsr().sorted_indices()


def sparse_rho(proto):
    phi = sparse_phi(proto)
    return (phi @ phi.T).tocsr().sorted_indices()


def sparse_gram(proto):
    phi = sparse_phi(proto)
    return (phi.T @ phi).tocsr()


def sparse_groups(proto):
    """The components of G's pattern from csgraph, numbered as csgraph
    numbers them, by their smallest port state, as (members, port states)
    per shape (s, r); and the indices no port state touches, ascending."""
    phi = sparse_phi(proto).tocoo()
    count, state_labels = csgraph.connected_components(sparse_gram(proto), directed=False)
    labels = np.full(proto.dim, count, dtype=np.int64)
    labels[phi.row] = state_labels[phi.col]
    sizes = np.bincount(labels, minlength=count + 1)[:count]
    ranks = np.bincount(state_labels, minlength=count)
    order = np.argsort(labels, kind="stable")
    state_order = np.argsort(state_labels, kind="stable")
    starts, state_starts = np.cumsum(sizes) - sizes, np.cumsum(ranks) - ranks
    pairs = np.stack([sizes, ranks], axis=1)
    groups = []
    for s, r in np.unique(pairs, axis=0):
        comps = np.flatnonzero((pairs[:, 0] == s) & (pairs[:, 1] == r))
        groups.append((order[starts[comps][:, None] + np.arange(s)],
                       state_order[state_starts[comps][:, None] + np.arange(r)]))
    return groups, order[sizes.sum() :]


def streamed_components(proto):
    """(members, states) of every component of the streamed pass, in order
    of its smallest port state, as csgraph numbers the components."""
    rows = [(m, st) for members, states, *_ in proto._spectra() for m, st in zip(members, states)]
    return sorted(rows, key=lambda row: row[1][0])


def outside_components(proto):
    """The indices in no component of the streamed pass, ascending."""
    members = np.concatenate([m for m, _ in streamed_components(proto)])
    return np.setdiff1d(np.arange(proto.dim), members)


@pytest.mark.parametrize("ports,d", [(2, 12), (2, 40), (3, 6), (3, 16), (4, 4), (4, 9), (5, 3), (6, 3), (7, 3), (8, 3)])
def test_groups_and_gram_blocks_are_the_sparse_reference_bitwise(ports, d):
    # every component of the stream, its members, port states and stacked
    # Gram blocks, against csgraph and Phi^T Phi; the indices in none of
    # them are csgraph's isolated ones
    proto = TruncatedProtocol(ChannelParams(0.4, 0.45, ports=ports), Cutoff(d))
    ref_groups, ref_lone = sparse_groups(proto)
    assert outside_components(proto).tobytes() == ref_lone.tobytes()
    ref = sorted(((m, st) for members, states in ref_groups for m, st in zip(members, states)), key=lambda row: row[1][0])
    comps = streamed_components(proto)
    assert len(comps) == len(ref)
    for (members, states), (ref_members, ref_states) in zip(comps, ref):
        assert members.tobytes() == ref_members.tobytes() and members.shape == ref_members.shape
        assert states.tobytes() == ref_states.tobytes() and states.shape == ref_states.shape
    gram = sparse_gram(proto)
    where = np.empty(proto._phi.shape[0], dtype=np.int64)
    for _, states, *_ in proto._spectra():
        where[states] = np.arange(states.shape[1])
        blocks = proto._gram_blocks(states, where)
        assert blocks.tobytes() == np.stack([gram[st][:, st].toarray() for st in states]).tobytes()


@pytest.mark.parametrize("ports,d", [(2, 12), (3, 6), (4, 5), (5, 3), (6, 3)])
def test_components_are_the_multisets_of_their_digits(ports, d):
    # each index (C, A_1..A_N) read from its own digits: in no component
    # exactly when no A_i = C, else in the component of the multiset of A
    # less one copy of C, which holds r = N (N-1)! / prod(mult!) port states
    proto = TruncatedProtocol(ChannelParams(0.4, 0.45, ports=ports), Cutoff(d))
    lone = outside_components(proto)
    multisets = {}
    for index in range(d ** (ports + 1)):
        c, *a = (index // d ** np.arange(ports, -1, -1) % d).tolist()
        if c in a:
            a.remove(c)
            multisets.setdefault(tuple(sorted(a)), []).append(index)
    touched = [i for members in multisets.values() for i in members]
    assert lone.tolist() == sorted(set(range(d ** (ports + 1))) - set(touched))
    seen = []
    for members, states in streamed_components(proto):
        row = members.tolist()
        key = next(k for k, v in multisets.items() if v[0] == row[0])
        assert row == multisets[key]
        mults = np.bincount(key).tolist()
        assert len(states) == ports * math.factorial(ports - 1) // math.prod(map(math.factorial, mults))
        seen.append(key)
    assert sorted(seen) == sorted(multisets)


def components_per_block(proto):
    """One eigh per component, components in order of their smallest member."""
    rho = sparse_rho(proto)
    pattern = rho.copy()
    pattern.data = np.ones_like(pattern.data)
    _, labels = csgraph.connected_components(pattern, directed=False)
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(idx)
    blocks, max_eig = [], 0.0
    for members in groups.values():
        if len(members) == 1:
            continue
        idx = np.asarray(members, dtype=np.int64)
        w, v = np.linalg.eigh(rho[idx][:, idx].toarray())
        blocks.append((idx, w, v))
        max_eig = max(max_eig, float(w.max()))
    return blocks, max_eig


def povm_per_block(proto, blocks, max_eig):
    s1 = sparse_sigma(proto, 1)
    n = proto.ports
    rows, cols, vals = [], [], []
    for idx, w, v in blocks:
        keep = w > proto.kernel_tol * max_eig
        vk = v[:, keep]
        inv_root = (vk / np.sqrt(w[keep])) @ vk.T
        block = inv_root @ s1[idx][:, idx].toarray() @ inv_root - (vk @ vk.T) / n
        rr, cc = np.meshgrid(idx, idx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(proto.dim, proto.dim),
    ).tocsr()
    return mat + sp.identity(proto.dim, format="csr") / n


def census_per_block(proto, blocks, max_eig):
    lo, hi = proto.kernel_tol * max_eig, 1e-6 * max_eig
    kernel = proto.dim - sum(len(idx) for idx, _, _ in blocks)
    kernel += sum(int((w <= lo).sum()) for _, w, _ in blocks)
    suspect = sum(int(((w > lo) & (w <= hi)).sum()) for _, w, _ in blocks)
    support = sum(int((w > hi).sum()) for _, w, _ in blocks)
    return {"kernel": kernel, "suspect": suspect, "support": support, "max_eigenvalue": max_eig}


def element_from_dense_slice(a, b, proto):
    """The channel element from a dense (D^N)^2 slice of the measurement."""
    d, n = proto.levels, proto.ports
    dn = d**n
    lx = proto.params.lambda_x
    block = build_povm_element(proto).matrix[b * dn : (b + 1) * dn, a * dn : (a + 1) * dn]
    rest = "".join(chr(ord("r") + k) for k in range(n - 1))
    gathered = np.einsum(
        f"p{rest}q{rest},{','.join(rest)}->qp", block.reshape((d,) * (2 * n)), *[chi_vector(lx, d)] * (n - 1)
    )
    signs = (-lx) ** np.arange(d)
    return n * (1 - lx**2) * np.outer(signs, signs) * gathered


def csr_gather_table(proto, povm):
    """The channel-element gather table read off a CSR measurement: the entries
    whose row and column spectator digits agree, sorted by (b, a) key in CSR
    (row, then column) order, each times its spectator thermal product."""
    d, n = proto.levels, proto.ports
    dn, ds = d**n, d ** (n - 1)
    rows = np.repeat(np.arange(proto.dim, dtype=np.int32), np.diff(povm.indptr))
    hit = rows % ds == povm.indices % ds
    rows, cols = rows[hit], povm.indices[hit]
    chi_x = chi_vector(proto.params.lambda_x, d)
    thermal = np.ones(1)
    for _ in range(n - 1):
        thermal = np.multiply.outer(thermal, chi_x).ravel()
    vals = povm.data[hit] * thermal[rows % ds]
    key = (rows // dn) * d + cols // dn
    order = np.argsort(key, kind="stable")
    offsets = np.searchsorted(key[order], np.arange(d * d + 1))
    p = (rows[order] // ds) % d
    q = (cols[order] // ds) % d
    return offsets, p, q, vals[order]


def element_from_table(a, b, proto, table):
    """The channel element summed from a gather table as brute_channel_element does."""
    d, n = proto.levels, proto.ports
    offsets, p, q, vals = table
    span = slice(offsets[b * d + a], offsets[b * d + a + 1])
    gathered = np.zeros((d, d))
    np.add.at(gathered, (q[span], p[span]), vals[span])
    lx = proto.params.lambda_x
    signs = (-lx) ** np.arange(d)
    return (n * (1 - lx**2) * np.outer(signs, signs) * gathered).astype(complex)


def declared_working_set(proto, blocks, w=4):
    """`working_set_mb` for the window a, b < w, from the reference components:
    24 bytes per entry of the largest batch (2^16, or the largest component's
    2 s r + r^2 + r (D + 2N) where that is more), 2 per window entry, 2 per
    value of the dense (w, w, d, d) output, 2 per entry of the Phi table and
    2^16 for the pair products."""
    d, n = proto.levels, proto.ports
    dn, ds = d**n, d ** (n - 1)
    w = min(w, d)
    shapes, hits = [], []
    for idx, _, _ in blocks:
        shapes.append((len(idx), len(port_state_columns(proto, idx))))
        rows, cols = idx[idx // dn < w], idx[idx // dn < w]
        hits.append(int((rows[:, None] % ds == cols[None, :] % ds).sum()))
    touched = np.concatenate([idx for idx, _, _ in blocks])
    lone = np.setdiff1d(np.arange(proto.dim), touched)
    window = int((lone // dn < w).sum()) + sum(hits)
    batch = max([1 << 16] + [2 * s * r + r * r + r * (d + 2 * n) for s, r in shapes])
    return 24 * (batch + 2 * window + 2 * w * w * d * d + 2 * n * d**n + (1 << 16)) / 2**20


STACK_POINTS = [(3, 6, 0.5, 0.4), (4, 4, 0.3, 0.35)]


COUNTS = ("kernel", "suspect", "support")


def port_state_columns(proto, idx):
    """Ascending columns of Phi whose support lies in the component idx."""
    phi = sparse_phi(proto).tocsc()
    inside = np.isin(phi.indices, idx)
    return np.flatnonzero(np.add.reduceat(inside, phi.indptr[:-1]) == np.diff(phi.indptr))


@pytest.mark.parametrize("ports,d,lx,ly", STACK_POINTS)
class TestStackedStages:
    def test_components_bitwise_per_block(self, ports, d, lx, ly):
        # the components are the dense reference's; each stacked Gram eigh is
        # bitwise one eigh of that component's Gram block alone
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        ref, _ = components_per_block(proto)
        blocks = sorted(
            ((m[j], st[j], w[j], v[j]) for m, st, _, w, v, _ in proto._spectra() for j in range(len(m))),
            key=lambda b: b[0][0],
        )
        gram = sparse_gram(proto)
        assert len(blocks) == len(ref)
        for (idx, states, g, v), (ridx, _, _) in zip(blocks, ref):
            assert np.array_equal(idx, ridx)
            assert np.array_equal(states, port_state_columns(proto, idx))
            rg, rv = np.linalg.eigh(gram[states][:, states].toarray())
            assert np.array_equal(g, rg)
            assert np.array_equal(v, rv)

    def test_povm_matches_per_block(self, ports, d, lx, ly):
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        ref = povm_per_block(proto, *components_per_block(proto)).toarray()
        mat = build_povm_element(proto).matrix
        assert np.abs(mat - ref).max() < 1e-13

    def test_elements_bitwise_csr_gather(self, ports, d, lx, ly):
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        table = csr_gather_table(proto, sp.csr_matrix(build_povm_element(proto).matrix))
        window = channel_elements(proto, range(d), range(d))
        for a in range(d):
            for b in range(d):
                element = window[a, b].astype(complex)
                assert element.tobytes() == element_from_table(a, b, proto, table).tobytes()

    def test_census_unchanged(self, ports, d, lx, ly):
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        census = proto.eigenvalue_census()
        ref = census_per_block(proto, *components_per_block(proto))
        assert {key: census[key] for key in COUNTS} == {key: ref[key] for key in COUNTS}
        assert census["max_eigenvalue"] == pytest.approx(ref["max_eigenvalue"], rel=1e-14, abs=0)

    def test_cached_census_and_elements_bitwise(self, ports, d, lx, ly):
        params = ChannelParams(lx, ly, ports=ports)
        proto = TruncatedProtocol(params, Cutoff(d))
        census = TruncatedProtocol(params, Cutoff(d)).eigenvalue_census()
        blocks, max_eig = components_per_block(proto)
        ref = census_per_block(proto, blocks, max_eig)
        assert {key: census[key] for key in COUNTS} == {key: ref[key] for key in COUNTS}
        working_set = declared_working_set(proto, blocks)
        for _ in range(2):  # the first call runs the stages, the second reads them
            assert proto.eigenvalue_census() == census
            assert proto.working_set_mb(range(4), range(4)) == working_set
        elements = []
        for a in range(2):
            for b in range(2):
                cached = brute_channel_element(a, b, proto)
                fresh = brute_channel_element(a, b, TruncatedProtocol(params, Cutoff(d)))
                assert np.array_equal(cached.matrix, fresh.matrix)
                assert cached.meta == fresh.meta == census
                elements.append(cached)
        elements[0].meta["kernel"] = -1  # each element holds its own copy
        assert elements[1].meta == proto.eigenvalue_census() == census

    def test_gather_order_is_lexsort_order(self, ports, d, lx, ly):
        # every slot of `_window` against its entry of the dense measurement
        # times the spectator thermal weight, bitwise: first the cells (b, a),
        # row (b, b, x) with column (a, a, x), then the cells (c, p), p != c,
        # row (c, p, x) with itself, in ascending x, for the whole cutoff and
        # for windows that start off zero, a or b first
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        dn, ds = d**ports, d ** (ports - 1)
        chi_x = chi_vector(lx, d)
        thermal = np.prod(np.stack(np.meshgrid(*[chi_x] * (ports - 1), indexing="ij")), axis=0).ravel()
        mat = build_povm_element(proto).matrix
        x = np.arange(ds)
        for a_range, b_range in [(range(d), range(d)), (range(1, 3), range(2, d)), (range(2, d), range(1, 3))]:
            both = [c for c in b_range if c in a_range]
            rows = [b * (dn + ds) + x for b in b_range for a in a_range]
            rows += [c * dn + p * ds + x for c in both for p in range(d) if p != c]
            cols = [a * (dn + ds) + x for b in b_range for a in a_range] + rows[len(rows) - len(both) * (d - 1) :]
            slots, at = proto._window(a_range, b_range)
            assert slots.shape == (len(rows), ds)
            assert slots.tobytes() == (mat[np.array(rows), np.array(cols)] * thermal).tobytes()
            # each cell's place in the flattened (b, a, q, p) output
            place = lambda b, a, q, p: (((b - b_range.start) * len(a_range) + a - a_range.start) * d + q) * d + p
            cells = [place(b, a, a, b) for b in b_range for a in a_range]
            cells += [place(c, c, p, p) for c in both for p in range(d) if p != c]
            assert at.tolist() == cells

    def test_untouched_indices_hold_the_identity_share(self, ports, d, lx, ly):
        # an index with no A_i = C holds 1/N alone: on the dense element's
        # diagonal, with nothing else in its row and column, and in its slot
        # of the cells (c, p) times the spectator thermal product, for a
        # whole-cutoff window and for one whose ranges share one level
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        dn, ds = d**ports, d ** (ports - 1)
        digits = np.arange(proto.dim)[:, None] // d ** np.arange(ports, -1, -1) % d
        lone = np.flatnonzero((digits[:, 1:] != digits[:, :1]).all(axis=1))
        mat = build_povm_element(proto).matrix
        assert np.all(mat[lone, lone] == 1 / ports)
        assert np.count_nonzero(mat[lone]) == np.count_nonzero(mat[:, lone]) == lone.size
        chi_x = chi_vector(lx, d)
        thermal = np.prod(np.stack(np.meshgrid(*[chi_x] * (ports - 1), indexing="ij")), axis=0).ravel()
        for a_range, b_range in [(range(d), range(d)), (range(2, 4), range(1, 3))]:
            both = range(max(a_range.start, b_range.start), min(a_range.stop, b_range.stop))
            slots, _ = proto._window(a_range, b_range)
            inside = lone[np.isin(lone // dn, both)]
            c, p, x = inside // dn, inside % dn // ds, inside % ds
            assert inside.size and np.all(p != c)
            cell = len(a_range) * len(b_range) + (c - both.start) * (d - 1) + p - (p > c)
            assert slots[cell, x].tobytes() == (1 / ports * thermal[x]).tobytes()

    def test_report_elements_are_brute_elements_bitwise(self, ports, d, lx, ly):
        # the report's one window gives each element bitwise as its own
        # one-element window does, and so the same deviations, with more a
        # than b and more b than a
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        channel = make_channel(proto.params, cap=d - 1 if ports > 2 else None)
        for a_max, b_max in [(3, 2), (2, 3)]:
            report = verification_report(proto, a_max, b_max)
            window = channel_elements(proto, range(a_max + 1), range(b_max + 1))
            pairs = [(a, b) for a in range(a_max + 1) for b in range(b_max + 1)]
            assert [(e["a"], e["b"]) for e in report["elements"]] == pairs
            for e in report["elements"]:
                brute = brute_channel_element(e["a"], e["b"], proto).matrix
                assert window[e["a"], e["b"]].astype(complex).tobytes() == brute.tobytes()
                analytic = channel.number_element(e["a"], e["b"], proto.cutoff).matrix
                assert e["max_deviation"] == float(np.abs(brute - analytic).max())
                if e["a"] == e["b"]:
                    assert e["trace_deviation"] == abs(float(brute.trace().real) - 1.0)
                else:
                    assert e["trace_deviation"] is None
            assert report["max_deviation"] == max(e["max_deviation"] for e in report["elements"])

    @pytest.mark.parametrize("window", ["a_max=0", "b_max=d-1", "a!=b"])
    def test_edge_windows_match_single_elements_bitwise(self, ports, d, lx, ly, window):
        # a window of one a, one up to the cutoff in b, and one with a != b
        # everywhere, which holds no diagonal entry and no untouched index
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        a_range, b_range = {"a_max=0": (range(1), range(3)), "b_max=d-1": (range(3), range(d)),
                            "a!=b": (range(2), range(2, 4))}[window]
        elements = channel_elements(proto, a_range, b_range)
        assert elements.shape == (len(a_range), len(b_range), d, d)
        for i, a in enumerate(a_range):
            for j, b in enumerate(b_range):
                single = brute_channel_element(a, b, proto).matrix
                assert elements[i, j].astype(complex).tobytes() == single.tobytes()

    def test_each_stage_runs_once_per_protocol(self, ports, d, lx, ly, monkeypatch):
        # the Phi table once per protocol; the streamed pass once per report,
        # one eigh per component, its census read by the report
        calls = {"phi": 0, "eigh": 0}
        stage = vars(TruncatedProtocol)["_phi"]
        phi, eigh = stage.func, np.linalg.eigh

        def counting(name, fn, caller="cvpbt.oracle"):
            def wrapped(*args, **kwargs):
                if caller in (None, sys._getframe(1).f_globals.get("__name__")):
                    calls[name] += len(args[0]) if name == "eigh" else 1
                return fn(*args, **kwargs)

            return wrapped

        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        components = len(components_per_block(TruncatedProtocol(proto.params, proto.cutoff))[0])
        monkeypatch.setattr(stage, "func", counting("phi", phi, caller=None))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        for run in range(1, 3):
            verification_report(proto, 3, 3)
            assert calls == {"phi": 1, "eigh": run * components}

    def test_equal_protocols_compare_equal_after_running(self, ports, d, lx, ly):
        params = ChannelParams(lx, ly, ports=ports)
        first, second = TruncatedProtocol(params, Cutoff(d)), TruncatedProtocol(params, Cutoff(d))
        verification_report(first, 3, 3)
        verification_report(second, 3, 3)
        assert first == second
        assert first != TruncatedProtocol(params, Cutoff(d + 1))

    def test_gather_matches_dense_slice(self, ports, d, lx, ly):
        proto = TruncatedProtocol(ChannelParams(lx, ly, ports=ports), Cutoff(d))
        window = channel_elements(proto, range(d), range(d))
        for a in range(d):
            for b in range(d):
                gathered = window[a, b]
                assert np.abs(gathered - element_from_dense_slice(a, b, proto)).max() < 1e-14


# -- the Gram route against dense references ----------------------------------


@pytest.mark.parametrize("ports,d", [(3, 5), (4, 4)])
def test_completeness_beyond_two_ports(ports, d):
    # sum_i Pi_i = I, each Pi_i the first element with A_1 and A_i exchanged
    proto = TruncatedProtocol(ChannelParams(0.5, 0.5, ports=ports), Cutoff(d))
    first = build_povm_element(proto).matrix
    total = first.copy()
    for i in range(2, ports + 1):
        perm = list(range(ports + 1))
        perm[1], perm[i] = i, 1
        total += permute_modes(first, perm, d)
    assert np.abs(total - np.eye(proto.dim)).max() < 1e-12


@pytest.mark.parametrize("ports,d,ly", [(2, 8, 0.5), (3, 6, 0.4), (4, 4, 0.35), (5, 3, 0.3), (6, 5, 0.1)])
def test_gram_spectra_are_rho_spectra(ports, d, ly):
    # each Gram block carries the nonzero spectrum of its dense rho block;
    # the rest of rho's spectrum there lies under the kernel cut.  One
    # component of every (s, r) is checked.
    proto = TruncatedProtocol(ChannelParams(0.3, ly, ports=ports), Cutoff(d))
    firsts = {}
    for members, port_states, _, w, _, _ in proto._spectra():
        firsts.setdefault(members.shape + port_states.shape[1:], (members[0], port_states[0], w[0]))
    max_eig = proto.eigenvalue_census()["max_eigenvalue"]
    rho = sparse_rho(proto)
    for idx, states, g in firsts.values():
        spectrum = np.linalg.eigvalsh(rho[idx][:, idx].toarray())
        r = len(states)
        assert np.abs(spectrum[len(idx) - r :] - g).max() <= 1e-13 * max_eig
        assert np.abs(spectrum[: len(idx) - r]).max(initial=0.0) <= proto.kernel_tol * max_eig


# -- reach and the declared working set ---------------------------------------


@pytest.fixture(scope="module")
def traced_report():
    """verification_report(proto, 3, 3) under tracemalloc, once per point."""
    runs = {}

    def run(ports, d, lam):
        if (ports, d, lam) not in runs:
            proto = TruncatedProtocol(ChannelParams(lam, lam, ports=ports), Cutoff(d))
            tracemalloc.start()
            try:
                report = verification_report(proto, 3, 3)
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            runs[ports, d, lam] = (proto, report, peak_mb)
        return runs[ports, d, lam]

    return run


def test_five_ports_within_default_budget(traced_report, monkeypatch):
    monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
    proto, report, _ = traced_report(5, 6, 0.25)
    assert memory_budget() == DEFAULT_BUDGET_MB
    assert report["passed"]
    assert report["max_deviation"] < 1e-6


def test_six_ports_within_default_budget(traced_report, monkeypatch):
    monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
    proto, report, _ = traced_report(6, 5, 0.1)
    assert memory_budget() == DEFAULT_BUDGET_MB
    assert report["passed"]
    assert proto.working_set_mb(range(4), range(4)) < DEFAULT_BUDGET_MB


@pytest.mark.parametrize("ports,d,lam", [(6, 6, 0.1), (7, 4, 0.1)])
def test_reach_within_default_budget(traced_report, monkeypatch, ports, d, lam):
    monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
    proto, report, peak_mb = traced_report(ports, d, lam)
    assert memory_budget() == DEFAULT_BUDGET_MB
    assert report["passed"]
    assert peak_mb <= proto.working_set_mb(range(4), range(4)) <= min(4 * peak_mb, DEFAULT_BUDGET_MB)


@pytest.mark.parametrize("ports,d,lam", [(3, 16, 0.3), (4, 9, 0.25), (5, 6, 0.25), (6, 5, 0.1)])
def test_working_set_bounds_traced_peak(traced_report, ports, d, lam):
    proto, _, peak_mb = traced_report(ports, d, lam)
    declared = proto.working_set_mb(range(4), range(4))
    assert peak_mb <= declared <= 4 * peak_mb


@pytest.mark.parametrize("surface,ports,d", [("resource", 2, 6), ("resource", 3, 4), ("resource", 4, 3),
                                             ("povm", 2, 8), ("povm", 3, 5), ("povm", 4, 4)])
def test_dense_surfaces_declare_their_traced_peak(surface, ports, d, monkeypatch):
    # what a dense surface declares to the budget gate covers its traced peak
    # and stays within 4 times it
    declared, gate = [], oracle.require_memory

    def recording(mb, what):
        declared.append(mb)
        gate(mb, what)

    monkeypatch.setattr(oracle, "require_memory", recording)
    proto = TruncatedProtocol(ChannelParams(0.3, 0.35, ports=ports), Cutoff(d))
    tracemalloc.start()
    try:
        reduced_resource(1, 0, proto) if surface == "resource" else build_povm_element(proto)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb <= max(declared) <= 4 * peak_mb


def test_budget_refusal_allocates_nothing_sized(monkeypatch):
    # (2, 150): a whole-basis table would be 8 * 150^3 B = 26 MB
    monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "1")
    proto = TruncatedProtocol(ChannelParams(0.3, 0.3), Cutoff(150))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="channel gather"):
            brute_channel_element(0, 0, proto)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 1
    assert "_phi" not in vars(proto)


def test_census_is_declared_before_the_stages_run(monkeypatch):
    monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "1")
    proto = TruncatedProtocol(ChannelParams(0.2, 0.3, ports=4), Cutoff(9))
    for stage in (proto.eigenvalue_census, lambda: channel_elements(proto, range(1), range(1))):
        with pytest.raises(MemoryBudgetError):
            stage()
    assert not {"_phi", "_census"} & vars(proto).keys()
    monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "64")
    declared = proto.working_set_mb(range(0), range(0))
    assert declared > 1
    monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", str(declared))
    assert proto.eigenvalue_census() == TruncatedProtocol(proto.params, proto.cutoff).eigenvalue_census()


@pytest.mark.parametrize("ports,d,budget,need", [(4, 9, "1", "about 6 MiB"), (8, 4, "2048", "about 2374 MiB"),
                                                 (2, 10**8, "2048", "about 10070800859071 MiB"),
                                                 (200, 200, "2048", "more MiB than a float holds")])
def test_report_is_refused_before_the_analytic_build(monkeypatch, ports, d, budget, need):
    # the oracle declares its window first, so no analytic channel is built
    # for a refused report (at N = 8 it would take seconds, at two ports and
    # 10^8 levels it would not fit), and a size too large for a float is a
    # refusal
    def unbuilt(*args, **kwargs):
        raise AssertionError("the analytic channel was built")

    from cvpbt import nport

    monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", budget)
    monkeypatch.setattr(nport, "make_channel", unbuilt)
    proto = TruncatedProtocol(ChannelParams(0.3, 0.3, ports=ports), Cutoff(d))
    with pytest.raises(MemoryBudgetError, match=f"channel gather needs {need}"):
        verification_report(proto, 3, 3)


def test_huge_protocols_are_refused_from_counts(monkeypatch):
    # every declaration is a closed form in N and D: at (100, 100) and
    # (200, 200) the census, a window and the dense element are refused at
    # once, with no list of the multiplicity patterns (p(99) ~ 1.7e8) made
    monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
    start = time.perf_counter()
    for ports, d in [(100, 100), (200, 200)]:
        proto = TruncatedProtocol(ChannelParams(0.3, 0.3, ports=ports), Cutoff(d))
        for stage in (proto.eigenvalue_census, lambda: channel_elements(proto, range(4), range(4)),
                      lambda: build_povm_element(proto)):
            with pytest.raises(MemoryBudgetError):
                stage()
        assert not {"_phi", "_census"} & vars(proto).keys()
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("ports,d", [(2, 7), (3, 5), (4, 2), (4, 4), (5, 2), (5, 3), (6, 3), (7, 2), (8, 2)])
def test_largest_component_is_the_largest_streamed(ports, d):
    # the closed form the declarations use is one of the streamed components'
    # (s, r), and no component has more members or more port states
    proto = TruncatedProtocol(ChannelParams(0.3, 0.4, ports=ports), Cutoff(d))
    shapes = {(members.shape[1], states.shape[1]) for members, states, *_ in proto._spectra()}
    s, r = proto._largest_component()
    assert (s, r) in shapes
    assert max(shape[0] for shape in shapes) == s and max(shape[1] for shape in shapes) == r


def test_mib_is_the_quotient_or_inf():
    for nbytes in (0, 3, 2**20, 24 * 10**300):
        assert oracle.mib(nbytes) == nbytes / 2**20
    assert oracle.mib(10**400) == float("inf")
    with pytest.raises(MemoryBudgetError, match="more MiB than a float holds"):
        oracle.require_memory(oracle.mib(10**400), "a sum")


def test_two_port_report_compares_against_the_uncapped_closed_form():
    from cvpbt.nport import make_channel

    params = ChannelParams(0.4, 0.5)
    proto = TruncatedProtocol(params, Cutoff(8))
    closed = make_channel(params)
    window = channel_elements(proto, range(3), range(3))
    for e in verification_report(proto, 2, 2)["elements"]:
        brute = window[e["a"], e["b"]].astype(complex)
        analytic = closed.number_element(e["a"], e["b"], proto.cutoff).matrix
        assert e["max_deviation"] == float(np.abs(brute - analytic).max())


class TestInputChecks:
    @pytest.mark.parametrize("a_max,b_max", [(-1, 1), (1, -1)])
    def test_negative_element_range(self, a_max, b_max):
        proto = TruncatedProtocol(ChannelParams(0.3, 0.3), Cutoff(4))
        with pytest.raises(ValueError):
            verification_report(proto, a_max, b_max)

    @pytest.mark.parametrize("a_range,b_range", [(range(0), range(2)), (range(0, 4, 2), range(2)),
                                                 (range(2), range(3, 5)), (range(-1, 1), range(2))])
    def test_bad_element_window(self, a_range, b_range):
        proto = TruncatedProtocol(ChannelParams(0.3, 0.3), Cutoff(4))
        with pytest.raises(ValueError):
            channel_elements(proto, a_range, b_range)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_tolerance(self, tol):
        proto = TruncatedProtocol(ChannelParams(0.3, 0.3), Cutoff(4))
        with pytest.raises(ValueError):
            verification_report(proto, 1, 1, tol=tol)

    @pytest.mark.parametrize("raw", ["nan", "-5", "inf"])
    def test_bad_budget_from_environment(self, raw, monkeypatch):
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", raw)
        with pytest.raises(ValueError):
            TruncatedProtocol(ChannelParams(0.3, 0.3), Cutoff(4))


# -- the streamed pass --------------------------------------------------------


@pytest.mark.parametrize("ly", [0.05, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("ports,d", [(2, 12), (3, 6), (4, 4), (4, 5), (5, 3), (5, 4), (6, 3)])
def test_gram_blocks_are_shifted_sector_matrices(ports, d, ly):
    # G_D = H - ly^(2D) I on every component, H the sector matrix of its
    # multiset: port state (i, x) is the arrangement with the marker in slot
    # i - 1 and the digits of x in the other slots, and the truncated
    # diagonal sum_(c<D) amps[c]^2 is 1 - ly^(2D)
    from cvpbt.nport import MARKER, Arrangements, sector_matrix

    proto = TruncatedProtocol(ChannelParams(0.3, ly, ports=ports), Cutoff(d))
    ds = d ** (ports - 1)
    where = np.empty(proto._phi.shape[0], dtype=np.int64)
    for _, states, *_ in proto._spectra():
        where[states] = np.arange(states.shape[1])
        for st, gram in zip(states, proto._gram_blocks(states, where)):
            port, x = np.divmod(st, ds)
            spectators = x[:, None] // d ** np.arange(ports - 2, -1, -1) % d
            arr = Arrangements(spectators[0].tolist())
            order = [arr.index[tuple(np.insert(row, i, MARKER).tolist())] for i, row in zip(port, spectators)]
            h = sector_matrix(arr, ly)[np.ix_(order, order)]
            assert np.abs(gram + ly ** (2 * d) * np.eye(len(st)) - h).max() <= 1e-15


@pytest.mark.parametrize("ly", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("ports,d", [(2, 8), (3, 5), (4, 4), (5, 3), (6, 3)])
def test_largest_eigenvalue_is_the_all_zero_components(ports, d, ly):
    # the kernel cut is fixed before any block is cut, by the {0, ..., 0}
    # component: its largest Gram eigenvalue, 1 + (N-1)(1-ly^2) - ly^(2D), is
    # the census maximum, and every other component's lies below it
    proto = TruncatedProtocol(ChannelParams(0.3, ly, ports=ports), Cutoff(d))
    zeros = np.arange(ports) * d ** (ports - 1)  # the port states (i, x = 0)
    top = np.linalg.eigh(sparse_gram(proto)[zeros][:, zeros].toarray())[0][-1]
    assert top == pytest.approx(1 + (ports - 1) * (1 - ly**2) - ly ** (2 * d), rel=1e-14)
    assert proto.eigenvalue_census()["max_eigenvalue"] == top
    others = [w[-1] for _, states, _, ws, _, _ in proto._spectra() for st, w in zip(states, ws) if st[0] != 0]
    assert len(others) and max(others) < top


@pytest.mark.parametrize("ports,d", [(3, 6), (4, 4), (5, 3)])
def test_batching_does_not_move_a_bit(ports, d, monkeypatch):
    # windows, census and the dense element are the same bits whether each
    # batch holds one component, or as many as 2^20 Phi entries allow
    params = ChannelParams(0.35, 0.4, ports=ports)

    def run():
        proto = TruncatedProtocol(params, Cutoff(d))
        windows = [channel_elements(proto, range(d), range(d)), channel_elements(proto, range(1, 3), range(2, d))]
        povm = build_povm_element(TruncatedProtocol(params, Cutoff(d)))
        return [w.tobytes() for w in windows] + [povm.matrix.tobytes(), repr(povm.meta), repr(proto.eigenvalue_census())]

    ref = run()
    for chunk in (1, 1 << 20):
        monkeypatch.setattr(oracle, "_CHUNK_ELEMS", chunk)
        assert run() == ref
