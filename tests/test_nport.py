import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cvpbt import nport
from cvpbt.fock import Cutoff, DensityOperator, FockOperator, chi, pure_density, tmsv_ket
from cvpbt.nport import (
    MARKER,
    Arrangements,
    NPortChannel,
    ThreePortChannel,
    apply_state_nport,
    default_cap,
    enumerate_multisets,
    eta_basis,
    gamma,
    gamma_from_basis,
    gamma_lm_closed,
    gamma_mm_closed,
    input_output_fidelity,
    lm_closed_basis,
    sector_matrix,
)
from cvpbt.two_port import ChannelParams, apply_number_element


def lm_label_order(l, m):
    return [(MARKER, l, m), (l, m, MARKER), (m, MARKER, l), (MARKER, m, l), (m, l, MARKER), (l, MARKER, m)]


class TestMultisets:
    def test_two_ports(self):
        assert enumerate_multisets(2, 2) == [(0,), (1,), (2,)]

    def test_three_ports(self):
        assert enumerate_multisets(3, 1) == [(0, 0), (0, 1), (1, 1)]

    def test_four_port_count(self):
        assert len(enumerate_multisets(4, 3)) == 20  # C(6, 3)

    def test_deterministic_order(self):
        assert enumerate_multisets(3, 2) == sorted(enumerate_multisets(3, 2))


class TestArrangements:
    def test_repeated_pair(self):
        arr = Arrangements((3, 3))
        assert arr.size == 3
        assert len(arr.ptilde) == 1

    def test_distinct_pair(self):
        arr = Arrangements((1, 4))
        assert arr.size == 6
        assert len(arr.ptilde) == 2

    def test_four_ports_two_unique(self):
        arr = Arrangements((2, 2, 5))
        assert arr.size == 12
        assert len(arr.ptilde) == 3

    def test_ptilde_fraction(self):
        for ms in [(0,), (1, 1), (0, 2), (1, 1, 3), (0, 1, 2)]:
            arr = Arrangements(ms)
            assert len(arr.ptilde) * arr.ports == arr.size

    def test_swap_tables_are_involutive(self):
        arr = Arrangements((0, 2, 2))
        for i in range(arr.size):
            for v, neighbors in arr.swaps[i].items():
                for j in neighbors:
                    assert i in arr.swaps[j][v]


class TestRotations:
    @pytest.mark.parametrize("ports", range(2, 7))
    def test_tables_are_permutations(self, ports):
        for layout, _ in nport._pattern_walk(ports, ports - 2):
            arr = Arrangements(layout)
            perm, hop, slot = arr.rotations
            m = arr.size // ports
            assert perm.shape == (ports, m) and hop.shape == slot.shape == (ports - 1, m)
            assert sorted(perm.ravel().tolist()) == list(range(arr.size))
            assert perm[0].tolist() == list(arr.ptilde)
            for j, p in itertools.product(range(ports), range(m)):
                first = arr.seqs[perm[0, p]]  # rotated so that its marker sits in slot j
                assert arr.seqs[perm[j, p]] == first[-j:] + first[:-j]
            for row in hop:
                assert sorted(row.tolist()) == list(range(m))
            assert set(slot.ravel().tolist()) == set(range(layout[-1] + 1))

    @pytest.mark.parametrize("ports", range(2, 7))
    def test_inverse_fft_of_the_blocks_rebuilds_sector_matrix(self, ports):
        lam_y = 0.45
        for layout, levels in nport._pattern_walk(ports, ports - 1):
            arr = Arrangements(layout)
            blocks = np.fft.irfft(np.fft.rfft(nport._rotation_blocks(arr, levels, lam_y), axis=1), ports, axis=1)
            order = arr.rotations.perm.ravel()
            h = np.empty((len(levels), arr.size, arr.size))
            h[:, order[:, None], order] = nport._block_circulant(blocks)
            for got, row in zip(h, levels):
                assert np.abs(got - sector_matrix(tuple(row[layout]), lam_y)).max() <= 1e-15

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("ports", range(2, 7))
    def test_gamma_stack_matches_dense_reference(self, ports, lam_y):
        for layout, levels in nport._pattern_walk(ports, ports - 1 if ports < 6 else ports - 2):
            arr = Arrangements(layout)
            stacked = nport._gamma_stack(arr, levels, lam_y)
            for got, row in zip(stacked, levels):
                w, v = np.linalg.eigh(sector_matrix(tuple(row[layout]), lam_y))
                root = (v / np.sqrt(w)) @ v.T
                pt = list(arr.ptilde)
                want = root[:, pt] @ root[pt, :] - (v / w) @ v.T / ports
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_indefinite_sector_is_named_by_its_levels(self, monkeypatch):
        weights = nport._swap_weights
        # swap weights above one make the second sector's matrix indefinite
        monkeypatch.setattr(nport, "_swap_weights", lambda levels, lam_y: weights(levels, lam_y) * [[1], [100]])
        with pytest.raises(RuntimeError, match=r"levels \[2, 3\] is not positive definite"):
            nport._gamma_stack(Arrangements((0, 1)), np.array([[0, 1], [2, 3]]), 0.5)

    def test_seven_distinct_levels_stay_small(self):
        tracemalloc.start()
        try:
            arr = Arrangements(range(7))
            perm, hop, slot = arr.rotations
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.size == 40320 and hop.shape == (7, 5040)
        assert peak < 50 * 2**20


class TestSectorMatrix:
    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_two_port_spectrum(self, lam_y):
        for m in range(7):
            w = np.linalg.eigvalsh(sector_matrix((m,), lam_y))
            c = chi(lam_y, m)
            assert np.allclose(sorted(w), sorted([1 - c, 1 + c]), atol=1e-14)

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_three_port_repeated(self, lam_y):
        for m in range(7):
            w = np.linalg.eigvalsh(sector_matrix((m, m), lam_y))
            c = chi(lam_y, m)
            assert np.allclose(sorted(w), sorted([1 + 2 * c, 1 - c, 1 - c]), atol=1e-12)

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_three_port_distinct(self, lam_y):
        for l in range(7):
            for m in range(l):
                w = np.linalg.eigvalsh(sector_matrix((m, l), lam_y))
                big = (1 - lam_y**2) * (lam_y ** (2 * l) + lam_y ** (2 * m))
                s = math.sqrt(lam_y ** (4 * l) - lam_y ** (2 * (l + m)) + lam_y ** (4 * m))
                small = (1 - lam_y**2) * s
                expected = [1 + big, 1 - big, 1 + small, 1 + small, 1 - small, 1 - small]
                assert np.allclose(sorted(w), sorted(expected), atol=1e-12)

    def test_symmetric(self):
        h = sector_matrix((0, 1, 1), 0.6)
        assert np.abs(h - h.T).max() == 0


class TestEtaBasis:
    @pytest.mark.parametrize("ms", [(4,), (2, 2), (1, 3), (0, 1, 1), (0, 1, 2), (2, 2, 2)])
    def test_orthonormal_and_complete(self, ms):
        lam_y = 0.55
        basis = eta_basis(ms, lam_y)
        e = basis.etas
        gram = e.conj().T @ e
        assert np.abs(gram - np.eye(e.shape[0])).max() < 1e-12
        h = sector_matrix(ms, lam_y)
        rebuilt = (e * basis.eigenvalues) @ e.conj().T
        assert np.abs(rebuilt - h).max() < 1e-10

    def test_eigenvalues_positive(self):
        for ms in [(0,), (0, 0), (0, 1), (0, 0, 1), (1, 2, 3)]:
            for lam_y in (0.1, 0.5, 0.9):
                basis = eta_basis(ms, lam_y)
                assert basis.eigenvalues.min() > 0

    def test_repeated_value_dft_vectors(self):
        basis = eta_basis((2, 2), 0.5)
        w = np.exp(2j * np.pi / 3)
        expected = np.array(
            [[1, 1, 1], [1, w, w**2], [1, w**2, w]], dtype=complex
        ).T / math.sqrt(3)
        assert np.abs(basis.etas - expected).max() < 1e-15
        c = chi(0.5, 2)
        assert basis.eigenvalues[0] == pytest.approx(1 + 2 * c, abs=1e-15)
        assert np.allclose(basis.eigenvalues[1:], 1 - c, atol=1e-15)

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_distinct_pair_closed_vectors_are_eigenvectors(self, lam_y):
        for l in range(1, 7):
            for m in range(l):
                basis = eta_basis((m, l), lam_y)
                h = sector_matrix((m, l), lam_y)
                resid = h @ basis.etas - basis.etas * basis.eigenvalues
                assert np.abs(resid).max() < 1e-12

    def test_printed_vector_layout(self):
        # first column is the uniform vector; each column matches the analytic
        # form up to a global phase in the analytic label order
        l, m, lam_y = 3, 1, 0.5
        basis = lm_closed_basis(l, m, lam_y)
        arr = basis.arrangements
        perm = [arr.index[s] for s in lm_label_order(l, m)]
        from cvpbt.nport import _lm_vectors

        eta, xi, _ = _lm_vectors(l, m, lam_y)
        for col in range(6):
            vec = basis.etas[perm, col]
            label = min(
                range(1, 7),
                key=lambda j: min(
                    np.abs(vec - eta[j] * ph).max() for ph in (1, -1, 1j, -1j)
                ),
            )
            overlap = abs(np.vdot(eta[label], vec))
            assert overlap == pytest.approx(1.0, abs=1e-12)
            assert basis.eigenvalues[col] == pytest.approx(xi[label], abs=1e-14)


class TestGamma:
    def test_hermitian(self):
        for ms in [(1,), (2, 2), (0, 3), (0, 1, 1)]:
            g = gamma(ms, 0.45)
            assert np.abs(g - g.conj().T).max() < 1e-12

    def test_two_port_structure(self):
        # diag(1, -1) / (2 sqrt(1 - chi^2)) in the (marker-first, marker-last) order
        for m in range(5):
            g = gamma((m,), 0.6)
            c = chi(0.6, m)
            scale = 1 / (2 * math.sqrt(1 - c * c))
            assert np.abs(g - np.diag([scale, -scale])).max() < 1e-14

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_repeated_pair_closed_form(self, lam_y):
        for m in range(7):
            g = gamma((m, m), lam_y)
            assert np.abs(g - gamma_mm_closed(m, lam_y)).max() < 1e-12

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    def test_distinct_pair_closed_form(self, lam_y):
        for l in range(7):
            for m in range(7):
                if l == m:
                    continue
                arr = Arrangements((min(l, m), max(l, m)))
                perm = [arr.index[s] for s in lm_label_order(l, m)]
                g = gamma(arr.multiset, lam_y)[np.ix_(perm, perm)]
                assert np.abs(g - gamma_lm_closed(l, m, lam_y)).max() < 1e-10

    def test_from_basis_matches_matrix_route(self):
        for ms in [(0,), (1, 1), (0, 2), (0, 0, 2), (1, 2, 3)]:
            g1 = gamma(ms, 0.5)
            g2 = gamma_from_basis(eta_basis(ms, 0.5))
            assert np.abs(g1 - g2).max() < 1e-11

    def test_invariant_under_degenerate_rotations(self):
        rng = np.random.default_rng(42)
        for ms in [(1, 1), (0, 2), (2, 2, 2), (0, 0, 1)]:
            basis = eta_basis(ms, 0.5)
            etas = basis.etas.copy()
            w = basis.eigenvalues
            i = 0
            while i < len(w):
                j = i + 1
                while j < len(w) and abs(w[j] - w[i]) <= 1e-9:
                    j += 1
                if j - i > 1:
                    block = rng.normal(size=(j - i, j - i)) + 1j * rng.normal(size=(j - i, j - i))
                    q, _ = np.linalg.qr(block)
                    etas[:, i:j] = etas[:, i:j] @ q
                i = j
            rotated = nport.SectorBasis(basis.multiset, etas, w, basis.arrangements)
            assert np.abs(gamma_from_basis(rotated) - gamma(ms, 0.5)).max() < 1e-10


class TestGenericChannel:
    def test_two_port_reduction(self):
        p = ChannelParams(0.5, 0.45)
        ch = NPortChannel(p, cap=40)
        d = 10
        for a in range(4):
            for b in range(4):
                got = ch.number_element(a, b, Cutoff(d)).matrix
                want = apply_number_element(a, b, p, Cutoff(d)).matrix
                assert np.abs(got - want).max() < 1e-10

    def test_three_port_generic_vs_closed(self):
        p = ChannelParams(0.4, 0.35, ports=3)
        gen = NPortChannel(p, cap=14)
        closed = ThreePortChannel(p, cap=14)
        d = 8
        for a in range(3):
            for b in range(3):
                got = gen.number_element(a, b, Cutoff(d)).matrix
                want = closed.number_element(a, b, Cutoff(d)).matrix
                assert np.abs(got - want).max() < 1e-10

    def test_trace_preservation_with_declared_tail(self):
        for ports in (2, 3):
            p = ChannelParams(0.45, 0.5, ports=ports)
            ch = NPortChannel(p, cap=default_cap(p))
            for a in (0, 2, 4):
                el = ch.number_element(a, a, Cutoff(24))
                assert abs(el.matrix.trace().real - 1) <= el.meta["tail_bound"] + 1e-10

    def test_offdiagonal_output_is_single_element(self):
        p = ChannelParams(0.4, 0.6, ports=3)
        el = ThreePortChannel(p, cap=25).number_element(1, 3, Cutoff(8)).matrix
        val = el[1, 3]
        assert val.real > 0 and val.imag == 0
        el[1, 3] = 0
        assert np.abs(el).max() == 0

    def test_channel_invariant_under_degenerate_basis_rotation(self):
        rng = np.random.default_rng(7)
        p = ChannelParams(0.4, 0.5, ports=3)
        cap = 10
        gammas = {}
        for ms in enumerate_multisets(3, cap):
            basis = eta_basis(ms, p.lambda_y)
            etas = basis.etas.copy()
            w = basis.eigenvalues
            i = 0
            while i < len(w):
                j = i + 1
                while j < len(w) and abs(w[j] - w[i]) <= 1e-9:
                    j += 1
                if j - i > 1:
                    blk = rng.normal(size=(j - i, j - i)) + 1j * rng.normal(size=(j - i, j - i))
                    q, _ = np.linalg.qr(blk)
                    etas[:, i:j] = etas[:, i:j] @ q
                i = j
            gammas[ms] = gamma_from_basis(nport.SectorBasis(basis.multiset, etas, w, basis.arrangements))
        plain = NPortChannel(p, cap=cap)
        rotated = NPortChannel(p, cap=cap, gammas=stack_from_dict(gammas))
        for a in range(3):
            for b in range(3):
                got = rotated.number_element(a, b, Cutoff(7)).matrix
                want = plain.number_element(a, b, Cutoff(7)).matrix
                assert np.abs(got - want).max() < 1e-8

    def test_doubling_cap_stays_within_declared_tail(self):
        p = ChannelParams(0.55, 0.4, ports=3)
        small = ThreePortChannel(p, cap=8)
        big = ThreePortChannel(p, cap=16)
        d = 8
        for a in range(3):
            for b in range(3):
                delta = np.abs(
                    small.number_element(a, b, Cutoff(d)).matrix
                    - big.number_element(a, b, Cutoff(d)).matrix
                ).max()
                assert delta <= small.tail_bound(d) + 1e-14

    def test_level_sums_match_literal_orbit_sums(self):
        # four ports, output levels past cap + 1: every element against the
        # per-sector orbit sums written out one element at a time
        p = ChannelParams(0.5, 0.45, ports=4)
        cap, d = 4, 7
        n, lx, ly = p.ports, p.lambda_x, p.lambda_y
        channel = NPortChannel(p, cap=cap)
        for a in range(4):
            for b in range(4):
                pref = n * (1 - lx**2) ** n * (1 - ly**2) * (lx * ly) ** (a + b)
                want = np.zeros((d, d))
                if a == b:
                    want[np.diag_indices(d)] = [chi(lx, m) for m in range(d)]
                for ms in enumerate_multisets(n, cap):
                    arr = Arrangements(ms)
                    g = gamma(arr, ly)
                    w = pref * lx ** (2 * sum(ms))

                    def orbit(t, v):
                        return [t, *arr.swaps[t][v]] if v in ms else [t]

                    for i in arr.ptilde:
                        want[a, b] += w * g[np.ix_(orbit(i, b), orbit(i, a))].sum()
                        if a != b:
                            continue
                        seq = arr.seqs[i]
                        for q in range(1, n):  # the marker moves to slot q, the output gets level seq[q]
                            if seq[q] == a:
                                continue
                            t = list(seq)
                            t[0], t[q] = t[q], t[0]
                            t = arr.index[tuple(t)]
                            want[seq[q], seq[q]] += w * g[t, orbit(t, a)].sum()
                got = channel.number_element(a, b, Cutoff(d)).matrix
                assert np.abs(got - want).max() < 1e-12

    def test_default_cap_rule(self):
        p = ChannelParams(0.5, 0.5, ports=3)
        cap = default_cap(p)
        lx = 0.5
        assert 2 * lx ** (2 * (cap + 1)) / (1 - lx**2) < 1e-10
        assert 2 * lx ** (2 * cap) / (1 - lx**2) >= 1e-10


def stack_from_dict(gammas):
    """A Gamma stack function that reads each sector's Gamma from a dict keyed
    by multiset, as the dict route of the channel build did."""

    def stack(arr, levels, lam_y):
        return np.stack([gammas[tuple(int(v) for v in row[list(arr.multiset)])] for row in levels])

    return stack


def dict_route_gammas(params, cap):
    """The three-port closed-form Gammas keyed by multiset, as the dict route
    that the stack interface replaced built them: each pattern's closed form
    over all its sectors in one call."""
    ly = params.lambda_y
    arr = Arrangements((0, 1))
    order = np.argsort([arr.index[s] for s in lm_label_order(1, 0)])
    m = np.arange(cap + 1)
    lo, hi = np.triu_indices(cap + 1, 1)
    gammas = dict(zip(zip(m.tolist(), m.tolist()), gamma_mm_closed(m, ly)))
    gammas.update(zip(zip(lo.tolist(), hi.tolist()), gamma_lm_closed(hi, lo, ly)[:, order[:, None], order]))
    return gammas


def pattern_groups(ports, cap):
    """Sectors grouped by multiplicity pattern: (layout, levels array, multisets)."""
    groups = {}
    for ms in enumerate_multisets(ports, cap):
        groups.setdefault(tuple(ms.count(v) for v in sorted(set(ms))), []).append(ms)
    for pattern, sectors in groups.items():
        arr = Arrangements([r for r, c in enumerate(pattern) for _ in range(c)])
        yield arr, np.array([sorted(set(ms)) for ms in sectors]), sectors


class TestPatternStacks:
    def test_batched_closed_forms_match_one_pair_calls(self):
        lam_y = 0.3
        pairs = [(3, 1), (1, 3), (6, 0), (0, 6), (0, 400), (400, 0), (2, 5), (1, 2)]
        l, m = np.array(pairs).T
        stacked = gamma_lm_closed(l, m, lam_y)
        single = np.stack([gamma_lm_closed(a, b, lam_y) for a, b in pairs])
        assert stacked.shape == (len(pairs), 6, 6)
        assert np.abs(stacked - single).max() <= 1e-15
        assert np.isfinite(stacked).all()  # (0, 400) takes the saturated phase
        ms = np.array([0, 1, 4, 400])
        stacked = gamma_mm_closed(ms, lam_y)
        assert stacked.shape == (4, 3, 3)
        assert np.abs(stacked - np.stack([gamma_mm_closed(int(v), lam_y) for v in ms])).max() <= 1e-15

    def test_saturated_phase_matches_numeric_gamma(self):
        # lam_y^(2(l-m)) overflows for (l, m) = (0, 400); the phase saturates at 2 pi / 3
        assert nport._lm_phase(0, 400, 0.3) == pytest.approx(2 * math.pi / 3, abs=1e-15)
        arr = Arrangements((0, 400))
        for l, m in [(0, 400), (400, 0)]:
            perm = [arr.index[s] for s in lm_label_order(l, m)]
            want = gamma(arr, 0.3)[np.ix_(perm, perm)]
            assert np.abs(gamma_lm_closed(l, m, 0.3) - want).max() < 1e-10

    def test_closed_forms_reject_repeated_values_in_a_stack(self):
        with pytest.raises(ValueError):
            gamma_lm_closed(np.array([2, 3]), np.array([1, 3]), 0.5)

    def test_three_port_stacks_match_one_pair_dict(self):
        p = ChannelParams(0.75, 0.4, ports=3)
        cap = 42
        arr = Arrangements((0, 1))
        order = np.argsort([arr.index[s] for s in lm_label_order(1, 0)])
        gammas = {}
        for lo, hi in enumerate_multisets(3, cap):
            if lo == hi:
                gammas[(lo, hi)] = gamma_mm_closed(lo, p.lambda_y)
            else:
                gammas[(lo, hi)] = gamma_lm_closed(hi, lo, p.lambda_y)[np.ix_(order, order)]
        c1, t1 = ThreePortChannel(p, cap).arrays(12)
        c2, t2 = NPortChannel(p, cap, gammas=stack_from_dict(gammas)).arrays(12)
        assert np.abs(c1 - c2).max() <= 1e-13
        assert np.abs(t1 - t2).max() <= 1e-13
        for cap in (0, 1, cap):
            closed = ThreePortChannel(p, cap)
            route = NPortChannel(p, cap, gammas=stack_from_dict(dict_route_gammas(p, cap)))
            for got, want in zip(closed.arrays(12), route.arrays(12)):
                assert np.array_equal(got, want)
            assert closed.tail_bound(12) == route.tail_bound(12)

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_pattern_walk_meets_the_enumeration_groups(self, ports):
        for cap in sorted({0, 1, ports - 2, 12}):
            walk = list(nport._pattern_walk(ports, cap))
            groups = list(pattern_groups(ports, cap))
            assert len(walk) == len(groups)
            for (layout, levels), (arr, want, _) in zip(walk, groups):
                assert tuple(layout) == arr.multiset
                assert levels.dtype == want.dtype and np.array_equal(levels, want)

    @pytest.mark.parametrize("ports, cap", [(4, 4), (5, 2)])
    def test_numeric_stacks_match_eigenbasis_route(self, ports, cap):
        lam_y = 0.45
        seen = 0
        for arr, levels, sectors in pattern_groups(ports, cap):
            stacked = nport._gamma_stack(arr, levels, lam_y)
            assert stacked.shape == (len(sectors), arr.size, arr.size)
            for g, ms in zip(stacked, sectors):
                assert np.abs(g - gamma_from_basis(eta_basis(ms, lam_y))).max() < 1e-11
                seen += 1
        assert seen == len(enumerate_multisets(ports, cap))

    def test_numeric_stacks_equal_one_sector_gammas(self):
        for arr, levels, sectors in pattern_groups(4, 5):
            stacked = nport._gamma_stack(arr, levels, 0.6)
            for g, ms in zip(stacked, sectors):
                assert np.array_equal(g, gamma(ms, 0.6))

    def test_constructors_are_bitwise_deterministic(self):
        for build in (
            lambda: ThreePortChannel(ChannelParams(0.6, 0.35, ports=3)),
            lambda: NPortChannel(ChannelParams(0.45, 0.5, ports=4)),
        ):
            (c1, t1), (c2, t2) = build().arrays(12), build().arrays(12)
            assert c1.tobytes() == c2.tobytes() and t1.tobytes() == t2.tobytes()


class TestApplyState:
    def _bell(self, levels, d):
        amps = np.zeros(levels * levels, complex)
        for c in range(d):
            amps[c * levels + c] = 1 / math.sqrt(d)
        from cvpbt.fock import FockVector

        return pure_density(FockVector(amps, 2, Cutoff(levels)))

    def test_bell_outside_code_space_is_diagonal(self):
        p = ChannelParams(0.45, 0.5, ports=3)
        levels = 8
        out = apply_state_nport(self._bell(levels, 2), p, cap=20).matrix
        t = out.reshape(levels, levels, levels, levels)
        for pp, ii, qq, jj in itertools.product(range(levels), repeat=4):
            if max(pp, ii, qq, jj) >= 2 and abs(t[pp, ii, qq, jj]) > 1e-15:
                assert pp == qq and ii == jj

    def test_tmsv_trace_preserved(self):
        p = ChannelParams(0.4, 0.5, ports=3)
        d = 12
        rho_in = pure_density(tmsv_ket(1 / 3, Cutoff(d)))
        out = apply_state_nport(rho_in, p, cap=None)
        assert abs(out.trace() - 1) <= out.trace_deficit + 1e-10

    def test_fast_fidelity_matches_full_state(self):
        p = ChannelParams(0.45, 0.55, ports=3)
        d = 10
        lam_in = 1 / 3
        rho_in = pure_density(tmsv_ket(lam_in, Cutoff(d)))
        out = apply_state_nport(rho_in, p, cap=None)
        # pure input: fidelity = <psi| rho_out |psi>
        psi = tmsv_ket(lam_in, Cutoff(d)).amplitudes
        full = float((psi.conj() @ out.matrix @ psi).real)
        fast, meta = input_output_fidelity("tmsv", p, lambda_in=lam_in, levels=d)
        # the fast path uses the truncated (unnormalized) input, exactly like
        # the projection onto the truncated ket
        assert fast == pytest.approx(full, abs=1e-10)
        assert meta["cap"] >= 1

    def test_qutrit_below_qubit_fidelity(self):
        for ports in (2, 3):
            for lx, ly in [(0.4, 0.4), (0.5, 0.6), (0.6, 0.5)]:
                p = ChannelParams(lx, ly, ports=ports)
                f2, _ = input_output_fidelity("bell2", p)
                f3, _ = input_output_fidelity("bell3", p)
                assert f3 < f2

    def test_three_port_beats_two_port_qubit_fidelity_at_half(self):
        f2, _ = input_output_fidelity("bell2", ChannelParams(0.5, 0.5, ports=2))
        f3, _ = input_output_fidelity("bell2", ChannelParams(0.5, 0.5, ports=3))
        assert f3 > f2

    def test_rejects_three_modes(self):
        m = np.eye(8, dtype=complex) / 8
        rho = DensityOperator(FockOperator(m, 3, Cutoff(2)))
        with pytest.raises(ValueError):
            apply_state_nport(rho, ChannelParams(0.4, 0.5, ports=3))

    def test_two_port_state_application_matches_closed_module(self):
        from cvpbt.two_port import apply_state

        p = ChannelParams(0.5, 0.45)
        d = 12
        rng = np.random.default_rng(3)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        m /= np.trace(m).real
        rho = DensityOperator(FockOperator(m, 1, Cutoff(d)))
        via_nport = apply_state_nport(rho, p)
        via_closed = apply_state(rho, p)
        assert np.abs(via_nport.matrix - via_closed.matrix).max() < 1e-12
