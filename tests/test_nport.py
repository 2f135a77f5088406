import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter

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
from cvpbt.oracle import MemoryBudgetError
from cvpbt.two_port import ChannelParams, apply_number_element


DATA = pathlib.Path(__file__).parent / "data"


def build_digests() -> list:
    """sha256 of the bytes of C and T on 12 levels, one build per port count 3..7."""
    builds = [ThreePortChannel(ChannelParams(0.6, 0.35, ports=3)), NPortChannel(ChannelParams(0.45, 0.5, ports=4))]
    builds += [NPortChannel(ChannelParams(0.45, 0.5, ports=n), cap=cap) for n, cap in ((5, 3), (6, 2), (7, 1))]
    return [hashlib.sha256(b"".join(a.tobytes() for a in channel.arrays(12))).hexdigest() for channel in builds]


def lm_label_order(l, m):
    return [(MARKER, l, m), (l, m, MARKER), (m, MARKER, l), (MARKER, m, l), (m, l, MARKER), (l, MARKER, m)]


GAPS = {3: [(1, 4)], 4: [(3, 3, 7)], 5: [(0, 2, 2, 5)], 6: [(1, 1, 4, 4, 4)], 7: [(0, 2, 2, 5, 5, 9)]}


def layouts_and_gaps(ports):
    """Every layout of `ports` ports, then sectors whose levels leave gaps."""
    return [tuple(layout) for layout, _ in nport._pattern_walk(ports, ports - 1)] + GAPS.get(ports, [])


def seqs(arr):
    """The slot sequences of `arr`'s arrangements in row order, read from `index`."""
    return list(arr.index)


def swapped(arr, t, q):
    """Index of arrangement t with its marker and slot q exchanged."""
    seq = list(seqs(arr)[t])
    seq[seq.index(MARKER)], seq[q] = seq[q], MARKER
    return arr.index[tuple(seq)]


def orbit(arr, t, v):
    """t, then the arrangements reached by swapping its marker with each slot holding v."""
    return [t] + [swapped(arr, t, q) for q, x in enumerate(seqs(arr)[t]) if x == v]


def literal_segments(arr):
    """`nport._orbit_segments` walked one orbit at a time with `orbit`."""
    size = arr.size
    uniq = sorted(set(arr.multiset))
    slots = uniq + [None]

    def orbit_of(t, v):
        return [t] if v is None else orbit(arr, t, v)

    segments = [[r * size + c for i in arr.ptilde for r in orbit_of(i, b) for c in orbit_of(i, a)] for a in slots for b in slots]
    segments += [
        [t * size + c for t, seq in enumerate(seqs(arr)) if seq[0] == n for c in orbit_of(t, a)] for a in slots for n in uniq
    ]
    return np.concatenate(segments), np.cumsum([0] + [len(x) for x in segments[:-1]])


def full_stack(arr, levels, lam_y, gammas=nport._gamma_stack):
    """Whole Gammas, (b, size, size), from a stack function that returns the
    requested flat entries."""
    size = arr.size
    return gammas(arr, levels, lam_y, np.arange(size**2)).reshape(-1, size, size)


def rotation_tables(arr):
    """Port-rotation tables, m = size / N.  perm[j, p]: index of marker-first
    arrangement p rotated so that its marker sits in slot j; hop[d-1, p']:
    the marker-first arrangement reached from p' by swapping its marker with
    slot d and rotating the marker back to slot 0; slot[d-1, p']: the
    unique-level index of the value in slot d of p'."""
    n = arr.ports
    listed = seqs(arr)
    first = [listed[i] for i in arr.ptilde]
    rank = {s: p for p, s in enumerate(first)}
    level = {v: r for r, v in enumerate(sorted(set(arr.multiset)))}
    perm = np.array([[arr.index[s[n - j :] + s[: n - j]] for s in first] for j in range(n)])
    hop = np.empty((n - 1, len(first)), dtype=np.intp)
    slot = np.empty((n - 1, len(first)), dtype=np.intp)
    for d in range(1, n):
        for p, s in enumerate(first):
            t = (s[d],) + s[1:d] + (MARKER,) + s[d + 1 :]
            hop[d - 1, p] = rank[t[d:] + t[:d]]
            slot[d - 1, p] = level[s[d]]
    return perm, hop, slot


def rotation_blocks(arr, weights):
    """Blocks C_d of the sector matrices in rotation order, (b, N, m, m), for
    swap weights (b, k) per unique level: C_0 = I, and for d >= 1 C_d sends
    marker-first p' to hop[d-1, p'] with the weight of the level in slot d."""
    perm, hop, slot = rotation_tables(arr)
    n, m = perm.shape
    blocks = np.zeros((len(weights), n, m, m))
    blocks[:, 0] = np.eye(m)
    for d in range(1, n):
        blocks[:, d, hop[d - 1], np.arange(m)] = weights[:, slot[d - 1]]
    return blocks


def block_circulant(blocks):
    """(b, N m, N m) stack whose block (j, j') is blocks[:, (j - j') mod N]."""
    b, n, m, _ = blocks.shape
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    return blocks[:, lag].swapaxes(2, 3).reshape(b, n * m, n * m)


def mirror(arr):
    """Index of every arrangement with its level slots reversed,
    (s0, s1..s_(N-1)) -> (s0, s_(N-1)..s1)."""
    return np.array([arr.index[s[:1] + s[:0:-1]] for s in seqs(arr)])


def reflection(arr):
    """`mirror` on the marker-first arrangements, as marker-first ranks."""
    rank = {t: p for p, t in enumerate(arr.ptilde)}
    flip = mirror(arr)
    return np.array([rank[flip[t]] for t in arr.ptilde])


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
            for v in set(arr.multiset):
                for j in orbit(arr, i, v)[1:]:
                    assert i in orbit(arr, j, v)
        for ports in range(2, 8):  # every layout: swapping back through the old marker slot returns t
            for layout, _ in nport._pattern_walk(ports, ports - 2):
                arr = Arrangements(layout)
                swaps, marker = arr.swaps, arr.slot_level.argmin(axis=1)
                assert swaps.shape == (arr.size, ports) and swaps.dtype == np.intp
                assert np.array_equal(swaps[np.arange(arr.size), marker], np.arange(arr.size))
                assert np.array_equal(swaps[swaps, marker[:, None]], np.broadcast_to(np.arange(arr.size)[:, None], swaps.shape))
                if arr.size <= 720:
                    assert all(swaps[t, q] == swapped(arr, t, q) for t in range(arr.size) for q in range(ports))

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_the_enumeration_is_the_literal_one(self, ports):
        for ms in layouts_and_gaps(ports):
            arr = Arrangements(ms)
            literal = sorted(set(itertools.permutations((MARKER,) + ms)))
            assert list(arr.index) == literal
            assert arr.size == len(literal) and arr.slot_level.dtype == np.intp
            assert arr.ptilde.tolist() == [i for i, s in enumerate(literal) if s[0] == MARKER]
            # the key search that found each element's arrangement before the enumeration gave it
            uniq = sorted(set(ms))
            first = np.cumsum([0] + [ms.count(v) for v in uniq])
            code = np.append(np.searchsorted(first, np.arange(ports - 1), side="right"), 0)
            place = (len(uniq) + 1) ** np.arange(ports - 1, -1, -1)
            keys = np.array([[0 if v == MARKER else uniq.index(v) + 1 for v in s] for s in literal]) @ place
            want = np.searchsorted(keys, np.roll(code[nport._elements(ports)], 1, axis=1) @ place)
            assert arr.arrangement_of.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_representatives_order_every_levels_copies_by_slot(self, ports):
        m = math.factorial(ports - 1)
        # the slot of every letter, one table per N: rolled[g, slots[g, letter]] is that letter
        slots = nport._slots(ports)
        assert slots is nport._slots(ports) and slots.dtype == np.int8 and not slots.flags.writeable
        rolled = np.roll(nport._elements(ports), 1, axis=1)
        assert np.array_equal(np.take_along_axis(rolled, slots, axis=1), np.broadcast_to(np.arange(ports), rolled.shape))
        for ms in layouts_and_gaps(ports):
            arr = Arrangements(ms)
            rep = arr.representative
            assert rep.dtype == np.intp and not rep.flags.writeable
            assert np.array_equal(arr.arrangement_of[rep], np.arange(arr.size))
            assert arr.uniq == tuple(sorted(set(ms))) and arr.mults == tuple(ms.count(v) for v in arr.uniq)
            # the letters by slot: the marker is letter N-1, the copies of level r the letters first[r]..
            letters = np.roll(nport._elements(ports)[rep], 1, axis=1)
            first = np.cumsum((0,) + arr.mults)
            held = letters < ports - 1
            assert np.array_equal(np.where(held, np.searchsorted(first, letters, side="right") - 1, -1), arr.slot_level)
            for r, start in enumerate(first[:-1]):
                hit = arr.slot_level == r
                assert np.array_equal(letters[hit], (start + np.cumsum(hit, axis=1) - 1)[hit])
            t = arr.gamma_tables
            coset, elem = np.divmod(rep, m)
            assert t.coset.tobytes() == coset.tobytes() and t.elem.tobytes() == elem.tobytes()

    @pytest.mark.parametrize("call, multiset", [
        (lambda ms: sector_matrix(ms, 0.5), (-1, 0)),  # -1 is the marker: it would count 3 arrangements, not 6
        (lambda ms: eta_basis(ms, 0.5), (-1, 0, 2)),  # 12 x 12 in place of 24 x 24
        (lambda ms: sector_matrix(ms, 0.5), (0.5, 1)),  # an IndexError before
        (lambda ms: sector_matrix(ms, 0.5), (-2, 0)),  # an IndexError before
        (Arrangements, (np.int64(1), 2.0)),
        (Arrangements, (True, 1)),
    ])
    def test_levels_other_than_nonnegative_integers_are_refused(self, call, multiset):
        with pytest.raises(ValueError, match="multiset level"):
            call(multiset)

    @pytest.mark.parametrize("ports", range(2, 7))
    def test_orbit_segments_are_the_literal_walk(self, ports):
        for layout, _ in nport._pattern_walk(ports, ports - 2):
            arr = Arrangements(layout)
            for got, want in zip(nport._orbit_segments(arr), literal_segments(arr)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRotations:
    @pytest.mark.parametrize("ports", range(2, 7))
    def test_inverse_fft_of_the_blocks_rebuilds_sector_matrix(self, ports):
        lam_y = 0.45
        for layout, levels in nport._pattern_walk(ports, ports - 1):
            arr = Arrangements(layout)
            blocks = rotation_blocks(arr, nport._swap_weights(levels, lam_y))
            blocks = np.fft.irfft(np.fft.rfft(blocks, axis=1), ports, axis=1)
            order = rotation_tables(arr)[0].ravel()
            h = np.empty((len(levels), arr.size, arr.size))
            h[:, order[:, None], order] = block_circulant(blocks)
            for got, row in zip(h, levels):
                assert np.abs(got - sector_matrix(tuple(row[layout]), lam_y)).max() <= 1e-15

    @pytest.mark.parametrize("lam_y", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("ports", range(2, 7))
    def test_gamma_stack_matches_dense_reference(self, ports, lam_y):
        for layout, levels in nport._pattern_walk(ports, ports - 1 if ports < 6 else ports - 2):
            arr = Arrangements(layout)
            stacked = full_stack(arr, levels, lam_y)
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
            full_stack(Arrangements((0, 1)), np.array([[0, 1], [2, 3]]), 0.5)

    def test_seven_distinct_levels_stay_small(self):
        tracemalloc.start()
        try:
            arr = Arrangements(range(7))
            swaps = arr.swaps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.size == 40320 and swaps.shape == (40320, 8)
        assert peak < 50 * 2**20


class TestDihedral:
    """The port reflection (s0, s1..s_(N-1)) -> (s0, s_(N-1)..s1), which
    keeps slot 0 and so leaves the sector matrices and the Gammas
    unchanged, at every layout up to seven ports."""

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_reflection_is_an_involution_fixed_on_palindromes(self, ports):
        for layout, levels in nport._pattern_walk(ports, ports - 2):
            arr = Arrangements(layout)
            flip = reflection(arr)
            assert np.array_equal(flip[flip], np.arange(len(flip)))
            listed = seqs(arr)
            for p, i in enumerate(arr.ptilde):
                tail = listed[i][1:]
                assert listed[arr.ptilde[flip[p]]] == (MARKER,) + tail[::-1]
                assert (flip[p] == p) == (tail == tail[::-1])
            if arr.size <= 720:
                f = mirror(arr)
                h = sector_matrix(tuple(levels[-1][layout]), 0.45)
                assert np.array_equal(h[f[:, None], f], h)

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_reflection_pairs_the_swap_blocks(self, ports):
        for layout, levels in nport._pattern_walk(ports, ports - 1):
            arr = Arrangements(layout)
            flip = reflection(arr)
            blocks = rotation_blocks(arr, nport._swap_weights(levels[:2], 0.45))
            for d in range(1, ports):
                assert np.array_equal(blocks[:, ports - d], blocks[:, d][:, flip[:, None], flip])
            if arr.size <= 120:  # the irrep route's Gammas keep the symmetry
                f = mirror(arr)
                g = full_stack(arr, levels[:2], 0.45)
                assert np.abs(g[:, f[:, None], f] - g).max() <= 1e-14 * np.abs(g).max()


class TestIrreps:
    """Young's orthogonal form of S_N and the K x K blocks that the numeric
    Gammas diagonalise in place of the sector matrices."""

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_young_generators_are_orthogonal_and_satisfy_the_coxeter_relations(self, ports):
        for gens, *_ in nport._irreps(ports):
            one = np.eye(gens.shape[-1])
            for i, s in enumerate(gens):
                assert np.abs(s @ s.T - one).max() <= 1e-14
                assert np.abs(s @ s - one).max() <= 1e-14
                if i + 1 < len(gens):
                    assert np.abs(np.linalg.matrix_power(s @ gens[i + 1], 3) - one).max() <= 1e-13
                for t in gens[i + 2 :]:
                    assert np.abs(s @ t - t @ s).max() <= 1e-14

    @pytest.mark.parametrize("ports", range(1, 8))
    def test_dimensions_square_sum_to_the_group_order(self, ports):
        shapes = nport._partitions(ports)
        assert len(shapes) == [1, 2, 3, 5, 7, 11, 15][ports - 1]
        assert len(shapes) == len(set(shapes)) and all(sum(s) == ports and list(s) == sorted(s)[::-1] for s in shapes)
        assert [len(nport._tableaux(s)) for s in shapes] == [c.shape[-1] for _, c, *_ in nport._irreps(ports)]
        assert sum(c.shape[-1] ** 2 for _, c, *_ in nport._irreps(ports)) == math.factorial(ports)

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_kostka_multiplicities_count_the_arrangements(self, ports):
        for layout, _ in nport._pattern_walk(ports, ports - 2):
            arr = Arrangements(layout)
            groups = arr.gamma_tables.groups
            assert sum(q.shape[0] * q.shape[1] * q.shape[2] for q in (s.q for s in groups)) == arr.size
            for q in (s.q for s in groups):  # Q^T Q = I up to the scale d |S_mu| / N!
                qtq = q.swapaxes(1, 2) @ q
                assert np.abs(qtq - np.eye(q.shape[2]) * qtq[:, :1, :1]).max() <= 1e-14 * qtq[0, 0, 0]

    @pytest.mark.parametrize("ports", range(2, 7))
    def test_block_spectra_are_the_sector_spectra(self, ports):
        lam_y = 0.45
        for layout, levels in nport._pattern_walk(ports, ports - 1):
            arr = Arrangements(layout)
            blocks = nport._irrep_blocks(arr, levels[:2], lam_y)
            dims = [s.q.shape[1] for s in arr.gamma_tables.groups]
            for i, row in enumerate(levels[:2]):
                got = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b[i]).ravel(), d) for b, d in zip(blocks, dims)]))
                want = np.linalg.eigvalsh(sector_matrix(tuple(row[layout]), lam_y))
                assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("ports", range(2, 8))
    def test_marker_blocks_are_the_marker_transpositions(self, ports):
        # rho((c N-1)), read from every element's representation
        swap = np.tile(np.arange(ports, dtype=np.int8), (ports - 1, 1))
        swap[np.arange(ports - 1), np.arange(ports - 1)] = ports - 1
        swap[:, -1] = np.arange(ports - 1)
        rank = nport._rank(swap)
        for (_, _, blocks, _), rho in zip(nport._irreps(ports), nport._rho_all(ports)):
            assert not blocks.flags.writeable
            assert np.abs(blocks - rho[rank]).max() <= 1e-13

    def test_group_tables_multiply_the_representations(self):
        ports = 6
        group = nport._group_tables(ports)
        rho = nport._rho_all(ports - 1)
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, len(group.quot), (2, 40))
        for r in rho:  # orthogonal irreps: rho(h^-1) = rho(h)^T
            assert np.abs(r[a] @ r[b].swapaxes(1, 2) - r[group.quot[a, b]]).max() <= 1e-14

    def test_ill_conditioned_sector_matches_a_50_digit_reference(self):
        # smallest eigenvalue 1.6e-8; the stack rounds the swap weights and the block sums in float64
        mpmath = pytest.importorskip("mpmath")
        ms, lam_y = (0, 1, 2), 0.05
        arr = Arrangements(ms)
        with mpmath.workdps(50):
            ly2 = mpmath.mpf(lam_y) ** 2
            h = mpmath.eye(arr.size)
            for t, seq in enumerate(seqs(arr)):
                for q, v in enumerate(seq):
                    if v != MARKER:
                        h[t, arr.swaps[t, q]] += (1 - ly2) * ly2**v
            w, v = mpmath.eigsy(h)
            root = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.T
            inv = v * mpmath.diag([1 / x for x in w]) * v.T
            want = np.array([
                [float(sum(root[r, p] * root[c, p] for p in arr.ptilde) - inv[r, c] / arr.ports) for c in range(arr.size)]
                for r in range(arr.size)
            ])
        assert float(min(w)) < 2e-8
        assert np.abs(gamma(arr, lam_y) - want).max() <= 1e-8 * np.abs(want).max()


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
    @pytest.mark.parametrize(
        "ms", [(4,), (2, 2), (1, 3), (0, 1, 1), (0, 1, 2), (2, 2, 2), (0, 0, 1, 1), (0, 1, 1, 2)]
    )
    def test_orthonormal_and_complete(self, ms):
        lam_y = 0.55
        basis = eta_basis(ms, lam_y)
        e = basis.etas
        gram = e.conj().T @ e
        assert np.abs(gram - np.eye(e.shape[0])).max() < 1e-12
        h = sector_matrix(ms, lam_y)
        rebuilt = (e * basis.eigenvalues) @ e.conj().T
        assert np.abs(rebuilt - h).max() < 1e-10
        assert np.all(np.diff(basis.eigenvalues) <= 0)

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

    def test_label_rows_are_the_canonical_rows_of_the_labels(self):
        for l, m in [(1, 0), (0, 1), (5, 2), (2, 5), (0, 400), (400, 0)]:
            arr = Arrangements((min(l, m), max(l, m)))
            assert nport._LM_ROWS[int(l < m)].tolist() == [arr.index[s] for s in lm_label_order(l, m)]

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
        for ms in [(0,), (1, 1), (0, 2), (0, 0, 2), (1, 2, 3), (0, 0, 1, 1), (0, 1, 1, 2)]:
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

    @pytest.mark.parametrize("ports", [3, 4])
    @pytest.mark.parametrize("lam_y", [0.3, 0.7])
    def test_vacuum_resource_has_no_tail(self, ports, lam_y):
        # lambda_x = 0: the general tail expression is 0.0 itself (cap 0,
        # a zero geometric term and lx^(2 levels) = 0), and the output is vacuum
        channel = nport.make_channel(ChannelParams(0.0, lam_y, ports=ports))
        assert channel.cap == 0 and channel.tail_bound(12) == 0.0
        c, t = channel.arrays(12)
        vacuum = np.eye(12)[0]
        assert not c.any() and np.array_equal(t[1:], np.broadcast_to(vacuum, (11, 12)))
        assert np.abs(t[0] - vacuum).max() <= 1e-14
        generic = NPortChannel(channel.params)
        assert generic.tail_bound(12) == 0.0 and np.abs(generic.arrays(12)[1] - t).max() <= 1e-14

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

                    def orbit_of(t, v):
                        return orbit(arr, t, v) if v in ms else [t]

                    for i in arr.ptilde:
                        want[a, b] += w * g[np.ix_(orbit_of(i, b), orbit_of(i, a))].sum()
                        if a != b:
                            continue
                        seq = seqs(arr)[i]
                        for q in range(1, n):  # the marker moves to slot q, the output gets level seq[q]
                            if seq[q] == a:
                                continue
                            t = list(seq)
                            t[0], t[q] = t[q], t[0]
                            t = arr.index[tuple(t)]
                            want[seq[q], seq[q]] += w * g[t, orbit_of(t, a)].sum()
                got = channel.number_element(a, b, Cutoff(d)).matrix
                assert np.abs(got - want).max() < 1e-12

    def test_default_cap_rule(self):
        p = ChannelParams(0.5, 0.5, ports=3)
        cap = default_cap(p)
        lx = 0.5
        assert 2 * lx ** (2 * (cap + 1)) / (1 - lx**2) < 1e-10
        assert 2 * lx ** (2 * cap) / (1 - lx**2) >= 1e-10

    @pytest.mark.parametrize("ports", [3, 4, 5, 6])
    def test_default_cap_is_the_search_from_zero(self, ports):
        # the cap from logs, corrected by the remainder, against the search
        # up from zero that it replaced, over lambda_x up to caps above 10^5
        def search(lx):
            cap = 0
            while (ports - 1) * lx ** (2 * (cap + 1)) / (1 - lx**2) >= nport.CAP_TOL:
                cap += 1
            return cap

        grid = np.concatenate([np.linspace(0, 0.999, 300), 1 - np.logspace(-3, -4, 5), [5e-324, 1e-200]])
        for lx in grid.tolist():
            for value in (lx, np.float64(lx)):
                assert default_cap(ChannelParams(value, 0.3, ports=ports)) == search(value)

    def test_default_cap_near_one_is_found_without_a_search(self):
        # about 1.7 million at three ports, beyond any build
        cap = default_cap(ChannelParams(0.99999, 0.3, ports=3))
        assert 2 * 0.99999 ** (2 * (cap + 1)) / (1 - 0.99999**2) < nport.CAP_TOL
        assert 2 * 0.99999 ** (2 * cap) / (1 - 0.99999**2) >= nport.CAP_TOL


def stack_from_dict(gammas):
    """A Gamma stack function that reads each sector's Gamma from a dict keyed
    by multiset, as the dict route of the channel build did."""

    def stack(arr, levels, lam_y, entries):
        return np.stack([gammas[tuple(int(v) for v in row[list(arr.multiset)])].ravel()[entries] for row in levels])

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

    def test_closed_forms_refuse_a_vanishing_eigenvalue(self):
        # at lambda_y = 1e-5, xi[2] of {0, 1} is 1 - (1 - ly^2)(1 + ly^2), which rounds to 0.0;
        # {0, 0} keeps xi2 = ly^2 until 1 - ly^2 rounds to 1, which the lambda_y rule refuses first
        message = r"sector matrix with levels \[0, 1\] is not positive definite"
        for l, m in [(1, 0), (0, 1), (np.array([2, 1]), np.array([0, 0]))]:
            with pytest.raises(RuntimeError, match=message):
                gamma_lm_closed(l, m, 1e-5)
        assert np.isfinite(gamma_mm_closed(np.arange(3), 1e-5)).all()
        with pytest.raises(ValueError, match=r"lambda_y must exceed 2\^-27"):
            gamma_mm_closed(np.arange(3), 1e-9)

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
            stacked = full_stack(arr, levels, lam_y)
            assert stacked.shape == (len(sectors), arr.size, arr.size)
            for g, ms in zip(stacked, sectors):
                assert np.abs(g - gamma_from_basis(eta_basis(ms, lam_y))).max() < 1e-11
                seen += 1
        assert seen == len(enumerate_multisets(ports, cap))

    def test_numeric_stacks_equal_one_sector_gammas(self):
        for arr, levels, sectors in pattern_groups(4, 5):
            stacked = full_stack(arr, levels, 0.6)
            for g, ms in zip(stacked, sectors):
                assert np.array_equal(g, gamma(ms, 0.6))

    @pytest.mark.parametrize("lam_y", [0.3, 0.7])
    @pytest.mark.parametrize("ports, cap", [(4, 5), (5, 3), (6, 2)])
    def test_read_entries_match_whole_gamma_route(self, ports, cap, lam_y):
        def whole_gammas(arr, levels, lam_y, entries):  # each sector's whole Gamma, then the read entries
            return np.stack([gamma(tuple(row[list(arr.multiset)]), lam_y).ravel()[entries] for row in levels])

        p = ChannelParams(0.5, lam_y, ports=ports)
        read, whole = NPortChannel(p, cap), NPortChannel(p, cap, gammas=whole_gammas)
        assert read._s.tobytes() == whole._s.tobytes()
        assert read._f.tobytes() == whole._f.tobytes()
        assert read.tail_bound(12) == whole.tail_bound(12)

    @pytest.mark.parametrize("ports, cap", [(3, 12), (4, 6), (5, 4), (6, 4)])
    def test_read_entries_hold_the_largest_gamma_entry(self, ports, cap):
        # `_gamma_max` sees only the entries a build reads; they hold every whole Gamma's max
        routes = [nport._gamma_stack] + [nport._closed_gamma_stack] * (ports == 3)
        for lam_y in (0.05, 0.2, 0.5, 0.8, 0.9):
            for layout, levels in nport._pattern_walk(ports, cap):
                arr = Arrangements(layout)
                idx, _ = nport._orbit_segments(arr)
                for gammas in routes:
                    whole = np.abs(full_stack(arr, levels, lam_y, gammas)).reshape(len(levels), -1)
                    assert np.array_equal(whole[:, idx].max(axis=1), whole.max(axis=1))

    def test_closed_form_entries_are_the_whole_closed_forms(self):
        for arr, levels, sectors in pattern_groups(3, 6):
            idx, _ = nport._orbit_segments(arr)
            whole = np.stack([dict_route_gammas(ChannelParams(0.5, 0.4, ports=3), 6)[ms] for ms in sectors])
            got = nport._closed_gamma_stack(arr, levels, 0.4, idx)
            assert np.array_equal(got, whole.reshape(len(sectors), -1)[:, idx])

    def test_three_port_builds_make_no_numeric_tables(self, monkeypatch):
        # per layout, once per process: counted from a cold layout cache
        calls = Counter()
        for name in ("_gamma_tables", "_orbit_segments"):
            made = getattr(nport, name)
            monkeypatch.setattr(nport, name, lambda arr, name=name, made=made: calls.update([name]) or made(arr))
        p = ChannelParams(0.5, 0.4, ports=3)
        nport._LAYOUTS.clear()
        ThreePortChannel(p, cap=8)
        assert calls == {"_orbit_segments": 2}  # one per pattern, and no irrep tables
        NPortChannel(p, cap=8)
        assert calls == {"_orbit_segments": 2, "_gamma_tables": 2}  # the layouts kept, their irrep tables made once
        calls.clear()
        NPortChannel(p, cap=8)
        ThreePortChannel(p, cap=8)
        assert calls == {}
        nport._LAYOUTS.clear()
        NPortChannel(p, cap=8)
        assert calls == {"_orbit_segments": 2, "_gamma_tables": 2}

    def test_constructors_are_bitwise_deterministic(self):
        # cold, then warm in this process, then in two fresh ones whose
        # string hashes, and so dict and set orders, differ
        nport._LAYOUTS.clear()
        digests = build_digests()
        assert build_digests() == digests
        package_root = str(pathlib.Path(nport.__file__).resolve().parents[1])
        code = "import sys; sys.path.insert(0, sys.argv[1]); import test_nport; print(*test_nport.build_digests())"
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
            done = subprocess.run([sys.executable, "-c", code, str(pathlib.Path(__file__).parent)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == digests


class TestSectorChannelPins:
    def test_generic_builds_hold_to_the_pinned_values(self):
        # N = 4..6, written by `python tests/data/regenerate.py sector_channels.json`;
        # each array is held to 1e-12 of its largest entry, not entrywise, so
        # that phi summed in another order can meet it
        pins = json.loads((DATA / "sector_channels.json").read_text())
        levels = pins["levels"]
        for pin in pins["builds"]:
            channel = NPortChannel(ChannelParams(pin["lambda_x"], pin["lambda_y"], ports=pin["ports"]), cap=pin["cap"])
            c, t = channel.arrays(levels)
            for got, key in ((c, "C"), (t, "T"), (channel._gamma_max, "gamma_max"), (channel.tail_bound(levels), "tail_bound")):
                want = np.array(pin[key])
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (pin["ports"], pin["lambda_y"], key)


class TestBuildBudget:
    def test_huge_cap_is_refused_before_allocating(self, monkeypatch):
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="3-port sector build at cap 100000"):
                ThreePortChannel(ChannelParams(0.3, 0.3, ports=3), cap=100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("ports, lx", [(3, 0.99999), (200, 1 - 2**-53)])
    def test_huge_default_cap_is_refused(self, monkeypatch, ports, lx):
        # the second declaration is too large for a float, and refused as such
        monkeypatch.delenv("CVPBT_MEM_BUDGET_MB", raising=False)
        with pytest.raises(MemoryBudgetError, match=f"{ports}-port sector build at cap"):
            NPortChannel(ChannelParams(lx, 0.3, ports=ports))

    def test_budget_comes_from_the_environment(self, monkeypatch):
        p = ChannelParams(0.3, 0.3, ports=4)
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "16")
        with pytest.raises(MemoryBudgetError):
            NPortChannel(p, cap=2)
        monkeypatch.setenv("CVPBT_MEM_BUDGET_MB", "nan")
        with pytest.raises(ValueError):
            NPortChannel(p, cap=2)

    def test_negative_cap_is_refused_before_sizing(self, monkeypatch):
        def unsized(*args):
            raise AssertionError("a negative cap was sized")

        monkeypatch.setattr(nport, "_build_mb", unsized)
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            NPortChannel(ChannelParams(0.3, 0.3, ports=3), cap=-1)

    @pytest.mark.parametrize("cap", [2.5, True])
    def test_non_integral_cap_is_refused(self, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            NPortChannel(ChannelParams(0.3, 0.3, ports=4), cap=cap)

    def test_numpy_integer_sizes_build(self):
        p = ChannelParams(0.3, 0.3, ports=4)
        assert NPortChannel(p, cap=np.int64(2)).cap == 2
        two = ChannelParams(0.3, 0.35)
        assert input_output_fidelity("tmsv", two, lambda_in=0.3, levels=np.int64(5)) == input_output_fidelity(
            "tmsv", two, lambda_in=0.3, levels=5
        )

    def test_non_integral_levels_are_refused(self):
        with pytest.raises(ValueError, match="integer"):
            input_output_fidelity("tmsv", ChannelParams(0.3, 0.35), lambda_in=0.3, levels=5.7)

    def test_sector_list_is_made_on_first_read(self, monkeypatch):
        # the build walks patterns and lists no multiset
        def unlisted(*args):
            raise AssertionError("the build listed the sectors")

        monkeypatch.setattr(nport, "enumerate_multisets", unlisted)
        NPortChannel(ChannelParams(0.5, 0.45, ports=3), 300)

    @pytest.mark.parametrize("ports, cap", [(2, 1000), (3, 200), (3, 300), (4, 30), (5, 8), (6, 4), (7, 3), (7, 5)])
    def test_declared_size_bounds_traced_peak(self, ports, cap):
        # from a cold layout cache, so the kept layout tables count; at (7, 5)
        # keeping every layout would peak at 132 MiB
        nport._LAYOUTS.clear()
        tracemalloc.start()
        try:
            NPortChannel(ChannelParams(0.5, 0.45, ports=ports), cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= nport._build_mb(ports, cap)


@pytest.mark.parametrize("ports", [4, 5, 6])
def test_generic_builds_list_no_slot_sequences(ports):
    # `index` is built on first read, and only the three-port closed forms read it
    nport._LAYOUTS.clear()
    NPortChannel(ChannelParams(0.4, 0.45, ports=ports), 3)
    assert nport._LAYOUTS
    assert not any("index" in vars(arr) for arr, _ in nport._LAYOUTS.values())


def test_only_small_layouts_are_kept_and_read_only():
    # kept for the process: layouts whose sectors share stacked batches
    # (size^2 <= _STACK_ELEMS), so not the all-distinct N = 6 one (720)
    nport._LAYOUTS.clear()
    walked = set()
    for ports, cap in ((6, 5), (7, 3)):
        NPortChannel(ChannelParams(0.4, 0.45, ports=ports), cap)
        walked |= {tuple(layout) for layout, _ in nport._pattern_walk(ports, cap)}  # keys of N - 1 levels
    small = {layout for layout in walked if nport.Arrangements(layout).size ** 2 <= nport._STACK_ELEMS}
    assert (0, 1, 2, 3, 4) in walked - small
    assert set(nport._LAYOUTS) == small
    kept = 0
    for layout, (arr, tables) in nport._LAYOUTS.items():
        assert nport._layout_tables(layout)[0] is arr
        t = arr.gamma_tables
        arrays = [*tables, arr.slot_level, arr.swaps, arr._place, arr.arrangement_of, arr.ptilde, arr.representative, t.root, t.coset, t.elem, t.corners]
        arrays += [a for s in t.groups for a in (s.units, s.q, s.z)]
        assert not any(a.flags.writeable for a in arrays)
        kept += sum(a.nbytes for a in arrays)
    assert kept <= 6 * 2**20  # 5.5 MiB: 2.0 at N = 6, 3.5 at N = 7


@pytest.mark.parametrize("ports", range(2, 10))
def test_largest_layout_is_the_largest_sector(ports):
    # the one largest-layout count that `_build_mb` and the oracle's largest
    # component read: the most arrangements of any multiset of N - 1 levels
    for levels in range(1, 12):
        mults, size = nport._largest_layout(ports, levels)
        sizes = [math.factorial(ports) // math.prod(map(math.factorial, Counter(ms).values()))
                 for ms in itertools.combinations_with_replacement(range(levels), ports - 1)]
        assert size == max(sizes)
        assert sum(mults) == ports - 1 and len(mults) == min(levels, ports - 1)


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

    def test_cap_at_two_ports_is_refused(self):
        # the two-port closed form has no cap, so a given one would be dropped silently
        p = ChannelParams(0.5, 0.5)
        with pytest.raises(ValueError, match="has no cap"):
            apply_state_nport(pure_density(tmsv_ket(1 / 3, Cutoff(6))), p, cap=5)
        with pytest.raises(ValueError, match="has no cap"):
            input_output_fidelity("bell2", p, cap=5)
