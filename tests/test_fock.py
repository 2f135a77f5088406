import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpbt.fock import (
    Cutoff,
    DensityOperator,
    FockOperator,
    adaptive_cutoff,
    as_cutoff,
    chi,
    coherent_cutoff,
    coherent_ket,
    fidelity,
    mean_photon_number,
    number_ket,
    partial_trace,
    pure_density,
    thermal_state,
    tmsv_ket,
    trace_norm,
)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityOperator(FockOperator(m, 1, Cutoff(d)))


class TestChi:
    def test_vacuum_weight(self):
        assert chi(0, 0) == 1.0

    def test_direct_value(self):
        assert chi(0.5, 2) == pytest.approx(0.75 * 0.0625, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi(1.0, 0)
        with pytest.raises(ValueError):
            chi(-0.1, 0)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9])
    def test_truncated_sum_is_exact_geometric(self, lam):
        # sum_{r<D} chi = 1 - lam^(2D), closed form, to near machine precision
        for d in (5, 20, 60):
            total = sum(chi(lam, r) for r in range(d))
            assert total == pytest.approx(1 - lam ** (2 * d), abs=1e-14)


class TestCutoffs:
    def test_cutoff_invariant(self):
        with pytest.raises(ValueError):
            Cutoff(1)

    @pytest.mark.parametrize("levels", [2.9, "12", 5.0])
    def test_non_integral_cutoff_is_refused(self, levels):
        with pytest.raises(ValueError, match="integer"):
            as_cutoff(levels)

    def test_numpy_integer_cutoff_is_kept_as_an_int(self):
        cutoff = as_cutoff(np.int64(5))
        assert cutoff == Cutoff(5) and type(cutoff.levels) is int

    def test_adaptive_geometric(self):
        c = adaptive_cutoff(0.5, 1e-12)
        assert 0.5 ** (2 * c.levels) < 1e-12
        assert 0.5 ** (2 * (c.levels - 1)) >= 1e-12

    def test_adaptive_coherent(self):
        c = coherent_cutoff(2.0, 1e-10)
        k = coherent_ket(2.0, c)
        assert 1 - k.norm() ** 2 < 1e-10

    def test_coherent_underflow_fails_loudly(self):
        # exp(-1600) underflows, so the Poisson sum could never reach tol
        with pytest.raises(ValueError, match="underflows"):
            coherent_cutoff(40.0)

    def test_coherent_tol_below_float_resolution_fails_loudly(self):
        with pytest.raises(ValueError, match="double precision"):
            coherent_cutoff(2.0, 1e-20)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), complex(1, float("inf")), complex(float("nan"), 0)])
    def test_coherent_non_finite_amplitude_is_refused(self, alpha):
        with pytest.raises(ValueError, match="not finite"):
            coherent_cutoff(alpha)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-6])
    def test_coherent_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            coherent_cutoff(2.0, tol)


class TestStates:
    def test_coherent_vacuum(self):
        k = coherent_ket(0, Cutoff(5))
        assert k.amplitudes[0] == 1.0
        assert np.all(k.amplitudes[1:] == 0)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308), 10**400])
    def test_coherent_overflowing_amplitude_is_refused(self, alpha):
        with pytest.raises(ValueError, match="overflows"):
            coherent_ket(alpha, Cutoff(5))

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), complex(1, float("inf")), complex(float("nan"), 0)])
    def test_coherent_non_finite_amplitude_is_refused(self, alpha):
        with pytest.raises(ValueError, match="not finite"):
            coherent_ket(alpha, Cutoff(5))

    def test_coherent_norm_and_amplitude(self):
        k = coherent_ket(1.0, Cutoff(30))
        assert k.norm() ** 2 == pytest.approx(1.0, abs=1e-12)
        assert k.amplitudes[2] == pytest.approx(math.exp(-0.5) / math.sqrt(2), abs=1e-15)

    def test_tmsv_zero_squeezing(self):
        k = tmsv_ket(0, Cutoff(4))
        assert k.amplitudes[0] == 1.0
        assert np.count_nonzero(k.amplitudes) == 1

    def test_tmsv_norm_tail(self):
        for lam, d in [(0.5, 10), (0.8, 25)]:
            k = tmsv_ket(lam, Cutoff(d))
            assert k.norm() ** 2 == pytest.approx(1 - lam ** (2 * d), abs=1e-13)

    def test_tmsv_overlap_closed_form(self):
        # numeric inner product vs geometric sum, deep cutoff
        l1, l2, d = 0.4, 0.65, 60
        k1, k2 = tmsv_ket(l1, Cutoff(d)), tmsv_ket(l2, Cutoff(d))
        overlap = np.vdot(k1.amplitudes, k2.amplitudes)
        expected = math.sqrt((1 - l1**2) * (1 - l2**2)) / (1 - l1 * l2)
        assert overlap.real == pytest.approx(expected, abs=1e-12)
        assert overlap.imag == 0

    def test_thermal_basics(self):
        th = thermal_state(0, Cutoff(4))
        assert th.matrix[0, 0] == 1.0
        th = thermal_state(0.5, Cutoff(40))
        assert th.trace() == pytest.approx(1 - 0.5**80, abs=1e-15)
        assert mean_photon_number(th) == pytest.approx(0.25 / 0.75, abs=1e-12)

    def test_squeezing_domain_errors(self):
        for bad in (-0.2, 1.0, 1.3):
            with pytest.raises(ValueError):
                tmsv_ket(bad, Cutoff(4))
            with pytest.raises(ValueError):
                thermal_state(bad, Cutoff(4))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(7)) == pytest.approx(7.0, abs=1e-12)

    def test_two_projectors(self):
        d = 5
        m = np.zeros((d, d))
        m[0, 0], m[1, 1] = 1.0, -1.0
        assert trace_norm(m) == pytest.approx(2.0, abs=1e-12)

    def test_pure_state_distance_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            w = rng.normal(size=6) + 1j * rng.normal(size=6)
            v /= np.linalg.norm(v)
            w /= np.linalg.norm(w)
            c = np.vdot(v, w)
            tn = trace_norm(np.outer(v, v.conj()) - np.outer(w, w.conj()))
            assert tn == pytest.approx(2 * math.sqrt(1 - abs(c) ** 2), abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            trace_norm(np.array([[np.nan, 0], [0, 1.0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_norm_axioms(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = rng.normal()
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert trace_norm(s * a) == pytest.approx(abs(s) * trace_norm(a), abs=1e-10)


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density(np.random.default_rng(0), 6)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_reduction(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        rho = DensityOperator(FockOperator(np.outer(v, v.conj()), 1, Cutoff(5)))
        sig = DensityOperator(FockOperator(np.outer(w, w.conj()), 1, Cutoff(5)))
        assert fidelity(rho, sig) == pytest.approx(abs(np.vdot(v, w)) ** 2, abs=1e-10)

    def test_thermal_diagonal_oracle(self):
        # diagonal states: F = (sum_i sqrt(p_i q_i))^2
        d = 50
        r, s = thermal_state(0.3, Cutoff(d)), thermal_state(0.5, Cutoff(d))
        p, q = np.diag(r.matrix).real, np.diag(s.matrix).real
        expected = float(np.sqrt(p * q).sum() ** 2)
        assert fidelity(r, s) == pytest.approx(expected, abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        a, b = random_density(rng, 7), random_density(rng, 7)
        f1, f2 = fidelity(a, b), fidelity(b, a)
        assert abs(f1 - f2) < 1e-9
        assert -1e-9 <= f1 <= 1 + 1e-9

    def test_rejects_indefinite(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        bad = DensityOperator(FockOperator(m, 1, Cutoff(2)))
        good = thermal_state(0.1, Cutoff(2))
        with pytest.raises(ValueError):
            fidelity(bad, good)

    def test_monotone_under_partial_trace(self):
        rng = np.random.default_rng(5)
        d = 3
        for _ in range(5):
            a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            b = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            rho = a @ a.conj().T
            sig = b @ b.conj().T
            rho /= np.trace(rho).real
            sig /= np.trace(sig).real
            rho2 = DensityOperator(FockOperator(rho, 2, Cutoff(d)))
            sig2 = DensityOperator(FockOperator(sig, 2, Cutoff(d)))
            r1 = DensityOperator(partial_trace(rho2.op, [0]))
            s1 = DensityOperator(partial_trace(sig2.op, [0]))
            assert fidelity(rho2, sig2) <= fidelity(r1, s1) + 1e-9


class TestStructure:
    def test_mean_photon_coherent(self):
        rho = pure_density(coherent_ket(1.3, Cutoff(40)))
        assert mean_photon_number(rho) == pytest.approx(1.3**2, abs=1e-10)

    def test_mean_photon_vacuum(self):
        assert mean_photon_number(pure_density(number_ket(0, Cutoff(4)))) == 0.0

    def test_partial_trace_of_tmsv(self):
        lam, d = 0.6, 20
        rho = pure_density(tmsv_ket(lam, Cutoff(d)))
        reduced = partial_trace(rho.op, [0])
        th = thermal_state(lam, Cutoff(d))
        assert np.abs(reduced.matrix - th.matrix).max() < 1e-14

    def test_constructors_are_bitwise_deterministic(self):
        a = coherent_ket(1.1 + 0.3j, Cutoff(25)).amplitudes.tobytes()
        b = coherent_ket(1.1 + 0.3j, Cutoff(25)).amplitudes.tobytes()
        assert a == b
        x = thermal_state(0.7, Cutoff(25)).matrix.tobytes()
        y = thermal_state(0.7, Cutoff(25)).matrix.tobytes()
        assert x == y
