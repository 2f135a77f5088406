import math

import numpy as np
import pytest

from cvpbt.bounds import (
    EdrcParams,
    critical_index,
    edrc_apply,
    edrc_diamond_norm,
    lossy_apply,
    lossy_diamond_bound_negative,
    lossy_diamond_bound_positive,
    negative_regime_t_bound,
    resource_fidelity,
    sim_example_bound,
)
from cvpbt.fock import Cutoff, coherent_ket, tmsv_ket, trace_norm
from cvpbt.two_port import ChannelParams, Regime, apply_coherent, omega, regime


class TestLossy:
    def test_identity_and_erasure(self):
        k = coherent_ket(1.3, Cutoff(30))
        out = lossy_apply(1.3, 1.0, Cutoff(30))
        assert np.abs(out.matrix - np.outer(k.amplitudes, k.amplitudes.conj())).max() < 1e-14
        vac = lossy_apply(1.3, 0.0, Cutoff(30))
        assert vac.matrix[0, 0] == pytest.approx(1.0)

    def test_matched_loss_amplitude(self):
        # transmissivity 0.0625 maps alpha = 2 to the coherent state at 0.5
        out = lossy_apply(2.0, 0.0625, Cutoff(30))
        k = coherent_ket(0.5, Cutoff(30))
        assert np.abs(out.matrix - np.outer(k.amplitudes, k.amplitudes.conj())).max() < 1e-13


class TestLossyBoundPositive:
    def test_zero_energy_regression(self):
        # formula-true value at lambda_x = lambda_y = 0.5; see the two-port
        # vacuum-distance regression for the protocol-level confirmation
        val = lossy_diamond_bound_positive(0, ChannelParams(0.5, 0.5))
        assert val == pytest.approx(0.4392523450167, abs=1e-9)

    def test_limit_two(self):
        assert lossy_diamond_bound_positive(1e9, ChannelParams(0.5, 0.5)) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_energy(self):
        p = ChannelParams(0.5, 0.5)
        es = np.linspace(0, 10, 30)
        vals = [lossy_diamond_bound_positive(e, p) for e in es]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_range_invariant(self):
        p = ChannelParams(0.4, 0.6)
        om, _ = omega(p)
        floor = 2 * (1 - p.g * om)
        for e in (0.0, 0.5, 3.0, 50.0):
            v = lossy_diamond_bound_positive(e, p)
            assert floor - 1e-12 <= v <= 2 + 1e-12

    def test_rejects_negative_regime(self):
        p = ChannelParams(0.1, 0.1)
        assert regime(p) is Regime.NEGATIVE
        with pytest.raises(ValueError, match="negative"):
            lossy_diamond_bound_positive(0, p)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_energy(self, energy):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lossy_diamond_bound_positive(energy, ChannelParams(0.5, 0.5))


class TestLossyBoundNegative:
    def test_zero_energy_is_t_at_zero(self):
        p = ChannelParams(0.1, 0.1)
        t0 = negative_regime_t_bound(0.0, p)
        om, _ = omega(p)
        from cvpbt.fock import chi

        om_prime = om - chi(0.1, 0) / math.sqrt(1 - chi(0.1, 0) ** 2)
        assert t0 == pytest.approx(2 * (1 - p.g * om_prime), abs=1e-12)
        assert lossy_diamond_bound_negative(0.0, p) == pytest.approx(t0, abs=1e-9)

    def test_envelope_dominates_pointwise(self):
        p = ChannelParams(0.15, 0.12)
        for e in (0.05, 0.3, 1.7, 6.0):
            env = lossy_diamond_bound_negative(e, p)
            assert env >= negative_regime_t_bound(e, p) - 1e-9

    def test_envelope_equals_t_on_concave_increasing_stretch(self):
        p = ChannelParams(0.1, 0.1)
        e = 0.1
        us = np.linspace(0, e, 200)
        ts = [negative_regime_t_bound(u, p) for u in us]
        assert all(b >= a for a, b in zip(ts, ts[1:]))  # monotone on [0, E]
        chords = np.diff(ts)
        assert all(b <= a + 1e-12 for a, b in zip(chords, chords[1:]))  # concave there
        assert lossy_diamond_bound_negative(e, p) == pytest.approx(
            negative_regime_t_bound(e, p), rel=1e-6
        )

    def test_array_input_matches_pointwise(self):
        p = ChannelParams(0.15, 0.12)
        us = np.array([0.0, 1e-6, 0.05, 0.7, 3.0, 40.0])
        pointwise = [negative_regime_t_bound(u, p) for u in us]
        assert np.allclose(negative_regime_t_bound(us, p), pointwise, rtol=1e-12, atol=0)

    def test_rejects_positive_regime(self):
        with pytest.raises(ValueError, match="positive"):
            lossy_diamond_bound_negative(0, ChannelParams(0.5, 0.5))

    @pytest.mark.parametrize("u", [math.nan, -0.5, math.inf, np.array([0.2, math.nan])])
    def test_t_bound_refuses_u_that_is_no_square_radius(self, u):
        with pytest.raises(ValueError, match="u = r\\^2 must be finite and nonnegative"):
            negative_regime_t_bound(u, ChannelParams(0.1, 0.1))

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_energy(self, energy):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lossy_diamond_bound_negative(energy, ChannelParams(0.1, 0.1))

    def test_split_terms_match_direct_trace_norms(self):
        # the three-contribution split behind T(u): both pieces with closed
        # norms are rebuilt as explicit operators and measured directly
        p = ChannelParams(0.12, 0.1)
        om, _ = omega(p)
        from cvpbt.fock import chi, pure_density

        chi0 = chi(p.lambda_x, 0)
        inv0 = 1 / math.sqrt(1 - chi(p.lambda_y, 0) ** 2)
        d = 45
        for u in (0.3, 1.0, 2.5):
            r = math.sqrt(u)
            damp = math.exp(-u * (1 - p.tau))
            w = damp * p.g * chi0 * inv0
            coh = pure_density(coherent_ket(math.sqrt(p.tau) * r, Cutoff(d))).matrix
            vac = np.zeros((d, d), complex)
            vac[0, 0] = 1
            extra = trace_norm(w * (coh - vac))
            assert extra == pytest.approx(
                2 * w * math.sqrt(1 - math.exp(-u * p.tau)), abs=1e-10
            )
            m = np.arange(d)
            chi_x = (1 - p.lambda_x**2) * p.lambda_x ** (2 * m)
            chi_y = (1 - p.lambda_y**2) * p.lambda_y ** (2 * m)
            diag = chi_x * (1 - damp * p.g / np.sqrt(1 - chi_y**2))
            diag[0] = chi0  # the m = 0 term is carried by the extra piece
            om_prime = om - chi0 * inv0
            assert np.abs(diag).sum() == pytest.approx(
                1 - damp * p.g * om_prime, abs=1e-10
            )

    def test_two_point_mixtures_never_exceed_envelope(self):
        # the envelope is the supremum over mean-constrained radial mixtures
        p = ChannelParams(0.15, 0.12)
        rng = np.random.default_rng(9)
        for energy in (0.4, 2.0):
            env = lossy_diamond_bound_negative(energy, p)
            for _ in range(200):
                u1, u2 = rng.uniform(0, 4 * energy, size=2)
                lo, hi = min(u1, u2), max(u1, u2)
                if hi <= energy:
                    weight = rng.uniform()
                elif lo <= energy:
                    floor = (hi - energy) / (hi - lo)  # least low-point weight with mean <= E
                    weight = floor + rng.uniform() * (1 - floor)
                else:
                    continue
                mixed = weight * negative_regime_t_bound(lo, p) + (1 - weight) * negative_regime_t_bound(hi, p)
                assert mixed <= env + 1e-9


class TestEdrc:
    def test_matched_params(self):
        p = ChannelParams(0.5, 0.5)
        ep = EdrcParams.matched(p)
        om, _ = omega(p)
        assert ep.kappa == pytest.approx(1 - p.tau)
        assert ep.f == pytest.approx(p.g * om)
        assert ep.h == 0.5

    def test_pure_replacement(self):
        ep = EdrcParams(kappa=1.0, f=0.0, tau=0.1, h=0.4)
        out = edrc_apply(1.0, ep, Cutoff(20))
        from cvpbt.fock import thermal_state

        assert np.abs(out.matrix - thermal_state(0.4, Cutoff(20)).matrix).max() < 1e-14

    def test_large_input_replaces(self):
        ep = EdrcParams.matched(ChannelParams(0.5, 0.5))
        out = edrc_apply(60.0, ep, Cutoff(20))
        from cvpbt.fock import thermal_state

        assert np.abs(out.matrix - thermal_state(0.5, Cutoff(20)).matrix).max() < 1e-12

    def test_overflowing_amplitude_is_refused(self):
        ep = EdrcParams.matched(ChannelParams(0.5, 0.5))
        with pytest.raises(ValueError, match="overflows"):
            edrc_apply(1e200, ep, Cutoff(5))

    @pytest.mark.parametrize("kappa, f", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (-1.0, 0.5)])
    def test_non_finite_or_negative_kappa_or_f_is_refused(self, kappa, f):
        with pytest.raises(ValueError, match="kappa and f must be finite and nonnegative"):
            EdrcParams(kappa=kappa, f=f, tau=0.1, h=0.4)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), complex(1, float("inf")), complex(float("nan"), 0)])
    def test_non_finite_amplitude_is_refused(self, alpha):
        ep = EdrcParams.matched(ChannelParams(0.5, 0.5))
        with pytest.raises(ValueError, match="not finite"):
            edrc_apply(alpha, ep, Cutoff(5))

    def test_rejects_superunit_weight(self):
        ep = EdrcParams(kappa=0.0, f=1.5, tau=0.1, h=0.1)
        with pytest.raises(ValueError):
            edrc_apply(0.0, ep, Cutoff(10))

    def test_difference_from_channel_is_diagonal(self):
        p = ChannelParams(0.5, 0.5)
        ep = EdrcParams.matched(p)
        d = 30
        delta = apply_coherent(0, p, Cutoff(d)).matrix - edrc_apply(0, ep, Cutoff(d)).matrix
        off = delta - np.diag(np.diag(delta))
        assert np.abs(off).max() < 1e-14


class TestEdrcDiamond:
    def test_critical_index_terminates(self):
        for lx, ly in [(0.3, 0.3), (0.5, 0.5), (0.7, 0.6), (0.2, 0.9)]:
            m_c = critical_index(ChannelParams(lx, ly))
            assert m_c >= -1

    def test_strong_measurement_vanishes(self):
        val = edrc_diamond_norm(ChannelParams(0.5, 0.9999))
        assert val == pytest.approx(0.0, abs=1e-3)

    def test_nonnegative(self):
        for lx, ly in [(0.4, 0.5), (0.5, 0.5), (0.7, 0.8)]:
            assert edrc_diamond_norm(ChannelParams(lx, ly)) >= 0

    def test_exactness_against_direct_trace_norm(self):
        # alpha = 0 maximizes the diagonal difference, so the closed sum must
        # equal the directly computed trace norm there; at lambda_x = 0 no level
        # qualifies (m_c = -1) and the sum is empty
        for lx, ly in [(0.5, 0.5), (0.3, 0.6), (0.6, 0.75), (0.0, 0.75)]:
            p = ChannelParams(lx, ly)
            ep = EdrcParams.matched(p)
            d = 60
            delta = apply_coherent(0, p, Cutoff(d)).matrix - edrc_apply(0, ep, Cutoff(d)).matrix
            assert edrc_diamond_norm(p) == pytest.approx(trace_norm(delta), abs=1e-10)

    def test_dominates_coherent_differences(self):
        p = ChannelParams(0.5, 0.5)
        ep = EdrcParams.matched(p)
        dn = edrc_diamond_norm(p)
        for alpha in (0.0, 0.4, 1.0, 2.0):
            d = 45
            delta = apply_coherent(alpha, p, Cutoff(d)).matrix - edrc_apply(alpha, ep, Cutoff(d)).matrix
            assert trace_norm(delta) <= dn + 1e-10


class TestResourceFidelity:
    def test_equal_parameters(self):
        assert resource_fidelity(0.4, 0.4, 3) == pytest.approx(1.0)

    def test_single_pair_against_numeric_overlap(self):
        l1, l2, d = 0.35, 0.55, 60
        k1, k2 = tmsv_ket(l1, Cutoff(d)), tmsv_ket(l2, Cutoff(d))
        overlap = abs(np.vdot(k1.amplitudes, k2.amplitudes)) ** 2
        assert resource_fidelity(l1, l2, 1) == pytest.approx(overlap, abs=1e-10)

    def test_tensor_multiplicativity(self):
        one = resource_fidelity(0.3, 0.5, 1)
        assert resource_fidelity(0.3, 0.5, 2) == pytest.approx(one**2, abs=1e-14)


class TestSimExampleBound:
    def test_zero_delta(self):
        base = ChannelParams(2**-0.25, 2**-0.25)
        assert sim_example_bound(0.0) == pytest.approx(2 * edrc_diamond_norm(base), abs=1e-12)

    def test_nonnegative_and_fidelity_term_grows(self):
        vals = [sim_example_bound(d) for d in np.linspace(0, 0.2, 9)]
        assert all(v >= 0 for v in vals)
        lam = 2**-0.25
        fid_terms = [
            2 * math.sqrt(1 - resource_fidelity(lam + d / 2, lam - d / 2, 2))
            for d in np.linspace(0, 0.2, 9)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(fid_terms, fid_terms[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sim_example_bound(0.9)
